"""The benchmark under perfbench/ times the package by wrapping the
functions that perfbench/spans.py names and by patching the study's
module-level bindings, and it builds its inputs with the package's config
classes.  A refactor that drops one of those names makes the benchmark
lose a span, or makes the snr_sweep study record no operations so that
every planned one counts as failed; one that drops a config field makes
every operation raise; one that drops a field of the solve result makes
the traced run's certificate fail every solve; one that renames a
diagnostics key the benchmark judges an estimate by makes every wgs
operation fail.  These tests read
spans.py, workloads.py and run.py as text, without importing or changing
them, and parse solver.py, baselines.py and recovery.py for the calls
the projection and stage spans wrap."""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import wbdoa.baselines
import wbdoa.bench
import wbdoa.focusing
import wbdoa.model
import wbdoa.recovery
import wbdoa.solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"
RUN = PERFBENCH / "run.py"
SOLVER = Path(wbdoa.solver.__file__)
CONFIG_CLASSES = {
    "ExperimentConfig": wbdoa.bench.ExperimentConfig,
    "RecoveryConfig": wbdoa.recovery.RecoveryConfig,
    "ArrayConfig": wbdoa.model.ArrayConfig,
    "WidebandScene": wbdoa.model.WidebandScene,
    "SubbandData": wbdoa.model.SubbandData,
}
# targets whose function was removed before this guard existed; the
# benchmark reports each as an absent span
KNOWN_ABSENT = {("wbdoa.atoms", "assemble_dual_sdp")}


def _targets():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_span_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for span, module, path in targets:
        if (module, path) in KNOWN_ABSENT:
            continue
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{span}: {module}.{path}")
    assert missing == []


def test_study_bindings_are_patchable():
    assert wbdoa.bench.estimate_doa is wbdoa.recovery.estimate_doa
    assert wbdoa.bench.rss_estimate is wbdoa.baselines.rss_estimate


def test_workload_config_keywords_are_fields():
    # a workload's solver_config={...} dict reaches SolverConfig(**...)
    solver_fields = {f.name for f in dataclasses.fields(wbdoa.solver.SolverConfig)}
    seen, solver_dicts, unknown = set(), 0, []
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg == "solver_config" and isinstance(kw.value, ast.Dict):
                solver_dicts += 1
                unknown += [f"solver_config key {key!r} at line {node.lineno}"
                            for key in map(ast.literal_eval, kw.value.keys)
                            if key not in solver_fields]
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name not in CONFIG_CLASSES:
            continue
        seen.add(name)
        fields = {f.name for f in dataclasses.fields(CONFIG_CLASSES[name])}
        unknown += [f"{name}({kw.arg}=...) at line {node.lineno}"
                    for kw in node.keywords if kw.arg is not None and kw.arg not in fields]
    assert seen and solver_dicts
    assert unknown == []


def test_solve_result_has_what_the_traced_run_reads():
    # the traced run sums iterations and status over every solve result and
    # checks the certificate on its H, Hbar and Q
    read = set()
    for node in ast.walk(ast.parse(RUN.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "solution"):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    wanted = {"H", "Hbar", "Q", "iterations", "status"}
    assert wanted <= read
    assert wanted <= {f.name for f in dataclasses.fields(wbdoa.solver.ConicSolution)}


def test_estimate_diagnostics_have_what_judge_wgs_reads():
    # judge_wgs fails an operation on a missing solverStatus ("solver status
    # None") and raises on a missing dualObjective
    tree = ast.parse(WORKLOADS.read_text())
    judge = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "judge_wgs")
    read = set()
    for node in ast.walk(judge):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "diag" and isinstance(node.slice, ast.Constant)):
            read.add(node.slice.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "diag" and isinstance(node.args[0], ast.Constant)):
            read.add(node.args[0].value)
    assert {"solverStatus", "solverIterations", "dualObjective"} <= read
    cfg = wbdoa.model.ArrayConfig(M=8, c=1500.0, omega1=2 * np.pi * 1000)
    foc = wbdoa.focusing.FocusingSet.build(wbdoa.bench.default_alphas(4), cfg.M)
    scene = wbdoa.bench.random_scene((10.0,), foc, None, 0)
    data = wbdoa.model.synthesize_scene(cfg, scene, foc)
    gamma = max(wbdoa.focusing.gamma_oracle(data.Y, cfg, scene, foc), 1e-10)
    est = wbdoa.recovery.estimate_doa(data, gamma, foc)
    assert read <= est.diagnostics.keys()


def _global_calls(path, function):
    """(names called bare, names bound locally) in a module-level function."""
    tree = ast.parse(Path(path).read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    called, bound = set(), set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(node.func.id)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
    return called, bound


def test_solve_calls_the_projections_through_module_globals():
    # the psd_project and affine_project spans patch the module attributes,
    # so they see a call from solve only through the bare global name
    called, bound = _global_calls(SOLVER, "solve")
    assert {"psd_project", "affine_project"} <= called
    assert not {"psd_project", "affine_project"} & bound


@pytest.mark.parametrize("module, caller, callee", [
    (wbdoa.baselines, "rss_estimate", "music_spectrum"),
    (wbdoa.recovery, "estimate_doa", "locate_frequencies"),
], ids=["music_spectrum", "locate_frequencies"])
def test_stage_calls_go_through_module_globals(module, caller, callee):
    # the baselines.music_spectrum and recovery.locate_frequencies spans read
    # 0 unless the caller reaches the callee through its module attribute
    called, bound = _global_calls(module.__file__, caller)
    assert callee in called
    assert callee not in bound
