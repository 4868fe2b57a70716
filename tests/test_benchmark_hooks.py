"""The benchmark under perfbench/ times the package by wrapping the
functions that perfbench/spans.py names and by patching the study's
module-level bindings, and it builds its inputs with the package's config
classes.  A refactor that drops one of those names makes the benchmark
lose a span, or makes the snr_sweep study record no operations so that
every planned one counts as failed; one that drops a config field makes
every operation raise.  These tests read spans.py and workloads.py as
text, without importing or changing them."""

import ast
import dataclasses
import importlib
from pathlib import Path

import wbdoa.baselines
import wbdoa.bench
import wbdoa.model
import wbdoa.recovery

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"
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
    seen, unknown = set(), []
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name not in CONFIG_CLASSES:
            continue
        seen.add(name)
        fields = {f.name for f in dataclasses.fields(CONFIG_CLASSES[name])}
        unknown += [f"{name}({kw.arg}=...) at line {node.lineno}"
                    for kw in node.keywords if kw.arg is not None and kw.arg not in fields]
    assert seen
    assert unknown == []
