"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench
"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import spans
import workloads

import wbdoa


def small_noiseless(scenes=1, solver_config=None):
    return workloads.SceneWorkload(M=16, J=10, scenes=scenes,
                                   rmse_ceiling_deg=0.25, solver_config=solver_config)


def fake_estimate(status="Optimal", dual=1.0, thetas=workloads.ANGLES):
    return SimpleNamespace(
        thetas=np.asarray(thetas, float), betas=np.ones(len(thetas)),
        diagnostics={"solverStatus": status, "dualObjective": dual, "solverIterations": 7})


def wgs_ops(*shifts):
    truth = np.array(workloads.ANGLES)
    return [workloads.Op("wgs", 0.1, thetas=truth + shift) for shift in shifts]


def test_shifted_angle_set_is_rejected():
    assert workloads.accuracy_problems(wgs_ops(0.0, 0.01, -0.02), 0.1) == []
    assert workloads.accuracy_problems(wgs_ops(1.0, 1.0, 1.0), 0.1)


def test_one_gross_miss_does_not_reject_a_round():
    miss = np.array([0.0, 0.0, -4.5])
    ops = wgs_ops(0.0, 0.01, -0.02, miss)
    assert workloads.accuracy_problems(ops, 0.1) == []
    assert workloads.pooled_wgs_rmse(ops) > 1.0


def study_ops(wgs_shift, rss_shift, outlier=None):
    truth = np.array(workloads.ANGLES)
    ops = [workloads.Op("wgs", 0.1, thetas=truth + wgs_shift) for _ in range(5)]
    if outlier is not None:
        ops.append(workloads.Op("wgs", 0.1, thetas=truth + outlier))
    return ops + [workloads.Op("rss", 0.1, thetas=truth + rss_shift) for _ in range(5)]


def study_table(ops, points=5):
    row = {"method": "wgs", "rmse_deg": workloads.pooled_wgs_rmse(ops), "trials": 2,
           "fail_rate": 0.0}
    return SimpleNamespace(rows=[row] * points)


def test_study_ordering_survives_one_gross_miss_and_rejects_a_worse_method():
    study = workloads.StudyWorkload(trials=1)
    ops = study_ops(0.1, 1.0, outlier=np.array([0.0, 0.0, -24.0]))
    assert study.study_problems(ops, study_table(ops)) == []
    ops = study_ops(1.5, 1.0)
    problems = study.study_problems(ops, study_table(ops))
    assert any("not below rss" in p for p in problems)
    assert any("above ceiling" in p for p in problems)
    bad_table = SimpleNamespace(
        rows=[{"method": "wgs", "rmse_deg": 0.5, "trials": 2, "fail_rate": 0.0}] * 5)
    assert any("disagrees" in p for p in study.study_problems(study_ops(0.1, 1.0), bad_table))


def test_a_missing_source_is_a_miss_not_a_failure():
    two = fake_estimate(thetas=(-5.0, 15.0))
    assert workloads.judge_wgs(two, weight=2.0)[0] is None
    assert workloads.judge_wgs(fake_estimate(thetas=()))[0] == "no source found"
    ops = wgs_ops(0.0, 0.0) + [workloads.Op("wgs", 0.1, thetas=np.array([-5.0, 15.0]))] * 3
    assert workloads.median_trial_rmse(ops) == np.inf
    assert workloads.accuracy_problems(ops, 0.1)


def test_dual_objective_above_planted_weight_is_rejected():
    assert workloads.judge_wgs(fake_estimate(dual=0.99), weight=1.0)[0] is None
    failure, _, _ = workloads.judge_wgs(fake_estimate(dual=1.01), weight=1.0)
    assert failure.startswith("dual objective")


def test_non_optimal_status_counts_as_failed():
    assert workloads.judge_wgs(fake_estimate(status="MaxIter"))[0] == "solver status MaxIter"
    # a real exhausted budget: the package still returns an estimate
    workload = small_noiseless(scenes=2, solver_config={"max_iter": 50})
    state = workload.prepare(seed=0)
    round_ = workload.run_round(state, rebuild=True)
    assert round_.planned == 2 and round_.failed == 2
    assert all(op.failure == "solver status MaxIter" for op in round_.ops)


def test_planted_scene_obeys_weak_duality_and_accuracy():
    workload = small_noiseless(scenes=1)
    round_ = workload.run_round(workload.prepare(seed=3), rebuild=True)
    assert round_.failed == 0 and round_.problems == []


def test_certificate_accepts_a_solve_and_rejects_tampering():
    tracer = spans.Tracer()
    workload = small_noiseless()
    with tracer.installed():
        workload.run_round(workload.prepare(seed=1), rebuild=True)
    (_, sol), = tracer.solves
    alphas = workload.alphas
    assert checks.solve_certificate(sol.H, sol.Hbar, sol.Q, alphas) == []
    Q = sol.Q.copy()
    Q[0, 1] += 1e-3
    assert any("trace sums" in b for b in checks.solve_certificate(sol.H, sol.Hbar, Q, alphas))
    Hbar = sol.Hbar * 1.5
    bad = checks.solve_certificate(sol.H, Hbar, sol.Q, alphas)
    assert any("T_j^T H" in b for b in bad)
    assert any("eigenvalue" in b or "peaks" in b for b in bad)


def test_matching_prefers_the_best_assignment():
    errs = checks.matched_errors([40.1, -5.2, 15.0, 60.0], workloads.ANGLES)
    assert errs == pytest.approx([0.2, 0.0, 0.1])
    assert checks.matched_errors([1.0], workloads.ANGLES) is None


def test_every_declared_metric_is_emitted_with_its_unit():
    end_to_end = run.declared_units("end_to_end")
    per_layer = run.declared_units("per_layer")
    workload = small_noiseless()
    state = workload.prepare(seed=2)
    workload.build_inputs(state)
    rounds, phase_s = run.timed_run(workload, state, seconds=0.0)
    e2e = run.with_units(run.end_to_end_metrics(rounds, phase_s, [1.0, 2.0, 3.0]), end_to_end)
    rounds, layers, span_log, absent = run.traced_run(workload, state, seconds=0.0)
    layers = run.with_units(layers, per_layer)
    for declared_units, emitted in ((end_to_end, e2e), (per_layer, layers)):
        assert set(emitted) == set(declared_units)
        for name, metric in emitted.items():
            assert metric["unit"] == declared_units[name]
            assert np.isfinite(metric["value"])
    assert e2e["setup_s"]["value"] == 2.0
    assert layers["solver.iterations"]["value"] > 0
    assert layers["trace.absent_spans"]["value"] == 0 and absent == []
    assert span_log and all(row[3] is not None for row in span_log[0]
                            if row[1].startswith("solver."))


def test_emitting_requires_exactly_the_declared_metrics():
    with pytest.raises(RuntimeError):
        run.with_units({"setup_s": 1.0}, {"setup_s": "s", "estimates_per_s": "1/s"})


def package_bindings():
    """Identity of every attribute of every wbdoa module and class."""
    seen = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "wbdoa" or name.startswith("wbdoa.")):
            continue
        for key, value in vars(mod).items():
            seen[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("wbdoa"):
                for attr, raw in vars(value).items():
                    seen[(name, key, attr)] = id(raw)
    return seen


def test_tracing_leaves_the_package_as_found():
    before = package_bindings()
    originals = (wbdoa.recovery.solve, wbdoa.solver.solve, wbdoa.bench.estimate_doa)
    tracer = spans.Tracer()
    with tracer.installed():
        assert wbdoa.recovery.solve is not originals[0]
        assert wbdoa.recovery.solve is wbdoa.solver.solve
        assert wbdoa.bench.estimate_doa.__wrapped__ is originals[2]
    assert package_bindings() == before
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            1 / 0
    assert package_bindings() == before
    assert (wbdoa.recovery.solve, wbdoa.solver.solve, wbdoa.bench.estimate_doa) == originals


def test_missing_names_are_absent_spans_not_errors():
    targets = spans.TARGETS + (
        ("atoms.gone", "wbdoa.atoms", "SdpProgramThatWasMerged"),
        ("atoms.gone_method", "wbdoa.atoms", "NoSuchClass.method"),
        ("other.gone", "wbdoa.no_such_module", "anything"),
    )
    tracer = spans.Tracer(targets=targets)
    before = package_bindings()
    with tracer.installed():
        pass
    assert tracer.absent == ["atoms.gone", "atoms.gone_method", "other.gone"]
    assert package_bindings() == before


def test_self_times_account_for_the_span_tree():
    tracer = spans.Tracer(targets=(("outer", "wbdoa.baselines", "rss_focusing_matrices"),
                                   ("inner", "wbdoa.model", "steering_matrix")))
    with tracer.installed():
        wbdoa.baselines.rss_focusing_matrices(8, [1.0, 0.9], [10.0, 20.0])
    outer, *inner = tracer.spans
    assert outer.name == "outer" and len(inner) == 3
    assert all(s.name == "inner" and s.parent == outer.id for s in inner)
    summary = spans.summarize(tracer.spans)
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(spans.top_level_seconds(tracer.spans))
