"""Benchmark of the wbdoa package: one seeded workload per run.

    python3 perfbench/run.py --workload noiseless --seed 1 --seconds 25 --trace 0

It imports the package from ``src/`` of the checkout it sits in, times its
public calls from outside, checks the outputs, writes a result file under
``.perfbench_out/`` and prints one JSON line last: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer split from a traced run.
"""

import time

START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 2  # extra set-ups in fresh processes, for the median
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LAYERS = ("model", "focusing", "atoms", "solver", "recovery", "baselines", "bench")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("snr_sweep", "noiseless", "large_array"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def keep_going(elapsed, per_round, seconds) -> bool:
    """Start another whole round only if it should end within the run."""
    return elapsed + per_round <= seconds


def wgs_latencies(rounds) -> list:
    return [op.seconds for r in rounds for op in r.ops
            if op.kind == "wgs" and op.failure is None]


def end_to_end_metrics(rounds, phase_s, setup_samples) -> dict:
    """Set-up median, throughput and mean wgs latency.

    The latency is a mean, not a median: solver iteration counts come in
    steps of 25, and on snr_sweep the median fell between the 175- and
    200-iteration groups from one seed to the next, so its quartile spread
    over ten seeds was 0.17 of the median against 0.10 for throughput."""
    done = sum(op.failure is None for r in rounds for op in r.ops)
    wgs = wgs_latencies(rounds)
    return {
        "setup_s": statistics.median(setup_samples),
        "estimates_per_s": done / phase_s,
        "wgs_latency_mean_s": statistics.fmean(wgs) if wgs else float("nan"),
    }


def layer_metrics(summary, wall, untraced_wall, solves, rmse, absent) -> dict:
    """Per-layer figures of one traced round.

    ``_s`` figures are seconds per round, ``_us`` microseconds per call,
    ``_share`` a share of the traced round's wall time."""

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def per_call_us(name):
        row = summary.get(name)
        return 1e6 * row["total_s"] / row["calls"] if row else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, row in summary.items():
        layer_self[spans.layer_of(name)] += row["self_s"]
    iterations = sum(int(getattr(s, "iterations", 0)) for _, s in solves)
    ops_time = total("recovery.estimate") + total("baselines.rss_estimate")
    out = {
        "solver.solve_s": total("solver.solve"),
        "solver.iterations": iterations,
        "solver.iteration_us": 1e6 * total("solver.solve") / iterations if iterations else 0.0,
        "solver.psd_project_us": per_call_us("solver.psd_project"),
        "solver.affine_project_us": per_call_us("solver.affine_project"),
        "solver.loop_self_s": summary.get("solver.solve", {}).get("self_s", 0.0),
        "solver.non_optimal": sum(int(getattr(s, "status", None) != "Optimal") for _, s in solves),
        "recovery.locate_frequencies_s": total("recovery.locate_frequencies"),
        "recovery.recover_amplitudes_s": total("recovery.recover_amplitudes"),
        "recovery.estimate_self_s": summary.get("recovery.estimate", {}).get("self_s", 0.0),
        "recovery.wgs_rmse_deg": rmse,
        "atoms.assemble_s": total("atoms.problem") + total("atoms.assemble"),
        "baselines.rss_estimate_share": total("baselines.rss_estimate") / wall,
        "baselines.music_spectrum_share": total("baselines.music_spectrum") / wall,
        "baselines.focusing_share": total("baselines.focusing") / wall,
        "focusing.build_s": total("focusing.build"),
        "focusing.gamma_s": total("focusing.gamma"),
        "model.synthesize_s": total("model.synthesize"),
        "bench.study_share": total("bench.study") / wall,
        "bench.orchestration_share": max(total("bench.study") - ops_time, 0.0) / wall,
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / wall
    out["harness.self_share"] = 1.0 - sum(layer_self.values()) / wall
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - untraced_wall
    out["trace.absent_spans"] = len(absent)
    return out


def timed_run(workload, state, seconds):
    rounds, times = [], []
    t_phase = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(workload.run_round(state))
        times.append(time.perf_counter() - t0)
        if not keep_going(time.perf_counter() - t_phase, statistics.mean(times), seconds):
            break
    return rounds, sum(times)


def traced_run(workload, state, seconds):
    """Pairs of an untraced and a traced round of the same operations, with
    input generation inside the round; the solve certificate is checked on
    every traced solve after its round."""
    tracer = spans.Tracer()
    rounds, per_layer, span_log, times = [], [], [], []
    t_phase = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(workload.run_round(state, rebuild=True))
        untraced = time.perf_counter() - t0
        tracer.reset()
        with tracer.installed():
            t1 = time.perf_counter()
            traced_round = workload.run_round(state, rebuild=True)
            wall = time.perf_counter() - t1
        rounds.append(traced_round)
        certify(traced_round, tracer, workload.alphas)
        per_layer.append(layer_metrics(spans.summarize(tracer.spans), wall, untraced,
                                       tracer.solves, traced_round.wgs_rmse_deg,
                                       tracer.absent))
        span_log.append([[s.id, s.name, s.parent, s.op, s.start - t1, s.end - t1]
                         for s in tracer.spans])
        times.append(time.perf_counter() - t0)
        if not keep_going(time.perf_counter() - t_phase, statistics.mean(times), seconds):
            break
    metrics = {name: statistics.median(m[name] for m in per_layer) for name in per_layer[0]}
    return rounds, metrics, span_log, tracer.absent


def certify(round_, tracer, alphas):
    """Fail the operation a solve belongs to when its certificate is violated."""
    op_ids = sorted({s.op for s in tracer.spans if s.name in spans.OPERATION_SPANS})
    for op_id, solution in tracer.solves:
        try:
            bad = checks.solve_certificate(solution.H, solution.Hbar, solution.Q, alphas)
        except AttributeError as exc:  # the solution type changed shape
            bad = [f"solve result unreadable: {exc}"]
        if not bad:
            continue
        if op_id in op_ids:
            op = round_.ops[op_ids.index(op_id)]
            op.failure = op.failure or "certificate: " + "; ".join(bad)
        else:
            round_.problems.append("certificate of an unattributed solve: " + "; ".join(bad))


def setup_samples(args, own):
    """The run's own set-up time plus SETUP_PROBES fresh processes'."""
    samples = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def declared_units(section):
    """Metric name -> unit of one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def with_units(metrics, units):
    missing = sorted(set(metrics) ^ set(units))
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {missing}")
    return {name: {"value": v if isinstance(v, int) else float(v), "unit": units[name]}
            for name, v in metrics.items()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wbdoa", "__init__.py")):
        print(f"no wbdoa package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    import wbdoa

    if not os.path.abspath(wbdoa.__file__).startswith(SRC + os.sep):
        print(f"imported wbdoa from {wbdoa.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload)
    state = workload.prepare(args.seed)
    workload.warm_up(state)
    own_setup = time.perf_counter() - START
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    if args.trace:
        rounds, metrics, span_log, absent = traced_run(workload, state, args.seconds)
        metrics = with_units(metrics, declared_units("per_layer"))
    else:
        rounds, phase_s = timed_run(workload, state, args.seconds)
        samples = setup_samples(args, own_setup)
        metrics = end_to_end_metrics(rounds, phase_s, samples)
        metrics = with_units(metrics, declared_units("end_to_end"))
        span_log, absent = None, []
    problems = [p for r in rounds for p in r.problems]
    attempted = sum(r.planned for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "result": result,
        "rounds": len(rounds), "problems": problems, "absent_spans": absent,
        "failures": [op.failure for r in rounds for op in r.ops if op.failure],
        "operations": [[op.kind, op.seconds, op.iterations] for r in rounds for op in r.ops],
        "wgs_rmse_deg_per_round": [r.wgs_rmse_deg for r in rounds],
    }
    if not args.trace:
        record["setup_samples_s"] = samples
        wgs = wgs_latencies(rounds)
        record["wgs_latency_p50_s"] = statistics.median(wgs) if wgs else None
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if span_log is not None:
        with open(os.path.join(OUT, stem + "-spans.json"), "w") as fh:
            json.dump({"columns": ["id", "name", "parent", "op", "start_s", "end_s"],
                       "rounds": span_log}, fh)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
