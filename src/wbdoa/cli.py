"""Command-line interface: simulate scenes, estimate DOAs, run benchmarks,
and render reports.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench
from .bench import ExperimentConfig, ResultTable, default_alphas, emit_report
from .focusing import FocusingSet, gamma_bound
from .model import (ArrayConfig, SubbandData, WidebandScene, subband_template,
                    synthesize_scene)
from .recovery import RecoveryConfig, estimate_doa
from .solver import SolverConfig


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}")


class UsageError(Exception):
    pass


def _scene_from_doc(doc):
    """Build (array, scene, synthesized measurements, focusing) from a scene JSON.

    Schema: {"array": {"M", "c", "omega1"},
             "subbands": {"alphas": [...]} or {"J": n},
             "scene": {"angles_deg": [...], "seed": int,
                       "snr_db": x or null | "noise_variance": x,
                       "spectra": optional [[re, im], ...] K x J pairs}}
    """
    try:
        arr = doc["array"]
        array = ArrayConfig(M=int(arr["M"]), c=float(arr.get("c", 1500.0)),
                            omega1=float(arr.get("omega1", 2 * np.pi * 1000.0)))
        sub = doc.get("subbands", {})
        if "alphas" in sub:
            alphas = np.asarray(sub["alphas"], dtype=float)
        else:
            alphas = default_alphas(int(sub.get("J", 10)))
        sc = doc["scene"]
        angles = tuple(float(a) for a in sc.get("angles_deg", ()))
        seed = int(sc.get("seed", 0))
        focusing = FocusingSet.build(alphas, array.M)
        if "spectra" in sc:
            spectra = np.array([[complex(re, im) for re, im in row]
                                for row in sc["spectra"]])
            sigma2 = float(sc.get("noise_variance", 0.0))
            scene = WidebandScene(angles_deg=angles, source_spectra=spectra,
                                  noise_variance=sigma2, seed=seed)
        else:
            snr = sc.get("snr_db", None)
            scene = bench.random_scene(array, angles, alphas,
                                       None if snr is None else float(snr),
                                       seed, focusing)
        data = synthesize_scene(array, scene, subband_template(array.omega1, alphas))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad scene config: {exc}")
    return array, scene, data, focusing


def _cmd_simulate(args):
    doc = _load_json(args.config)
    array, scene, data, _ = _scene_from_doc(doc)
    data.save_csv(args.output)
    print(f"simulate: M={array.M} J={data.J} K={scene.K} "
          f"sigma2={scene.noise_variance:.6g} seed={scene.seed} -> {args.output}")
    return 0


def _cmd_estimate(args):
    if args.input.endswith(".json"):
        doc = _load_json(args.input)
        array, scene, data, focusing = _scene_from_doc(doc)
        sigma2 = scene.noise_variance
    else:
        try:
            data = SubbandData.load_csv(args.input)
        except (OSError, KeyError, ValueError) as exc:
            raise UsageError(f"cannot load measurements from {args.input}: {exc}")
        focusing = FocusingSet.for_subbands(data)
        array, scene, sigma2 = None, None, args.sigma2
    try:
        rec = RecoveryConfig(peak_tol=args.peak_tol,
                             solver=SolverConfig(max_iter=args.max_iter))
        gamma = gamma_bound(data.Y, array, focusing, mode=args.gamma_mode, scene=scene,
                            sigma2=sigma2, safety=args.gamma_safety)
    except ValueError as exc:
        raise UsageError(f"bad estimate option: {exc}")
    gamma = max(gamma, 1e-10)
    est = estimate_doa(data, gamma=gamma, focusing=focusing, config=rec)
    print(f"estimate: gamma={gamma:.6g} mode={args.gamma_mode} Khat={est.Khat} "
          f"angles={[round(float(t), 4) for t in est.thetas]}")
    if args.output:
        est.to_json(args.output)
    else:
        print(est.to_json())
    return 0


def _cmd_benchmark(args):
    doc = _load_json(args.config)
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad experiment config: {exc}")
    try:
        cfg.workers = bench.worker_count(cfg)  # WBDOA_WORKERS is read here once
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.quick:
        cfg.trials = min(cfg.trials, 20)
    print(f"benchmark: scenario={cfg.scenario} trials={cfg.trials} "
          f"methods={list(cfg.methods)} master_seed={cfg.master_seed}")
    table = bench.run_experiment(cfg)
    table.to_csv(args.output, include_runtime=args.timings)
    if args.json_output:
        table.to_json(args.json_output)
    print(f"benchmark: wrote {args.output}")
    return 0


def _cmd_report(args):
    table = ResultTable.from_csv(args.table)
    emit_report(table, args.format, args.output, log_y=args.log_y)
    print(f"report: wrote {args.output}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="wbdoa",
                                description="Gridless coherent wideband DOA estimation")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="scene JSON -> measurement CSV")
    ps.add_argument("--config", required=True)
    ps.add_argument("--output", required=True)
    ps.set_defaults(func=_cmd_simulate)

    pe = sub.add_parser("estimate", help="scene JSON or measurement CSV -> DOA JSON")
    pe.add_argument("--input", required=True)
    pe.add_argument("--output")
    pe.add_argument("--gamma-mode", choices=("oracle", "blind"), default="oracle",
                    dest="gamma_mode")
    pe.add_argument("--gamma-safety", type=float, default=1.0, dest="gamma_safety")
    pe.add_argument("--sigma2", type=float, default=None)
    pe.add_argument("--peak-tol", type=float, default=0.05, dest="peak_tol")
    pe.add_argument("--max-iter", type=int, default=50000, dest="max_iter")
    pe.set_defaults(func=_cmd_estimate)

    pb = sub.add_parser("benchmark", help="experiment JSON -> result table")
    pb.add_argument("--config", required=True)
    pb.add_argument("--output", required=True)
    pb.add_argument("--json-output", dest="json_output")
    pb.add_argument("--quick", action="store_true", help="cap trials at 20")
    pb.add_argument("--timings", action="store_true",
                    help="include wall-clock runtimes (breaks byte determinism)")
    pb.set_defaults(func=_cmd_benchmark)

    pr = sub.add_parser("report", help="result CSV -> CSV/JSON/SVG")
    pr.add_argument("--table", required=True)
    pr.add_argument("--format", choices=("csv", "json", "svg"), default="svg")
    pr.add_argument("--output", required=True)
    pr.add_argument("--log-y", action="store_true", dest="log_y")
    pr.set_defaults(func=_cmd_report)
    return p


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
