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
from .bench import ExperimentConfig, ResultTable, default_alphas
from .focusing import FocusingSet, gamma_blind, gamma_oracle
from .model import ArrayConfig, SubbandData, WidebandScene, check_real, synthesize_scene
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


def _only(name, part, allowed):
    """part if it has no key outside allowed, else a ValueError listing allowed."""
    if set(part) - set(allowed):
        raise ValueError(f"{name} takes only the keys {list(allowed)}, got {sorted(part)}")
    return part


def _scene_from_doc(doc):
    """Build (array, scene, synthesized measurements, focusing) from a scene JSON.

    Schema: {"array": {"M", "c", "omega1"},
             "subbands": {"alphas": [...]} or {"J": n},
             "scene": {"angles_deg": [...], "seed": int,
                       "snr_db": x or null, or "spectra": [[re, im], ...] K x J
                       pairs with "noise_variance": x}}; any other key is refused
    """
    try:
        _only("a scene JSON", doc, ("array", "subbands", "scene"))
        arr = _only("array", doc["array"], ("M", "c", "omega1"))
        array = ArrayConfig(M=arr["M"], c=arr.get("c", ExperimentConfig.c),
                            omega1=arr.get("omega1", ExperimentConfig.omega1))
        sub = doc.get("subbands", {})
        _only("subbands (J or alphas)", sub, ("alphas",) if "alphas" in sub else ("J",))
        if "alphas" in sub:
            alphas = np.asarray(sub["alphas"], dtype=float)
        else:
            alphas = default_alphas(sub.get("J", ExperimentConfig.J))
        sc = doc["scene"]
        _only("scene (snr_db, or spectra with noise_variance)", sc, ("angles_deg", "seed",
              *(("spectra", "noise_variance") if "spectra" in sc else ("snr_db",))))
        angles, seed = sc.get("angles_deg", ()), sc.get("seed", 0)
        focusing = FocusingSet.build(alphas, array.M)
        if "spectra" in sc:
            spectra = np.array([[complex(re, im) for re, im in row]
                                for row in sc["spectra"]])
            scene = WidebandScene(angles_deg=angles, source_spectra=spectra,
                                  noise_variance=sc.get("noise_variance", 0.0), seed=seed)
        else:
            scene = bench.random_scene(angles, focusing, sc.get("snr_db"), seed)
        data = synthesize_scene(array, scene, focusing)
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
    else:
        try:
            data = SubbandData.load_csv(args.input)
        except (OSError, KeyError, ValueError) as exc:
            raise UsageError(f"cannot load measurements from {args.input}: {exc}")
        focusing = FocusingSet.build(data.alphas, data.M)
        array, scene = None, None
    mode = "oracle" if args.sigma2 is None else "blind"
    try:
        rec = RecoveryConfig(solver=SolverConfig(max_iter=args.max_iter))
        # safety scales gamma: an under-estimate can make the problem infeasible in noise
        check_real("--gamma-safety", args.gamma_safety, "positive")
        if mode == "oracle" and scene is None:
            raise ValueError("a measurement CSV needs --sigma2 S, its noise variance")
        gamma = (gamma_blind(data.Y, args.sigma2, focusing) if mode == "blind"
                 else gamma_oracle(data.Y, array, scene, focusing))
        gamma *= args.gamma_safety
        if not np.isfinite(gamma):
            raise ValueError(f"gamma overflows to {gamma}")
    except ValueError as exc:
        raise UsageError(f"bad estimate option: {exc}")
    est = estimate_doa(data, gamma=gamma, focusing=focusing, config=rec)
    print(f"estimate: gamma={gamma:.6g} mode={mode} Khat={est.Khat} "
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
    print(f"benchmark: wrote {args.output}")
    return 0


def _cmd_report(args):
    try:
        table = ResultTable.from_csv(args.table)
        if args.output.endswith(".json"):
            table.to_json(args.output)
        else:
            table.to_svg(args.output, log_y=args.log_y)
    except ValueError as exc:
        raise UsageError(f"cannot report {args.table}: {exc}")
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
    pe.add_argument("--gamma-safety", type=float, default=1.0, dest="gamma_safety")
    pe.add_argument("--sigma2", type=float, default=None,
                    help="noise variance per sensor and bin, for the blind gamma; without "
                    "it, gamma is the oracle of a scene JSON, and a CSV is refused")
    pe.add_argument("--max-iter", type=int, default=SolverConfig.max_iter, dest="max_iter")
    pe.set_defaults(func=_cmd_estimate)

    pb = sub.add_parser("benchmark", help="experiment JSON -> result table")
    pb.add_argument("--config", required=True)
    pb.add_argument("--output", required=True)
    pb.add_argument("--quick", action="store_true", help="cap trials at 20")
    pb.add_argument("--timings", action="store_true",
                    help="include wall-clock runtimes (breaks byte determinism)")
    pb.set_defaults(func=_cmd_benchmark)

    pr = sub.add_parser("report", help="result CSV -> JSON/SVG")
    pr.add_argument("--table", required=True)
    pr.add_argument("--output", required=True, help="a .json path writes JSON, any other SVG")
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
    except (UsageError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
