"""Monte-Carlo benchmark harness: RMSE-vs-SNR sweeps, resolution sweeps,
and report emission (CSV / JSON / SVG)."""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import perturb_initial, rss_estimate
from .focusing import FocusingSet, gamma_oracle, noiseless_measurements
from .model import (ArrayConfig, WidebandScene, check_angles, check_integer, check_real,
                    synthesize_scene)
from .recovery import RecoveryConfig, estimate_doa
from .solver import SolverConfig


def default_alphas(J: int) -> np.ndarray:
    """Frequency ratios of the J largest in-band bins of a 60-point DFT
    over the discrete band [pi/3, 2*pi/3]: bins 20 down to 21-J."""
    if check_integer("J", J, 1) > 19:
        raise ValueError("J must lie in 1..19 for the default band")
    return np.arange(20, 20 - J, -1) / 20.0


def trial_seed(master_seed: int, point_index: int, trial_index: int, stream: int = 0) -> int:
    """Deterministic per-trial seed; adding points never changes old draws."""
    ss = np.random.SeedSequence(entropy=(master_seed, point_index, trial_index, stream))
    return int(ss.generate_state(1)[0])


def random_scene(angles_deg, focusing: FocusingSet, snr_db, seed: int) -> WidebandScene:
    """Scene with i.i.d. circular Gaussian spectra over the bins of
    ``focusing``, noise sized to the SNR.

    SNR is defined per subband entry: 10*log10(||X*||_F^2 / (M*J*sigma^2)),
    with X* the focused-model measurements.  ``snr_db=None`` means noiseless.
    """
    K, J = len(angles_deg), focusing.J
    ss = np.random.SeedSequence(check_integer("seed", seed, 0))
    spectra_seed, noise_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(2))
    rng = np.random.default_rng(spectra_seed)
    spectra = (rng.standard_normal((K, J)) + 1j * rng.standard_normal((K, J))) / np.sqrt(2)
    scene0 = WidebandScene(angles_deg=tuple(angles_deg), source_spectra=spectra,
                           noise_variance=0.0, seed=noise_seed)
    if snr_db is None:
        return scene0
    check_real("snr_db", snr_db)
    X = noiseless_measurements(scene0, focusing)
    sigma2 = float(np.linalg.norm(X) ** 2) / (focusing.M * J * 10.0 ** (snr_db / 10.0))
    return replace(scene0, noise_variance=sigma2)


def match_errors(estimate_deg, truth_deg):
    """Per-truth absolute errors, in the truths' order, of the sorted
    estimates against the sorted truths; None when there are fewer
    estimates than truths.

    More estimates than truths raise ValueError: cut to the K strongest
    first, as _run_trial does, since matching the extras against the
    truths would use information the estimator does not have."""
    est = np.sort(np.asarray(estimate_deg, dtype=float))
    tru = np.asarray(truth_deg, dtype=float)
    if est.size < tru.size:
        return None
    if est.size > tru.size:
        raise ValueError(f"{est.size} estimates for {tru.size} truths; "
                         "cut to the strongest first")
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(tru))):
        raise ValueError("angles must be finite")
    order = np.argsort(tru)
    errs = np.empty(tru.size)
    errs[order] = np.abs(est - tru[order])
    return errs


def rmse(estimates, truths, fail_threshold_deg: float = None):
    """Pooled RMSE in degrees over trials and sources, and the failure count.

    A trial fails when it has fewer estimates than truths or (if a
    threshold is given) its own RMSE exceeds the threshold; failed trials
    are excluded from the pooled value and counted separately.
    """
    if len(estimates) == 0 or len(truths) == 0:
        raise ValueError("empty inputs")
    sq, failures = [], 0
    for est in estimates:
        errs = match_errors(est, truths)
        if errs is None:
            failures += 1
            continue
        trial_rmse = float(np.sqrt(np.mean(errs ** 2)))
        if fail_threshold_deg is not None and trial_rmse > fail_threshold_deg:
            failures += 1
            continue
        sq.extend(errs ** 2)
    value = float(np.sqrt(np.mean(sq))) if sq else float("nan")
    return value, failures


@dataclass
class ExperimentConfig:
    scenario: str  # rmse_vs_snr | resolution
    trials: int = 100
    snr_grid_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0)
    angles_deg: tuple = (-5.0, 15.0, 40.0)
    theta1_deg: float = 40.0
    delta_theta_list: tuple = (12.0, 11.0, 10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0)
    resolution_snr_db: float = 10.0
    M: int = 16
    J: int = 10
    c: float = 1500.0
    omega1: float = 2 * np.pi * 1000.0
    methods: tuple = ("wgs", "rss")
    master_seed: int = 0
    init_err_deg: float = 2.0
    solver_eps_abs: float = 1e-6
    solver_eps_rel: float = 1e-5
    solver_max_iter: int = 20000
    workers: int = None

    def __post_init__(self):
        check_integer("trials", self.trials, 1)
        check_integer("master_seed", self.master_seed, 0)
        if self.workers is not None:
            check_integer("workers", self.workers, 1)
        check_real("theta1_deg", self.theta1_deg)
        check_real("resolution_snr_db", self.resolution_snr_db)
        check_real("init_err_deg", self.init_err_deg, "nonnegative")
        for name in ("angles_deg", "snr_grid_db", "delta_theta_list"):
            if np.ndim(getattr(self, name)) != 1 or len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be a nonempty flat list")
        for name in ("snr_grid_db", "delta_theta_list"):
            for value in getattr(self, name):
                check_real(f"each of {name}", value)
        if not self.methods:
            raise ValueError("method list must be nonempty")
        if not set(self.methods) <= {"wgs", "rss"}:
            raise ValueError(f"methods must be wgs and/or rss, got {list(self.methods)}")
        if self.scenario not in ("rmse_vs_snr", "resolution"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        # raise here, not mid-study, on what every trial would reject
        ArrayConfig(M=self.M, c=self.c, omega1=self.omega1)
        default_alphas(self.J)
        SolverConfig(max_iter=self.solver_max_iter, eps_abs=self.solver_eps_abs,
                     eps_rel=self.solver_eps_rel)
        if min(self.delta_theta_list) <= 0:
            raise ValueError("delta_theta_list entries must be positive")
        check_angles("angles_deg", self.angles_deg)
        for d in self.delta_theta_list:
            check_angles(f"resolution pair at delta_theta {d!r}",
                         (self.theta1_deg - d, self.theta1_deg))
        K = len(self.angles_deg) if self.scenario == "rmse_vs_snr" else 2
        if "rss" in self.methods and self.J < K + 1:
            raise ValueError(f"rss needs J >= K+1 = {K + 1} bins, got J={self.J}")
        if "rss" in self.methods and self.M <= K:
            raise ValueError(f"rss needs M > K = {K} sensors, got M={self.M}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        d = dict(d)
        for key in ("snr_grid_db", "angles_deg", "delta_theta_list", "methods"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    CSV_COLUMNS = ("method", "point", "rmse_deg", "fail_rate", "trials", "runtime_s")

    def add(self, method, point, rmse_deg, fail_rate, trials, runtime_s):
        check_real("point", point)
        if not np.isnan(rmse_deg):  # a NaN RMSE marks a Failed point
            check_real("rmse_deg", rmse_deg, "nonnegative")
        check_integer("trials", trials, 1)
        check_real("runtime_s", runtime_s, "nonnegative")
        if not (0.0 <= fail_rate <= 1.0):
            raise ValueError("fail_rate must lie in [0, 1]")
        self.rows.append({
            "method": method, "point": point, "rmse_deg": rmse_deg,
            "fail_rate": fail_rate, "trials": trials, "runtime_s": runtime_s,
        })

    def to_csv(self, path, include_runtime: bool = False):
        """Plain CSV; runtimes are zeroed by default so identical configs
        and seeds produce byte-identical files."""
        if not self.rows:
            raise ValueError("refusing to emit an empty table")
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.CSV_COLUMNS) + "\n")
            for r in self.rows:
                rt = r["runtime_s"] if include_runtime else 0.0
                rmse_txt = "Failed" if np.isnan(r["rmse_deg"]) else repr(float(r["rmse_deg"]))
                fh.write(f"{r['method']},{r['point']!r},{rmse_txt},"
                         f"{r['fail_rate']!r},{r['trials']},{rt!r}\n")

    @classmethod
    def from_csv(cls, path) -> "ResultTable":
        table = cls()
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != cls.CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header {header}")
            for line in filter(str.strip, fh):  # blank lines carry no row
                m, p, r, fr, tr, rt = line.strip().split(",")
                table.add(m, float(p), float("nan") if r == "Failed" else float(r),
                          float(fr), int(tr), float(rt))
        if not table.rows:
            raise ValueError("table has no rows")
        return table

    def to_json(self, path):
        """The rows as JSON, with a Failed RMSE as null."""
        doc = {"rows": [{**r, "rmse_deg": None if np.isnan(r["rmse_deg"]) else r["rmse_deg"]}
                        for r in self.rows]}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)

    def to_svg(self, path, log_y: bool = False):
        """Minimal deterministic SVG line plot of RMSE versus scenario point."""
        width, height, pad = 640, 420, 60
        colors = {"wgs": "#1f77b4", "rss": "#d62728"}
        finite = [r for r in self.rows if not np.isnan(r["rmse_deg"])]
        if not finite:
            raise ValueError("no finite RMSE values to plot")
        if log_y and min(r["rmse_deg"] for r in finite) <= 0:
            raise ValueError("a log-scale plot needs positive RMSE values")
        xs = [float(r["point"]) for r in finite]
        ys = [np.log10(r["rmse_deg"]) if log_y else r["rmse_deg"] for r in finite]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0

        def sx(x):
            return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

        def sy(y):
            return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
            f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
            f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle">scenario point</text>',
            f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 18 {height / 2:.1f})">RMSE (deg{", log10" if log_y else ""})</text>',
        ]
        for mi, method in enumerate(sorted({r["method"] for r in self.rows})):
            pts = sorted((float(r["point"]), r["rmse_deg"]) for r in finite
                         if r["method"] == method)
            if not pts:
                continue
            coords = " ".join(
                f"{sx(p):.2f},{sy(np.log10(v) if log_y else v):.2f}" for p, v in pts
            )
            color = colors.get(method, "#2ca02c")
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{width - pad + 5}" y="{pad + 18 * mi}" fill="{color}">{method}</text>')
        parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(parts) + "\n")


def _study_inputs(cfg: ExperimentConfig) -> tuple:
    """What every trial of a study shares: the array, the focusing set (which
    carries the bins) and the recovery settings."""
    array = ArrayConfig(M=cfg.M, c=cfg.c, omega1=cfg.omega1)
    solver = SolverConfig(max_iter=cfg.solver_max_iter, eps_abs=cfg.solver_eps_abs,
                          eps_rel=cfg.solver_eps_rel)
    rec = RecoveryConfig(solver=solver)
    return array, FocusingSet.build(default_alphas(cfg.J), cfg.M), rec


def _run_trial(args):
    """One (method, scene) trial; module-level for process pools."""
    cfg, (array, focusing, rec), method, angles, snr_db, point_index, trial_index = args
    seed = trial_seed(cfg.master_seed, point_index, trial_index)
    scene = random_scene(angles, focusing, snr_db, seed)
    data = synthesize_scene(array, scene, focusing)
    K = len(angles)
    if method == "wgs":
        gamma = gamma_oracle(data.Y, array, scene, focusing)
        est = estimate_doa(data, gamma=gamma, focusing=focusing, config=rec)
        thetas = est.thetas
        if est.Khat > K:
            keep = np.argsort(est.betas)[::-1][:K]
            thetas = np.sort(est.thetas[keep])
        return thetas
    if method == "rss":
        init = perturb_initial(angles, cfg.init_err_deg,
                               trial_seed(cfg.master_seed, point_index, trial_index, stream=1))
        return rss_estimate(data, np.clip(init, -89.0, 89.0))
    raise ValueError(f"unknown method {method!r}")


def worker_count(cfg: ExperimentConfig) -> int:
    """cfg.workers, else the WBDOA_WORKERS environment variable (default 1),
    which like the field must be an integer >= 1 (ValueError otherwise)."""
    if cfg.workers is not None:
        return cfg.workers
    raw = os.environ.get("WBDOA_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"WBDOA_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


def _collapse(estimate, gap_deg: float) -> np.ndarray:
    """The sorted angles, each kept only if it lies more than gap_deg above
    the last one kept."""
    e = np.sort(np.asarray(estimate, dtype=float))
    keep = [e[0]] if e.size else []
    for x in e[1:]:
        if x - keep[-1] > gap_deg:
            keep.append(x)
    return np.asarray(keep)


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """RMSE per (method, point) of the configured scenario.

    ``rmse_vs_snr`` has one point per SNR of ``snr_grid_db`` for the fixed
    scene ``angles_deg``.  ``resolution`` has one point per delta-theta of
    ``delta_theta_list``, the pair (theta1 - delta, theta1) at
    ``resolution_snr_db``; there estimates within 0.1 deg collapse into
    one, a trial fails when fewer than two separated estimates are left or
    its own RMSE exceeds delta / 2, and a point is reported Failed (NaN
    RMSE) when at least 40% of trials fail.  The 40% cut sits between the
    two regimes the estimators exhibit near their resolution limits.
    """
    if cfg.scenario == "rmse_vs_snr":
        # (point, angles, SNR, point index, fail threshold)
        points = [(snr, cfg.angles_deg, snr, i, None) for i, snr in enumerate(cfg.snr_grid_db)]
        collapse_deg, fail_cut = None, np.inf
    else:
        points = [(d, (cfg.theta1_deg - d, cfg.theta1_deg), cfg.resolution_snr_db, 1000 + i,
                   d / 2) for i, d in enumerate(cfg.delta_theta_list)]
        collapse_deg, fail_cut = 0.1, 0.4
    workers = worker_count(cfg)
    inputs = _study_inputs(cfg)
    table = ResultTable()
    if workers > 1:  # import wbdoa loads no multiprocessing machinery
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for value, angles, snr_db, point_index, threshold in points:
            for method in cfg.methods:
                jobs = [(cfg, inputs, method, tuple(angles), snr_db, point_index, i)
                        for i in range(cfg.trials)]
                t0 = time.perf_counter()
                estimates = list(pool.map(_run_trial, jobs, chunksize=1) if pool
                                 else map(_run_trial, jobs))
                dt = time.perf_counter() - t0
                if collapse_deg is not None:
                    estimates = [_collapse(e, collapse_deg) for e in estimates]
                val, failures = rmse(estimates, angles, fail_threshold_deg=threshold)
                fail_rate = failures / cfg.trials
                if fail_rate >= fail_cut:
                    val = float("nan")
                table.add(method, float(value), val, fail_rate, cfg.trials, dt)
    return table
