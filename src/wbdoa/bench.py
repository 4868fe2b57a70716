"""Monte-Carlo benchmark harness: RMSE-vs-SNR sweeps, resolution sweeps,
and report emission (CSV / JSON / SVG)."""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .baselines import RssConfig, perturb_initial, rss_estimate
from .focusing import FocusingSet, gamma_oracle, noiseless_measurements
from .model import ArrayConfig, WidebandScene, subband_template, synthesize_scene
from .recovery import RecoveryConfig, estimate_doa
from .solver import SolverConfig


def default_alphas(J: int) -> np.ndarray:
    """Frequency ratios of the J largest in-band bins of a 60-point DFT
    over the discrete band [pi/3, 2*pi/3]: bins 20 down to 21-J."""
    if not (1 <= J <= 19):
        raise ValueError("J must lie in 1..19 for the default band")
    return np.arange(20, 20 - J, -1) / 20.0


def trial_seed(master_seed: int, point_index: int, trial_index: int, stream: int = 0) -> int:
    """Deterministic per-trial seed; adding points never changes old draws."""
    ss = np.random.SeedSequence(entropy=(master_seed, point_index, trial_index, stream))
    return int(ss.generate_state(1)[0])


def random_scene(cfg: ArrayConfig, angles_deg, alphas, snr_db, seed: int,
                 focusing: FocusingSet = None) -> WidebandScene:
    """Scene with i.i.d. circular Gaussian spectra, noise sized to the SNR.

    SNR is defined per subband entry: 10*log10(||X*||_F^2 / (M*J*sigma^2)).
    ``snr_db=None`` means noiseless.
    """
    K, J = len(angles_deg), len(alphas)
    ss = np.random.SeedSequence(seed)
    spectra_seed, noise_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(2))
    rng = np.random.default_rng(spectra_seed)
    spectra = (rng.standard_normal((K, J)) + 1j * rng.standard_normal((K, J))) / np.sqrt(2)
    scene0 = WidebandScene(angles_deg=tuple(angles_deg), source_spectra=spectra,
                           noise_variance=0.0, seed=noise_seed)
    if snr_db is None:
        return scene0
    if focusing is None:
        focusing = FocusingSet.build(alphas, cfg.M)
    X = noiseless_measurements(cfg, scene0, focusing)
    sigma2 = float(np.linalg.norm(X) ** 2) / (cfg.M * J * 10.0 ** (snr_db / 10.0))
    return replace(scene0, noise_variance=sigma2)


def match_errors(estimate_deg, truth_deg):
    """Assignment of estimated to true angles with the least squared error
    (an absolute cost can tie a crossed matching with the sorted one, and a
    crossed pick inflates the RMSE).  Returns the per-source absolute
    errors, or None when there are fewer estimates than truths."""
    est = np.asarray(estimate_deg, dtype=float)
    tru = np.asarray(truth_deg, dtype=float)
    if est.size < tru.size:
        return None
    rows, cols = linear_sum_assignment((est[:, None] - tru[None, :]) ** 2)
    errs = np.empty(tru.size)
    errs[cols] = np.abs(est[rows] - tru[cols])
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
        for name, low in (("trials", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (self.workers is None or isinstance(self.workers, (int, np.integer))
                and self.workers >= 1):
            raise ValueError(f"workers must be None or an integer >= 1, got {self.workers!r}")
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
        for name in ("snr_grid_db", "delta_theta_list", "resolution_snr_db"):
            values = np.atleast_1d(getattr(self, name))
            if values.size == 0 or not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be nonempty and finite")
        if min(self.delta_theta_list) <= 0:
            raise ValueError("delta_theta_list entries must be positive")
        pairs = [(self.theta1_deg - d, self.theta1_deg) for d in self.delta_theta_list]
        for angles in (self.angles_deg, *pairs):
            a = np.asarray(angles, dtype=float)
            if a.size == 0 or not np.all(np.abs(a) < 90) or np.unique(a).size < a.size:
                raise ValueError(f"source angles {list(angles)} must be nonempty, "
                                 "distinct and inside (-90, 90)")
        if not (np.isfinite(self.init_err_deg) and self.init_err_deg >= 0):
            raise ValueError("init_err_deg must be finite and nonnegative")
        K = len(self.angles_deg) if self.scenario == "rmse_vs_snr" else 2
        if "rss" in self.methods and self.J < K + 1:
            raise ValueError(f"rss needs J >= K+1 = {K + 1} bins, got J={self.J}")

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

    def to_dict(self) -> dict:
        out = {}
        for k in self.__dataclass_fields__:
            v = getattr(self, k)
            out[k] = list(v) if isinstance(v, tuple) else v
        return out


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    CSV_COLUMNS = ("method", "point", "rmse_deg", "fail_rate", "trials", "runtime_s")

    def add(self, method, point, rmse_deg, fail_rate, trials, runtime_s):
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
            for line in fh:
                m, p, r, fr, tr, rt = line.strip().split(",")
                table.add(m, float(p), float("nan") if r == "Failed" else float(r),
                          float(fr), int(tr), float(rt))
        return table

    def to_json(self, path=None):
        doc = {"rows": [
            {**r, "rmse_deg": None if np.isnan(r["rmse_deg"]) else r["rmse_deg"]}
            for r in self.rows
        ]}
        if path is None:
            return json.dumps(doc, indent=2)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)


def _run_trial(args):
    """One (method, scene) trial; module-level for process pools."""
    cfg, method, angles, snr_db, point_index, trial_index = args
    array = ArrayConfig(M=cfg.M, c=cfg.c, omega1=cfg.omega1)
    alphas = default_alphas(cfg.J)
    focusing = FocusingSet.build(alphas, cfg.M)
    seed = trial_seed(cfg.master_seed, point_index, trial_index)
    scene = random_scene(array, angles, alphas, snr_db, seed, focusing)
    data = synthesize_scene(array, scene, subband_template(cfg.omega1, alphas))
    K = len(angles)
    if method == "wgs":
        gamma = gamma_oracle(data.Y, array, scene, focusing)
        solver = SolverConfig(max_iter=cfg.solver_max_iter, eps_abs=cfg.solver_eps_abs,
                              eps_rel=cfg.solver_eps_rel)
        # sub-Rayleigh merge radius (f units): the resolution sweep separates close pairs
        rec = RecoveryConfig(min_separation=0.2 / cfg.M, solver=solver)
        est = estimate_doa(data, gamma=max(gamma, 1e-10), focusing=focusing, config=rec)
        thetas = est.thetas
        if est.Khat > K:
            keep = np.argsort(est.betas)[::-1][:K]
            thetas = np.sort(est.thetas[keep])
        return thetas
    if method == "rss":
        init = perturb_initial(angles, cfg.init_err_deg,
                               trial_seed(cfg.master_seed, point_index, trial_index, stream=1))
        init = np.clip(init, -89.0, 89.0)
        return rss_estimate(data, RssConfig(K=K, init_angles_deg=tuple(init)))
    raise ValueError(f"unknown method {method!r}")


def _run_point(cfg: ExperimentConfig, method: str, angles, snr_db,
               point_index: int, workers: int):
    jobs = [(cfg, method, tuple(angles), snr_db, point_index, i)
            for i in range(cfg.trials)]
    t0 = time.perf_counter()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            estimates = list(pool.map(_run_trial, jobs, chunksize=1))
    else:
        estimates = [_run_trial(j) for j in jobs]
    return estimates, time.perf_counter() - t0


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


def run_rmse_vs_snr(cfg: ExperimentConfig) -> ResultTable:
    """RMSE per (method, SNR) for the fixed three-source scene."""
    if cfg.scenario != "rmse_vs_snr":
        raise ValueError("config scenario must be rmse_vs_snr")
    workers = worker_count(cfg)
    table = ResultTable()
    for pi, snr in enumerate(cfg.snr_grid_db):
        for method in cfg.methods:
            ests, dt = _run_point(cfg, method, cfg.angles_deg, snr, pi, workers)
            val, failures = rmse(ests, cfg.angles_deg)
            table.add(method, float(snr), val, failures / cfg.trials, cfg.trials, dt)
    return table


def run_resolution(cfg: ExperimentConfig) -> ResultTable:
    """RMSE or Failed per (method, delta-theta) at the fixed resolution SNR.

    A trial fails when it has fewer than K separated estimates or its own
    RMSE exceeds delta_theta / 2; a point is reported Failed (NaN RMSE)
    when at least 40% of trials fail.  The 40% cut sits between the two
    regimes the estimators exhibit near their resolution limits.
    """
    FAIL_RATE_CUT = 0.4
    if cfg.scenario != "resolution":
        raise ValueError("config scenario must be resolution")
    workers = worker_count(cfg)
    table = ResultTable()
    for pi, dtheta in enumerate(cfg.delta_theta_list):
        angles = (cfg.theta1_deg - dtheta, cfg.theta1_deg)
        for method in cfg.methods:
            ests, dt = _run_point(cfg, method, angles, cfg.resolution_snr_db,
                                  1000 + pi, workers)
            # "separated" estimates: collapse near-coincident angles first
            cleaned = []
            for e in ests:
                e = np.sort(np.asarray(e, dtype=float))
                keep = [e[0]] if e.size else []
                for x in e[1:]:
                    if x - keep[-1] > 0.1:
                        keep.append(x)
                cleaned.append(np.asarray(keep))
            val, failures = rmse(cleaned, angles, fail_threshold_deg=dtheta / 2)
            fail_rate = failures / cfg.trials
            if fail_rate >= FAIL_RATE_CUT:
                val = float("nan")
            table.add(method, float(dtheta), val, fail_rate, cfg.trials, dt)
    return table


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    if cfg.scenario == "rmse_vs_snr":
        return run_rmse_vs_snr(cfg)
    return run_resolution(cfg)


def _svg_plot(table: ResultTable, path, log_y: bool = False):
    """Minimal deterministic SVG line plot of RMSE versus scenario point."""
    width, height, pad = 640, 420, 60
    methods = sorted({r["method"] for r in table.rows})
    colors = {"wgs": "#1f77b4", "rss": "#d62728"}
    pts_all = [(float(r["point"]), r["rmse_deg"]) for r in table.rows
               if not np.isnan(r["rmse_deg"])]
    if not pts_all:
        raise ValueError("no finite RMSE values to plot")
    xs = [p for p, _ in pts_all]
    ys = [np.log10(v) if log_y else v for _, v in pts_all]
    x0, x1 = min(xs), max(xs) or 1.0
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
    for mi, method in enumerate(methods):
        pts = sorted((float(r["point"]), r["rmse_deg"]) for r in table.rows
                     if r["method"] == method and not np.isnan(r["rmse_deg"]))
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


def emit_report(table: ResultTable, fmt: str, path, log_y: bool = False):
    """Write the table as csv, json, or an SVG line plot."""
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    if fmt == "csv":
        table.to_csv(path)
    elif fmt == "json":
        table.to_json(path)
    elif fmt == "svg":
        _svg_plot(table, path, log_y=log_y)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
