"""The benchmark's workloads and the judgement of each operation.

An operation is one call of ``estimate_doa`` ("wgs") or ``rss_estimate``
("rss").  Every workload is a closed loop run serially in one process.  A
round is a fixed list of operations drawn from the seed; a run repeats
whole rounds, so every round attempts the same operations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

import checks
import wbdoa.bench as bench
import wbdoa.focusing as focusing
import wbdoa.model as model
import wbdoa.recovery as recovery
import wbdoa.solver as solver

ANGLES = (-5.0, 15.0, 40.0)
K = len(ANGLES)
C = 1500.0
OMEGA1 = 2 * np.pi * 1000.0
WARM_UP_SEED = 0


@dataclass
class Op:
    kind: str  # "wgs" | "rss"
    seconds: float
    failure: str | None = None
    thetas: np.ndarray | None = None  # the K strongest angles, sorted
    iterations: int = 0


@dataclass
class Round:
    ops: list
    planned: int  # operations the round attempts
    problems: list = field(default_factory=list)  # failed pooled checks

    @property
    def failed(self) -> int:
        return sum(op.failure is not None for op in self.ops) + self.planned - len(self.ops)

    @property
    def wgs_rmse_deg(self) -> float:
        return pooled_wgs_rmse(self.ops)


def judge_wgs(est, weight: float | None = None) -> tuple:
    """(failure or None, top-K angles, iterations) for one estimate_doa result.

    It fails unless its solver status is Optimal, it returns at least one
    finite angle inside (-90, 90), and, when the planted weight is known,
    its dual objective obeys weak duality.  Fewer than K angles is a miss
    that the accuracy checks count, not a failed operation.
    """
    diag = est.diagnostics
    status = diag.get("solverStatus")
    iterations = int(diag.get("solverIterations", 0))
    thetas = checks.top_k_angles(est.thetas, est.betas, K)
    if status != "Optimal":
        return f"solver status {status}", thetas, iterations
    if weight is not None and not checks.weak_duality_ok(diag["dualObjective"], weight):
        return (f"dual objective {diag['dualObjective']:.6g} above planted weight "
                f"{weight:.6g}"), thetas, iterations
    return judge_angles(thetas), thetas, iterations


def judge_angles(thetas) -> str | None:
    thetas = np.asarray(thetas, float)
    if thetas.size == 0:
        return "no source found"
    if not np.all(np.isfinite(thetas)) or np.any(np.abs(thetas) >= 90):
        return f"angles out of range: {thetas}"
    return None


def matched_errors(ops, kind: str = "wgs") -> list:
    """Errors against the planted angles of every sound operation of a kind;
    None for one that found fewer than K sources."""
    return [checks.matched_errors(op.thetas, ANGLES)
            for op in ops if op.kind == kind and op.failure is None]


def pooled_wgs_rmse(ops) -> float:
    """Pooled RMSE over the wgs estimates that found K sources."""
    return checks.pooled_rmse([e for e in matched_errors(ops) if e is not None])


def median_trial_rmse(ops, kind: str = "wgs") -> float:
    """Median over sound operations of each one's RMSE; a miss counts as inf."""
    trials = [np.inf if e is None else checks.pooled_rmse([e])
              for e in matched_errors(ops, kind)]
    return float(np.median(trials)) if trials else float("nan")


def accuracy_problems(ops, ceiling_deg: float) -> list:
    """A problem when the median wgs RMSE of the operations exceeds the ceiling.

    A median, because an estimate now and then misses a source by degrees
    even without noise (noiseless seed 206, scene 16: 35.48 deg for the
    source at 40 deg), which would move a pooled RMSE past any bound on
    some seeds only."""
    value = median_trial_rmse(ops)
    if value > ceiling_deg:  # nan, when every operation failed, is no problem
        return [f"median wgs RMSE {value:.4f} deg above ceiling {ceiling_deg} deg"]
    return []


class SceneWorkload:
    """estimate_doa on a fixed set of noiseless scenes the benchmark draws.

    Every scene has the paper's angles, i.i.d. circular Gaussian spectra
    and the oracle gamma, which is focusing error only."""

    def __init__(self, M, J, scenes, rmse_ceiling_deg, solver_config):
        self.M, self.J, self.scenes = M, J, scenes
        self.rmse_ceiling_deg = rmse_ceiling_deg
        self.solver_config = solver_config
        self.alphas = checks.band_alphas(J)

    def config(self):
        if self.solver_config is None:
            return None  # the API's defaults
        return recovery.RecoveryConfig(solver=solver.SolverConfig(**self.solver_config))

    def draw(self, seed: int) -> list:
        """The K x J source spectra of every scene."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.M, self.J]))
        return [(rng.standard_normal((K, self.J)) + 1j * rng.standard_normal((K, self.J)))
                / np.sqrt(2) for _ in range(self.scenes)]

    def prepare(self, seed: int) -> dict:
        return {"draws": self.draw(seed), "inputs": None}

    def build_inputs(self, state) -> list:
        state["inputs"] = self.inputs(state["draws"])
        return state["inputs"]

    def inputs(self, draws) -> list:
        """Measurements and gamma of every scene, made by the package."""
        array = model.ArrayConfig(M=self.M, c=C, omega1=OMEGA1)
        foc = focusing.FocusingSet.build(self.alphas, self.M)
        template = model.SubbandData(Y=np.zeros((1, self.J), complex),
                                     omegas=OMEGA1 * self.alphas)
        out = []
        for spectra in draws:
            scene = model.WidebandScene(angles_deg=ANGLES, source_spectra=spectra)
            data = model.synthesize_scene(array, scene, template)
            gamma = focusing.gamma_oracle(data.Y, array, scene, foc)
            out.append((data, max(gamma, 1e-10), foc, checks.planted_weight(spectra)))
        return out

    def warm_up(self, state):
        """Make the run's inputs, then one estimate on a scene that does not
        depend on the seed, so set-up time does not either."""
        self.build_inputs(state)
        data, gamma, foc, _ = self.inputs(self.draw(WARM_UP_SEED)[:1])[0]
        recovery.estimate_doa(data, gamma, foc, self.config())

    def run_round(self, state, rebuild: bool = False) -> Round:
        inputs = self.build_inputs(state) if rebuild else state["inputs"]
        config = self.config()
        ops = []
        for data, gamma, foc, weight in inputs:
            t0 = time.perf_counter()
            try:
                est = recovery.estimate_doa(data, gamma, foc, config)
            except Exception as exc:  # a raising operation is a failed one
                ops.append(Op("wgs", time.perf_counter() - t0, f"raised {exc!r}"))
                continue
            seconds = time.perf_counter() - t0
            failure, thetas, iterations = judge_wgs(est, weight)
            ops.append(Op("wgs", seconds, failure, thetas, iterations))
        return Round(ops, len(inputs), accuracy_problems(ops, self.rmse_ceiling_deg))


class StudyWorkload:
    """bench.run_experiment on the RMSE-vs-SNR study, wgs and rss."""

    M, J = 16, 10
    snr_grid_db = (0.0, 5.0, 10.0, 15.0, 20.0)
    methods = ("wgs", "rss")
    rmse_ceiling_deg = 0.5

    def __init__(self, trials: int):
        self.trials = trials
        self.alphas = checks.band_alphas(self.J)

    def prepare(self, seed: int):
        return bench.ExperimentConfig(
            scenario="rmse_vs_snr", trials=self.trials, snr_grid_db=self.snr_grid_db,
            angles_deg=ANGLES, M=self.M, J=self.J, c=C, omega1=OMEGA1,
            methods=self.methods, master_seed=seed, workers=1)

    def warm_up(self, cfg):
        bench.run_experiment(replace(cfg, trials=1, snr_grid_db=(10.0,),
                                     master_seed=WARM_UP_SEED))

    def run_round(self, cfg, rebuild: bool = False) -> Round:
        ops = []
        planned = self.trials * len(self.snr_grid_db) * len(self.methods)
        try:
            with _timed_operations(ops):
                table = bench.run_experiment(cfg)
        except Exception as exc:  # the study stops at a raising operation
            if not ops or ops[-1].failure is None:
                ops.append(Op("?", 0.0, f"raised {exc!r}"))
            return Round(ops, planned)
        return Round(ops, planned, self.study_problems(ops, table))

    def study_problems(self, ops, table) -> list:
        """The accuracy ceiling, the paper's ordering of the two methods'
        median trial RMSE, and agreement between the study's own RMSE table
        and the operations it made.  Ordering is not checked per SNR: at
        0 dB a 10-trial point can flip on a single missed source."""
        problems = accuracy_problems(ops, self.rmse_ceiling_deg)
        wgs, rss = median_trial_rmse(ops, "wgs"), median_trial_rmse(ops, "rss")
        if wgs >= rss:
            problems.append(f"median wgs trial RMSE {wgs:.4f} not below rss {rss:.4f}")
        rows = [r for r in table.rows if r["method"] == "wgs"]
        if len(rows) != len(self.snr_grid_db) or not all(np.isfinite(r["rmse_deg"]) for r in rows):
            problems.append("wgs RMSE not finite at every SNR")
        elif not any(op.failure for op in ops):
            # the table pools each point over its trials that found K sources
            pooled = pooled_wgs_rmse(ops)
            counts = np.array([r["trials"] * (1.0 - r["fail_rate"]) for r in rows])
            squares = np.array([r["rmse_deg"] ** 2 for r in rows])
            from_table = float(np.sqrt(counts @ squares / counts.sum()))
            if abs(from_table - pooled) > 1e-9 * max(pooled, 1.0):
                problems.append(f"study table RMSE {from_table:.6f} disagrees with "
                                f"its estimates {pooled:.6f}")
        return problems


@contextmanager
def _timed_operations(ops):
    """Time and judge every operation the study makes, in call order."""
    saved = {name: getattr(bench, name) for name in ("estimate_doa", "rss_estimate")
             if hasattr(bench, name)}

    def timed(kind, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                ops.append(Op(kind, time.perf_counter() - t0, f"raised {exc!r}"))
                raise
            seconds = time.perf_counter() - t0
            if kind == "wgs":
                failure, thetas, iterations = judge_wgs(out)
                ops.append(Op(kind, seconds, failure, thetas, iterations))
            else:
                thetas = np.sort(np.asarray(out, float))
                ops.append(Op(kind, seconds, judge_angles(thetas), thetas))
            return out
        return call

    try:
        for name, fn in saved.items():
            setattr(bench, name, timed("wgs" if name == "estimate_doa" else "rss", fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(bench, name, fn)


def make(name: str):
    if name == "snr_sweep":
        return StudyWorkload(trials=10)
    if name == "noiseless":
        return SceneWorkload(M=16, J=10, scenes=24,
                             rmse_ceiling_deg=0.1, solver_config=None)
    if name == "large_array":
        return SceneWorkload(M=48, J=19, scenes=4,
                             rmse_ceiling_deg=0.05,
                             solver_config={"eps_abs": 1e-6, "eps_rel": 1e-5})
    raise ValueError(f"unknown workload {name!r}")
