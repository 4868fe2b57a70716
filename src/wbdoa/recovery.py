"""DOA recovery from the optimal dual variables.

At the dual optimum the dual polynomial P(f) = ||Hbar^H a(f)||_2 touches 1
exactly at the recovered spatial frequencies.  Peaks of P near 1 give the
frequency estimates, the polynomial vector Hbar^H a(f) there gives the
cross-band coefficient directions, and a nonnegative least squares fit on
the located atoms gives the amplitudes.  Atoms closer than MERGE_RADIUS / M
are then merged by amplitude into one.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .atoms import ConicProblem, build_atom
from .focusing import FocusingSet
from .model import SubbandData, check_real, f_to_theta, stationary_frequencies, steering_vector
from .solver import SolverConfig, solve


@dataclass
class DoaEstimate:
    fs: np.ndarray
    cs: list
    betas: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def thetas(self) -> np.ndarray:
        return f_to_theta(self.fs)

    @property
    def Khat(self) -> int:
        return len(self.fs)

    def to_json(self) -> str:
        """The estimate as JSON text; a diagnostics value JSON cannot hold
        raises TypeError."""
        return json.dumps({
            "angles_deg": [float(t) for t in self.thetas],
            "fs": [float(f) for f in self.fs],
            "betas": [float(b) for b in self.betas],
            "c_magnitudes": [[float(x) for x in np.abs(c)] for c in self.cs],
            "Khat": self.Khat,
            "diagnostics": self.diagnostics,
        }, indent=2)


# atoms below this fraction of the largest merged amplitude absorb the fidelity
# budget (focusing error, noise), not a source; they go to diagnostics["minorAtoms"]
AMP_FLOOR = 0.05
# a maximum of P within this of 1 is a peak; below 0.5, so every peak vector
# has norm P(f) > 0.5 and its unit coefficient vector never divides by near zero
PEAK_TOL = 0.05
# merge radius in units of 1/M, a fifth of the Rayleigh limit: wide enough to
# rejoin a source the dual polynomial splits into nearby peaks, narrow enough
# to keep the sub-Rayleigh pairs the solve resolves
MERGE_RADIUS = 0.2


def _wrap(f):
    """Frequency offset(s) wrapped into [-1/2, 1/2]; exact for |f| < 1, so a
    frequency already in range comes back bit for bit."""
    return f - np.round(f)


def locate_frequencies(Hbar: np.ndarray) -> tuple:
    """(fs, cs, peak_values): the sorted spatial frequencies where the dual
    polynomial P(f) = ||Hbar^H a(f)||_2 of the M x J Hbar has a local
    maximum within PEAK_TOL of 1, the unit coefficient vector
    conj(Hbar^H a(f)) / P(f) at each (one row per frequency) and P there."""
    fs = stationary_frequencies(Hbar @ Hbar.conj().T, maxima=True)
    vectors = (Hbar.conj().T @ steering_vector(fs, Hbar.shape[0])[..., None])[..., 0]
    values = np.linalg.norm(vectors, axis=-1)
    keep = values >= 1.0 - PEAK_TOL
    return fs[keep], vectors[keep].conj() / values[keep, None], values[keep]


def merge_atoms(fs, betas, cs, radius: float):
    """Merge atoms closer than radius (circular distance), heaviest first.

    A group, the heaviest free atom and every free atom closer to it (none
    at radius 0), becomes one atom at its amplitude-weighted mean frequency
    (unwrapped around the heaviest member) with the summed amplitude and
    the heaviest member's c.  Returns (fs, betas, cs) sorted by frequency.
    A radius that is not a finite real >= 0 raises ValueError.
    """
    check_real("radius", radius, "nonnegative")
    fs, betas = np.asarray(fs, dtype=float), np.asarray(betas, dtype=float)
    free = np.ones(fs.size, dtype=bool)
    merged = []
    for i in np.argsort(-betas, kind="stable"):
        if free[i]:
            offsets = _wrap(fs - fs[i])
            group = free & (np.abs(offsets) < radius)
            group[i] = True
            free &= ~group
            weight = betas[group].sum()
            shift = offsets[group] @ betas[group] / weight if weight > 0 else 0.0
            merged.append((_wrap(fs[i] + shift), weight, i))
    merged.sort()
    return (np.array([f for f, _, _ in merged]), np.array([b for _, b, _ in merged]),
            [cs[i] for _, _, i in merged])


def _nnls(Q: np.ndarray, R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||A x - b|| over x >= 0 for A = QR (reduced), by the
    Lawson-Hanson active-set method (Lawson & Hanson, Solving Least Squares
    Problems, 1974, ch. 23).

    Each passive-set least squares is the small system R x ~ Q^T b, which
    keeps cond(A) rather than cond(A^T A).
    """
    d = Q.T @ b
    K = R.shape[1]
    tol = 10 * Q.shape[0] * np.finfo(float).eps * np.abs(R).max() * np.linalg.norm(d)

    def passive_fit(passive):
        z = np.zeros(K)
        z[passive] = np.linalg.lstsq(R[:, passive], d, rcond=None)[0]
        return z

    x = np.zeros(K)
    passive = np.zeros(K, dtype=bool)
    w = R.T @ d  # descent direction -grad ||R x - d||^2 / 2 at x
    for _ in range(3 * K):
        j = np.argmax(np.where(passive, -np.inf, w))
        if passive[j] or w[j] <= tol:
            return x
        passive[j] = True
        z = passive_fit(passive)
        if z[j] <= 0:  # rounding left no room to move along j: pass it over
            passive[j] = False
            w[j] = 0.0
            continue
        while (z[passive] <= 0).any():
            # step from x toward z until the first passive entry reaches 0
            neg = np.flatnonzero(passive & (z <= 0))
            ratio = x[neg] / (x[neg] - z[neg])
            x += ratio.min() * (z - x)
            x[neg[np.argmin(ratio)]] = 0.0
            passive &= x > 0
            z = passive_fit(passive)
        x = z
        w = R.T @ (d - R @ x)
    raise RuntimeError(f"NNLS did not converge in {3 * K} iterations")


def recover_amplitudes(Y: np.ndarray, fs, cs, focusing: FocusingSet) -> np.ndarray:
    """Nonnegative least squares of vec(Y) onto the located atoms.

    Pass the primal reconstruction rather than the raw measurements when
    the amplitudes should certify the strong-duality identity.  Duplicate
    atoms need no special case: _nnls fits each passive set by lstsq.  One
    coefficient vector per frequency, else ValueError."""
    fs = np.asarray(fs, dtype=float)
    if fs.size != len(cs):
        raise ValueError(f"{fs.size} frequencies but {len(cs)} coefficient vectors")
    if fs.size == 0:
        return np.array([])
    cols = np.stack(
        [build_atom(f, c, focusing).ravel() for f, c in zip(fs, cs)], axis=1
    )
    A = np.vstack([cols.real, cols.imag])
    y = np.asarray(Y, complex).ravel()
    b = np.concatenate([y.real, y.imag])
    return _nnls(*np.linalg.qr(A), b)


@dataclass(frozen=True)
class RecoveryConfig:
    solver: SolverConfig = None  # None: SolverConfig()

    def __post_init__(self):
        if not (self.solver is None or isinstance(self.solver, SolverConfig)):
            raise ValueError(f"solver must be None or a SolverConfig, got {self.solver!r}")


def primal_reconstruction(Y: np.ndarray, H: np.ndarray, gamma: float) -> np.ndarray:
    """Primal optimizer implied by the dual optimum.

    At optimality the fidelity constraint is tight and aligned with H, so
    X_opt = Y - sqrt(gamma) * H / ||H||_F (X_opt = Y when H = 0).
    """
    nrm = np.linalg.norm(H)
    if nrm == 0.0:
        return np.asarray(Y, complex).copy()
    return Y - np.sqrt(gamma) * H / nrm


def estimate_doa(subbands: SubbandData, gamma: float, focusing: FocusingSet,
                 config: RecoveryConfig = None) -> DoaEstimate:
    """Full pipeline: focusing, dual SDP, peak localization, amplitudes, merge.

    The duality gap |sum beta_hat - dual objective| of the fit on every
    peak is attached as a quality diagnostic; near zero on noiseless data
    by strong duality.
    A solve that stops short of Optimal raises a UserWarning; the estimate
    is still returned, with the status in its diagnostics.  A focusing set
    built for other bins than the subbands' raises ValueError.
    """
    if config is None:
        config = RecoveryConfig()
    if not (focusing.alphas.shape == subbands.alphas.shape
            and np.allclose(focusing.alphas, subbands.alphas, rtol=1e-12, atol=0.0)):
        raise ValueError("focusing set was built for other bins than the subbands'")
    solution = solve(ConicProblem(Y=subbands.Y, focusing=focusing, gamma=gamma),
                     config.solver)
    if solution.status != "Optimal":
        warnings.warn(f"dual SDP solve stopped with status {solution.status} after "
                      f"{solution.iterations} iterations; the estimate is built from "
                      f"a non-converged dual")
    fs, cs, peak_values = locate_frequencies(solution.Hbar)
    X_opt = primal_reconstruction(subbands.Y, solution.H, gamma)
    betas = recover_amplitudes(X_opt, fs, cs, focusing)
    # strong-duality check over the full decomposition of X_opt, before merging
    total = float(np.sum(betas))
    gap = abs(total - solution.objective)
    fs, betas, cs = merge_atoms(fs, betas, cs, MERGE_RADIUS / subbands.M)
    keep = betas >= AMP_FLOOR * betas.max(initial=0.0)
    minor = [
        {"f": float(f), "theta_deg": f_to_theta(f), "beta": float(b)}
        for f, b, k in zip(fs, betas, keep) if not k
    ]
    return DoaEstimate(
        fs=fs[keep],
        cs=[c for c, k in zip(cs, keep) if k],
        betas=betas[keep],
        diagnostics={
            "dualityGap": gap,
            "dualObjective": solution.objective,
            "totalAmplitude": total,
            "peakValues": peak_values.tolist(),
            "minorAtoms": minor,
            "solverStatus": solution.status,
            "solverIterations": solution.iterations,
        },
    )
