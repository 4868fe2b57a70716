"""Rotational signal-subspace baseline: focusing by unitary Procrustes
matrices built from initial DOA guesses, then single-snapshot-per-bin
covariance averaging and a MUSIC scan at the reference frequency.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import SubbandData, steering_matrix, theta_to_f

# MUSIC scan step over (-89.9, 89.9) degrees, refined parabolically
MUSIC_GRID_DEG = 0.01


@dataclass(frozen=True)
class RssConfig:
    """Known source count and initial DOA guesses."""

    K: int
    init_angles_deg: tuple

    def __post_init__(self):
        object.__setattr__(self, "init_angles_deg",
                           tuple(float(a) for a in self.init_angles_deg))
        if len(self.init_angles_deg) != self.K:
            raise ValueError("need exactly K initial angles")


def perturb_initial(true_angles_deg, max_err_deg: float, seed: int):
    """True DOAs plus independent Uniform(-max_err, +max_err) errors."""
    if max_err_deg < 0:
        raise ValueError("max_err_deg must be nonnegative")
    rng = np.random.default_rng(seed)
    true_angles = np.asarray(true_angles_deg, dtype=float)
    return true_angles + rng.uniform(-max_err_deg, max_err_deg, size=true_angles.shape)


def rss_focusing_matrices(M: int, alphas, init_angles_deg) -> list:
    """Unitary focusing matrices mapping each band onto the reference band.

    For band j, the Procrustes solution V U^H from the SVD
    U S V^H = Phi_j Phi_1^H of the initial-guess steering matrices.
    """
    init = np.asarray(init_angles_deg, dtype=float)
    if init.size == 0:
        raise ValueError("need at least one initial angle")
    fs = theta_to_f(init)
    Phi1 = steering_matrix(fs, M)
    mats = []
    for alpha in np.asarray(alphas, dtype=float):
        Phij = steering_matrix(alpha * fs, M)
        U, s, Vh = np.linalg.svd(Phij @ Phi1.conj().T)
        # the product has rank <= K; only degeneracy among the leading K
        # values makes the Procrustes rotation ill-determined on the signal
        # subspace (the matrix stays unitary either way)
        if s[min(fs.size, M) - 1] < 1e-12 * max(s[0], 1e-300):
            warnings.warn("near-degenerate SVD in focusing matrix construction")
        mats.append(Vh.conj().T @ U.conj().T)
    return mats


@lru_cache(maxsize=1)
def _scan(M: int) -> tuple:
    """Read-only (angle grid in degrees, steering_matrix of its f) of the MUSIC
    scan; one entry, so alternating array sizes rebuild it."""
    grid = np.arange(-89.9, 89.9 + MUSIC_GRID_DEG / 2, MUSIC_GRID_DEG)
    A = steering_matrix(theta_to_f(grid), M)
    grid.flags.writeable = A.flags.writeable = False
    return grid, A


def music_spectrum(covariance: np.ndarray, K: int, steering: np.ndarray) -> np.ndarray:
    """MUSIC pseudo-spectrum 1/||E_n^H a||^2 for each column a of an
    M-row steering matrix."""
    R = np.asarray(covariance, dtype=complex)
    M = R.shape[0]
    if K >= M:
        raise ValueError("K must be smaller than the sensor count")
    R = 0.5 * (R + R.conj().T)
    try:
        evals, evecs = np.linalg.eigh(R)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("eigendecomposition of the covariance failed") from exc
    En = evecs[:, : M - K]  # noise subspace: smallest M-K eigenvalues
    denom = np.sum(np.abs(En.conj().T @ steering) ** 2, axis=0)
    return 1.0 / np.maximum(denom, 1e-300)


def _parabolic_refine(x, y, i):
    """Vertex of the parabola through three grid samples around index i."""
    if i == 0 or i == len(x) - 1:
        return x[i]
    denom = y[i - 1] - 2 * y[i] + y[i + 1]
    if denom >= 0:
        return x[i]
    delta = 0.5 * (y[i - 1] - y[i + 1]) / denom
    return x[i] + delta * (x[i + 1] - x[i])


def rss_estimate(subbands: SubbandData, cfg: RssConfig) -> np.ndarray:
    """Focus every bin, average the single-snapshot covariances, run MUSIC.

    Returns the K largest-spectrum angles in degrees, sorted ascending.
    """
    M, J = subbands.M, subbands.J
    if J < cfg.K + 1:
        raise ValueError(f"J={J} bins give covariance rank < K+1={cfg.K + 1}")
    mats = rss_focusing_matrices(M, subbands.alphas, cfg.init_angles_deg)
    R = np.zeros((M, M), dtype=complex)
    for j in range(J):
        z = mats[j] @ subbands.Y[:, j]
        R += np.outer(z, z.conj())
    R /= J
    grid, A = _scan(M)
    spec = music_spectrum(R, cfg.K, A)
    # local maxima, take the K largest, refine by parabolic interpolation
    # on log-spectrum (sharper near MUSIC poles)
    ly = np.log(spec)
    is_peak = np.zeros(grid.size, dtype=bool)
    is_peak[1:-1] = (ly[1:-1] >= ly[:-2]) & (ly[1:-1] >= ly[2:])
    peak_idx = np.nonzero(is_peak)[0]
    if peak_idx.size < cfg.K:
        # fall back to the globally largest samples
        peak_idx = np.argsort(spec)[::-1][: cfg.K]
    order = np.argsort(spec[peak_idx])[::-1][: cfg.K]
    angles = [_parabolic_refine(grid, ly, i) for i in peak_idx[order]]
    return np.sort(np.asarray(angles))
