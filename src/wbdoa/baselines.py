"""Rotational signal-subspace baseline: focusing by unitary Procrustes
matrices built from initial DOA guesses, then single-snapshot-per-bin
covariance averaging and MUSIC at the reference frequency, peaks by root finding.
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import (SubbandData, check_real, f_to_theta, stationary_frequencies, steering_matrix,
                    theta_to_f)


def perturb_initial(true_angles_deg, max_err_deg: float, seed: int):
    """True DOAs plus independent Uniform(-max_err, +max_err) errors."""
    check_real("max_err_deg", max_err_deg, "nonnegative")
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


def music_spectrum(noise_subspace: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """MUSIC pseudo-spectrum 1/||E_n^H a||^2 for each column a of an M-row
    steering matrix, E_n the M x (M-K) noise subspace."""
    denom = np.sum(np.abs(noise_subspace.conj().T @ steering) ** 2, axis=0)
    return 1.0 / np.maximum(denom, 1e-300)


def rss_estimate(subbands: SubbandData, init_angles_deg) -> np.ndarray:
    """Focus every bin, average the single-snapshot covariances, run MUSIC
    for K = len(init_angles_deg) sources.

    Returns the angles in degrees of its at most K largest peaks, sorted ascending.
    """
    M, J, K = subbands.M, subbands.J, len(init_angles_deg)
    if K >= M:
        raise ValueError("K must be smaller than the sensor count")
    if J < K + 1:
        raise ValueError(f"J={J} bins give covariance rank < K+1={K + 1}")
    mats = rss_focusing_matrices(M, subbands.alphas, init_angles_deg)
    R = np.zeros((M, M), dtype=complex)
    for j in range(J):
        z = mats[j] @ subbands.Y[:, j]
        R += np.outer(z, z.conj())
    R /= J
    # MUSIC peaks: the minima of a(f)^H E_n E_n^H a(f), E_n the noise subspace
    # (smallest M-K eigenvalues) of the Hermitian R; music_spectrum ranks them
    En = np.linalg.eigh(R)[1][:, : M - K]
    fs = stationary_frequencies(En @ En.conj().T, maxima=False)
    spec = music_spectrum(En, steering_matrix(fs, M))
    return np.sort(f_to_theta(fs[np.argsort(spec)[::-1][:K]]))
