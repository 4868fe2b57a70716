"""Sinc-interpolation focusing matrices and focusing-error bookkeeping.

Each subband j is mapped onto the reference band through a real M x M
matrix T_j with entries sinc(alpha_j*(m-1) - (m'-1)); the residual
e_j(f) = a(alpha_j f) - T_j a(f) is the focusing error that, together with
measurement noise, sets the data-fidelity budget gamma of the sparse
recovery problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (ArrayConfig, WidebandScene, check_bins, check_integer, check_real,
                    steering_vector, theta_to_f)


def focusing_matrix(alpha: float, M: int) -> np.ndarray:
    """Sinc interpolation matrix mapping a(f) toward a(alpha*f).

    Entry (m, m') is sinc(alpha*m - m') with the normalized convention
    sinc(x) = sin(pi x)/(pi x), m, m' = 0..M-1.  alpha = 1 yields the
    identity.
    """
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    m = np.arange(check_integer("M", M, 2))
    return np.sinc(alpha * m[:, None] - m[None, :])


@dataclass(frozen=True)
class FocusingSet:
    """The J focusing matrices for a set of frequency ratios.  Every solve on
    a set shares its arrays, so those of ``build`` are read-only."""

    matrices: np.ndarray  # J x M x M, real
    alphas: np.ndarray

    @classmethod
    def build(cls, alphas, M: int) -> "FocusingSet":
        alphas = np.array(alphas, dtype=float)  # a copy: the caller's array stays writable
        if alphas.size == 0:
            raise ValueError("need at least one bin to build a focusing set")
        mats = np.stack([focusing_matrix(a, M) for a in alphas])
        alphas.flags.writeable = mats.flags.writeable = False
        return cls(matrices=mats, alphas=alphas)

    @property
    def J(self) -> int:
        return self.matrices.shape[0]

    @property
    def M(self) -> int:
        return self.matrices.shape[1]

    @cached_property
    def coupling_map(self) -> np.ndarray:
        """J x 2M x 2M real projection of (h_j, hbar_j) onto hbar_j = T_j^T h_j,
        built on first use: [[A, 2AT], [T^T A, 2T^T A T]], A = (I + 2T T^T)^-1."""
        T, Tt = self.matrices, self.matrices.transpose(0, 2, 1)
        eye = np.broadcast_to(np.eye(self.M), T.shape)
        top = np.linalg.solve(eye + 2.0 * T @ Tt, np.concatenate([eye, 2.0 * T], axis=2))
        coupling = np.concatenate([top, Tt @ top], axis=1)
        coupling.flags.writeable = False
        return coupling

    def check_data(self, Y) -> np.ndarray:
        """Y as a finite complex M x J array, else ValueError."""
        Y = np.asarray(Y, dtype=complex)
        if Y.shape != (self.M, self.J):
            raise ValueError(f"Y shape {Y.shape} inconsistent with focusing set "
                             f"({self.M} x {self.J})")
        if not np.all(np.isfinite(Y)):
            raise ValueError("Y must be finite")
        return Y

    def columns(self, f: float) -> np.ndarray:
        """The M x J matrix [T_1 a(f), ..., T_J a(f)] at one spatial frequency."""
        return (self.matrices @ steering_vector(f, self.M)).T


def focusing_error(f: float, focusing: FocusingSet) -> np.ndarray:
    """The M x J residual of the linear focusing model at spatial frequency
    f: column j is e_j(f) = a(alpha_j f) - T_j a(f)."""
    return steering_vector(focusing.alphas * f, focusing.M).T - focusing.columns(f)


def noiseless_measurements(scene: WidebandScene, focusing: FocusingSet) -> np.ndarray:
    """The focused-model matrix sum_k s_k(omega_j) * T_j a(f_k), column-wise."""
    check_bins(scene, focusing.J)
    X = np.zeros((focusing.M, focusing.J), dtype=complex)
    for th, s in zip(scene.angles_deg, scene.source_spectra):
        X += s * focusing.columns(theta_to_f(th))
    return X


def gamma_oracle(Y: np.ndarray, cfg: ArrayConfig, scene: WidebandScene,
                 focusing: FocusingSet) -> float:
    """Realized noise-plus-focusing-error power ||Y - X*||_F^2.

    Requires the true scene; Y must have been synthesized from it so the
    residual is exactly N + E.  ``cfg`` is only checked against the focusing
    set: the model takes M from ``focusing``.
    """
    if cfg.M != focusing.M or np.shape(Y) != (focusing.M, focusing.J):
        raise ValueError(f"Y shape {np.shape(Y)} and array M = {cfg.M} inconsistent "
                         f"with focusing set ({focusing.M} x {focusing.J})")
    Y = focusing.check_data(Y)
    X = noiseless_measurements(scene, focusing)
    return float(np.linalg.norm(Y - X) ** 2)


def gamma_blind(Y: np.ndarray, sigma2: float, focusing: FocusingSet) -> float:
    """Heuristic gamma when the scene is unknown.

    Noise power is taken as M*J*sigma2.  Focusing-error power is bounded by
    spreading the estimated per-band signal power over a coarse 64-point grid
    of candidate spatial frequencies, weighted by a conventional beamformer.
    """
    check_real("sigma2 (noise variance)", sigma2, "nonnegative")
    Y = focusing.check_data(Y)
    M, J = Y.shape
    noise_power = M * J * sigma2
    f_grid = np.linspace(-0.5, 0.5, 64, endpoint=False)
    # per-band signal power estimate (||a||^2 = M)
    p_sig = np.maximum(np.linalg.norm(Y, axis=0) ** 2 - M * sigma2, 0.0) / M
    # beamformer weights over the candidate grid, one row per band
    A = steering_vector(focusing.alphas[:, None] * f_grid, M)  # J x grid x M
    bf = np.abs(A.conj() @ Y.T[:, :, None])[:, :, 0] ** 2
    total = bf.sum(axis=1, keepdims=True)
    w = np.divide(bf, total, out=np.full_like(bf, 1.0 / f_grid.size), where=total > 0)
    e_norms = np.stack([np.linalg.norm(focusing_error(f, focusing), axis=0) ** 2
                        for f in f_grid], axis=1)  # J x grid
    return noise_power + float(p_sig @ np.sum(w * e_norms, axis=1))
