"""Atom set, atomic/dual atomic norms, and the dual SDP.

An atom A(f, c) = [T_1 a(f), ..., T_J a(f)] diag(c) couples one spatial
frequency to all J subbands through a unit cross-band coefficient vector c.
Measurements are sparse nonnegative combinations of atoms; the recovery
problem minimizes the induced atomic norm, and its Lagrangian dual is a
semidefinite program over a dual matrix H and a Hermitian certificate Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .focusing import FocusingSet
from .model import steering_matrix, steering_vector


def build_atom(f: float, c, focusing: FocusingSet) -> np.ndarray:
    """The M x J matrix A(f, c) = [c_1 T_1 a(f), ..., c_J T_J a(f)]; c is
    renormalized to unit l2 norm."""
    c = np.asarray(c, dtype=complex).ravel()
    nrm = np.linalg.norm(c)
    if nrm < 1e-12:
        raise ValueError("coefficient vector must be nonzero")
    return c / nrm * focusing.columns(f)


def _hbar(H: np.ndarray, focusing: FocusingSet) -> np.ndarray:
    """Columnwise map h_j -> T_j^H h_j (T_j is real)."""
    return (focusing.matrices.transpose(0, 2, 1) @ H.T[:, :, None])[:, :, 0].T


@dataclass(frozen=True)
class DualPolynomial:
    """Wrapper around Hbar evaluating P(f) = ||Hbar^H a(f)||_2."""

    Hbar: np.ndarray

    def __call__(self, f):
        """P(f): a float for scalar f, else an array shaped like f.

        Each f gets its own matrix-vector product and dot products, so a
        value does not depend on the other entries of f."""
        v = self.vector(np.asarray(f, dtype=float))[..., None]
        re, im = v.real, v.imag
        sq = np.swapaxes(re, -1, -2) @ re + np.swapaxes(im, -1, -2) @ im
        vals = np.sqrt(sq)[..., 0, 0]
        return float(vals) if vals.ndim == 0 else vals

    def vector(self, f) -> np.ndarray:
        """The J-vector [hbar_1^H a(f), ..., hbar_J^H a(f)]; an array of f
        gives one per entry along a new last axis."""
        a = steering_vector(f, self.Hbar.shape[0])
        return (self.Hbar.conj().T @ a[..., None])[..., 0]

    def on_grid(self, grid_size: int) -> tuple:
        """(fs, P(fs)) on a uniform grid over [-1/2, 1/2) of at least 4*M points."""
        M = self.Hbar.shape[0]
        if grid_size < 4 * M:
            raise ValueError(f"grid_size must be at least 4*M = {4 * M}")
        fs, A = _grid(grid_size, M)
        return fs, np.linalg.norm(self.Hbar.conj().T @ A, axis=0)


@lru_cache(maxsize=1)
def _grid(grid_size: int, M: int) -> tuple:
    """Read-only (fs, steering_matrix(fs, M)); one entry, so a huge grid is not kept."""
    fs = np.linspace(-0.5, 0.5, grid_size, endpoint=False)
    A = steering_matrix(fs, M)
    fs.flags.writeable = A.flags.writeable = False
    return fs, A


def golden_section_max(fun, lo, hi, tol=1e-12, max_iter=200):
    """Golden-section ascent of a unimodal function on [lo, hi].

    lo and hi may be arrays of brackets, refined together: fun then maps an
    array of points to their values, and each bracket makes the same
    comparisons as its own scalar run, stopping once narrower than tol.
    Returns (argmax, max, bracket width), shaped like the brackets."""
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        live = b - a >= tol
        if not live.any():
            break
        # the max lies in [a, d], where c becomes the new d and a new c is
        # probed, or in [c, b], where d becomes the new c
        left = live & (fc > fd)
        right = live ^ left
        a, b = np.where(right, c, a), np.where(left, d, b)
        step = invphi * (b - a)
        x = np.where(left, b - step, a + step)
        fx = fun(x)
        c, fc, d, fd = (np.where(left, x, np.where(right, d, c)),
                        np.where(left, fx, np.where(right, fd, fc)),
                        np.where(left, c, np.where(right, x, d)),
                        np.where(left, fc, np.where(right, fx, fd)))
    x = (a + b) / 2
    if x.ndim == 0:
        x, a, b = float(x), float(a), float(b)
    return x, fun(x), b - a


def dual_atomic_norm(H: np.ndarray, focusing: FocusingSet) -> float:
    """max_f ||Hbar^H a(f)||_2, by an 8192-point grid plus golden-section refinement."""
    poly = DualPolynomial(Hbar=_hbar(np.asarray(H, dtype=complex), focusing))
    fs, vals = poly.on_grid(8192)
    i = int(np.argmax(vals))
    if vals[i] == 0.0:
        return 0.0
    step = 1.0 / 8192
    _, peak, _ = golden_section_max(poly, fs[i] - step, fs[i] + step)
    return max(peak, float(vals[i]))


@dataclass(frozen=True)
class ConicProblem:
    """The dual SDP of the recovery problem, ready for the solver.

    Inputs are the data matrix Y (M x J), the focusing set and the fidelity
    budget gamma.  Decision variables are H (M x J complex) and the
    Hermitian block S = [[Q, Hbar], [Hbar^H, I_J]] of size M+J.  The affine
    constraints are the M Toeplitz-trace conditions on Q (off-diagonal sums
    vanish, main diagonal sums to 1), the columnwise coupling
    Hbar(:, j) = T_j^H H(:, j), and the fixed identity lower-right block.
    The objective maximizes Re Tr(Y^H H) - sqrt(gamma) * ||H||_F.
    """

    Y: np.ndarray
    focusing: FocusingSet
    gamma: float
    # J x 2M x 2M real map taking (h_j, hbar_j) to its projection onto
    # hbar_j = T_j^T h_j: with A_j = (I + 2 T_j T_j^T)^-1 its blocks are
    # [[A_j, 2 A_j T_j], [T_j^T A_j, 2 T_j^T A_j T_j]]
    coupling_map: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=complex)
        object.__setattr__(self, "Y", Y)
        if Y.shape != (self.M, self.J):
            raise ValueError(
                f"Y shape {Y.shape} inconsistent with focusing set "
                f"({self.M} x {self.J})"
            )
        if not np.all(np.isfinite(Y)):
            raise ValueError("Y must be finite")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError("gamma must be finite and nonnegative")
        T = self.focusing.matrices
        Tt = T.transpose(0, 2, 1)
        eye = np.broadcast_to(np.eye(self.M), T.shape)
        top = np.linalg.solve(eye + 2.0 * T @ Tt, np.concatenate([eye, 2.0 * T], axis=2))
        object.__setattr__(self, "coupling_map", np.concatenate([top, Tt @ top], axis=1))

    @property
    def M(self) -> int:
        return self.focusing.M

    @property
    def J(self) -> int:
        return self.focusing.J

    def objective(self, H: np.ndarray) -> float:
        return float(
            np.real(np.trace(self.Y.conj().T @ H))
            - np.sqrt(self.gamma) * np.linalg.norm(H)
        )
