"""Reference computations for the LMI side of the dual SDP, used only by
the tests: the value of a dual polynomial, the columnwise map H -> Hbar,
the dual atomic norm, the real embedding of a Hermitian matrix, and an
alternating-projection search for the Q certificate of a dual polynomial."""

import numpy as np

from wbdoa.atoms import DualPolynomial
from wbdoa.solver import _project_trace, psd_project


def poly_value(poly: DualPolynomial, f):
    """P(f) = ||Hbar^H a(f)||_2, shaped like f."""
    return np.linalg.norm(poly.vector(f), axis=-1)


def hbar(H: np.ndarray, focusing) -> np.ndarray:
    """Columnwise map h_j -> T_j^H h_j (T_j is real)."""
    return (focusing.matrices.transpose(0, 2, 1) @ H.T[:, :, None])[:, :, 0].T


def dual_atomic_norm(H: np.ndarray, focusing) -> float:
    """max_f ||Hbar^H a(f)||_2: the largest P at its local maxima, or P(0)
    if P is constant."""
    poly = DualPolynomial(Hbar=hbar(np.asarray(H, dtype=complex), focusing))
    return float(np.max(poly_value(poly, poly.maxima()), initial=poly_value(poly, 0.0)))


def complex_to_real_embed(W: np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[Re W, -Im W], [Im W, Re W]].

    PSD-ness is preserved and every eigenvalue of W appears twice.
    """
    W = np.asarray(W)
    return np.block([[W.real, -W.imag], [W.imag, W.real]])


def find_q_certificate(Hbar: np.ndarray, max_iter: int = 20000, tol: float = 1e-7):
    """Search for a Hermitian Q making [[Q, Hbar], [Hbar^H, I]] PSD under
    the Toeplitz-trace conditions, by alternating projections.

    Returns (Q, feasible, min_eigenvalue).  Feasibility holds whenever
    max_f ||Hbar^H a(f)|| < 1 strictly.
    """
    M, J = Hbar.shape
    n = M + J
    # the fixed blocks of the affine set, with the start Q = I/M
    S0 = np.zeros((n, n), dtype=complex)
    S0[:M, :M] = np.eye(M) / M
    S0[:M, M:] = Hbar
    S0[M:, :M] = Hbar.conj().T
    S0[M:, M:] = np.eye(J)
    S = S0
    lam_min = -np.inf
    for _ in range(max_iter):
        Q = psd_project(S)[0][:M, :M]
        S = S0.copy()
        S[:M, :M] = _project_trace(0.5 * (Q + Q.conj().T))
        lam_min = float(np.linalg.eigvalsh(S)[0])
        if lam_min >= -tol:
            return S[:M, :M].copy(), True, lam_min
    return S[:M, :M].copy(), False, lam_min
