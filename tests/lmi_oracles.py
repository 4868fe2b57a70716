"""Reference computations for the LMI side of the dual SDP, used only by
the tests: the real embedding of a Hermitian matrix, and an alternating-
projection search for the Q certificate of a dual polynomial."""

import numpy as np

from wbdoa.solver import _project_trace, psd_project


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
        Q = psd_project(S)[:M, :M]
        S = S0.copy()
        S[:M, :M] = _project_trace(0.5 * (Q + Q.conj().T))
        lam_min = float(np.linalg.eigvalsh(S)[0])
        if lam_min >= -tol:
            return S[:M, :M].copy(), True, lam_min
    return S[:M, :M].copy(), False, lam_min
