"""First-order conic solver for the structured dual SDP.

Operator-splitting (ADMM) over the pair x = (H, S) with S the Hermitian
block [[Q, Hbar], [Hbar^H, I_J]]:

  (a) proximal step for the concave objective in H (linear term plus exact
      block soft-thresholding for the -sqrt(gamma)*||H||_F term) together
      with projection of S onto the PSD cone,
  (b) Euclidean projection of (H, S) onto the affine constraint set
      (Toeplitz-trace conditions on Q, Hbar = columnwise T_j^H h_j,
      identity lower-right block),
  (c) scaled dual update, with residual-balancing adaptation of the
      penalty parameter.

The reported iterate is the affine-feasible one, so the linear constraints
hold exactly and only the PSD violation is a residual.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .atoms import ConicProblem


@dataclass
class SolverConfig:
    max_iter: int = 50000
    eps_abs: float = 1e-7
    eps_rel: float = 1e-6
    rho: float = 1.0
    adapt_rho: bool = True
    check_every: int = 25
    log_path: str = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.eps_abs <= 0 or self.eps_rel <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class ConicSolution:
    H: np.ndarray
    Hbar: np.ndarray
    Q: np.ndarray
    objective: float
    residuals: dict
    iterations: int
    status: str  # Optimal | MaxIter


def complex_to_real_embed(W: np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[Re W, -Im W], [Im W, Re W]].

    PSD-ness is preserved and every eigenvalue of W appears twice.
    """
    W = np.asarray(W)
    return np.block([[W.real, -W.imag], [W.imag, W.real]])


def psd_project(W: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix, by clipping negative eigenvalues."""
    W = np.asarray(W, dtype=complex)
    W = 0.5 * (W + W.conj().T)
    try:
        evals, evecs = np.linalg.eigh(W)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed on {W.shape} block") from exc
    if evals[0] >= 0:
        return W
    pos = evals > 0
    if not np.any(pos):
        return np.zeros_like(W)
    V = evecs[:, pos]
    return (V * evals[pos]) @ V.conj().T


def _project_trace(Q: np.ndarray) -> np.ndarray:
    """Project a Hermitian Q onto sum_n Q[n, n+m] = delta_{m0}, all m.

    Each diagonal is independent; the correction is spread uniformly along
    the diagonal and mirrored conjugate below.
    """
    Q = Q.copy()
    M = Q.shape[0]
    idx = np.arange(M)
    # main diagonal: real, sums to 1
    dsum = np.real(np.trace(Q))
    Q[idx, idx] = np.real(Q[idx, idx]) - (dsum - 1.0) / M
    for m in range(1, M):
        n = np.arange(M - m)
        s = Q[n, n + m].sum() / (M - m)
        Q[n, n + m] -= s
        Q[n + m, n] -= np.conj(s)
    return Q


def affine_project(block: np.ndarray, problem: ConicProblem, H: np.ndarray):
    """Euclidean projection onto the affine constraint set.

    Projects the pair (block, H) jointly onto
    {Q trace conditions, Hbar = columnwise T_j^H h_j, lower-right = I_J}
    and returns (block, H).
    """
    M, J = problem.M, problem.J
    S = np.asarray(block, dtype=complex)
    if S.shape != (M + J, M + J):
        raise ValueError(f"block must be {(M + J, M + J)}, got {S.shape}")
    S = 0.5 * (S + S.conj().T)
    out = S.copy()
    out[:M, :M] = _project_trace(S[:M, :M])
    out[M:, M:] = np.eye(J)
    Hn = np.empty_like(H)
    B = S[:M, M:]
    for j in range(J):
        G = problem.focusing.matrices[j].T  # T_j real, so T_j^H = T_j^T
        rhs = H[:, j] + 2.0 * (G.T @ B[:, j])
        Hn[:, j] = cho_solve(problem.coupling_factors[j], rhs)
    Bn = np.stack([problem.focusing.matrices[j].T @ Hn[:, j] for j in range(J)], axis=1)
    out[:M, M:] = Bn
    out[M:, :M] = Bn.conj().T
    return out, Hn


def _prox_objective(V: np.ndarray, problem: ConicProblem, t: float) -> np.ndarray:
    """prox of t * (-Re<Y, H> + sqrt(gamma)||H||_F): shift then shrink."""
    W = V + t * problem.Y
    nrm = np.linalg.norm(W)
    thr = t * np.sqrt(problem.gamma)
    if nrm <= thr:
        return np.zeros_like(W)
    return W * (1.0 - thr / nrm)


def solve(problem: ConicProblem, config: SolverConfig = None) -> ConicSolution:
    """Run the splitting iteration until the KKT residuals meet tolerance."""
    if config is None:
        config = SolverConfig()
    M, J = problem.M, problem.J
    n = M + J

    # affine-feasible start: H = 0, Q = I/M
    Hz = np.zeros((M, J), dtype=complex)
    Sz = np.zeros((n, n), dtype=complex)
    Sz[:M, :M] = np.eye(M) / M
    Sz[M:, M:] = np.eye(J)
    Hu = np.zeros_like(Hz)
    Su = np.zeros_like(Sz)

    t = 1.0 / config.rho
    scale = max(1.0, float(np.linalg.norm(problem.Y)))
    t /= scale

    log_rows = []
    status = "MaxIter"
    iters = config.max_iter
    r_norm = s_norm = np.inf
    dim = np.sqrt(2.0 * (M * J + n * n))

    for k in range(1, config.max_iter + 1):
        Hx = _prox_objective(Hz - Hu, problem, t)
        Sx = psd_project(Sz - Su)
        Hz_prev, Sz_prev = Hz, Sz
        Sz, Hz = affine_project(Sx + Su, problem, Hx + Hu)
        Hu = Hu + Hx - Hz
        Su = Su + Sx - Sz

        if k % config.check_every == 0 or k == config.max_iter:
            r_norm = np.sqrt(
                np.linalg.norm(Hx - Hz) ** 2 + np.linalg.norm(Sx - Sz) ** 2
            )
            s_norm = (
                np.sqrt(
                    np.linalg.norm(Hz - Hz_prev) ** 2
                    + np.linalg.norm(Sz - Sz_prev) ** 2
                )
                / t
            )
            x_norm = np.sqrt(np.linalg.norm(Hx) ** 2 + np.linalg.norm(Sx) ** 2)
            z_norm = np.sqrt(np.linalg.norm(Hz) ** 2 + np.linalg.norm(Sz) ** 2)
            u_norm = np.sqrt(np.linalg.norm(Hu) ** 2 + np.linalg.norm(Su) ** 2) / t
            eps_pri = config.eps_abs * dim + config.eps_rel * max(x_norm, z_norm)
            eps_dual = config.eps_abs * dim + config.eps_rel * u_norm
            if config.log_path:
                log_rows.append((k, problem.objective(Hz), r_norm, s_norm))
            if r_norm <= eps_pri and s_norm <= eps_dual:
                status = "Optimal"
                iters = k
                break
            if config.adapt_rho and k < config.max_iter // 2:
                if r_norm > 10.0 * s_norm:
                    t_new = t / 2.0
                elif s_norm > 10.0 * r_norm:
                    t_new = t * 2.0
                else:
                    t_new = t
                if t_new != t:
                    Hu *= t_new / t
                    Su *= t_new / t
                    t = t_new

    Q = Sz[:M, :M].copy()
    Hbar = Sz[:M, M:].copy()
    evals = np.linalg.eigvalsh(0.5 * (Sz + Sz.conj().T))
    residuals = {
        "psdViolation": float(max(0.0, -evals[0])),
        "relGap": float(r_norm / max(1.0, np.linalg.norm(problem.Y))),
        "primal": float(r_norm),
        "dual": float(s_norm),
    }
    if config.log_path and log_rows:
        with open(config.log_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "objective", "primal_residual", "dual_residual"])
            w.writerows(log_rows)
    return ConicSolution(
        H=Hz,
        Hbar=Hbar,
        Q=Q,
        objective=problem.objective(Hz),
        residuals=residuals,
        iterations=iters,
        status=status,
    )


def find_q_certificate(Hbar: np.ndarray, max_iter: int = 20000, tol: float = 1e-7):
    """Search for a Hermitian Q making [[Q, Hbar], [Hbar^H, I]] PSD under
    the Toeplitz-trace conditions, by alternating projections.

    Returns (Q, feasible, min_eigenvalue).  Feasibility holds whenever
    max_f ||Hbar^H a(f)|| < 1 strictly.
    """
    M, J = Hbar.shape
    n = M + J
    S = np.zeros((n, n), dtype=complex)
    S[:M, :M] = np.eye(M) / M
    S[:M, M:] = Hbar
    S[M:, :M] = Hbar.conj().T
    S[M:, M:] = np.eye(J)

    def onto_affine(S):
        out = S.copy()
        out[:M, :M] = _project_trace(0.5 * (S[:M, :M] + S[:M, :M].conj().T))
        out[:M, M:] = Hbar
        out[M:, :M] = Hbar.conj().T
        out[M:, M:] = np.eye(J)
        return out

    lam_min = -np.inf
    for _ in range(max_iter):
        S = onto_affine(psd_project(S))
        lam_min = float(np.linalg.eigvalsh(S)[0])
        if lam_min >= -tol:
            return S[:M, :M].copy(), True, lam_min
    return S[:M, :M].copy(), False, lam_min
