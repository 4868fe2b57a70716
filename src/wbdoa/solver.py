"""First-order conic solver for the structured dual SDP.

Operator-splitting (ADMM) over the pair x = (H, S) with S the Hermitian
block [[Q, Hbar], [Hbar^H, I_J]]:

  (a) proximal step for the concave objective in H (linear term plus exact
      block soft-thresholding for the -sqrt(gamma)*||H||_F term) together
      with projection of S onto the PSD cone,
  (b) Euclidean projection of (H, S) onto the affine constraint set
      (Toeplitz-trace conditions on Q, Hbar = columnwise T_j^H h_j,
      identity lower-right block),
  (c) over-relaxation of the x-step by RELAXATION (Boyd et al., ADMM,
      2011, sec. 3.4.3) and the scaled dual update; the step size is
      adapted by balancing each residual against its own stopping
      tolerance, within a factor 1e3 of its starting value.

The reported iterate is the affine-feasible one, so the linear constraints
hold exactly and only the PSD violation is a residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atoms import ConicProblem

# x-step relaxation alpha: x_hat = alpha x + (1 - alpha) z_prev
RELAXATION = 1.8
# iterations between residual checks (and step-size updates)
CHECK_EVERY = 25


@dataclass
class SolverConfig:
    max_iter: int = 50000
    eps_abs: float = 1e-7
    eps_rel: float = 1e-6

    def __post_init__(self):
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not all(np.isfinite(e) and e > 0 for e in (self.eps_abs, self.eps_rel)):
            raise ValueError("tolerances eps_abs and eps_rel must be finite and positive")


@dataclass
class ConicSolution:
    H: np.ndarray
    Hbar: np.ndarray
    Q: np.ndarray
    objective: float
    residuals: dict
    iterations: int
    status: str  # Optimal | MaxIter


def psd_project(W: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix to the Hermitian part of W, by clipping
    negative eigenvalues.

    The result is rebuilt from the smaller eigenspace: W - V_- L_- V_-^H
    when at most half the eigenvalues are negative (the cheaper product),
    else V_+ L_+ V_+^H (subtracting a large negative part from W would
    cancel and could leave the result slightly indefinite).
    """
    W = np.asarray(W, dtype=complex)
    W = W + W.conj().T
    W *= 0.5
    try:
        evals, evecs = np.linalg.eigh(W)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed on {W.shape} block") from exc
    neg = int(np.searchsorted(evals, 0.0))  # eigenvalues are ascending
    if neg == 0:
        return W
    if 2 * neg <= evals.size:
        V = evecs[:, :neg]
        return W - (V * evals[:neg]) @ V.conj().T
    V = evecs[:, neg:]
    return (V * evals[neg:]) @ V.conj().T


def _project_trace(Q: np.ndarray) -> np.ndarray:
    """Project a Hermitian Q onto sum_n Q[n, n+m] = delta_{m0}, all m.

    Each diagonal is independent; the correction is spread uniformly along
    the diagonal and mirrored conjugate below.  Q is written skewed into an
    M x 2M buffer, so that diagonal m is column m + M - 1, and the
    correction comes back through the same skewed view.
    """
    M = Q.shape[0]
    buf = np.zeros((M, 2 * M), dtype=complex)
    # skew[r, c] is buf[r, c - r + M - 1]: rows of length 2M - 1 laid over rows of 2M
    skew = buf.ravel()[M - 1:2 * M * M - 1].reshape(M, 2 * M - 1)[:, :M]
    skew[...] = Q
    sums = buf.sum(axis=0)
    # mean of each diagonal m >= 0; the main diagonal is real and sums to 1
    upper = sums[M - 1:2 * M - 1] / np.arange(M, 0, -1)
    upper[0] = (sums[M - 1].real - 1.0) / M
    buf[:, :2 * M - 1] = np.concatenate([upper[:0:-1].conj(), upper])
    out = Q - skew
    out.flat[::M + 1] = out.flat[::M + 1].real
    return out


def affine_project(block: np.ndarray, problem: ConicProblem, H: np.ndarray):
    """Euclidean projection onto the affine constraint set.

    Projects the pair (block, H) jointly onto
    {Q trace conditions, Hbar = columnwise T_j^H h_j, lower-right = I_J}
    and returns (block, H).  The coupling part applies the problem's
    precomputed map to the real and imaginary parts of all J bins at once.
    """
    M, J = problem.M, problem.J
    S = np.asarray(block, dtype=complex)
    if S.shape != (M + J, M + J):
        raise ValueError(f"block must be {(M + J, M + J)}, got {S.shape}")
    out = S + S.conj().T
    out *= 0.5
    # the real J x 2M x 2 input of the map: row j holds (h_j, hbar_j), real
    # and imaginary parts on the last axis, written through a complex view
    X = np.empty((J, 2 * M, 2))
    Xc = X.view(complex)[:, :, 0]
    Xc[:, :M] = H.T
    Xc[:, M:] = out[:M, M:].T
    out[:M, :M] = _project_trace(out[:M, :M])
    out[M:, M:] = np.eye(J)
    Z = (problem.coupling_map @ X).view(complex)[:, :, 0].T
    out[:M, M:] = Z[M:]
    out[M:, :M] = Z[M:].conj().T
    return out, Z[:M]


def _prox_objective(V: np.ndarray, problem: ConicProblem, t: float) -> np.ndarray:
    """prox of t * (-Re<Y, H> + sqrt(gamma)||H||_F): shift then shrink.

    Overwrites V with the result."""
    V += t * problem.Y
    nrm = np.linalg.norm(V)
    thr = t * np.sqrt(problem.gamma)
    if nrm <= thr:
        V[...] = 0.0
    else:
        V *= 1.0 - thr / nrm
    return V


def _pair_norm(H: np.ndarray, S: np.ndarray) -> float:
    """Euclidean norm of the pair (H, S)."""
    return np.sqrt(np.linalg.norm(H) ** 2 + np.linalg.norm(S) ** 2)


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

    t0 = t = 1.0 / max(1.0, float(np.linalg.norm(problem.Y)))

    status = "MaxIter"
    dim = np.sqrt(2.0 * (M * J + n * n))

    for k in range(1, config.max_iter + 1):
        Hx = _prox_objective(Hz - Hu, problem, t)
        Sx = psd_project(Sz - Su)
        Hz_prev, Sz_prev = Hz, Sz
        Hx_hat = (1.0 - RELAXATION) * Hz_prev
        Hx_hat += RELAXATION * Hx
        Sx_hat = (1.0 - RELAXATION) * Sz_prev
        Sx_hat += RELAXATION * Sx
        # u <- u + x_hat - z, where u + x_hat is the point projected onto z
        Hu += Hx_hat
        Su += Sx_hat
        Sz, Hz = affine_project(Su, problem, Hu)
        Hu -= Hz
        Su -= Sz

        if k % CHECK_EVERY == 0 or k == config.max_iter:
            r_norm = _pair_norm(Hx - Hz, Sx - Sz)
            s_norm = _pair_norm(Hz - Hz_prev, Sz - Sz_prev) / t
            x_norm, z_norm = _pair_norm(Hx, Sx), _pair_norm(Hz, Sz)
            u_norm = _pair_norm(Hu, Su) / t
            eps_pri = config.eps_abs * dim + config.eps_rel * max(x_norm, z_norm)
            eps_dual = config.eps_abs * dim + config.eps_rel * u_norm
            if r_norm <= eps_pri and s_norm <= eps_dual:
                status = "Optimal"
                break
            if k < config.max_iter // 2:
                r_rel, s_rel = r_norm / eps_pri, s_norm / eps_dual
                step = 0.5 if r_rel > 2.0 * s_rel else 2.0 if s_rel > 2.0 * r_rel else 1.0
                if step != 1.0 and 1e-3 <= t * step / t0 <= 1e3:
                    Hu *= step
                    Su *= step
                    t *= step

    evals = np.linalg.eigvalsh(0.5 * (Sz + Sz.conj().T))
    residuals = {
        "psdViolation": float(max(0.0, -evals[0])),
        "primal": float(r_norm),
        "dual": float(s_norm),
    }
    return ConicSolution(
        H=Hz,
        Hbar=Sz[:M, M:].copy(),
        Q=Sz[:M, :M].copy(),
        objective=problem.objective(Hz),
        residuals=residuals,
        iterations=k,
        status=status,
    )

