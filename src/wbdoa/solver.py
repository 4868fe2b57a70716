"""First-order conic solver for the structured dual SDP.

Operator-splitting (ADMM) over the pair x = (H, S) with S the Hermitian
block [[Q, Hbar], [Hbar^H, I_J]]:

  (a) proximal step for the concave objective in H (linear term plus exact
      block soft-thresholding for the -sqrt(gamma)*||H||_F term) together
      with projection of S onto the PSD cone, warm-started between checks
      from the previous negative eigenspace once M + J >= WARM_MIN_SIZE,
  (b) Euclidean projection of (H, S) onto the affine constraint set
      (Toeplitz-trace conditions on Q, Hbar = columnwise T_j^H h_j,
      identity lower-right block),
  (c) over-relaxation of the x-step by RELAXATION (Boyd et al., ADMM,
      2011, sec. 3.4.3) and the scaled dual update; `_check` holds the
      stopping test and the step size, balanced on the residuals against
      their own tolerances within a factor 1e3 of its starting value.

The reported iterate is the affine-feasible one, so the linear constraints
hold exactly and only the PSD violation is a residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atoms import ConicProblem
from .model import check_integer, check_real

# x-step relaxation alpha: x_hat = alpha x + (1 - alpha) z_prev
RELAXATION = 1.8
# iterations between residual checks (and step-size updates)
CHECK_EVERY = 25
# Warm-started PSD projection (Rontsis, Goulart & Nakatsukasa, JOTA 2022):
# from this block size n = M + J, `solve` passes the previous negative
# eigenspace between checks; below it every projection is a full eigh
WARM_MIN_SIZE = 40
# blocks [V, WV, W^2 V] of the Krylov space of the warm step
KRYLOV_DEPTH = 3
# eigenvectors carried above the negative ones in the next basis
BASIS_EXTRA = 2
# largest Ritz residual of the negative pairs the warm step trusts, over ||W||_F
RITZ_TOL = 1e-3


@dataclass
class SolverConfig:
    max_iter: int = 50000
    eps_abs: float = 1e-7
    eps_rel: float = 1e-6

    def __post_init__(self):
        check_integer("max_iter", self.max_iter, 1)
        check_real("eps_abs", self.eps_abs, "positive")
        check_real("eps_rel", self.eps_rel, "positive")


@dataclass
class ConicSolution:
    H: np.ndarray
    Hbar: np.ndarray
    Q: np.ndarray
    objective: float
    residuals: dict
    iterations: int
    status: str  # Optimal | MaxIter


def psd_project(W: np.ndarray, basis: np.ndarray = None):
    """Frobenius-nearest PSD matrix to the Hermitian part of W, by clipping
    negative eigenvalues: (P, next basis).

    Without a basis the clip comes from a full eigh, and the result is
    rebuilt from the smaller eigenspace: W - V_- L_- V_-^H when at most half
    the eigenvalues are negative (the cheaper product), else V_+ L_+ V_+^H
    (subtracting a large negative part from W would cancel and could leave
    the result slightly indefinite).

    With a basis, an orthonormal n x p block near the negative eigenspace
    (the previous call's next basis), one Rayleigh-Ritz step on the Krylov
    space [V, WV, W^2 V] stands in for the eigh; it falls back to the eigh
    when that space is not smaller than W, when no Ritz value is negative
    or when the negative Ritz pairs leave a residual above RITZ_TOL ||W||_F.
    A negative eigenvalue whose eigenvector the Krylov space misses goes
    unclipped, so the warm step is only as good as its basis.

    The next basis holds the negative eigen- or Ritz vectors and the
    BASIS_EXTRA after them.  A non-square W raises ValueError; a failed eigh
    or a non-finite W (which no Ritz residual passes) raises RuntimeError.
    """
    W = np.asarray(W, dtype=complex)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"W must be a square matrix, got shape {W.shape}")
    W = W + W.conj().T
    W *= 0.5
    if basis is not None and KRYLOV_DEPTH * basis.shape[1] < W.shape[0]:
        warm = _ritz_project(W, basis)
        if warm is not None:
            return warm
    try:
        evals, evecs = np.linalg.eigh(W)
        if not np.isfinite(evals).all():  # eigh returns NaN, not an error, on NaN or Inf
            raise np.linalg.LinAlgError("non-finite eigenvalues")
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed on {W.shape} block") from exc
    neg = int(np.searchsorted(evals, 0.0))  # eigenvalues are ascending
    basis = evecs[:, :neg + BASIS_EXTRA]
    if 2 * neg <= evals.size:
        V = evecs[:, :neg]
        return W - (V * evals[:neg]) @ V.conj().T, basis
    V = evecs[:, neg:]
    return (V * evals[neg:]) @ V.conj().T, basis


def _ritz_project(W: np.ndarray, V: np.ndarray):
    """(W - X_- L_- X_-^H, next basis) from the Ritz pairs of the Hermitian
    W on its Krylov space from V, or None when they cannot be trusted."""
    blocks = [V]
    for _ in range(KRYLOV_DEPTH - 1):
        blocks.append(W @ blocks[-1])
    Q = np.linalg.qr(np.hstack(blocks))[0]  # Householder: orthonormal even if rank-deficient
    WQ = W @ Q
    try:
        ritz, Z = np.linalg.eigh(Q.conj().T @ WQ)
    except np.linalg.LinAlgError:  # non-finite W: left to the full eigh
        return None
    neg = int(np.searchsorted(ritz, 0.0))
    if neg == 0:
        return None
    basis = Q @ Z[:, :neg + BASIS_EXTRA]
    X, L = basis[:, :neg], ritz[:neg]
    residual = np.linalg.norm(WQ @ Z[:, :neg] - X * L)
    if not residual <= RITZ_TOL * np.linalg.norm(W):  # also refuses NaN
        return None
    return W - (X * L) @ X.conj().T, basis


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
    and returns (block, H), coupling all J bins at once by focusing.coupling_map.
    """
    M, J = problem.M, problem.J
    S = np.asarray(block, dtype=complex)
    if S.shape != (M + J, M + J) or np.shape(H) != (M, J):
        raise ValueError(f"block and H must be {(M + J, M + J)} and {(M, J)}, "
                         f"got {S.shape} and {np.shape(H)}")
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
    Z = (problem.focusing.coupling_map @ X).view(complex)[:, :, 0].T
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


def _check(k, x, z, z_prev, u, t, t0, config):
    """Stopping and step-size rules after iteration k, on the (H, S) pairs x,
    z, z_prev and scaled dual u: (status or None, step for t and u, residuals).

    Optimal when both residuals meet their tolerances, else MaxIter at the
    last iteration.  The step is 0.5 or 2 when one residual over its own
    tolerance exceeds twice the other, while k < max_iter // 2 and t stays
    within [1e-3, 1e3] * t0 (Wohlberg, arXiv:1704.06209); else 1.0."""
    dim = np.sqrt(2.0 * (z[0].size + z[1].size))
    r_norm = _pair_norm(x[0] - z[0], x[1] - z[1])
    s_norm = _pair_norm(z[0] - z_prev[0], z[1] - z_prev[1]) / t
    eps_pri = config.eps_abs * dim + config.eps_rel * max(_pair_norm(*x), _pair_norm(*z))
    eps_dual = config.eps_abs * dim + config.eps_rel * (_pair_norm(*u) / t)
    residuals = {"primal": float(r_norm), "dual": float(s_norm)}
    if r_norm <= eps_pri and s_norm <= eps_dual:
        return "Optimal", 1.0, residuals
    if k >= config.max_iter // 2:
        return ("MaxIter" if k == config.max_iter else None), 1.0, residuals
    r_rel, s_rel = r_norm / eps_pri, s_norm / eps_dual
    step = 0.5 if r_rel > 2.0 * s_rel else 2.0 if s_rel > 2.0 * r_rel else 1.0
    return None, (step if 1e-3 <= t * step / t0 <= 1e3 else 1.0), residuals


def solve(problem: ConicProblem, config: SolverConfig = None) -> ConicSolution:
    """Run the splitting iteration until `_check` stops it."""
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

    # every projection up to the first check and at each check is exact,
    # so the status and the residuals never rest on a warm step
    warm = n >= WARM_MIN_SIZE
    basis = None
    for k in range(1, config.max_iter + 1):
        check = k % CHECK_EVERY == 0 or k == config.max_iter
        exact = not warm or k <= CHECK_EVERY or check
        Hx = _prox_objective(Hz - Hu, problem, t)
        Sx, basis = psd_project(Sz - Su, None if exact else basis)
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

        if check:
            status, step, residuals = _check(k, (Hx, Sx), (Hz, Sz), (Hz_prev, Sz_prev),
                                             (Hu, Su), t, t0, config)
            if status:
                break
            Hu *= step
            Su *= step
            t *= step

    psd_violation = float(max(0.0, -np.linalg.eigvalsh(Sz)[0]))  # Sz is Hermitian
    return ConicSolution(
        H=Hz,
        Hbar=Sz[:M, M:].copy(),
        Q=Sz[:M, :M].copy(),
        objective=problem.objective(Hz),
        residuals={"psdViolation": psd_violation, **residuals},
        iterations=k,
        status=status,
    )
