"""Reference computations the benchmark checks the program against.

Everything here is plain numpy written apart from the package: its own
sinc focusing matrices, steering vectors, angle matching and the dual
certificate of one solve.  Nothing compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import itertools

import numpy as np

# Tolerances of the solve certificate.  The reported iterate is affine
# feasible by construction, so the linear conditions are tight; the PSD
# cone is met only to the solver's tolerance, which bounds how far the
# block's smallest eigenvalue may stray.
LINEAR_TOL = 1e-8
EIG_TOL = 1e-3
POLY_GRID = 1 << 14


def band_alphas(J: int) -> np.ndarray:
    """Ratios of the J highest in-band bins of a 60-point DFT over
    [pi/3, 2pi/3]: 1.0 down to (21 - J) / 20."""
    if not 1 <= J <= 19:
        raise ValueError("J must lie in 1..19")
    return np.arange(20, 20 - J, -1) / 20.0


def sinc_matrices(alphas, M: int) -> np.ndarray:
    """J x M x M stack of T_j[m, m'] = sinc(alpha_j m - m')."""
    m = np.arange(M)
    return np.stack([np.sinc(a * m[:, None] - m[None, :]) for a in alphas])


def steering(fs, M: int) -> np.ndarray:
    """M x len(fs) matrix with entries exp(-2 pi i f m)."""
    return np.exp(-2j * np.pi * np.arange(M)[:, None] * np.atleast_1d(fs)[None, :])


def planted_weight(spectra) -> float:
    """Atomic weight of the planted scene: sum_k ||s_k||_2."""
    return float(np.linalg.norm(np.asarray(spectra, complex), axis=1).sum())


def weak_duality_ok(dual_objective: float, weight: float) -> bool:
    """A dual-feasible point cannot beat a primal-feasible one.

    With the oracle budget the planted scene is primal feasible, so the
    dual objective may not exceed its atomic weight."""
    return bool(np.isfinite(dual_objective) and dual_objective <= weight * (1.0 + 1e-9))


def top_k_angles(thetas, betas, K: int) -> np.ndarray:
    """The K strongest estimates, sorted; all of them when there are fewer."""
    thetas = np.asarray(thetas, float)
    if thetas.size > K:
        thetas = thetas[np.argsort(np.asarray(betas, float))[::-1][:K]]
    return np.sort(thetas)


def matched_errors(estimates, truths):
    """Absolute errors of the best one-to-one matching of truths to estimates,
    by exhaustive search; None when there are fewer estimates than truths."""
    est = np.asarray(estimates, float)
    tru = np.asarray(truths, float)
    if est.size < tru.size or not np.all(np.isfinite(est)):
        return None
    best = None
    for pick in itertools.permutations(range(est.size), tru.size):
        errs = np.abs(est[list(pick)] - tru)
        if best is None or errs @ errs < best @ best:
            best = errs
    return best


def pooled_rmse(errors) -> float:
    """Root mean square over every matched error of every estimate."""
    sq = np.concatenate([np.asarray(e, float) ** 2 for e in errors]) if errors else []
    return float(np.sqrt(np.mean(sq))) if len(sq) else float("nan")


def solve_certificate(H, Hbar, Q, alphas) -> list:
    """Check one solve result against the dual SDP it should satisfy.

    Returns the list of violated conditions (empty when all hold):
    the Toeplitz-trace sums of Q, Hbar = T_j^T H column by column with the
    benchmark's own sinc T_j, the smallest eigenvalue lam of the block
    [[Q, Hbar], [Hbar^H, I]], and max_f ||Hbar^H a(f)|| on a dense grid,
    which may exceed 1 only by what lam allows.
    """
    H, Hbar, Q = (np.asarray(x, complex) for x in (H, Hbar, Q))
    M, J = H.shape
    bad = []
    sums = np.array([np.trace(Q, offset=m) for m in range(M)])
    sums[0] -= 1.0
    if np.max(np.abs(sums)) > LINEAR_TOL:
        bad.append(f"trace sums off by {np.max(np.abs(sums)):.2e}")
    T = sinc_matrices(alphas, M)
    coupled = np.einsum("jnm,nj->mj", T, H)  # column j is T_j^T h_j
    coupling = np.linalg.norm(Hbar - coupled) / max(1.0, np.linalg.norm(H))
    if coupling > LINEAR_TOL:
        bad.append(f"Hbar differs from T_j^T H by {coupling:.2e}")
    block = np.block([[Q, Hbar], [Hbar.conj().T, np.eye(J)]])
    lam = np.linalg.eigvalsh(0.5 * (block + block.conj().T))[0]
    if lam < -EIG_TOL:
        bad.append(f"block eigenvalue {lam:.2e}")
    # With a(f)^H Q a(f) = 1 from the trace sums, testing the block against
    # [a(f); -Hbar^H a(f)] gives P^2 (1 - |lam|) <= 1 + |lam| M for every f.
    slack = max(-lam, 0.0)
    bound = np.sqrt((1.0 + slack * M) / (1.0 - min(slack, 0.5))) + LINEAR_TOL
    fs = np.linspace(-0.5, 0.5, POLY_GRID, endpoint=False)
    peak = float(np.max(np.linalg.norm(Hbar.conj().T @ steering(fs, M), axis=0)))
    if peak > bound:
        bad.append(f"dual polynomial peaks at {peak:.6f} > {bound:.6f}")
    return bad
