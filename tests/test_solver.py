import re
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import wbdoa.solver as solver_module
from wbdoa import bench
from wbdoa.atoms import ConicProblem
from wbdoa.focusing import FocusingSet, gamma_oracle, noiseless_measurements
from wbdoa.model import (
    ArrayConfig,
    WidebandScene,
    steering_vector,
    synthesize_scene,
)
from wbdoa.recovery import RecoveryConfig, estimate_doa
from wbdoa.solver import (
    CHECK_EVERY,
    RITZ_TOL,
    ConicSolution,
    SolverConfig,
    _check,
    _project_trace,
    affine_project,
    psd_project,
    solve,
)

from lmi_oracles import complex_to_real_embed, dual_atomic_norm, find_q_certificate


class TestRealEmbedding:
    def test_eigenvalues_doubled(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            W = A + A.conj().T
            ew = np.sort(np.linalg.eigvalsh(W))
            er = np.sort(np.linalg.eigvalsh(complex_to_real_embed(W)))
            assert np.allclose(er, np.sort(np.concatenate([ew, ew])), atol=1e-10)

    def test_structure(self):
        W = np.array([[1.0, 2j], [-2j, 3.0]])
        R = complex_to_real_embed(W)
        assert np.allclose(R, R.T)
        assert np.allclose(R[:2, :2], W.real)
        assert np.allclose(R[:2, 2:], -W.imag)


class TestPsdProject:
    def test_psd_fixed_point(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        P = A @ A.conj().T
        assert np.allclose(psd_project(P)[0], P, atol=1e-12)

    def test_negative_definite_to_zero(self):
        assert np.allclose(psd_project(-np.eye(4))[0], 0.0)

    def test_against_real_embedding_oracle(self):
        # project the real embedding with a separately coded eigen-clip and
        # map back; must agree with the complex projection
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            W = 0.5 * (A + A.conj().T)
            R = complex_to_real_embed(W)
            ev, V = np.linalg.eigh(R)
            Rp = (V * np.clip(ev, 0.0, None)) @ V.T
            back = Rp[:5, :5] + 1j * Rp[5:, :5]
            assert np.allclose(psd_project(W)[0], back, atol=1e-10)

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (5,), (2, 3, 3)])
    def test_non_square_rejected(self, shape):
        # a row or column used to broadcast into an n x n "projection" and a
        # 1-D input to fail as a numerical error (RuntimeError)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            psd_project(np.ones(shape))

    def test_result_is_psd(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        out = psd_project(A + A.conj().T)[0]
        assert np.linalg.eigvalsh(out).min() >= -1e-12


@pytest.fixture
def small_problem():
    rng = np.random.default_rng(7)
    focusing = FocusingSet.build([1.0, 0.8, 0.6], 5)
    Y = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    return ConicProblem(Y=Y, focusing=focusing, gamma=1.0)


class TestAffineProject:
    def test_constraints_satisfied(self, small_problem):
        rng = np.random.default_rng(4)
        n = small_problem.M + small_problem.J
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        out, Hn = affine_project(S, small_problem, H)
        M = 5
        Q = out[:M, :M]
        assert np.real(np.trace(Q)) == pytest.approx(1.0, abs=1e-12)
        for m in range(1, M):
            idx = np.arange(M - m)
            assert abs(Q[idx, idx + m].sum()) < 1e-12
        assert np.allclose(out[M:, M:], np.eye(3), atol=1e-15)
        Bn = out[:M, M:]
        for j in range(3):
            Tj = small_problem.focusing.matrices[j]
            assert np.allclose(Bn[:, j], Tj.T @ Hn[:, j], atol=1e-11)

    @pytest.mark.parametrize("shape", [(16, 1), (16,), (1, 10), ()])
    def test_mis_shaped_h_rejected(self, shape):
        # each of these used to broadcast into a 16 x 10 projection
        _, gamma, focusing = _noiseless_draw(16, 10, 0)
        problem = ConicProblem(Y=np.zeros((16, 10)), focusing=focusing, gamma=gamma)
        with pytest.raises(ValueError, match=re.escape(f"(16, 10), got (26, 26) and {shape}")):
            affine_project(np.eye(26), problem, np.zeros(shape, dtype=complex))

    def test_idempotent(self, small_problem):
        rng = np.random.default_rng(5)
        n = small_problem.M + small_problem.J
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        S1, H1 = affine_project(S, small_problem, H)
        S2, H2 = affine_project(S1, small_problem, H1)
        assert np.allclose(S1, S2, atol=1e-12)
        assert np.allclose(H1, H2, atol=1e-12)

    def test_is_euclidean_projection(self, small_problem):
        # optimality of a projection onto an affine set: the residual is
        # orthogonal to every feasible-direction difference
        rng = np.random.default_rng(6)
        n = small_problem.M + small_problem.J
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S = 0.5 * (S + S.conj().T)
        H = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        S1, H1 = affine_project(S, small_problem, H)
        for _ in range(10):
            Sf = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            Hf = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            Sf, Hf = affine_project(0.5 * (Sf + Sf.conj().T), small_problem, Hf)
            # inner product of (S - S1, H - H1) with (Sf - S1, Hf - H1),
            # counting the doubled off-diagonal copies exactly as the
            # projection metric does
            ip = np.real(np.vdot(S - S1, Sf - S1)) + np.real(np.vdot(H - H1, Hf - H1))
            assert abs(ip) < 1e-9


def _loop_project_trace(Q):
    """Reference: one diagonal at a time, as a plain loop."""
    Q = Q.copy()
    M = Q.shape[0]
    idx = np.arange(M)
    dsum = np.real(np.trace(Q))
    Q[idx, idx] = np.real(Q[idx, idx]) - (dsum - 1.0) / M
    for m in range(1, M):
        n = np.arange(M - m)
        s = Q[n, n + m].sum() / (M - m)
        Q[n, n + m] -= s
        Q[n + m, n] -= np.conj(s)
    return Q


def _bincount_project_trace(Q):
    """Reference: diagonal sums by two bincount passes over the flat index
    c - r + M - 1, correction spread back by a fancy-index gather."""
    M = Q.shape[0]
    r, c = np.indices((M, M))
    idx = (c - r + M - 1).ravel()
    lengths = M - np.abs(np.arange(1 - M, M))
    flat = Q.ravel()
    sums = (np.bincount(idx, flat.real, 2 * M - 1)
            + 1j * np.bincount(idx, flat.imag, 2 * M - 1))
    upper = sums[M - 1:] / lengths[M - 1:]
    upper[0] = (sums[M - 1].real - 1.0) / M
    out = Q - np.concatenate([upper[:0:-1].conj(), upper])[idx].reshape(M, M)
    out.flat[::M + 1] = out.flat[::M + 1].real
    return out


def _per_bin_affine_project(block, problem, H):
    """Reference: one Cholesky solve of (I + 2 T_j T_j^T) h = h_j + 2 T_j hbar_j
    per bin, then hbar = T_j^T h."""
    M, J = problem.M, problem.J
    S = 0.5 * (block + block.conj().T)
    out = S.copy()
    out[:M, :M] = _loop_project_trace(S[:M, :M])
    out[M:, M:] = np.eye(J)
    Hn = np.empty_like(H)
    for j in range(J):
        T = problem.focusing.matrices[j]
        factor = cho_factor(np.eye(M) + 2.0 * T @ T.T)
        Hn[:, j] = cho_solve(factor, H[:, j] + 2.0 * (T @ S[:M, M + j]))
    Bn = np.stack([problem.focusing.matrices[j].T @ Hn[:, j] for j in range(J)], axis=1)
    out[:M, M:] = Bn
    out[M:, :M] = Bn.conj().T
    return out, Hn


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel_err(got, ref):
    return np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300)


class TestProjectionOracles:
    @settings(max_examples=60, deadline=None)
    @given(M=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
    def test_trace_matches_loop(self, M, seed):
        A = _crandn(np.random.default_rng(seed), M, M)
        Q = A + A.conj().T
        assert _rel_err(_project_trace(Q), _loop_project_trace(Q)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(M=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
    def test_trace_bit_identical_to_bincount_sums(self, M, seed):
        # the skewed-buffer sums add each diagonal in the same row order
        # as bincount, so the projection must match it bit for bit
        A = _crandn(np.random.default_rng(seed), M, M)
        Q = A + A.conj().T
        assert _project_trace(Q).tobytes() == _bincount_project_trace(Q).tobytes()
        # as affine_project passes it: the top-left view of a larger block
        block = np.zeros((M + 3, M + 3), dtype=complex)
        block[:M, :M] = Q
        assert (_project_trace(block[:M, :M]).tobytes()
                == _bincount_project_trace(Q).tobytes())

    @settings(max_examples=40, deadline=None)
    @given(M=st.integers(2, 48),
           alphas=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=19),
           seed=st.integers(0, 2**32 - 1))
    def test_affine_matches_per_bin_solves(self, M, alphas, seed):
        rng = np.random.default_rng(seed)
        J = len(alphas)
        problem = ConicProblem(Y=_crandn(rng, M, J),
                               focusing=FocusingSet.build(alphas, M), gamma=1.0)
        A = _crandn(rng, M + J, M + J)
        block, H = A + A.conj().T, _crandn(rng, M, J)
        got_S, got_H = affine_project(block, problem, H)
        ref_S, ref_H = _per_bin_affine_project(block, problem, H)
        assert _rel_err(got_S, ref_S) <= 1e-12
        assert _rel_err(got_H, ref_H) <= 1e-12


class TestPsdProjectProperties:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           seed=st.integers(0, 2**32 - 1))
    def test_cone_idempotence_and_moreau(self, n, scale, seed):
        A = scale * _crandn(np.random.default_rng(seed), n, n)
        W = A + A.conj().T
        P, N = psd_project(W)[0], psd_project(-W)[0]
        size = np.linalg.norm(W)
        assert np.linalg.eigvalsh(0.5 * (P + P.conj().T))[0] >= -1e-12 * size
        assert _rel_err(psd_project(P)[0], P) <= 1e-12
        # Moreau: W = P(W) - P(-W) with the two parts orthogonal
        assert _rel_err(P - N, W) <= 1e-12
        assert abs(np.vdot(P, N)) <= 1e-12 * size ** 2


def _clip_all(W):
    """Reference: rebuild from every eigenpair with the eigenvalues clipped at 0."""
    evals, V = np.linalg.eigh(W)
    return (V * np.clip(evals, 0.0, None)) @ V.conj().T


class TestPsdProjectBranches:
    @settings(max_examples=60, deadline=None)
    @given(mostly=st.sampled_from(["negative", "positive"]), n=st.integers(2, 40),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_both_rebuilds_match_clip_all(self, mostly, n, scale, data, seed):
        # more than n/2 negative eigenvalues rebuilds from the positive ones,
        # at most n/2 subtracts the negative ones from W
        neg = data.draw(st.integers(n // 2 + 1, n) if mostly == "negative"
                        else st.integers(1, n // 2))
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(_crandn(rng, n, n))
        evals = scale * rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) < neg, -1.0, 1.0)
        W = (U * evals) @ U.conj().T
        W = 0.5 * (W + W.conj().T)
        assert np.count_nonzero(np.linalg.eigvalsh(W) < 0) == neg
        assert _rel_err(psd_project(W)[0], _clip_all(W)) <= 1e-12

    @pytest.mark.parametrize("neg", [0, 4, 9], ids=["none", "few", "most"])
    def test_projects_the_hermitian_part(self, neg):
        # every branch sees the same matrix: an anti-Hermitian part of the
        # input does not reach the result
        rng = np.random.default_rng(20 + neg)
        n = 12
        U, _ = np.linalg.qr(_crandn(rng, n, n))
        W = (U * (rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) < neg, -1.0, 1.0))) @ U.conj().T
        W = 0.5 * (W + W.conj().T)
        A = _crandn(rng, n, n)
        P = psd_project(W + (A - A.conj().T))[0]
        assert _rel_err(P, _clip_all(W)) <= 1e-12
        assert _rel_err(P, P.conj().T) <= 1e-12


def _with_eigenvalues(rng, evals):
    """A Hermitian matrix with the given spectrum and random eigenvectors."""
    U, _ = np.linalg.qr(_crandn(rng, evals.size, evals.size))
    W = (U * evals) @ U.conj().T
    return 0.5 * (W + W.conj().T)


class TestWarmPsdProject:
    """The Rayleigh-Ritz step on the Krylov space of the previous basis."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(40, 72), data=st.data(), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           size=st.floats(0.0, 1e-2), seed=st.integers(0, 2**32 - 1))
    def test_perturbed_input_matches_the_exact_projection(self, n, data, scale, size, seed):
        # eigenvalues at least scale/2 away from zero, and a perturbation of
        # at most 1e-2 ||W||_F, whose spectral norm stays well inside that gap:
        # the negative eigenspace of W + E lies near the basis taken from W
        neg = data.draw(st.integers(1, n // 3 - 2))  # Krylov space smaller than n
        rng = np.random.default_rng(seed)
        sign = np.where(np.arange(n) < neg, -1.0, 1.0)
        W = _with_eigenvalues(rng, scale * rng.uniform(0.5, 2.0, n) * sign)
        E = _crandn(rng, n, n)
        E = E + E.conj().T
        E *= size * np.linalg.norm(W) / np.linalg.norm(E)
        _, basis = psd_project(W)
        assert basis.shape == (n, neg + solver_module.BASIS_EXTRA)
        warm, next_basis = psd_project(W + E, basis)
        exact, _ = psd_project(W + E)
        assert next_basis.shape[0] == n
        if not np.array_equal(warm, exact):  # else the warm step fell back
            assert np.linalg.norm(warm - exact) <= RITZ_TOL * np.linalg.norm(W + E)

    def test_basis_orthogonal_to_the_negative_eigenspace_falls_back(self):
        # on a diagonal W the span of unit vectors is invariant: the Krylov
        # space holds only the positive eigenvalues, so no Ritz value is
        # negative and the eigh projects
        n = 48
        evals = np.linspace(1.0, 2.0, n)
        evals[:5] = -np.arange(1.0, 6.0)
        W = np.diag(evals).astype(complex)
        basis = np.eye(n, dtype=complex)[:, 10:17]
        got, _ = psd_project(W, basis)
        assert np.array_equal(got, psd_project(W)[0])
        assert np.array_equal(got, np.diag(np.clip(evals, 0.0, None)))

    def test_a_negative_eigenspace_the_krylov_space_misses_stays(self):
        # the blind spot of the warm step: the basis meets the eigenvalue -1
        # but not -2, whose eigenvector is orthogonal to an invariant Krylov
        # space; the Ritz pair for -1 is exact, so the step trusts itself and
        # returns an indefinite matrix.  solve projects exactly up to the
        # first check and at every check, so neither its status nor its
        # residuals rest on such a step
        n = 48
        evals = np.linspace(1.0, 2.0, n)
        evals[:2] = (-1.0, -2.0)
        W = np.diag(evals).astype(complex)
        basis = np.eye(n, dtype=complex)[:, [0, 10, 11]]
        got, _ = psd_project(W, basis)
        kept = np.clip(evals, 0.0, None)
        kept[1] = -2.0
        assert np.allclose(got, np.diag(kept))
        assert np.linalg.eigvalsh(psd_project(W)[0])[0] >= 0.0

    def test_a_basis_as_large_as_the_block_falls_back(self):
        # a Krylov space of KRYLOV_DEPTH * p >= n columns would cost more
        # than the eigh it replaces
        rng = np.random.default_rng(4)
        n = 42
        W = _with_eigenvalues(rng, rng.uniform(-2.0, 2.0, n))
        basis = np.linalg.qr(_crandn(rng, n, n // solver_module.KRYLOV_DEPTH))[0]
        assert np.array_equal(psd_project(W, basis)[0], psd_project(W)[0])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("n", [4, 26, 45, 67])
    def test_non_finite_input_takes_the_exact_path(self, n, bad):
        # a NaN residual is no trusted one: the eigh decides, as without a
        # basis, and raises on the NaN eigenvalues it returns (at n = 4 some
        # of them lie between finite ones)
        rng = np.random.default_rng(5)
        W = _with_eigenvalues(rng, rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) < 4, -1, 1))
        _, basis = psd_project(W)
        W[3, 3] = bad
        for b in (basis, None):
            with pytest.raises(RuntimeError, match="eigendecomposition failed"):
                psd_project(W, b)

    def test_solve_stops_at_a_non_finite_iterate(self, monkeypatch):
        # a NaN that enters the iterate stops the solve at the next
        # projection, not at max_iter
        calls, project = [], solver_module.affine_project

        def poisoned(block, problem, H):
            calls.append(None)
            S, Hz = project(block, problem, H)
            if len(calls) == 3:
                S[0, 0] = np.nan
            return S, Hz

        monkeypatch.setattr(solver_module, "affine_project", poisoned)
        data, gamma, focusing = _noiseless_draw(16, 10, 0)
        with pytest.raises(RuntimeError, match="eigendecomposition failed"):
            solve(ConicProblem(Y=data.Y, focusing=focusing, gamma=gamma),
                  SolverConfig(max_iter=200))
        assert len(calls) == 3


def test_one_coupling_map_per_focusing_set(monkeypatch):
    # two problems and three estimates on one focusing set read one map,
    # built on the first read
    built, maps_used, project = [], [], solver_module.affine_project
    build = FocusingSet.__dict__["coupling_map"].func

    def counted(focusing):
        built.append(None)
        return build(focusing)

    def spy(block, problem, H):
        maps_used.append(problem.focusing.coupling_map)
        return project(block, problem, H)

    prop = cached_property(counted)
    prop.__set_name__(FocusingSet, "coupling_map")
    monkeypatch.setattr(FocusingSet, "coupling_map", prop)
    monkeypatch.setattr(solver_module, "affine_project", spy)
    data, gamma, focusing = _noiseless_draw(16, 10, 0)
    first, second = (ConicProblem(Y=data.Y, focusing=focusing, gamma=g) for g in (gamma, 2.0))
    assert first.focusing.coupling_map is second.focusing.coupling_map
    for _ in range(3):
        estimate_doa(data, gamma, focusing)
    assert len(built) == 1
    assert maps_used and all(m is first.focusing.coupling_map for m in maps_used)


def _bases_seen(monkeypatch):
    """Wrap the module-global psd_project; the list records, per call,
    whether it was given a basis."""
    seen, project = [], solver_module.psd_project

    def spy(W, basis=None):
        seen.append(basis is not None)
        return project(W, basis)

    monkeypatch.setattr(solver_module, "psd_project", spy)
    return seen


def _noiseless_draw(M, J, seed):
    array = ArrayConfig(M=M, c=1500.0, omega1=2 * np.pi * 1000.0)
    focusing = FocusingSet.build(bench.default_alphas(J), M)
    scene = bench.random_scene((-5.0, 15.0, 40.0), focusing, None, seed)
    data = synthesize_scene(array, scene, focusing)
    return data, gamma_oracle(data.Y, array, scene, focusing), focusing


class TestWarmSolve:
    """Where solve passes a basis: only from WARM_MIN_SIZE, never at a check."""

    def test_the_paper_size_never_passes_a_basis(self, monkeypatch):
        assert 16 + 10 < solver_module.WARM_MIN_SIZE
        seen = _bases_seen(monkeypatch)
        data, gamma, focusing = _noiseless_draw(16, 10, 0)
        sol = solve(ConicProblem(Y=data.Y, focusing=focusing, gamma=gamma))
        assert len(seen) == sol.iterations > 2 * CHECK_EVERY
        assert not any(seen)

    def test_every_check_projects_exactly(self, monkeypatch):
        # max_iter off the check schedule, so the last iteration is a check too
        seen = _bases_seen(monkeypatch)
        trusted, ritz_project = [], solver_module._ritz_project

        def spy(W, V):
            out = ritz_project(W, V)
            trusted.append(out is not None)
            return out

        monkeypatch.setattr(solver_module, "_ritz_project", spy)
        data, gamma, focusing = _noiseless_draw(32, 10, 0)
        config = SolverConfig(max_iter=4 * CHECK_EVERY + 7, eps_abs=1e-12, eps_rel=1e-12)
        sol = solve(ConicProblem(Y=data.Y, focusing=focusing, gamma=gamma), config)
        assert sol.status == "MaxIter"
        assert len(seen) == config.max_iter
        for k, warm in enumerate(seen, start=1):
            exact = k <= CHECK_EVERY or k % CHECK_EVERY == 0 or k == config.max_iter
            assert warm is not exact, k
        # the warm step answers the calls that get a basis, or there is no gain
        assert len(trusted) == sum(seen) and np.mean(trusted) >= 0.9

    def test_warm_estimates_agree_with_the_exact_path(self, monkeypatch):
        # M = 32, J = 10 is a 42 x 42 block, above the gate; a gate past
        # every size forces the exact path for the reference
        rec = RecoveryConfig(solver=SolverConfig(max_iter=20000, eps_abs=1e-6, eps_rel=1e-5))
        for seed in range(3):
            data, gamma, focusing = _noiseless_draw(32, 10, seed)
            warm = estimate_doa(data, gamma, focusing, rec)
            with monkeypatch.context() as m:
                m.setattr(solver_module, "WARM_MIN_SIZE", 10**9)
                exact = estimate_doa(data, gamma, focusing, rec)
            assert warm.diagnostics["solverStatus"] == "Optimal"
            assert warm.thetas.size == exact.thetas.size == 3
            assert np.max(np.abs(np.sort(warm.thetas) - np.sort(exact.thetas))) <= 1e-3
            its = warm.diagnostics["solverIterations"], exact.diagnostics["solverIterations"]
            assert its[0] <= its[1] + 25, its


class TestSolve:
    def test_single_narrowband_atom(self):
        # one source, single band, gamma = 0: the dual optimum attains
        # objective = ||X||_A = beta and the dual polynomial peaks at f0
        focusing = FocusingSet.build([1.0], 8)
        beta, f0 = 2.0, 0.11
        Y = beta * steering_vector(f0, 8)[:, None] / 1.0
        prog = ConicProblem(Y=Y, focusing=focusing, gamma=0.0)
        sol = solve(prog, SolverConfig(eps_abs=1e-9, eps_rel=1e-8))
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(beta, rel=1e-4)
        assert dual_atomic_norm(sol.H, focusing) <= 1.0 + 1e-3

    def test_matches_interior_point_reference(self):
        # frozen objective from an interior-point solve of the same SDP
        # (SCS via CVXPY, run separately): 13.443091
        cfg = ArrayConfig(M=16, c=1500.0, omega1=2 * np.pi * 1000)
        alphas = np.arange(20, 10, -1) / 20
        focusing = FocusingSet.build(alphas, cfg.M)
        rng = np.random.default_rng(12345)
        spectra = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        scene = WidebandScene(angles_deg=(-5.0, 15.0, 40.0), source_spectra=spectra)
        Y = noiseless_measurements(scene, focusing)
        gamma = gamma_oracle(Y, cfg, scene, focusing)
        prog = ConicProblem(Y=Y, focusing=focusing, gamma=gamma)
        sol = solve(prog, SolverConfig(eps_abs=1e-7, eps_rel=1e-6))
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(13.443091, rel=1e-4)

    def test_solution_feasibility(self, small_problem):
        sol = solve(small_problem, SolverConfig(eps_abs=1e-8, eps_rel=1e-7))
        assert sol.status == "Optimal"
        # reported iterate is affine-feasible: Toeplitz-trace sums of Q and
        # the columnwise coupling Hbar = T_j^T H hold to rounding
        M = 5
        assert abs(np.real(np.trace(sol.Q)) - 1.0) < 1e-10
        for m in range(1, M):
            idx = np.arange(M - m)
            assert abs(sol.Q[idx, idx + m].sum()) < 1e-10
        for j in range(3):
            Tj = small_problem.focusing.matrices[j]
            assert np.allclose(sol.Hbar[:, j], Tj.T @ sol.H[:, j], rtol=0, atol=1e-10)
        assert sol.residuals["psdViolation"] < 1e-5
        # Q satisfies a(f)^H Q a(f) = 1 for every f when Toeplitz-trace
        # conditions hold
        rng = np.random.default_rng(10)
        for f in rng.uniform(-0.5, 0.5, 512):
            a = steering_vector(f, 5)
            assert np.real(a.conj() @ sol.Q @ a) == pytest.approx(1.0, abs=1e-9)

    def test_dual_feasibility_polynomial(self, small_problem):
        sol = solve(small_problem, SolverConfig(eps_abs=1e-8, eps_rel=1e-7))
        peak = dual_atomic_norm(sol.H, small_problem.focusing)
        assert peak <= 1.0 + 1e-4

    def test_weak_duality_against_atomic_bound(self):
        # objective <= ||X||_A for the noiseless problem (gamma = 0)
        focusing = FocusingSet.build([1.0, 0.9], 6)
        rng = np.random.default_rng(13)
        spectra = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        scene = WidebandScene(angles_deg=(-20.0, 25.0), source_spectra=spectra)
        X = noiseless_measurements(scene, focusing)
        prog = ConicProblem(Y=X, focusing=focusing, gamma=0.0)
        sol = solve(prog, SolverConfig(eps_abs=1e-8, eps_rel=1e-7))
        assert sol.objective <= np.linalg.norm(spectra, axis=1).sum() * (1 + 1e-4)

    def test_determinism(self, small_problem):
        a = solve(small_problem, SolverConfig(max_iter=500))
        b = solve(small_problem, SolverConfig(max_iter=500))
        assert np.array_equal(a.H, b.H)
        assert a.objective == b.objective
        assert a.iterations == b.iterations

    def test_max_iter_status(self, small_problem):
        sol = solve(small_problem, SolverConfig(max_iter=10, eps_abs=1e-12,
                                                eps_rel=1e-12))
        assert sol.status == "MaxIter"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(eps_abs=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("eps_abs", float("nan")), ("eps_abs", float("inf")),
        ("eps_rel", float("nan")), ("eps_rel", float("inf")), ("eps_rel", 0.0),
        ("max_iter", 1.5), ("max_iter", 100.0), ("max_iter", -3), ("max_iter", True),
        ("eps_abs", True), ("eps_rel", True), ("eps_abs", "1e-6"), ("eps_rel", None),
    ])
    def test_tolerance_and_budget_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})


def _acceptance_problem():
    # the noiseless three-source scene of the acceptance test_01
    cfg = ArrayConfig(M=16, c=1500.0, omega1=2 * np.pi * 1000)
    alphas = np.arange(20, 10, -1) / 20
    focusing = FocusingSet.build(alphas, cfg.M)
    rng = np.random.default_rng(0)
    spectra = (rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))) / np.sqrt(2)
    scene = WidebandScene(angles_deg=(-5.0, 15.0, 40.0), source_spectra=spectra)
    data = synthesize_scene(cfg, scene, focusing)
    gamma = gamma_oracle(data.Y, cfg, scene, focusing)
    return ConicProblem(Y=data.Y, focusing=focusing, gamma=gamma)


class TestConvergence:
    """Over-relaxation and tolerance-scaled residual balancing."""

    def test_acceptance_scene_iterations(self):
        sol = solve(_acceptance_problem())
        assert sol.status == "Optimal"
        assert sol.iterations <= 450

    def test_acceptance_scene_objective_accuracy(self):
        prob = _acceptance_problem()
        sol = solve(prob)
        ref = solve(prob, SolverConfig(eps_abs=1e-10, eps_rel=1e-9))
        assert ref.status == "Optimal"
        assert sol.objective == pytest.approx(ref.objective, rel=1e-5)

    def test_step_size_bound_keeps_divergent_solve_finite(self):
        # random data with gamma = 1 has fidelity mass outside range(T_j):
        # the dual is unbounded, and an unbounded step size drives the
        # objective past 1e23 within this budget
        focusing = FocusingSet.build(np.arange(20, 10, -1) / 20, 16)
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((16, 10)) + 1j * rng.standard_normal((16, 10))
        sol = solve(ConicProblem(Y=Y, focusing=focusing, gamma=1.0),
                    SolverConfig(max_iter=10000))
        assert sol.status == "MaxIter"
        assert np.isfinite(sol.objective) and sol.objective < 1e8


def _pairs(r, s, t=1.0):
    """(x, z, z_prev, u) on 1 x 1 blocks, so dim = 2, with primal residual
    norm r and dual residual norm s at step size t; z and u are zero."""
    zero = np.zeros((1, 1), dtype=complex)
    return ((np.full((1, 1), r, dtype=complex), zero), (zero, zero),
            (np.full((1, 1), -s * t, dtype=complex), zero), (zero, zero))


class TestCheck:
    """The stopping and step-size rules on hand-made iterates."""

    # eps_abs * dim = 1, and eps_rel barely moves eps_pri from 1 (eps_dual
    # stays exactly 1 with u = 0); max_iter // 2 = 18
    CONFIG = SolverConfig(max_iter=37, eps_abs=0.5, eps_rel=1e-9)

    def check(self, k, r, s, t=1.0, t0=1.0):
        return _check(k, *_pairs(r, s, t), t, t0, self.CONFIG)

    def test_optimal_when_both_residuals_meet_tolerance(self):
        status, step, residuals = self.check(5, 0.9, 0.8)
        assert (status, step) == ("Optimal", 1.0)
        assert residuals == {"primal": pytest.approx(0.9), "dual": pytest.approx(0.8)}
        assert all(type(v) is float for v in residuals.values())

    @pytest.mark.parametrize("r, s", [(1.1, 0.8), (0.9, 1.1)], ids=["primal", "dual"])
    def test_one_residual_over_tolerance_is_not_optimal(self, r, s):
        for k in (5, 25, 36):
            status, _, residuals = self.check(k, r, s)
            assert status is None
            assert residuals == {"primal": pytest.approx(r), "dual": pytest.approx(s)}

    def test_max_iter_only_at_the_last_iteration(self):
        assert self.check(36, 5.0, 5.0)[0] is None
        assert self.check(37, 5.0, 5.0)[:2] == ("MaxIter", 1.0)
        assert self.check(37, 0.5, 0.5)[0] == "Optimal"

    @pytest.mark.parametrize("r, s, step", [
        (2.1, 1.0, 0.5), (1.0, 2.1, 2.0), (1.9, 1.0, 1.0), (1.0, 1.9, 1.0),
    ], ids=["primal-heavy", "dual-heavy", "balanced-primal", "balanced-dual"])
    def test_balancing_rule(self, r, s, step):
        assert self.check(17, r, s) == (None, step, {"primal": pytest.approx(r),
                                                     "dual": pytest.approx(s)})

    @pytest.mark.parametrize("k", [18, 25, 36])
    def test_step_fixed_in_the_second_half_of_the_budget(self, k):
        assert self.check(k, 3.0, 1.0)[1] == 1.0
        assert self.check(k, 1.0, 3.0)[1] == 1.0

    @pytest.mark.parametrize("t, r, s, step", [
        (512.0, 1.0, 3.0, 1.0), (256.0, 1.0, 3.0, 2.0),
        (2.0 ** -9, 3.0, 1.0, 1.0), (2.0 ** -8, 3.0, 1.0, 0.5),
    ], ids=["past-1e3", "up-to-512x", "below-1e-3", "down-to-512th"])
    def test_step_keeps_t_within_1e3_of_t0(self, t, r, s, step):
        assert self.check(5, r, s, t=0.25 * t, t0=0.25)[1] == step


class TestQCertificate:
    def test_feasible_for_strictly_bounded_polynomial(self):
        # any Hbar from a solver run scaled just inside the unit ball must
        # admit a Toeplitz-trace Q making the LMI block PSD
        focusing = FocusingSet.build([1.0, 0.8], 5)
        rng = np.random.default_rng(20)
        Y = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        prog = ConicProblem(Y=Y, focusing=focusing, gamma=0.5)
        sol = solve(prog, SolverConfig(eps_abs=1e-8, eps_rel=1e-7))
        Q, feasible, lam = find_q_certificate(0.99 * sol.Hbar)
        assert feasible
        assert lam > -1e-7
        M = 5
        assert np.real(np.trace(Q)) == pytest.approx(1.0, abs=1e-8)

    def test_infeasible_for_large_polynomial(self):
        # Hbar with polynomial peak 2 violates a(f)^H Q a(f) = 1, so no
        # certificate exists
        focusing = FocusingSet.build([1.0], 5)
        Hbar = 2.0 * steering_vector(0.2, 5)[:, None] / np.sqrt(5)
        _, feasible, _ = find_q_certificate(Hbar, max_iter=3000)
        assert not feasible
