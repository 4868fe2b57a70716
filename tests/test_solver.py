import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from wbdoa.atoms import ConicProblem, dual_atomic_norm
from wbdoa.focusing import FocusingSet, gamma_oracle, noiseless_measurements
from wbdoa.model import (
    ArrayConfig,
    WidebandScene,
    steering_vector,
    subband_template,
    synthesize_scene,
)
from wbdoa.solver import (
    ConicSolution,
    SolverConfig,
    _project_trace,
    affine_project,
    psd_project,
    solve,
)

from lmi_oracles import complex_to_real_embed, find_q_certificate


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
        assert np.allclose(psd_project(P), P, atol=1e-12)

    def test_negative_definite_to_zero(self):
        assert np.allclose(psd_project(-np.eye(4)), 0.0)

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
            assert np.allclose(psd_project(W), back, atol=1e-10)

    def test_result_is_psd(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        out = psd_project(A + A.conj().T)
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
        P, N = psd_project(W), psd_project(-W)
        size = np.linalg.norm(W)
        assert np.linalg.eigvalsh(0.5 * (P + P.conj().T))[0] >= -1e-12 * size
        assert _rel_err(psd_project(P), P) <= 1e-12
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
        assert _rel_err(psd_project(W), _clip_all(W)) <= 1e-12

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
        P = psd_project(W + (A - A.conj().T))
        assert _rel_err(P, _clip_all(W)) <= 1e-12
        assert _rel_err(P, P.conj().T) <= 1e-12


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
        Y = noiseless_measurements(cfg, scene, focusing)
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
        X = noiseless_measurements(ArrayConfig(M=6, c=1500.0, omega1=2 * np.pi * 1000),
                                   scene, focusing)
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
        ("max_iter", 1.5), ("max_iter", 100.0), ("max_iter", -3),
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
    data = synthesize_scene(cfg, scene, subband_template(cfg.omega1, alphas))
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
