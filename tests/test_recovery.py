import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from wbdoa.focusing import FocusingSet, gamma_oracle, noiseless_measurements
from wbdoa.model import (
    ArrayConfig,
    SubbandData,
    WidebandScene,
    steering_matrix,
    steering_vector,
    subband_template,
    synthesize_scene,
    theta_to_f,
)
from wbdoa.recovery import (
    DualPolynomial,
    RecoveryConfig,
    _nnls,
    estimate_doa,
    locate_frequencies,
    merge_atoms,
    primal_reconstruction,
    recover_amplitudes,
    recover_coefficients,
)
from wbdoa.solver import SolverConfig


class TestDualPolynomial:
    def test_values_match_direct_formula(self):
        rng = np.random.default_rng(0)
        Hbar = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        poly = DualPolynomial(Hbar=Hbar)
        for f in rng.uniform(-0.5, 0.5, 20):
            a = steering_vector(f, 6)
            assert poly(f) == pytest.approx(np.linalg.norm(Hbar.conj().T @ a),
                                            rel=1e-13)
            assert np.allclose(poly.vector(f), Hbar.conj().T @ a, atol=1e-13)

    def test_on_grid_matches_calls(self):
        rng = np.random.default_rng(1)
        Hbar = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        poly = DualPolynomial(Hbar=Hbar)
        fs, vals = poly.on_grid(64)
        for f, v in zip(fs[:8], vals[:8]):
            assert v == pytest.approx(poly(f), rel=1e-12)

    def test_on_grid_cached_grid_is_exact_and_read_only(self):
        rng = np.random.default_rng(2)
        fs = np.linspace(-0.5, 0.5, 256, endpoint=False)
        for _ in range(2):
            Hbar = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
            grid, vals = DualPolynomial(Hbar=Hbar).on_grid(256)
            assert np.array_equal(grid, fs)
            assert np.array_equal(
                vals, np.linalg.norm(Hbar.conj().T @ steering_matrix(fs, 8), axis=0))
        with pytest.raises(ValueError):
            grid[0] = 0.0


class TestRecoveryConfig:
    @pytest.mark.parametrize("kwargs", [
        {"peak_tol": 0.7}, {"peak_tol": 0.0},
        {"min_separation": -1e-3}, {"min_separation": float("nan")},
        {"min_separation": float("inf")},
    ], ids=["peak-tol-high", "peak-tol-zero",
            "min-sep-negative", "min-sep-nan", "min-sep-inf"])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryConfig(**kwargs)

    def test_accepts_edges(self):
        RecoveryConfig(min_separation=0.0)
        RecoveryConfig(min_separation=None)


class TestLocateFrequencies:
    def _planted_poly(self, f0, M=12):
        # single-column Hbar = a(f0)/M: Dirichlet kernel peaking at 1
        return DualPolynomial(Hbar=(steering_vector(f0, M) / M)[:, None])

    def test_single_peak(self):
        f0 = 0.173
        fs = locate_frequencies(self._planted_poly(f0))
        assert fs.size == 1
        assert fs[0] == pytest.approx(f0, abs=1e-7)

    def test_no_peaks_when_small(self):
        poly = DualPolynomial(Hbar=0.5 * (steering_vector(0.1, 12) / 12)[:, None])
        assert locate_frequencies(poly).size == 0

    def test_wraparound_peak(self):
        fs = locate_frequencies(self._planted_poly(-0.499))
        assert fs.size == 1
        d = abs(fs[0] - (-0.499))
        assert min(d, 1 - d) < 1e-6

    def test_merge_near_duplicates(self):
        # two-column Hbar with both columns the same atom creates one peak
        M = 10
        col = steering_vector(0.2, M) / (M * np.sqrt(2))
        poly = DualPolynomial(Hbar=np.stack([col, col], axis=1))
        fs = locate_frequencies(poly)
        assert fs.size == 1

    def test_equal_adjacent_samples_one_peak(self):
        # real Hbar makes P even, and an odd grid straddles f = 0 with two
        # samples of exactly equal value, both local maxima
        M, n = 8, 1023
        poly = DualPolynomial(Hbar=np.full((M, 1), 1.0 / M, dtype=complex))
        _, vals = poly.on_grid(n)
        top = np.sort(vals)[-2:]
        assert top[0] == top[1]
        fs = locate_frequencies(poly, grid_size=n)
        assert fs.size == 1
        assert abs(fs[0]) < 1e-7

    def test_validation(self):
        poly = self._planted_poly(0.1)
        with pytest.raises(ValueError):
            locate_frequencies(poly, peak_tol=0.7)
        with pytest.raises(ValueError):
            locate_frequencies(poly, grid_size=8)


def _scalar_golden_max(fun, lo, hi, tol):
    """Reference: golden-section ascent of one bracket, as a scalar loop."""
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(200):
        if b - a < tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2


def _per_peak_locate(Hbar, peak_tol, grid_size=8192):
    """Reference: every grid peak refined on its own, with P evaluated at one
    f at a time."""
    M = Hbar.shape[0]

    def poly(f):
        return float(np.linalg.norm(Hbar.conj().T @ steering_vector(f, M)))

    fs = np.linspace(-0.5, 0.5, grid_size, endpoint=False)
    vals = np.linalg.norm(Hbar.conj().T @ steering_matrix(fs, M), axis=0)
    cand = np.nonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
                      & (vals >= 1.0 - peak_tol))[0]
    step = 1.0 / grid_size
    kept = []
    for i in cand:
        f_hat = (_scalar_golden_max(poly, fs[i] - step, fs[i] + step, 1e-10) + 0.5) % 1.0 - 0.5
        if all(abs((f_hat - g + 0.5) % 1.0 - 0.5) >= step for g in kept):
            kept.append(f_hat)
    return np.array(sorted(kept))


class TestBatchedRefinement:
    @settings(max_examples=40, deadline=None)
    @given(M=st.integers(2, 48), J=st.integers(1, 19),
           peak_tol=st.sampled_from([0.05, 0.3]), top=st.floats(1.0, 1.03),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_peak_loop(self, M, J, peak_tol, top, seed):
        # random Hbar scaled so its grid maximum is top: several peaks lie
        # within peak_tol of 1
        rng = np.random.default_rng(seed)
        Hbar = rng.standard_normal((M, J)) + 1j * rng.standard_normal((M, J))
        Hbar *= top / DualPolynomial(Hbar=Hbar).on_grid(8192)[1].max()
        got = locate_frequencies(DualPolynomial(Hbar=Hbar), peak_tol=peak_tol)
        ref = _per_peak_locate(Hbar, peak_tol)
        assert got.shape == ref.shape and ref.size >= 1
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_polynomial_on_an_array_matches_scalar_calls(self):
        rng = np.random.default_rng(4)
        poly = DualPolynomial(Hbar=rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5)))
        fs = rng.uniform(-0.5, 0.5, (3, 4))
        vals = poly(fs)
        assert vals.shape == (3, 4)
        assert [poly(f) for f in fs.ravel()] == vals.ravel().tolist()
        assert isinstance(poly(0.1), float)


class TestRecoverPieces:
    def test_coefficients_unit_norm(self):
        rng = np.random.default_rng(2)
        Hbar = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        poly = DualPolynomial(Hbar=Hbar)
        cs = recover_coefficients(poly, [0.1, -0.3])
        assert len(cs) == 2
        for c in cs:
            assert np.linalg.norm(c) == pytest.approx(1.0)
        for f, c in zip([0.1, -0.3], cs):
            assert np.allclose(c, poly.vector(f).conj() / poly(f), rtol=1e-14, atol=0)

    def test_coefficients_of_a_zero_polynomial_stay_zero(self):
        cs = recover_coefficients(DualPolynomial(Hbar=np.zeros((8, 4), complex)), [0.1, -0.3])
        assert [c.tolist() for c in cs] == [[0j] * 4] * 2

    def test_amplitudes_exact_on_planted_scene(self):
        # two atoms, known betas; NNLS on the exact noiseless matrix must
        # return them to machine precision
        focusing = FocusingSet.build([1.0, 0.9, 0.8], 8)
        rng = np.random.default_rng(3)
        spectra = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        scene = WidebandScene(angles_deg=(-25.0, 20.0), source_spectra=spectra)
        X = noiseless_measurements(ArrayConfig(M=8, c=1500.0, omega1=2 * np.pi * 1000),
                                   scene, focusing)
        weights = np.linalg.norm(spectra, axis=1)
        fs = [theta_to_f(t) for t in scene.angles_deg]
        betas = recover_amplitudes(X, fs, spectra / weights[:, None], focusing)
        assert np.allclose(betas, weights, rtol=1e-10)

    def test_amplitudes_empty(self):
        focusing = FocusingSet.build([1.0], 4)
        assert recover_amplitudes(np.zeros((4, 1)), [], [], focusing).size == 0

    def test_ridge_fallback_on_duplicate_atoms(self):
        focusing = FocusingSet.build([1.0], 6)
        f = 0.1
        c = np.ones(1, dtype=complex)
        Y = steering_vector(f, 6)[:, None]
        with pytest.warns(UserWarning, match="ridge"):
            betas = recover_amplitudes(Y, [f, f], [c, c], focusing)
        assert betas.size == 2 and np.all(betas >= 0)


class TestNnls:
    @pytest.mark.parametrize("K", range(1, 12))
    def test_matches_scipy(self, K):
        rng = np.random.default_rng(100 + K)
        for _ in range(20):
            # the shape recover_amplitudes fits at M=16, J=10; mixed-sign
            # planted weights leave some constraints active
            A = rng.standard_normal((320, K))
            b = A @ rng.standard_normal(K) + 0.5 * rng.standard_normal(320)
            ref, _ = scipy_nnls(A, b)
            scale = max(np.linalg.norm(ref), np.linalg.norm(np.linalg.lstsq(A, b, rcond=None)[0]))
            x = _nnls(A, b)
            assert np.all(x >= 0)
            assert np.linalg.norm(x - ref) <= 1e-12 * scale

    def test_negative_cone_gives_zeros(self):
        # A >= 0 and b = -A y with y >= 0, so A^T b <= 0: x = 0 is optimal
        rng = np.random.default_rng(1)
        A = rng.uniform(0.0, 1.0, (320, 5))
        b = -A @ rng.uniform(0.0, 1.0, 5)
        assert _nnls(A, b).tolist() == [0.0] * 5

    def test_exact_nonnegative_fit_recovered(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((320, 8))
        x_true = np.array([1.5, 0.0, 0.25, 3.0, 0.0, 0.7, 0.0, 2.0])
        x = _nnls(A, A @ x_true)
        assert np.allclose(x, x_true, rtol=0, atol=1e-12)
        assert np.all(x[x_true == 0.0] == 0.0)

    def test_single_column(self):
        a = np.linspace(1.0, 2.0, 320)[:, None]
        b = 0.5 * a[:, 0] + np.sin(np.arange(320.0))
        x = _nnls(a, b)
        assert x[0] == pytest.approx(a[:, 0] @ b / (a[:, 0] @ a[:, 0]), rel=1e-13)
        assert _nnls(a, -b).tolist() == [0.0]


class TestMergeAtoms:
    cs = [np.array([1.0 + 0j]), np.array([1j]), np.array([-1.0 + 0j])]

    def test_weighted_centroid(self):
        fs, betas, cs = merge_atoms([0.1, 0.11, -0.3], [1.0, 3.0, 0.5], self.cs, 0.0125)
        assert fs == pytest.approx([-0.3, 0.1075], abs=1e-12)
        assert betas == pytest.approx([0.5, 4.0], abs=1e-15)
        # the heaviest member's coefficient vector
        assert cs[0] is self.cs[2] and cs[1] is self.cs[1]

    def test_wrap_across_half(self):
        fs, betas, cs = merge_atoms([0.495, -0.495], [1.0, 3.0], self.cs[:2], 0.0125)
        assert fs == pytest.approx([-0.4975], abs=1e-12)
        assert betas == pytest.approx([4.0], abs=1e-15)
        assert cs[0] is self.cs[1]
        fs, _, _ = merge_atoms([0.495, -0.495], [3.0, 1.0], self.cs[:2], 0.0125)
        assert fs == pytest.approx([0.4975], abs=1e-12)

    def test_exactly_min_separation_apart_stay_separate(self):
        fs, betas, cs = merge_atoms([0.25, 0.125], [1.0, 2.0], self.cs[:2], 0.125)
        assert np.array_equal(fs, [0.125, 0.25])
        assert np.array_equal(betas, [2.0, 1.0])
        assert cs[0] is self.cs[1] and cs[1] is self.cs[0]

    def test_empty(self):
        fs, betas, cs = merge_atoms([], [], [], 0.1)
        assert fs.size == 0 and betas.size == 0 and cs == []


class TestPrimalReconstruction:
    def test_zero_h_returns_y(self):
        Y = np.ones((3, 2), dtype=complex)
        assert np.array_equal(primal_reconstruction(Y, np.zeros((3, 2)), 4.0), Y)

    def test_shift_magnitude(self):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        H = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        X = primal_reconstruction(Y, H, 2.25)
        assert np.linalg.norm(Y - X) == pytest.approx(1.5, rel=1e-12)


@pytest.fixture(scope="module")
def pipeline_setup():
    cfg = ArrayConfig(M=16, c=1500.0, omega1=2 * np.pi * 1000)
    alphas = np.arange(20, 10, -1) / 20
    tpl = subband_template(cfg.omega1, alphas)
    focusing = FocusingSet.build(alphas, cfg.M)
    return cfg, tpl, focusing


class TestEstimateDoa:
    def test_three_source_noiseless(self, pipeline_setup):
        cfg, tpl, focusing = pipeline_setup
        rng = np.random.default_rng(0)
        spectra = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        angles = (-5.0, 15.0, 40.0)
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra)
        data = synthesize_scene(cfg, scene, tpl)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        est = estimate_doa(data, gamma, focusing)
        assert est.Khat == 3
        assert np.max(np.abs(np.sort(est.thetas) - np.sort(angles))) < 0.1
        assert est.diagnostics["dualityGap"] < 1e-3 * est.diagnostics["totalAmplitude"]
        # peakValues covers every located atom, minor ones included, so
        # only the locate threshold is guaranteed
        for p in est.diagnostics["peakValues"]:
            assert p >= 1.0 - 0.05

    def test_split_peak_merged_after_fit(self, pipeline_setup):
        # the acceptance noiseless scene drawn with seed 16: the dual
        # polynomial splits the source at 15 deg into peaks at 14.29 and
        # 15.12 deg of nearly equal height; merging them before the
        # amplitude fit kept the lighter one (0.705 deg error)
        cfg, tpl, focusing = pipeline_setup
        rng = np.random.default_rng(16)
        spectra = (rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))) / np.sqrt(2)
        angles = (-5.0, 15.0, 40.0)
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra)
        data = synthesize_scene(cfg, scene, tpl)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        est = estimate_doa(data, gamma, focusing)
        assert est.Khat == 3
        assert np.max(np.abs(est.thetas - np.array(angles))) <= 0.1
        assert est.diagnostics["relGap"] <= 1e-3

    def test_single_source_with_noise(self, pipeline_setup):
        cfg, tpl, focusing = pipeline_setup
        rng = np.random.default_rng(5)
        spectra = rng.standard_normal((1, 10)) + 1j * rng.standard_normal((1, 10))
        scene = WidebandScene(angles_deg=(22.0,), source_spectra=spectra,
                              noise_variance=0.01, seed=6)
        data = synthesize_scene(cfg, scene, tpl)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        est = estimate_doa(data, gamma, focusing)
        assert est.Khat == 1
        assert est.thetas[0] == pytest.approx(22.0, abs=0.5)

    def test_diagnostics_and_json(self, pipeline_setup, tmp_path):
        cfg, tpl, focusing = pipeline_setup
        spectra = np.ones((1, 10), dtype=complex)
        scene = WidebandScene(angles_deg=(0.0,), source_spectra=spectra)
        data = synthesize_scene(cfg, scene, tpl)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        est = estimate_doa(data, gamma, focusing)
        d = est.diagnostics
        assert d["relGap"] == d["dualityGap"] / d["dualObjective"]
        assert d["solverStatus"] == "Optimal"
        assert d["solverIterations"] >= 1
        path = tmp_path / "est.json"
        est.to_json(path)
        doc = json.loads(path.read_text())
        assert doc["Khat"] == est.Khat
        assert doc["angles_deg"] == [float(t) for t in est.thetas]

    def test_non_converged_solve_warns(self, pipeline_setup):
        # the acceptance noiseless scene with a budget far too small to
        # converge: the estimate is still returned, but not silently
        cfg, tpl, focusing = pipeline_setup
        rng = np.random.default_rng(0)
        spectra = (rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))) / np.sqrt(2)
        scene = WidebandScene(angles_deg=(-5.0, 15.0, 40.0), source_spectra=spectra)
        data = synthesize_scene(cfg, scene, tpl)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        config = RecoveryConfig(solver=SolverConfig(max_iter=50))
        with pytest.warns(UserWarning, match="MaxIter"):
            est = estimate_doa(data, gamma, focusing, config)
        assert est.diagnostics["solverStatus"] == "MaxIter"
        assert est.diagnostics["solverIterations"] == 50

    def test_recovery_config_tolerances(self, pipeline_setup):
        cfg, tpl, focusing = pipeline_setup
        spectra = np.ones((1, 10), dtype=complex)
        scene = WidebandScene(angles_deg=(10.0,), source_spectra=spectra)
        data = synthesize_scene(cfg, scene, tpl)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        config = RecoveryConfig(peak_tol=0.02, grid_size=4096,
                                solver=SolverConfig(eps_abs=1e-8, eps_rel=1e-7))
        est = estimate_doa(data, gamma, focusing, config)
        assert est.Khat == 1
        assert est.thetas[0] == pytest.approx(10.0, abs=0.05)
