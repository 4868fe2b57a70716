import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from lmi_oracles import poly_value
from wbdoa.atoms import ConicProblem, build_atom
from wbdoa.bench import random_scene
from wbdoa.focusing import FocusingSet, gamma_oracle, noiseless_measurements
from wbdoa.model import (
    ArrayConfig,
    SubbandData,
    WidebandScene,
    stationary_frequencies,
    steering_matrix,
    steering_vector,
    subband_transform,
    synthesize_scene,
    theta_to_f,
)
from wbdoa.recovery import (
    PEAK_TOL,
    DoaEstimate,
    RecoveryConfig,
    _nnls,
    estimate_doa,
    locate_frequencies,
    merge_atoms,
    primal_reconstruction,
    recover_amplitudes,
)
from wbdoa.solver import SolverConfig, solve


def _peak_vector(Hbar, f):
    """Hbar^H a(f), evaluated as locate_frequencies does, so bit for bit."""
    return (Hbar.conj().T @ steering_vector(f, Hbar.shape[0])[..., None])[..., 0]


def _with_peak_height(Hbar, top):
    """Hbar scaled so the maximum of P on a 2^16-point grid is top: (the
    scaled Hbar, the grid, P on it)."""
    grid = np.linspace(-0.5, 0.5, 1 << 16, endpoint=False)
    vals = np.linalg.norm(Hbar.conj().T @ steering_matrix(grid, Hbar.shape[0]), axis=0)
    scale = top / vals.max()
    return Hbar * scale, grid, vals * scale


class TestPeakReading:
    """locate_frequencies reads P, and the unit coefficient vectors, at its peaks."""

    def test_values_match_direct_formula(self):
        rng = np.random.default_rng(0)
        Hbar, _, _ = _with_peak_height(
            rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)), 1.0)
        fs, cs, values = locate_frequencies(Hbar)
        assert fs.size >= 1
        for f, c, value in zip(fs, cs, values):
            v = Hbar.conj().T @ steering_vector(f, 6)
            assert value == pytest.approx(np.linalg.norm(v), rel=1e-13)
            assert value == pytest.approx(poly_value(Hbar, f), rel=1e-13)
            assert np.allclose(c, v.conj() / np.linalg.norm(v), atol=1e-13)

    def test_peaks_on_an_array_match_scalar_calls(self):
        rng = np.random.default_rng(4)
        Hbar, _, _ = _with_peak_height(
            rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5)), 1.0)
        fs, cs, values = locate_frequencies(Hbar)
        assert fs.size >= 1 and cs.shape == (fs.size, 5) and values.shape == fs.shape
        vecs = np.stack([Hbar.conj().T @ steering_vector(f, 9) for f in fs])
        norms = np.linalg.norm(vecs, axis=-1)
        np.testing.assert_array_max_ulp(values, norms, maxulp=4)
        np.testing.assert_array_max_ulp(cs.view(float),
                                        (vecs.conj() / norms[:, None]).view(float), maxulp=4)


class TestLocateFrequencies:
    def _planted_hbar(self, f0, M=12):
        # single-column Hbar = a(f0)/M: Dirichlet kernel peaking at 1
        return (steering_vector(f0, M) / M)[:, None]

    def test_single_peak(self):
        f0 = 0.173
        fs, _, _ = locate_frequencies(self._planted_hbar(f0))
        assert fs.size == 1
        assert fs[0] == pytest.approx(f0, abs=1e-7)

    def test_no_peaks_when_small(self):
        Hbar = 0.5 * (steering_vector(0.1, 12) / 12)[:, None]
        assert locate_frequencies(Hbar)[0].size == 0

    def test_wraparound_peak(self):
        fs, _, _ = locate_frequencies(self._planted_hbar(-0.499))
        assert fs.size == 1
        d = abs(fs[0] - (-0.499))
        assert min(d, 1 - d) < 1e-6

    def test_merge_near_duplicates(self):
        # two-column Hbar with both columns the same atom creates one peak
        M = 10
        col = steering_vector(0.2, M) / (M * np.sqrt(2))
        fs, _, _ = locate_frequencies(np.stack([col, col], axis=1))
        assert fs.size == 1

    def test_real_hbar_single_peak_at_zero(self):
        # real Hbar makes P even, so its peak at f = 0 has equal values on
        # both sides; the sidelobes stay below 1 - PEAK_TOL
        fs, _, _ = locate_frequencies(np.full((8, 1), 1.0 / 8, dtype=complex))
        assert fs.size == 1
        assert abs(fs[0]) < 1e-12

    @pytest.mark.parametrize("zero_row", [0, -1], ids=["first", "last"])
    def test_zero_end_row_drops_degree(self, zero_row):
        # a zero first or last row makes r_{M-1} = 0, so the derivative
        # polynomial drops degree; the other M-1 rows hold a(f0)/(M-1), so
        # P is a Dirichlet kernel of length M-1 with maximum 1 at f0
        M, f0 = 10, 0.237
        Hbar = (steering_vector(f0, M) / (M - 1))[:, None]
        Hbar[zero_row] = 0.0
        fs, cs, values = locate_frequencies(Hbar)
        assert fs.size == 1
        assert fs[0] == pytest.approx(f0, abs=1e-12)
        assert values[0] == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(cs[0]) == pytest.approx(1.0, abs=1e-15)

    def test_flat_peak_found(self):
        # columns a(0.2 -+ delta/2)/M at the delta where their two peaks
        # merge (P''(0.2) = 0): P has one flat maximum, a triple root of the
        # derivative polynomial, and np.roots puts its three roots up to
        # ~1e-10 off the unit circle, well inside the 1e-6 cut
        M, delta = 16, 0.0519745568
        Hbar = np.stack([steering_vector(0.2 - delta / 2, M),
                         steering_vector(0.2 + delta / 2, M)], axis=1)
        fs, _, _ = locate_frequencies(Hbar / poly_value(Hbar, 0.2))
        assert fs.size >= 1
        assert np.all(np.abs(fs - 0.2) < 1e-3)

    @pytest.mark.parametrize("row", [None, 3], ids=["zero", "single-row"])
    def test_constant_polynomial_has_no_peak(self, row):
        # Hbar = 0, or one nonzero row, makes P constant (here 1.2 for the
        # row): no maximum, so no peak even though P >= 1 - PEAK_TOL
        Hbar = np.zeros((8, 3), dtype=complex)
        if row is not None:
            Hbar[row] = [0.96, 0.72j, 0.0]
        fs, cs, values = locate_frequencies(Hbar)
        assert stationary_frequencies(Hbar @ Hbar.conj().T, maxima=True).size == 0
        assert fs.size == 0 and cs.shape == (0, 3) and values.shape == (0,)

    @settings(max_examples=40, deadline=None)
    @given(M=st.integers(2, 48), J=st.integers(1, 19), top=st.floats(1.0, 1.03),
           seed=st.integers(0, 2**32 - 1))
    def test_every_near_one_maximum_found(self, M, J, top, seed):
        # random Hbar scaled so the maximum of P on a 2^16-point grid is
        # top: several local maxima lie within PEAK_TOL of 1
        rng = np.random.default_rng(seed)
        Hbar, grid, vals = _with_peak_height(
            rng.standard_normal((M, J)) + 1j * rng.standard_normal((M, J)), top)
        fs, cs, peaks = locate_frequencies(Hbar)
        # each returned f is a local maximum within PEAK_TOL of 1, returned
        # with P there and the conjugate polynomial vector over it
        vectors = _peak_vector(Hbar, fs)
        assert peaks.tobytes() == np.linalg.norm(vectors, axis=-1).tobytes()
        assert cs.tobytes() == (vectors.conj() / peaks[:, None]).tobytes()
        assert np.all(peaks >= poly_value(Hbar, fs - 1e-6))
        assert np.all(peaks >= poly_value(Hbar, fs + 1e-6))
        assert np.all(peaks >= 1.0 - PEAK_TOL)
        # each grid maximum clearly above the threshold has a true maximum
        # within one grid step, which must have been returned
        cand = grid[(vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
                    & (vals >= 1.0 - PEAK_TOL + 1e-6)]
        assert cand.size >= 1
        gaps = np.abs((cand[:, None] - fs[None, :] + 0.5) % 1.0 - 0.5)
        assert np.all(gaps.min(axis=1, initial=1.0) <= 1.0 / grid.size)


class TestRecoverPieces:
    def test_amplitudes_exact_on_planted_scene(self):
        # two atoms, known betas; NNLS on the exact noiseless matrix must
        # return them to machine precision
        focusing = FocusingSet.build([1.0, 0.9, 0.8], 8)
        rng = np.random.default_rng(3)
        spectra = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        scene = WidebandScene(angles_deg=(-25.0, 20.0), source_spectra=spectra)
        X = noiseless_measurements(scene, focusing)
        weights = np.linalg.norm(spectra, axis=1)
        fs = [theta_to_f(t) for t in scene.angles_deg]
        betas = recover_amplitudes(X, fs, spectra / weights[:, None], focusing)
        assert np.allclose(betas, weights, rtol=1e-10)

    def test_amplitudes_empty(self):
        focusing = FocusingSet.build([1.0], 4)
        assert recover_amplitudes(np.zeros((4, 1)), [], [], focusing).size == 0

    @pytest.mark.parametrize("n_f, n_c", [(2, 1), (1, 2), (0, 1)])
    def test_one_coefficient_vector_per_frequency(self, n_f, n_c):
        # zipping fs with cs used to drop the unmatched atoms silently
        focusing = FocusingSet.build([1.0, 0.9, 0.8], 8)
        Y = focusing.columns(0.1) + focusing.columns(-0.2)
        with pytest.raises(ValueError, match=f"{n_f} frequencies but {n_c} coefficient"):
            recover_amplitudes(Y, [0.1, -0.2][:n_f], [np.ones(3)] * n_c, focusing)

    @settings(max_examples=60, deadline=None)
    @given(f=st.floats(-0.45, 0.45), u=st.one_of(st.none(), st.floats(-12.0, -3.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_duplicate_atoms(self, f, u, seed):
        # two atoms at separation 0 or 10^u with one c: NNLS fits them with
        # no warning, and their summed amplitude is scipy's to 1e-9
        focusing = FocusingSet.build(np.arange(20, 10, -1) / 20, 16)
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        fs = [f, f + (0.0 if u is None else 10.0 ** u)]
        noise = rng.standard_normal((16, 10)) + 1j * rng.standard_normal((16, 10))
        Y = rng.uniform(0.5, 2.0) * build_atom(f, c, focusing) + 0.1 * noise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            betas = recover_amplitudes(Y, fs, [c, c], focusing)
        assert np.all(betas >= 0)
        cols = np.stack([build_atom(x, c, focusing).ravel() for x in fs], axis=1)
        ref, _ = scipy_nnls(np.vstack([cols.real, cols.imag]),
                            np.concatenate([Y.ravel().real, Y.ravel().imag]))
        assert betas.sum() == pytest.approx(ref.sum(), rel=1e-9)


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
            x = _nnls(*np.linalg.qr(A), b)
            assert np.all(x >= 0)
            assert np.linalg.norm(x - ref) <= 1e-12 * scale

    def test_negative_cone_gives_zeros(self):
        # A >= 0 and b = -A y with y >= 0, so A^T b <= 0: x = 0 is optimal
        rng = np.random.default_rng(1)
        A = rng.uniform(0.0, 1.0, (320, 5))
        b = -A @ rng.uniform(0.0, 1.0, 5)
        assert _nnls(*np.linalg.qr(A), b).tolist() == [0.0] * 5

    def test_exact_nonnegative_fit_recovered(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((320, 8))
        x_true = np.array([1.5, 0.0, 0.25, 3.0, 0.0, 0.7, 0.0, 2.0])
        x = _nnls(*np.linalg.qr(A), A @ x_true)
        assert np.allclose(x, x_true, rtol=0, atol=1e-12)
        assert np.all(x[x_true == 0.0] == 0.0)

    def test_single_column(self):
        a = np.linspace(1.0, 2.0, 320)[:, None]
        b = 0.5 * a[:, 0] + np.sin(np.arange(320.0))
        x = _nnls(*np.linalg.qr(a), b)
        assert x[0] == pytest.approx(a[:, 0] @ b / (a[:, 0] @ a[:, 0]), rel=1e-13)
        assert _nnls(*np.linalg.qr(a), -b).tolist() == [0.0]


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

    def test_lone_atoms_keep_their_bits(self):
        fs, betas, cs = merge_atoms([0.1, -0.3], [1.0, 1.0], self.cs[:2], 0.01)
        assert fs.tolist() == [-0.3, 0.1]
        assert betas.tolist() == [1.0, 1.0]

    def test_empty(self):
        fs, betas, cs = merge_atoms([], [], [], 0.1)
        assert fs.size == 0 and betas.size == 0 and cs == []

    def test_zero_radius_keeps_every_atom(self):
        # at radius 0 no other atom is closer than the radius, but the
        # heaviest one still forms its own group with its own amplitude
        fs, betas, cs = merge_atoms([0.1, 0.11, -0.3], [1.0, 3.0, 0.5], self.cs, 0.0)
        assert fs.tolist() == [-0.3, 0.1, 0.11]
        assert betas.tolist() == [0.5, 1.0, 3.0]
        assert cs[0] is self.cs[2] and cs[1] is self.cs[0] and cs[2] is self.cs[1]

    def test_zero_radius_keeps_two_atoms_at_one_frequency(self):
        fs, betas, cs = merge_atoms([0.2, 0.2], [1.0, 2.0], self.cs[:2], 0.0)
        assert fs.tolist() == [0.2, 0.2]
        assert sorted(betas.tolist()) == [1.0, 2.0]
        assert {id(c) for c in cs} == {id(c) for c in self.cs[:2]}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(0.0, 10.0)), max_size=8),
           st.floats(0.0, 1.0))
    def test_properties_at_any_radius(self, atoms, radius):
        fs_in = np.array([f for f, _ in atoms])
        betas_in = np.array([b for _, b in atoms])
        fs, betas, cs = merge_atoms(fs_in, betas_in, list(range(len(atoms))), radius)
        assert betas.sum() == pytest.approx(betas_in.sum(), rel=1e-12)
        assert np.all(np.diff(fs) >= 0) and np.all(np.abs(fs) <= 0.5)
        assert fs.size == betas.size == len(cs) <= len(atoms)
        diffs = fs_in[:, None] - fs_in
        gaps = np.abs(diffs - np.round(diffs))[~np.eye(len(atoms), dtype=bool)]
        if np.all(gaps >= radius):
            # no atom merges: each comes back as it went in, sorted by (f, beta)
            # (+ 0.0: a lone -0.0 comes back as 0.0, equal in value)
            order = sorted(range(len(atoms)), key=atoms.__getitem__)
            assert cs == order
            assert fs.tobytes() == (fs_in[order] + 0.0).tobytes()
            assert betas.tobytes() == betas_in[order].tobytes()


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
    focusing = FocusingSet.build(alphas, cfg.M)
    return cfg, focusing


class TestEstimateDoa:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(0, 2**16), st.sampled_from([None, 10.0]))
    def test_mirror(self, pipeline_setup, seed, snr_db):
        # conj(Y) is the scene mirrored about broadside: the focusing
        # matrices are real, so the solve runs the same iterations and the
        # angles change sign up to rounding (measured <= 3e-14 deg)
        cfg, focusing = pipeline_setup
        rng = np.random.default_rng(seed)
        angles = tuple(np.sort(rng.uniform(-70.0, 70.0, 3)))
        scene = random_scene(angles, focusing, snr_db, seed)
        data = synthesize_scene(cfg, scene, focusing)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        est = estimate_doa(data, gamma, focusing)
        mirror = estimate_doa(SubbandData(data.Y.conj(), data.omegas), gamma, focusing)
        assert mirror.Khat == est.Khat
        assert (mirror.diagnostics["solverIterations"]
                == est.diagnostics["solverIterations"])
        assert np.max(np.abs(np.sort(mirror.thetas) + np.sort(est.thetas)[::-1])) <= 1e-10

    @pytest.mark.parametrize("snr_db", [None, 10.0, 0.0], ids=["noiseless", "10dB", "0dB"])
    @pytest.mark.parametrize("seed", range(6))
    def test_per_bin_phase(self, pipeline_setup, seed, snr_db):
        # Y diag(e^{i phi_j}) rotates each bin's spectra, which the atoms
        # absorb, and conjugates the PSD block by a unitary: the solve runs
        # the same iterations and the angles agree up to rounding
        # (measured <= 2.5e-12 deg)
        cfg, focusing = pipeline_setup
        scene = random_scene((-5.0, 15.0, 40.0), focusing, snr_db, seed)
        data = synthesize_scene(cfg, scene, focusing)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        rec = RecoveryConfig(solver=SolverConfig(max_iter=20000, eps_abs=1e-6, eps_rel=1e-5))
        phases = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=data.J))
        est = estimate_doa(data, gamma, focusing, rec)
        turned = estimate_doa(SubbandData(data.Y * phases, data.omegas), gamma, focusing, rec)
        assert turned.Khat == est.Khat
        assert (turned.diagnostics["solverIterations"]
                == est.diagnostics["solverIterations"])
        assert np.max(np.abs(np.sort(turned.thetas) - np.sort(est.thetas))) <= 1e-9

    def test_three_source_noiseless(self, pipeline_setup):
        cfg, focusing = pipeline_setup
        rng = np.random.default_rng(0)
        spectra = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        angles = (-5.0, 15.0, 40.0)
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra)
        data = synthesize_scene(cfg, scene, focusing)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        est = estimate_doa(data, gamma, focusing)
        assert est.Khat == 3
        assert np.max(np.abs(np.sort(est.thetas) - np.sort(angles))) < 0.1
        assert est.diagnostics["dualityGap"] < 1e-3 * est.diagnostics["totalAmplitude"]
        # peakValues covers every located atom, minor ones included, so
        # only the locate threshold is guaranteed
        for p in est.diagnostics["peakValues"]:
            assert p >= 1.0 - PEAK_TOL

    def test_coefficients_are_the_peak_vectors(self, pipeline_setup):
        # each c_k is conj(P vector) / P at its located peak, read from the
        # same deterministic solve; this draw merges no atoms, so every kept
        # atom is one located peak, at the same f
        cfg, focusing = pipeline_setup
        scene = random_scene((-5.0, 15.0, 40.0), focusing, None, 0)
        data = synthesize_scene(cfg, scene, focusing)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        est = estimate_doa(data, gamma, focusing)
        d = est.diagnostics
        assert len(d["peakValues"]) == est.Khat + len(d["minorAtoms"])
        Hbar = solve(ConicProblem(Y=data.Y, focusing=focusing, gamma=gamma)).Hbar
        peaks, cs, values = locate_frequencies(Hbar)
        assert d["peakValues"] == values.tolist()
        assert d["peakValues"] == np.linalg.norm(_peak_vector(Hbar, peaks), axis=-1).tolist()
        for f, c in zip(est.fs, est.cs):
            (k,) = np.flatnonzero(peaks == f)
            assert c.tobytes() == cs[k].tobytes()
            assert c.tobytes() == (_peak_vector(Hbar, peaks[k]).conj()
                                   / d["peakValues"][k]).tobytes()
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-15)

    def test_split_peak_merged_after_fit(self, pipeline_setup):
        # the acceptance noiseless scene drawn with seed 16: the dual
        # polynomial splits the source at 15 deg into peaks at 14.29 and
        # 15.12 deg of nearly equal height; merging them before the
        # amplitude fit kept the lighter one (0.705 deg error)
        cfg, focusing = pipeline_setup
        rng = np.random.default_rng(16)
        spectra = (rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))) / np.sqrt(2)
        angles = (-5.0, 15.0, 40.0)
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra)
        data = synthesize_scene(cfg, scene, focusing)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        est = estimate_doa(data, gamma, focusing)
        assert est.Khat == 3
        assert np.max(np.abs(est.thetas - np.array(angles))) <= 0.1
        assert est.diagnostics["dualityGap"] / est.diagnostics["dualObjective"] <= 1e-3

    def test_minor_atom_at_default_radius(self, pipeline_setup):
        # perfbench's noiseless scene of seed 3, scene 0: at API defaults its
        # fit has a 0.057 atom at -70.34 deg, under AMP_FLOOR of the largest,
        # which goes to minorAtoms and not to the estimate; every kept
        # amplitude is positive (radius 0 is TestMergeAtoms' test_zero_radius_*)
        cfg, focusing = pipeline_setup
        rng = np.random.default_rng(np.random.SeedSequence([3, 16, 10]))
        spectra = (rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))) / np.sqrt(2)
        scene = WidebandScene(angles_deg=(-5.0, 15.0, 40.0), source_spectra=spectra)
        data = synthesize_scene(cfg, scene, focusing)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        est = estimate_doa(data, gamma, focusing)
        assert np.all(est.betas > 0)
        assert np.all(np.abs(est.thetas + 70.34) > 1.0)
        assert [m["theta_deg"] for m in est.diagnostics["minorAtoms"]] == pytest.approx([-70.34],
                                                                                      abs=0.01)

    def test_resolves_a_four_degree_pair_at_defaults(self, pipeline_setup):
        # 36 and 40 deg lie 0.0275 apart in f, 0.44 of the Rayleigh width
        # 1/M and inside a 0.5/M merge radius; that radius merged the pair
        # on 4 of these 10 seeds
        cfg, focusing = pipeline_setup
        angles = np.array([36.0, 40.0])
        resolved = 0
        for seed in range(1000, 1010):
            scene = random_scene(tuple(angles), focusing, 10.0, seed)
            data = synthesize_scene(cfg, scene, focusing)
            est = estimate_doa(data, gamma_oracle(data.Y, cfg, scene, focusing), focusing)
            resolved += bool(np.all(np.abs(est.thetas[:, None] - angles).min(axis=0) <= 2.0))
        assert resolved >= 9

    def test_focusing_for_other_bins_rejected(self, pipeline_setup):
        # the acceptance scene with a focusing set for other bins (same M
        # and J) once returned five confident angles with status Optimal
        cfg, focusing = pipeline_setup
        rng = np.random.default_rng(0)
        spectra = (rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))) / np.sqrt(2)
        scene = WidebandScene(angles_deg=(-5.0, 15.0, 40.0), source_spectra=spectra)
        data = synthesize_scene(cfg, scene, focusing)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        other = FocusingSet.build(np.linspace(1.0, 0.5, 10), cfg.M)
        with pytest.raises(ValueError, match="other bins"):
            estimate_doa(data, gamma, other)

    def test_focusing_set_required(self, pipeline_setup):
        cfg, focusing = pipeline_setup
        scene = random_scene((15.0,), focusing, None, 0)
        data = synthesize_scene(cfg, scene, focusing)
        with pytest.raises(TypeError):
            estimate_doa(data, 1.0)

    def test_time_domain_front_end(self, pipeline_setup):
        # bin-aligned tones x_m[n] = sum_k sum_j s_kj e^{-2 pi i alpha_j f_k m}
        # e^{2 pi i b_j n / 60}, bins b_j = 20..11: the 60-point DFT puts 60
        # times the synthesized snapshot into those bins, and the estimate
        # on it uses a focusing set built from the nominal bin ratios
        cfg, focusing = pipeline_setup
        rng = np.random.default_rng(0)
        spectra = (rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))) / np.sqrt(2)
        angles = (-5.0, 15.0, 40.0)
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra)
        fk = np.array([theta_to_f(a) for a in angles])
        m, n, bins = np.arange(cfg.M), np.arange(60), np.arange(20, 10, -1)
        sensors = np.exp(-2j * np.pi * m[:, None, None] * fk[None, :, None]
                         * focusing.alphas[None, None, :])
        tones = np.exp(2j * np.pi * bins[:, None] * n[None, :] / 60)
        x = np.einsum("mkj,kj,jn->mn", sensors, spectra, tones)
        data = subband_transform(x, 60, (np.pi / 3, 2 * np.pi / 3), 10)
        reference = synthesize_scene(cfg, scene, focusing)
        np.testing.assert_allclose(data.Y / 60, reference.Y, rtol=0, atol=1e-12)
        gamma = gamma_oracle(reference.Y, cfg, scene, focusing) * 60 ** 2
        est = estimate_doa(data, gamma, focusing)
        assert est.Khat == 3
        assert np.max(np.abs(est.thetas - np.array(angles))) <= 0.1

    def test_single_source_with_noise(self, pipeline_setup):
        cfg, focusing = pipeline_setup
        rng = np.random.default_rng(5)
        spectra = rng.standard_normal((1, 10)) + 1j * rng.standard_normal((1, 10))
        scene = WidebandScene(angles_deg=(22.0,), source_spectra=spectra,
                              noise_variance=0.01, seed=6)
        data = synthesize_scene(cfg, scene, focusing)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        est = estimate_doa(data, gamma, focusing)
        assert est.Khat == 1
        assert est.thetas[0] == pytest.approx(22.0, abs=0.5)

    def test_diagnostics_and_json(self, pipeline_setup):
        cfg, focusing = pipeline_setup
        spectra = np.ones((1, 10), dtype=complex)
        scene = WidebandScene(angles_deg=(0.0,), source_spectra=spectra)
        data = synthesize_scene(cfg, scene, focusing)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        est = estimate_doa(data, gamma, focusing)
        d = est.diagnostics
        assert d["solverStatus"] == "Optimal"
        assert d["solverIterations"] >= 1
        doc = json.loads(est.to_json())
        assert doc["Khat"] == est.Khat
        assert doc["angles_deg"] == [float(t) for t in est.thetas]

    def test_json_refuses_what_it_cannot_hold(self):
        # a diagnostics value JSON cannot hold once vanished from the text
        est = DoaEstimate(fs=np.array([0.1]), cs=[np.ones(2)], betas=np.array([1.0]),
                          diagnostics={"solverStatus": "Optimal", "atoms": {1, 2}})
        with pytest.raises(TypeError):
            est.to_json()

    def test_non_converged_solve_warns(self, pipeline_setup):
        # the acceptance noiseless scene with a budget far too small to
        # converge: the estimate is still returned, but not silently
        cfg, focusing = pipeline_setup
        rng = np.random.default_rng(0)
        spectra = (rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))) / np.sqrt(2)
        scene = WidebandScene(angles_deg=(-5.0, 15.0, 40.0), source_spectra=spectra)
        data = synthesize_scene(cfg, scene, focusing)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        config = RecoveryConfig(solver=SolverConfig(max_iter=50))
        with pytest.warns(UserWarning, match="MaxIter"):
            est = estimate_doa(data, gamma, focusing, config)
        assert est.diagnostics["solverStatus"] == "MaxIter"
        assert est.diagnostics["solverIterations"] == 50

    def test_recovery_config_tolerances(self, pipeline_setup):
        cfg, focusing = pipeline_setup
        spectra = np.ones((1, 10), dtype=complex)
        scene = WidebandScene(angles_deg=(10.0,), source_spectra=spectra)
        data = synthesize_scene(cfg, scene, focusing)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        config = RecoveryConfig(solver=SolverConfig(eps_abs=1e-8, eps_rel=1e-7))
        est = estimate_doa(data, gamma, focusing, config)
        assert est.Khat == 1
        assert est.thetas[0] == pytest.approx(10.0, abs=0.05)
