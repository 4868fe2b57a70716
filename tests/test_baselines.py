import numpy as np
import pytest
from scipy.stats import kstest

from wbdoa.baselines import (
    music_spectrum,
    perturb_initial,
    rss_estimate,
    rss_focusing_matrices,
)
from wbdoa.bench import default_alphas, match_errors, random_scene
from wbdoa.focusing import FocusingSet
from wbdoa.model import (
    ArrayConfig,
    SubbandData,
    WidebandScene,
    f_to_theta,
    steering_matrix,
    steering_vector,
    synthesize_scene,
    theta_to_f,
)


class TestPerturbInitial:
    def test_deterministic(self):
        a = perturb_initial((0.0, 30.0), 2.0, seed=7)
        b = perturb_initial((0.0, 30.0), 2.0, seed=7)
        assert np.array_equal(a, b)

    def test_zero_error(self):
        assert np.array_equal(perturb_initial((5.0, -5.0), 0.0, seed=1),
                              [5.0, -5.0])

    def test_bounded(self):
        for seed in range(50):
            p = perturb_initial((0.0,) * 4, 2.0, seed=seed)
            assert np.all(np.abs(p) <= 2.0)

    def test_uniform_distribution(self):
        # KS test of pooled errors against Uniform(-2, 2)
        errs = np.concatenate(
            [perturb_initial((0.0,) * 10, 2.0, seed=s) for s in range(100)])
        stat = kstest(errs, "uniform", args=(-2.0, 4.0))
        assert stat.pvalue > 0.01

    def test_negative_error_rejected(self):
        for max_err in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                perturb_initial((0.0,), max_err, seed=0)


class TestRssFocusing:
    def test_unitary(self):
        mats = rss_focusing_matrices(8, [1.0, 0.9, 0.8], (-10.0, 20.0))
        for T in mats:
            assert np.allclose(T @ T.conj().T, np.eye(8), atol=1e-10)

    def test_reference_band_identity_action(self):
        # band 1 (alpha = 1) solves Procrustes on Phi_1 Phi_1^H, which is
        # Hermitian PSD, so T_1 acts as identity on the guess subspace
        angles = (-10.0, 20.0)
        mats = rss_focusing_matrices(8, [1.0, 0.9], angles)
        Phi1 = steering_matrix([theta_to_f(a) for a in angles], 8)
        assert np.allclose(mats[0] @ Phi1, Phi1, atol=1e-8)

    def test_aligns_guess_steering(self):
        # T_j Phi_j is the best unitary alignment of Phi_j to Phi_1; the
        # residual must beat the identity map
        angles = (-5.0, 15.0, 40.0)
        alphas = [1.0, 0.8]
        mats = rss_focusing_matrices(16, alphas, angles)
        fs = [theta_to_f(a) for a in angles]
        Phi1 = steering_matrix(fs, 16)
        Phij = steering_matrix([0.8 * f for f in fs], 16)
        aligned = np.linalg.norm(mats[1] @ Phij - Phi1)
        assert aligned < np.linalg.norm(Phij - Phi1)

    def test_empty_angles(self):
        with pytest.raises(ValueError):
            rss_focusing_matrices(4, [1.0], ())


def _noise_subspace(R, K):
    return np.linalg.eigh(R)[1][:, : R.shape[0] - K]


class TestMusicSpectrum:
    def test_peak_at_planted_source(self):
        M = 12
        f0 = theta_to_f(17.0)
        a = steering_vector(f0, M)
        R = np.outer(a, a.conj()) + 1e-6 * np.eye(M)
        grid = np.arange(-60.0, 60.0, 0.05)
        spec = music_spectrum(_noise_subspace(R, 1), steering_matrix(theta_to_f(grid), M))
        assert grid[np.argmax(spec)] == pytest.approx(17.0, abs=0.05)

    def test_two_sources(self):
        M = 12
        R = 1e-8 * np.eye(M, dtype=complex)
        for th in (-20.0, 35.0):
            a = steering_vector(theta_to_f(th), M)
            R += np.outer(a, a.conj())
        grid = np.arange(-89.0, 89.0, 0.02)
        spec = music_spectrum(_noise_subspace(R, 2), steering_matrix(theta_to_f(grid), M))
        order = np.argsort(spec)[::-1]
        tops = np.sort(grid[order[:2]])
        # top two grid points sit on the two sources (they may both land
        # on one source's shoulder, so check peaks instead)
        peaks = [grid[i] for i in range(1, grid.size - 1)
                 if spec[i] >= spec[i - 1] and spec[i] >= spec[i + 1]]
        peaks = sorted(peaks, key=lambda g: -spec[int(round((g - grid[0]) / 0.02))])[:2]
        assert sorted(p for p in peaks) == pytest.approx([-20.0, 35.0], abs=0.05)


@pytest.fixture
def rss_setup():
    cfg = ArrayConfig(M=16, c=1500.0, omega1=2 * np.pi * 1000)
    alphas = np.arange(20, 10, -1) / 20
    return cfg, FocusingSet.build(alphas, cfg.M)


class TestRssEstimate:
    def test_noiseless_exact_init(self, rss_setup):
        cfg, bins = rss_setup
        rng = np.random.default_rng(0)
        angles = (-5.0, 15.0, 40.0)
        spectra = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra)
        data = synthesize_scene(cfg, scene, bins)
        est = rss_estimate(data, angles)
        assert np.allclose(np.sort(est), np.sort(angles), atol=0.5)

    def test_noisy_perturbed_init(self, rss_setup):
        cfg, bins = rss_setup
        rng = np.random.default_rng(1)
        angles = (-5.0, 15.0, 40.0)
        spectra = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        sig = np.linalg.norm(spectra) ** 2 / (16 * 10 * 10 ** (20 / 10))
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra,
                              noise_variance=sig, seed=2)
        data = synthesize_scene(cfg, scene, bins)
        init = perturb_initial(angles, 2.0, seed=3)
        est = rss_estimate(data, init)
        assert est.size == 3
        assert np.allclose(np.sort(est), np.sort(angles), atol=2.0)

    def test_returns_sorted_k_angles(self, rss_setup):
        cfg, bins = rss_setup
        scene = WidebandScene(angles_deg=(0.0,), source_spectra=np.ones((1, 10)))
        data = synthesize_scene(cfg, scene, bins)
        est = rss_estimate(data, (0.0,))
        assert est.shape == (1,)
        assert est[0] == pytest.approx(0.0, abs=0.1)

    def test_too_few_bands(self, rss_setup):
        cfg, bins = rss_setup
        scene = WidebandScene(angles_deg=(0.0,), source_spectra=np.ones((1, 10)))
        data = synthesize_scene(cfg, scene, bins)
        short = SubbandData(Y=data.Y[:, :2], omegas=data.omegas[:2])
        with pytest.raises(ValueError):
            rss_estimate(short, (0.0, 1.0, 2.0))

    def test_csv_round_trip_same_angles(self, tmp_path):
        # at omega1 = 7001, omega1 * alphas / omega1 is not alphas bit for
        # bit, so the data must carry one copy of the bins for a reloaded
        # scene to give the same RSS angles (which depend on the bins' last
        # bits, through the Procrustes rotation)
        cfg = ArrayConfig(M=16, c=1500.0, omega1=7001.0)
        focusing = FocusingSet.build(default_alphas(10), cfg.M)
        angles = (-5.0, 15.0, 40.0)
        data = synthesize_scene(cfg, random_scene(angles, focusing, 0.0, 3), focusing)
        data.save_csv(tmp_path / "data.csv")
        loaded = SubbandData.load_csv(tmp_path / "data.csv")
        assert np.array_equal(loaded.alphas, data.alphas)
        for init in (angles, tuple(perturb_initial(angles, 2.0, seed=3))):
            assert np.array_equal(rss_estimate(loaded, init), rss_estimate(data, init))

    @pytest.mark.parametrize("K", [4, 5])
    def test_k_not_below_m_rejected(self, rss_setup, K):
        _, bins = rss_setup
        arr = ArrayConfig(M=4, c=1500.0, omega1=2 * np.pi * 1000)
        angles = tuple(np.linspace(-40.0, 40.0, K))
        scene = WidebandScene(angles_deg=angles, source_spectra=np.ones((K, 10)))
        data = synthesize_scene(arr, scene, bins)
        with pytest.raises(ValueError, match="smaller than the sensor count"):
            rss_estimate(data, angles)

    def test_nan_init_angle_rejected(self, rss_setup):
        cfg, bins = rss_setup
        scene = WidebandScene(angles_deg=(0.0, 20.0), source_spectra=np.ones((2, 10)))
        data = synthesize_scene(cfg, scene, bins)
        with pytest.raises(ValueError, match=r"angle must lie in \(-90, 90\)"):
            rss_estimate(data, (np.nan, 20.0))

    def test_one_eigendecomposition(self, rss_setup, monkeypatch):
        cfg, bins = rss_setup
        scene = WidebandScene(angles_deg=(-5.0, 15.0), source_spectra=np.ones((2, 10)))
        data = synthesize_scene(cfg, scene, bins)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda R: calls.append(R) or eigh(R))
        rss_estimate(data, (-5.0, 15.0))
        assert len(calls) == 1


def _focused_covariance(data, init_angles_deg):
    mats = rss_focusing_matrices(data.M, data.alphas, init_angles_deg)
    Z = np.stack([T @ y for T, y in zip(mats, data.Y.T)], axis=1)
    return Z @ Z.conj().T / data.J


class TestRssPeaks:
    @pytest.mark.parametrize("seed", range(4))
    def test_angles_are_music_peaks(self, rss_setup, seed):
        # on a +-0.01 deg grid of 1e-5 deg steps around each returned angle,
        # the MUSIC spectrum peaks within one step of it
        cfg, bins = rss_setup
        rng = np.random.default_rng(seed)
        angles = (-5.0, 15.0, 40.0)
        spectra = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        sig = np.linalg.norm(spectra) ** 2 / (16 * 10 * 10 ** (10 / 10))
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra,
                              noise_variance=sig, seed=seed + 10)
        data = synthesize_scene(cfg, scene, bins)
        init = tuple(perturb_initial(angles, 2.0, seed=seed + 20))
        est = rss_estimate(data, init)
        assert est.size == 3
        En = _noise_subspace(_focused_covariance(data, init), 3)
        step = 1e-5
        for theta in est:
            grid = theta + step * np.arange(-1000, 1001)
            spec = music_spectrum(En, steering_matrix(theta_to_f(grid), 16))
            assert abs(grid[np.argmax(spec)] - theta) <= step

    def test_fewer_peaks_than_sources(self, rss_setup):
        # at M=3 and K=2 the noise subspace is one vector e, and
        # |e^H a(f)|^2 has a single minimum once the two roots of e(z) leave
        # the unit circle together: only that peak comes back, and the trial
        # counts as failed
        _, bins = rss_setup
        arr = ArrayConfig(M=3, c=1500.0, omega1=2 * np.pi * 1000)
        rng = np.random.default_rng(0)
        angles = (10.0, 13.0)
        spectra = rng.standard_normal((2, 10)) + 1j * rng.standard_normal((2, 10))
        sig = np.linalg.norm(spectra) ** 2 / (3 * 10 * 10 ** (20 / 10))
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra,
                              noise_variance=sig, seed=0)
        data = synthesize_scene(arr, scene, bins)
        est = rss_estimate(data, angles)
        f = np.linspace(-0.5, 0.5, 20000, endpoint=False)
        spec = music_spectrum(_noise_subspace(_focused_covariance(data, angles), 2),
                              steering_matrix(f, 3))
        peaks = np.nonzero((spec > np.roll(spec, 1)) & (spec > np.roll(spec, -1)))[0]
        assert peaks.size == 1
        assert est.shape == (1,)
        assert est[0] == pytest.approx(f_to_theta(f[peaks[0]]), abs=0.01)
        assert match_errors(est, angles) is None
