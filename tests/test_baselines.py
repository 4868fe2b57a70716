import numpy as np
import pytest
from scipy.stats import kstest

from wbdoa import baselines
from wbdoa.baselines import (
    MUSIC_GRID_DEG,
    RssConfig,
    music_spectrum,
    perturb_initial,
    rss_estimate,
    rss_focusing_matrices,
)
from wbdoa.model import (
    ArrayConfig,
    WidebandScene,
    steering_matrix,
    steering_vector,
    subband_template,
    synthesize_scene,
    theta_to_f,
)


class TestRssConfig:
    def test_wrong_count(self):
        with pytest.raises(ValueError):
            RssConfig(K=2, init_angles_deg=(10.0,))


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
        with pytest.raises(ValueError):
            perturb_initial((0.0,), -1.0, seed=0)


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


class TestMusicSpectrum:
    def test_peak_at_planted_source(self):
        M = 12
        f0 = theta_to_f(17.0)
        a = steering_vector(f0, M)
        R = np.outer(a, a.conj()) + 1e-6 * np.eye(M)
        grid = np.arange(-60.0, 60.0, 0.05)
        spec = music_spectrum(R, 1, steering_matrix(theta_to_f(grid), M))
        assert grid[np.argmax(spec)] == pytest.approx(17.0, abs=0.05)

    def test_two_sources(self):
        M = 12
        R = 1e-8 * np.eye(M, dtype=complex)
        for th in (-20.0, 35.0):
            a = steering_vector(theta_to_f(th), M)
            R += np.outer(a, a.conj())
        grid = np.arange(-89.0, 89.0, 0.02)
        spec = music_spectrum(R, 2, steering_matrix(theta_to_f(grid), M))
        order = np.argsort(spec)[::-1]
        tops = np.sort(grid[order[:2]])
        # top two grid points sit on the two sources (they may both land
        # on one source's shoulder, so check peaks instead)
        peaks = [grid[i] for i in range(1, grid.size - 1)
                 if spec[i] >= spec[i - 1] and spec[i] >= spec[i + 1]]
        peaks = sorted(peaks, key=lambda g: -spec[int(round((g - grid[0]) / 0.02))])[:2]
        assert sorted(p for p in peaks) == pytest.approx([-20.0, 35.0], abs=0.05)


class TestMusicScan:
    def test_read_only_and_bit_equal_to_fresh_build(self):
        grid, A = baselines._scan(16)
        assert not grid.flags.writeable and not A.flags.writeable
        assert np.array_equal(grid, np.arange(-89.9, 89.9 + MUSIC_GRID_DEG / 2,
                                              MUSIC_GRID_DEG))
        assert np.array_equal(A, steering_matrix(theta_to_f(grid), 16))
        with pytest.raises(ValueError):
            A[0, 0] = 0.0

    def test_alternating_sizes_match_fresh_calls(self, rss_setup):
        # the one-entry cache is evicted at each change of M; every call must
        # give the angles of a call on an empty cache
        rng = np.random.default_rng(5)
        angles = (-5.0, 15.0, 40.0)
        spectra = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra,
                              noise_variance=0.1, seed=6)
        cfg = RssConfig(K=3, init_angles_deg=perturb_initial(angles, 2.0, seed=7))
        _, tpl = rss_setup
        data = {M: synthesize_scene(ArrayConfig(M=M, c=1500.0, omega1=2 * np.pi * 1000),
                                    scene, tpl)
                for M in (8, 16)}
        fresh = {}
        for M in (8, 16):
            baselines._scan.cache_clear()
            fresh[M] = rss_estimate(data[M], cfg)
        for M in (16, 8, 16):
            assert np.array_equal(rss_estimate(data[M], cfg), fresh[M])


@pytest.fixture
def rss_setup():
    cfg = ArrayConfig(M=16, c=1500.0, omega1=2 * np.pi * 1000)
    alphas = np.arange(20, 10, -1) / 20
    tpl = subband_template(cfg.omega1, alphas)
    return cfg, tpl


class TestRssEstimate:
    def test_noiseless_exact_init(self, rss_setup):
        cfg, tpl = rss_setup
        rng = np.random.default_rng(0)
        angles = (-5.0, 15.0, 40.0)
        spectra = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra)
        data = synthesize_scene(cfg, scene, tpl)
        est = rss_estimate(data, RssConfig(K=3, init_angles_deg=angles))
        assert np.allclose(np.sort(est), np.sort(angles), atol=0.5)

    def test_noisy_perturbed_init(self, rss_setup):
        cfg, tpl = rss_setup
        rng = np.random.default_rng(1)
        angles = (-5.0, 15.0, 40.0)
        spectra = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        sig = np.linalg.norm(spectra) ** 2 / (16 * 10 * 10 ** (20 / 10))
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra,
                              noise_variance=sig, seed=2)
        data = synthesize_scene(cfg, scene, tpl)
        init = perturb_initial(angles, 2.0, seed=3)
        est = rss_estimate(data, RssConfig(K=3, init_angles_deg=tuple(init)))
        assert est.size == 3
        assert np.allclose(np.sort(est), np.sort(angles), atol=2.0)

    def test_returns_sorted_k_angles(self, rss_setup):
        cfg, tpl = rss_setup
        scene = WidebandScene(angles_deg=(0.0,), source_spectra=np.ones((1, 10)))
        data = synthesize_scene(cfg, scene, tpl)
        est = rss_estimate(data, RssConfig(K=1, init_angles_deg=(0.0,)))
        assert est.shape == (1,)
        assert est[0] == pytest.approx(0.0, abs=0.1)

    def test_too_few_bands(self, rss_setup):
        cfg, tpl = rss_setup
        scene = WidebandScene(angles_deg=(0.0,), source_spectra=np.ones((1, 10)))
        data = synthesize_scene(cfg, scene, tpl)
        from wbdoa.model import SubbandData

        short = SubbandData(Y=data.Y[:, :2], omegas=data.omegas[:2])
        with pytest.raises(ValueError):
            rss_estimate(short, RssConfig(K=3, init_angles_deg=(0.0, 1.0, 2.0)))
