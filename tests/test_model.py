import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbdoa.focusing import FocusingSet
from wbdoa.model import (
    ArrayConfig,
    SubbandData,
    WidebandScene,
    f_to_theta,
    stationary_frequencies,
    steering_matrix,
    steering_vector,
    subband_transform,
    synthesize_scene,
    theta_to_f,
)


class TestAngleMaps:
    def test_zero(self):
        assert theta_to_f(0.0) == 0.0
        assert f_to_theta(0.0) == 0.0

    def test_thirty_degrees(self):
        assert theta_to_f(30.0) == pytest.approx(0.25, abs=1e-15)
        assert f_to_theta(0.25) == pytest.approx(30.0, abs=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            theta_to_f(90.0)
        with pytest.raises(ValueError):
            theta_to_f(-90.0)
        assert theta_to_f(89.9999) < 0.5
        for theta in (np.nan, [10.0, np.nan]):
            with pytest.raises(ValueError, match="angle must lie in"):
                theta_to_f(theta)

    def test_f_out_of_range(self):
        for f in (0.6, np.nan, [0.1, np.nan]):
            with pytest.raises(ValueError, match="spatial frequency must lie in"):
                f_to_theta(f)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        thetas = rng.uniform(-89.0, 89.0, 1000)
        back = np.array([f_to_theta(theta_to_f(t)) for t in thetas])
        assert np.max(np.abs(back - thetas)) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-89.99, 89.99))
    def test_round_trip_property(self, theta):
        # arcsin amplifies the rounding of f by 1/cos(theta) near endfire
        back = f_to_theta(theta_to_f(theta))
        assert abs(back - theta) <= 1e-13 / np.cos(np.deg2rad(theta))

    def test_monotone(self):
        thetas = np.linspace(-89, 89, 200)
        fs = [theta_to_f(t) for t in thetas]
        assert np.all(np.diff(fs) > 0)


class TestSteeringVector:
    def test_zero_frequency(self):
        assert np.allclose(steering_vector(0.0, 4), np.ones(4))

    def test_half_frequency(self):
        assert np.allclose(steering_vector(0.5, 2), [1, -1])

    def test_quarter_turns(self):
        assert np.allclose(steering_vector(0.25, 4), [1, -1j, -1, 1j])

    def test_norm_and_unit_modulus(self):
        a = steering_vector(0.137, 9)
        assert np.allclose(np.abs(a), 1.0)
        assert np.linalg.norm(a) == pytest.approx(3.0)

    def test_periodicity(self):
        for f in (-0.4, 0.03, 0.49):
            assert np.allclose(steering_vector(f, 12), steering_vector(f + 1, 12),
                               atol=1e-12)

    def test_conjugate_symmetry(self):
        for f in (-0.31, 0.08, 0.44):
            assert np.allclose(steering_vector(-f, 10),
                               np.conj(steering_vector(f, 10)), atol=1e-13)

    @pytest.mark.parametrize("helper, f, M", [
        (steering_vector, 0.1, 8.5), (steering_vector, 0.1, True),
        (steering_matrix, [0.1], 8.5), (steering_matrix, [0.1], 0),
    ], ids=["vector-fraction", "vector-bool", "matrix-fraction", "matrix-zero"])
    def test_non_integer_or_empty_m_rejected(self, helper, f, M):
        # each call once returned 9, 1, 9 x 1 or 0 x 1 entries with no error
        with pytest.raises(ValueError, match="M must be an integer >= 1"):
            helper(f, M)


class TestStationaryFrequencies:
    M = 8

    def _planted(self, f0):
        a = steering_vector(f0, self.M)
        return np.outer(a, a.conj())

    @pytest.mark.parametrize("f0", [-0.31, 0.0, 0.137, 0.42])
    def test_maximum_of_a_beam(self, f0):
        fs = stationary_frequencies(self._planted(f0), maxima=True)
        assert np.min(np.abs(fs - f0)) < 1e-9

    @pytest.mark.parametrize("f0", [-0.31, 0.0, 0.137, 0.42])
    def test_minimum_of_a_null(self, f0):
        G = np.eye(self.M) - self._planted(f0) / self.M
        fs = stationary_frequencies(G, maxima=False)
        assert np.min(np.abs(fs - f0)) < 1e-9

    @pytest.mark.parametrize("maxima", [True, False])
    def test_constant_polynomial(self, maxima):
        fs = stationary_frequencies(np.eye(self.M), maxima=maxima)
        assert fs.shape == (0,)

    @pytest.mark.parametrize("f0", [-0.5, -0.5 + 1e-7, 0.5 - 1e-7, 0.5])
    @pytest.mark.parametrize("maxima", [True, False])
    def test_endfire_stays_in_range(self, f0, maxima):
        # -angle(z) / 2 pi already lies in [-1/2, 1/2], so f0 comes back,
        # modulo 1, with no clip, and every frequency maps to an angle
        G = self._planted(f0)
        fs = stationary_frequencies(G if maxima else np.eye(self.M) - G / self.M, maxima)
        assert np.all(np.abs(fs) <= 0.5)
        wrapped = np.abs((fs - f0 + 0.5) % 1.0 - 0.5)
        assert np.min(wrapped) < 1e-9
        assert np.all(np.abs(f_to_theta(fs)) <= 90.0)


class TestArrayConfig:
    def test_invalid(self):
        with pytest.raises(ValueError):
            ArrayConfig(M=1, c=1500.0, omega1=1.0)
        with pytest.raises(ValueError):
            ArrayConfig(M=4, c=-1.0, omega1=1.0)

    @pytest.mark.parametrize("M", [8.5, 8.0, True, "8"])
    def test_non_integer_sensor_count(self, M):
        with pytest.raises(ValueError, match="M must be an integer >= 2"):
            ArrayConfig(M=M, c=1500.0, omega1=1.0)
        assert ArrayConfig(M=np.int64(8), c=1500.0, omega1=1.0).M == 8


@pytest.fixture
def arr():
    return ArrayConfig(M=8, c=1500.0, omega1=2 * np.pi * 1000)


@pytest.fixture
def bins(arr):
    return FocusingSet.build([1.0, 0.9, 0.8, 0.7], arr.M)


class TestSynthesizeScene:
    def test_noise_only_zero_variance(self, arr, bins):
        scene = WidebandScene(angles_deg=(), source_spectra=np.zeros((0, 4)),
                              noise_variance=0.0)
        data = synthesize_scene(arr, scene, bins)
        assert np.all(data.Y == 0)

    def test_single_unit_source_columns(self, arr, bins):
        scene = WidebandScene(angles_deg=(20.0,), source_spectra=np.ones((1, 4)))
        data = synthesize_scene(arr, scene, bins)
        f = theta_to_f(20.0)
        for j, alpha in enumerate(bins.alphas):
            assert np.allclose(data.Y[:, j], steering_vector(alpha * f, arr.M))

    def test_two_sources_phase_formula_oracle(self, arr, bins):
        rng = np.random.default_rng(3)
        spectra = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        angles = (-17.0, 42.0)
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra)
        data = synthesize_scene(arr, scene, bins)
        # independent entry-by-entry evaluation from the phase law
        # exp(-i * pi * alpha_j * sin(theta_k) * m)
        expected = np.zeros((arr.M, 4), dtype=complex)
        for m in range(arr.M):
            for j in range(4):
                for k in range(2):
                    phase = -np.pi * bins.alphas[j] * np.sin(np.deg2rad(angles[k])) * m
                    expected[m, j] += spectra[k, j] * complex(np.cos(phase), np.sin(phase))
        assert np.allclose(data.Y, expected, atol=1e-12)

    def test_seed_determinism(self, arr, bins):
        scene = WidebandScene(angles_deg=(5.0,), source_spectra=np.ones((1, 4)),
                              noise_variance=0.3, seed=99)
        a = synthesize_scene(arr, scene, bins)
        b = synthesize_scene(arr, scene, bins)
        assert np.array_equal(a.Y, b.Y)

    def test_noise_energy(self, arr, bins):
        sigma2 = 0.7
        total = 0.0
        n_seeds = 1000
        for seed in range(n_seeds):
            scene = WidebandScene(angles_deg=(), source_spectra=np.zeros((0, 4)),
                                  noise_variance=sigma2, seed=seed)
            total += np.linalg.norm(synthesize_scene(arr, scene, bins).Y) ** 2
        mean = total / n_seeds
        expect = arr.M * 4 * sigma2
        assert abs(mean - expect) < 0.05 * expect

    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), -1.0])
    def test_bad_noise_variance_rejected(self, sigma2):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            WidebandScene(angles_deg=(5.0,), source_spectra=np.ones((1, 4)),
                          noise_variance=sigma2)

    def test_dimension_mismatch(self, arr, bins):
        scene = WidebandScene(angles_deg=(5.0,), source_spectra=np.ones((1, 7)))
        with pytest.raises(ValueError):
            synthesize_scene(arr, scene, bins)


class TestSubbandData:
    def test_alpha_invariants(self):
        with pytest.raises(ValueError):
            SubbandData(Y=np.zeros((2, 3)), omegas=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            SubbandData(Y=np.zeros((2, 2)), omegas=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("omegas", [[2.0, -1.0], [0.0, -1.0], [np.inf, 1.0],
                                        [2.0, np.nan], [np.nan]])
    def test_omegas_positive_finite(self, omegas):
        with pytest.raises(ValueError, match="omegas"):
            SubbandData(Y=np.zeros((2, len(omegas))), omegas=omegas)

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError, match="J >= 1"):
            SubbandData(Y=np.zeros((2, 0)), omegas=[])

    def test_alphas_follow_omegas(self):
        data = SubbandData(Y=np.zeros((2, 3)), omegas=[7001.0, 6300.9, 3500.5])
        assert np.array_equal(data.alphas, data.omegas / 7001.0)
        assert data.alphas[0] == 1.0
        with pytest.raises(AttributeError):
            data.alphas = np.ones(3)

    def test_non_finite_rejected(self):
        omegas = np.array([2.0, 1.0])
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            Y = np.ones((3, 2), dtype=complex)
            Y[1, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                SubbandData(Y=Y, omegas=omegas)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        data = SubbandData(Y=Y, omegas=np.array([4.0, 3.0, 2.0, 1.0]))
        path = tmp_path / "data.csv"
        data.save_csv(path)
        loaded = SubbandData.load_csv(path)
        assert np.allclose(loaded.Y, Y)
        assert np.allclose(loaded.omegas, data.omegas)
        assert np.allclose(loaded.alphas, data.alphas)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=8,
                                       unique=True), st.data())
    def test_csv_round_trip_bit_exact(self, M, omegas, draw):
        omegas = sorted(omegas, reverse=True)
        parts = st.floats(allow_nan=False, allow_infinity=False)
        flat = draw.draw(st.lists(parts, min_size=2 * M * len(omegas),
                                  max_size=2 * M * len(omegas)))
        ri = np.array(flat).reshape(2, M, len(omegas))
        data = SubbandData(Y=ri[0] + 1j * ri[1], omegas=omegas)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            data.save_csv(path)
            loaded = SubbandData.load_csv(path)
        assert np.array_equal(loaded.Y, data.Y)
        assert np.array_equal(loaded.omegas, data.omegas)
        assert np.array_equal(loaded.alphas, data.alphas)


class TestSubbandTransform:
    def _dft_oracle(self, x, n):
        # brute-force DFT, O(n^2)
        k = np.arange(n)
        W = np.exp(-2j * np.pi * np.outer(k, k) / n)
        return x[:, :n] @ W.T

    def test_pure_tone_concentrates(self):
        n, M = 64, 3
        k0 = 20
        t = np.arange(128)
        x = np.real(np.exp(2j * np.pi * k0 * t / n))[None, :] * np.ones((M, 1))
        data = subband_transform(x, n, (np.pi / 3, 2 * np.pi / 3), 5)
        # all selected-bin energy in the k0 bin
        target = 2 * np.pi * k0 / n
        idx = np.argmin(np.abs(data.omegas - target))
        energy = np.abs(data.Y) ** 2
        assert energy[:, idx].sum() > 0
        others = np.delete(energy, idx, axis=1)
        assert others.max() <= 1e-10 * energy[:, idx].sum()

    def test_alpha_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 100))
        data = subband_transform(x, 60, (np.pi / 3, 2 * np.pi / 3), 10)
        assert data.alphas[0] == 1.0
        assert np.all(np.diff(data.omegas) < 0)

    def test_parseval_in_band(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 80))
        n = 60
        band = (np.pi / 3, 2 * np.pi / 3)
        bin_omegas = 2 * np.pi * np.arange(n) / n
        in_band = np.nonzero((bin_omegas >= band[0]) & (bin_omegas <= band[1]))[0]
        J = in_band.size
        data = subband_transform(x, n, band, J)
        oracle = self._dft_oracle(x, n)
        e_oracle = np.sum(np.abs(oracle[:, in_band]) ** 2)
        e_got = np.sum(np.abs(data.Y) ** 2)
        assert abs(e_got - e_oracle) < 1e-10 * e_oracle

    @pytest.mark.parametrize("J", [0, -1])
    def test_zero_bins_rejected(self, J):
        x = np.zeros((2, 64))
        with pytest.raises(ValueError):
            subband_transform(x, 60, (np.pi / 3, 2 * np.pi / 3), J)

    @pytest.mark.parametrize("dft_size, J", [(60, True), (60, 2.5), (60, 3.0), (60.5, 10)],
                             ids=["J-bool", "J-fraction", "J-float", "dft-size-fraction"])
    def test_non_integer_sizes_rejected(self, dft_size, J):
        x = np.zeros((2, 64))
        with pytest.raises(ValueError, match="must be an integer"):
            subband_transform(x, dft_size, (np.pi / 3, 2 * np.pi / 3), J)

    def test_too_few_bins(self):
        x = np.zeros((2, 64))
        with pytest.raises(ValueError):
            subband_transform(x, 16, (1.0, 1.1), 10)
