import re

import numpy as np
import pytest

from wbdoa.bench import default_alphas
from wbdoa.focusing import (
    FocusingSet,
    focusing_error,
    focusing_matrix,
    gamma_blind,
    gamma_oracle,
    noiseless_measurements,
)
from wbdoa.model import (
    ArrayConfig,
    WidebandScene,
    steering_vector,
    synthesize_scene,
    theta_to_f,
)


class TestFocusingMatrix:
    def test_identity_at_alpha_one(self):
        assert np.allclose(focusing_matrix(1.0, 6), np.eye(6))

    def test_entry_oracle(self):
        # direct normalized-sinc evaluation, entry by entry
        def sinc(x):
            return 1.0 if x == 0 else np.sin(np.pi * x) / (np.pi * x)

        for alpha in (0.55, 0.8, 0.95):
            T = focusing_matrix(alpha, 5)
            for m in range(5):
                for mp in range(5):
                    assert T[m, mp] == pytest.approx(sinc(alpha * m - mp), abs=1e-14)

    def test_first_row_and_column(self):
        T = focusing_matrix(0.7, 8)
        assert T[0, 0] == 1.0
        assert np.allclose(T[0, 1:], 0.0)

    def test_maps_steering_approximately(self):
        # T a(f) approximates a(alpha f): interpolation view of the sinc kernel
        M, alpha, f = 32, 0.9, 0.1
        T = focusing_matrix(alpha, M)
        err = np.linalg.norm(T @ steering_vector(f, M) - steering_vector(alpha * f, M))
        assert err < 0.55  # small relative to ||a|| = sqrt(32)

    def test_real_valued(self):
        assert focusing_matrix(0.6, 4).dtype == np.float64


class TestFocusingSet:
    def test_build_shapes(self):
        fs = FocusingSet.build([1.0, 0.9, 0.8], 5)
        assert fs.J == 3 and fs.M == 5
        assert np.allclose(fs.matrices[0], np.eye(5))

    def test_for_subbands(self):
        from wbdoa.model import SubbandData

        data = SubbandData(Y=np.zeros((4, 2)), omegas=np.array([100.0, 50.0]))
        fs = FocusingSet.build(data.alphas, data.M)
        assert np.allclose(fs.alphas, [1.0, 0.5])

    def test_no_bins_rejected(self):
        with pytest.raises(ValueError, match="need at least one bin"):
            FocusingSet.build([], 4)

    @pytest.mark.parametrize("M", [8.5, 3.0, True])
    def test_non_integer_m_rejected(self, M):
        with pytest.raises(ValueError, match="M must be an integer"):
            FocusingSet.build([1.0, 0.9], M)

    def test_shared_arrays_are_read_only(self):
        # every solve on a set shares these; a write would change them all
        alphas = np.array([1.0, 0.9, 0.8])
        fs = FocusingSet.build(alphas, 4)
        for shared in (fs.matrices, fs.alphas, fs.coupling_map):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0.0
        alphas[0] = 0.5  # the caller's own array is copied, never flagged
        assert fs.alphas[0] == 1.0

    def test_columns(self):
        # column j is T_j a(f), to the bit
        fs = FocusingSet.build([1.0, 0.9, 0.75], 7)
        cols = fs.columns(0.21)
        assert cols.shape == (7, 3)
        for j in range(3):
            assert np.array_equal(cols[:, j], fs.matrices[j] @ steering_vector(0.21, 7))


def _per_problem_coupling_map(focusing):
    """The map as each ConicProblem used to build it for itself."""
    T = focusing.matrices
    Tt = T.transpose(0, 2, 1)
    eye = np.broadcast_to(np.eye(focusing.M), T.shape)
    top = np.linalg.solve(eye + 2.0 * T @ Tt, np.concatenate([eye, 2.0 * T], axis=2))
    return np.concatenate([top, Tt @ top], axis=1)


class TestCouplingMap:
    @pytest.mark.parametrize("M, J", [(16, 10), (48, 19)])
    def test_bit_equal_to_the_per_problem_build(self, M, J):
        focusing = FocusingSet.build(default_alphas(J), M)
        got = focusing.coupling_map
        assert got.shape == (J, 2 * M, 2 * M)
        assert got.tobytes() == _per_problem_coupling_map(focusing).tobytes()

    def test_built_only_on_first_use(self, setup):
        # building a focusing set, or using it for the model and gamma,
        # costs no map; the first read caches one that later reads return
        cfg, focusing = setup
        assert "coupling_map" not in focusing.__dict__
        rng = np.random.default_rng(4)
        scene = WidebandScene(angles_deg=(-10.0, 25.0),
                              source_spectra=rng.standard_normal((2, focusing.J)) + 0j)
        data = synthesize_scene(cfg, scene, focusing)
        gamma_oracle(data.Y, cfg, scene, focusing)
        gamma_blind(data.Y, 0.0, focusing)
        focusing_error(0.1, focusing)
        assert "coupling_map" not in focusing.__dict__
        first = focusing.coupling_map
        assert focusing.__dict__["coupling_map"] is first
        assert focusing.coupling_map is first


class TestFocusingError:
    def test_zero_at_alpha_one(self):
        err = focusing_error(0.2, FocusingSet.build([1.0], 8))
        assert np.linalg.norm(err) < 1e-14

    def test_definition(self):
        # every bin at once: column j is a(alpha_j f) - T_j a(f)
        f, M = 0.15, 10
        alphas = np.array([1.0, 0.9, 0.8, 0.6])
        err = focusing_error(f, FocusingSet.build(alphas, M))
        assert err.shape == (M, alphas.size)
        for j, alpha in enumerate(alphas):
            expect = (steering_vector(alpha * f, M)
                      - focusing_matrix(alpha, M) @ steering_vector(f, M))
            assert np.allclose(err[:, j], expect, atol=1e-14)

    def test_small_for_moderate_band(self):
        # worst error over the design band stays well below the signal norm
        M = 16
        focusing = FocusingSet.build(np.arange(20, 10, -1) / 20, M)
        for f in np.linspace(-0.45, 0.45, 41):
            assert np.all(np.linalg.norm(focusing_error(f, focusing), axis=0) < np.sqrt(M))


@pytest.fixture
def setup():
    cfg = ArrayConfig(M=8, c=1500.0, omega1=2 * np.pi * 1000)
    alphas = np.arange(20, 14, -1) / 20
    focusing = FocusingSet.build(alphas, cfg.M)
    return cfg, focusing


class TestGamma:
    def test_noiseless_measurements_oracle(self, setup):
        cfg, focusing = setup
        rng = np.random.default_rng(5)
        spectra = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        scene = WidebandScene(angles_deg=(-10.0, 25.0), source_spectra=spectra)
        X = noiseless_measurements(scene, focusing)
        # direct loop: column j = sum_k s_kj T_j a(f_k)
        for j in range(6):
            col = np.zeros(cfg.M, dtype=complex)
            for k, th in enumerate(scene.angles_deg):
                col += spectra[k, j] * focusing.matrices[j] @ steering_vector(
                    theta_to_f(th), cfg.M)
            assert np.allclose(X[:, j], col, atol=1e-12)

    def test_gamma_oracle_is_residual(self, setup):
        cfg, focusing = setup
        rng = np.random.default_rng(11)
        spectra = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
        scene = WidebandScene(angles_deg=(12.0,), source_spectra=spectra,
                              noise_variance=0.2, seed=4)
        data = synthesize_scene(cfg, scene, focusing)
        g = gamma_oracle(data.Y, cfg, scene, focusing)
        X = noiseless_measurements(scene, focusing)
        assert g == pytest.approx(np.linalg.norm(data.Y - X) ** 2, rel=1e-12)

    def test_gamma_oracle_noiseless_focused_scene(self, setup):
        # sources synthesized directly through T_j leave zero residual
        cfg, focusing = setup
        spectra = np.ones((1, 6), dtype=complex)
        scene = WidebandScene(angles_deg=(30.0,), source_spectra=spectra)
        X = noiseless_measurements(scene, focusing)
        assert gamma_oracle(X, cfg, scene, focusing) < 1e-20

    @pytest.mark.parametrize("M, shape", [(8, (8, 1)), (8, (6,)), (8, ()), (8, (6, 8)),
                                          (4, (8, 6))])
    def test_gamma_oracle_rejects_inputs_of_another_shape(self, setup, M, shape):
        # Y - X once broadcast, so an 8 x 1 or length-6 Y gave a wrong gamma
        _, focusing = setup
        cfg = ArrayConfig(M=M, c=1500.0, omega1=2 * np.pi * 1000)
        scene = WidebandScene(angles_deg=(30.0,), source_spectra=np.ones((1, 6), complex))
        message = f"Y shape {shape} and array M = {M} inconsistent with focusing set (8 x 6)"
        with pytest.raises(ValueError, match=re.escape(message)):
            gamma_oracle(np.zeros(shape, complex), cfg, scene, focusing)

    def test_gamma_oracle_rejects_a_nan_entry(self, setup):
        # a NaN in Y once gave gamma = nan
        cfg, focusing = setup
        scene = WidebandScene(angles_deg=(30.0,), source_spectra=np.ones((1, 6), complex))
        Y = noiseless_measurements(scene, focusing)
        Y[2, 3] = np.nan
        with pytest.raises(ValueError, match="Y must be finite"):
            gamma_oracle(Y, cfg, scene, focusing)

    @pytest.mark.parametrize("bins", [1, 4])
    def test_spectra_must_cover_every_bin(self, setup, bins):
        # a one-bin spectrum once spread over all six bins
        cfg, focusing = setup
        scene = WidebandScene(angles_deg=(30.0,), source_spectra=np.ones((1, bins), complex))
        message = f"scene spectra have {bins} bins, subbands have 6"
        with pytest.raises(ValueError, match=message):
            noiseless_measurements(scene, focusing)
        with pytest.raises(ValueError, match=message):
            gamma_oracle(np.zeros((8, 6), complex), cfg, scene, focusing)

    def test_gamma_blind_tracks_oracle(self, setup):
        cfg, focusing = setup
        rng = np.random.default_rng(21)
        ratios = []
        for trial in range(20):
            spectra = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
            scene = WidebandScene(angles_deg=(-20.0, 35.0), source_spectra=spectra,
                                  noise_variance=0.1, seed=trial)
            data = synthesize_scene(cfg, scene, focusing)
            g_true = gamma_oracle(data.Y, cfg, scene, focusing)
            g_est = gamma_blind(data.Y, 0.1, focusing)
            ratios.append(g_est / g_true)
        ratios = np.array(ratios)
        assert np.all(ratios > 1 / 3) and np.all(ratios < 3)

    def test_gamma_blind_reads_nested_lists(self):
        # Y.shape was read before any conversion: AttributeError on a list
        focusing = FocusingSet.build([1.0, 0.9, 0.8], 4)
        Y = np.arange(12.0).reshape(4, 3) + 1j
        assert gamma_blind(Y.tolist(), 0.1, focusing) == gamma_blind(Y, 0.1, focusing)

    def test_gamma_blind_rejects_non_finite_data(self):
        # a NaN entry once gave a NaN gamma
        focusing = FocusingSet.build([1.0, 0.9, 0.8], 4)
        Y = np.ones((4, 3), dtype=complex)
        Y[1, 2] = np.nan
        with pytest.raises(ValueError, match="Y must be finite"):
            gamma_blind(Y, 0.1, focusing)

    @pytest.mark.parametrize("shape", [(6, 4), (8, 3)], ids=["M", "J"])
    def test_gamma_blind_rejects_data_of_another_shape(self, shape):
        # an M = 6 Y with an M = 8 set would mix the noise power of one
        # array with the focusing errors of the other
        focusing = FocusingSet.build([1.0, 0.9, 0.8, 0.7], 8)
        message = f"{shape} inconsistent with focusing set (8 x 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            gamma_blind(np.ones(shape, dtype=complex), 0.1, focusing)
