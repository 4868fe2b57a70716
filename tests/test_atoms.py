from dataclasses import fields

import numpy as np
import pytest

from wbdoa.atoms import ConicProblem, build_atom
from wbdoa.focusing import FocusingSet, noiseless_measurements
from wbdoa.model import (
    WidebandScene,
    steering_matrix,
    steering_vector,
    theta_to_f,
)

from lmi_oracles import dual_atomic_norm, hbar


@pytest.fixture
def focusing():
    return FocusingSet.build(np.arange(8, 4, -1) / 8, 6)


class TestBuildAtom:
    def test_unit_frobenius_norm(self, focusing):
        # ||A(f, c)||_F^2 = sum_j |c_j|^2 ||T_j a(f)||^2; at f = 0 and
        # alpha = 1 the first column alone has norm sqrt(M) |c_0|
        atom = build_atom(0.0, np.array([1, 0, 0, 0]), focusing)
        assert atom.shape == (6, 4)
        assert np.linalg.norm(atom) == pytest.approx(np.sqrt(6))
        assert np.allclose(atom[:, 0], np.ones(6))
        assert np.allclose(atom[:, 1:], 0.0)

    def test_column_oracle(self, focusing):
        rng = np.random.default_rng(2)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = 0.21
        atom = build_atom(f, c, focusing)
        cu = c / np.linalg.norm(c)
        for j in range(4):
            expect = cu[j] * focusing.matrices[j] @ steering_vector(f, 6)
            assert np.allclose(atom[:, j], expect, atol=1e-13)

    def test_renormalizes(self, focusing):
        # 5 * ones(4) has norm 10, so every column is scaled by 1/2
        atom = build_atom(0.1, 5.0 * np.ones(4), focusing)
        assert np.allclose(atom, 0.5 * focusing.columns(0.1), rtol=0, atol=1e-15)

    def test_zero_coefficients_rejected(self, focusing):
        with pytest.raises(ValueError):
            build_atom(0.1, np.zeros(4), focusing)

    @pytest.mark.parametrize("c", [[1.0], np.ones(3), np.ones(5), np.ones((2, 4))],
                             ids=["one", "J-1", "J+1", "2J"])
    def test_one_coefficient_per_bin(self, focusing, c):
        # a one-entry c used to broadcast over all J bins, an atom of norm
        # sqrt(J) times that of a unit c
        with pytest.raises(ValueError, match=r"needs 4 entries, got \d+"):
            build_atom(0.1, c, focusing)


class TestPlantedAtoms:
    def test_weighted_atom_sum_is_noiseless_measurements(self, focusing):
        # with weights ||s_k|| and directions s_k / ||s_k||, the planted
        # atoms sum to the noiseless data matrix of a direct loop
        rng = np.random.default_rng(9)
        spectra = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        scene = WidebandScene(angles_deg=(-30.0, 0.0, 45.0), source_spectra=spectra)
        X = np.zeros((6, 4), dtype=complex)
        for k, th in enumerate(scene.angles_deg):
            a = steering_vector(theta_to_f(th), 6)
            for j in range(4):
                X[:, j] += spectra[k, j] * focusing.matrices[j] @ a
        weights = np.linalg.norm(spectra, axis=1)
        atoms = sum(w * build_atom(theta_to_f(th), s / w, focusing)
                    for w, th, s in zip(weights, scene.angles_deg, spectra))
        assert np.allclose(atoms, X, atol=1e-12)
        assert np.allclose(noiseless_measurements(scene, focusing), X, atol=1e-12)


class TestDualAtomicNorm:
    def test_single_steering_column(self):
        # H with one column a(f0)/M: Hbar = a(f0)/M (alpha = 1), so the
        # polynomial |a(f0)^H a(f)| / M is the normalized Dirichlet kernel
        # with maximum exactly 1 at f = f0
        focusing = FocusingSet.build([1.0], 7)
        f0 = 0.123
        H = (steering_vector(f0, 7) / 7.0)[:, None]
        assert dual_atomic_norm(H, focusing) == pytest.approx(1.0, abs=1e-10)

    def test_against_dense_grid_oracle(self):
        # compare the exact maxima against a brute-force 10^6-point grid
        rng = np.random.default_rng(17)
        focusing = FocusingSet.build([1.0, 0.8], 6)
        A = steering_matrix(np.linspace(-0.5, 0.5, 1_000_000, endpoint=False), 6)
        for _ in range(5):
            H = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
            got = dual_atomic_norm(H, focusing)
            Hbar = np.stack([focusing.matrices[j].conj().T @ H[:, j] for j in range(2)], axis=1)
            oracle = float(np.linalg.norm(Hbar.conj().T @ A, axis=0).max())
            assert got >= oracle - 1e-12
            assert got == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("row", [None, 2], ids=["zero", "single-row"])
    def test_constant_polynomial(self, row):
        # H = 0, or one nonzero row with alpha = 1 (T = I), makes P the
        # constant ||H||: there is no maximum, and the norm is P(0)
        focusing = FocusingSet.build([1.0, 1.0], 5)
        H = np.zeros((5, 2), dtype=complex)
        if row is not None:
            H[row] = [0.6, -0.8j]
        assert dual_atomic_norm(H, focusing) == pytest.approx(np.linalg.norm(H), abs=1e-15)

    def test_scaling(self):
        rng = np.random.default_rng(3)
        focusing = FocusingSet.build([1.0, 0.9, 0.8], 5)
        H = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        n1 = dual_atomic_norm(H, focusing)
        n2 = dual_atomic_norm(2.5 * H, focusing)
        assert n2 == pytest.approx(2.5 * n1, rel=1e-10)

    def test_weak_duality(self, focusing):
        # <X, H> <= ||X||_A * ||H||_A^dual for atomic X
        rng = np.random.default_rng(29)
        spectra = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        scene = WidebandScene(angles_deg=(-15.0, 30.0), source_spectra=spectra)
        X = noiseless_measurements(scene, focusing)
        weight = np.linalg.norm(spectra, axis=1).sum()
        for _ in range(20):
            H = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
            inner = np.real(np.trace(X.conj().T @ H))
            bound = weight * dual_atomic_norm(H, focusing)
            assert inner <= bound + 1e-9


class TestConicProblem:
    def test_dimensions_and_objective(self, focusing):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        prog = ConicProblem(Y=Y, focusing=focusing, gamma=4.0)
        assert (prog.M, prog.J) == (6, 4)
        H = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        expect = np.real(np.trace(Y.conj().T @ H)) - 2.0 * np.linalg.norm(H)
        assert prog.objective(H) == pytest.approx(expect, rel=1e-12)

    def test_holds_only_its_inputs(self, focusing):
        # the coupling map belongs to the focusing set, built once for it
        assert [f.name for f in fields(ConicProblem)] == ["Y", "focusing", "gamma"]
        prog = ConicProblem(Y=np.zeros((6, 4)), focusing=focusing, gamma=1.0)
        assert not hasattr(prog, "coupling_map")

    def test_shape_and_gamma_validation(self, focusing):
        with pytest.raises(ValueError):
            ConicProblem(Y=np.zeros((3, 4)), focusing=focusing, gamma=1.0)
        with pytest.raises(ValueError):
            ConicProblem(Y=np.zeros((6, 4)), focusing=focusing, gamma=-1.0)

    @pytest.mark.parametrize("bad_y, gamma", [
        (True, 1.0),           # NaN entry in Y
        (False, float("nan")),
        (False, float("inf")),
    ])
    def test_non_finite_rejected(self, focusing, bad_y, gamma):
        Y = np.ones((6, 4), dtype=complex)
        if bad_y:
            Y[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ConicProblem(Y=Y, focusing=focusing, gamma=gamma)

    def test_hbar_columnwise(self, focusing):
        rng = np.random.default_rng(8)
        Y = np.zeros((6, 4), dtype=complex)
        prog = ConicProblem(Y=Y, focusing=focusing, gamma=0.0)
        H = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        Hb = hbar(H, prog.focusing)
        for j in range(4):
            assert np.allclose(Hb[:, j], focusing.matrices[j].T @ H[:, j], atol=1e-13)
