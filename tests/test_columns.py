"""The column kernel against per-(bin, source) loop references.

Each reference below is the plain loop the vectorized code replaced, with
the scalar steering formula written out, so the kernel, the array-capable
``steering_vector`` and every caller are checked on generated scenes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wbdoa.atoms import build_atom
from wbdoa.focusing import FocusingSet, gamma_blind, noiseless_measurements
from wbdoa.model import (
    ArrayConfig,
    WidebandScene,
    steering_matrix,
    synthesize_scene,
    theta_to_f,
)

from lmi_oracles import hbar


def _a(f, M):
    return np.exp(-2j * np.pi * f * np.arange(M))


def _loop_synthesize(cfg, scene, bins):
    alphas = bins.alphas
    J = alphas.size
    Y = np.zeros((cfg.M, J), dtype=complex)
    fs = np.array([theta_to_f(th) for th in scene.angles_deg])
    for j in range(J):
        for k in range(scene.K):
            Y[:, j] += _a(alphas[j] * fs[k], cfg.M) * scene.source_spectra[k, j]
    if scene.noise_variance > 0:
        rng = np.random.default_rng(scene.seed)
        scale = np.sqrt(scene.noise_variance / 2.0)
        Y += scale * (rng.standard_normal((cfg.M, J)) + 1j * rng.standard_normal((cfg.M, J)))
    return Y


def _loop_noiseless(cfg, scene, focusing):
    X = np.zeros((cfg.M, focusing.J), dtype=complex)
    fs = [theta_to_f(th) for th in scene.angles_deg]
    for j in range(focusing.J):
        for k, f in enumerate(fs):
            X[:, j] += scene.source_spectra[k, j] * (focusing.matrices[j] @ _a(f, cfg.M))
    return X


def _loop_atom_matrix(f, c, focusing):
    c = np.asarray(c, dtype=complex) / np.linalg.norm(c)
    a = _a(f, focusing.M)
    return np.stack([c[j] * (focusing.matrices[j] @ a) for j in range(focusing.J)], axis=1)


def _loop_hbar(H, focusing):
    return np.stack([focusing.matrices[j].conj().T @ H[:, j] for j in range(focusing.J)],
                    axis=1)


def _loop_gamma_blind(Y, sigma2, focusing, grid_size=64):
    M, J = Y.shape
    f_grid = np.linspace(-0.5, 0.5, grid_size, endpoint=False)
    err_power = 0.0
    for j in range(J):
        alpha, T = focusing.alphas[j], focusing.matrices[j]
        p_sig = max(float(np.linalg.norm(Y[:, j]) ** 2) - M * sigma2, 0.0) / M
        if p_sig == 0.0:
            continue
        bf = np.abs(steering_matrix(alpha * f_grid, M).conj().T @ Y[:, j]) ** 2
        w = bf / bf.sum() if bf.sum() > 0 else np.full(grid_size, 1.0 / grid_size)
        e_norms = np.array([np.linalg.norm(_a(alpha * f, M) - T @ _a(f, M)) ** 2
                            for f in f_grid])
        err_power += p_sig * float(w @ e_norms)
    return M * J * sigma2 + err_power


def _rel_err(got, ref):
    return np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300)


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def scenes(draw):
    """(array, scene, focusing set, rng) with M 2..24,
    J 1..10 strictly decreasing alphas from 1, and K 0..4 sources."""
    M, J, K = draw(st.integers(2, 24)), draw(st.integers(1, 10)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphas = np.concatenate([[1.0], np.sort(rng.uniform(0.3, 0.99, J - 1))[::-1]])
    sigma2 = draw(st.sampled_from([0.0, 0.1, 2.0]))
    cfg = ArrayConfig(M=M, c=1500.0, omega1=2 * np.pi * 1000.0)
    scene = WidebandScene(angles_deg=tuple(rng.uniform(-85.0, 85.0, K)),
                          source_spectra=_crandn(rng, K, J).reshape(K, J),
                          noise_variance=sigma2, seed=int(rng.integers(1 << 30)))
    return cfg, scene, FocusingSet.build(alphas, M), rng


class TestAgainstLoops:
    @settings(max_examples=60, deadline=None)
    @given(scenes())
    def test_synthesize_scene(self, drawn):
        cfg, scene, focusing, _ = drawn
        got = synthesize_scene(cfg, scene, focusing).Y
        assert _rel_err(got, _loop_synthesize(cfg, scene, focusing)) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(scenes())
    def test_noiseless_measurements(self, drawn):
        cfg, scene, focusing, _ = drawn
        got = noiseless_measurements(scene, focusing)
        assert _rel_err(got, _loop_noiseless(cfg, scene, focusing)) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(scenes())
    def test_build_atom(self, drawn):
        _, _, focusing, rng = drawn
        f, c = rng.uniform(-0.5, 0.5), _crandn(rng, focusing.J)
        got = build_atom(f, c, focusing)
        assert _rel_err(got, _loop_atom_matrix(f, c, focusing)) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(scenes())
    def test_hbar(self, drawn):
        _, _, focusing, rng = drawn
        H = _crandn(rng, focusing.M, focusing.J)
        assert _rel_err(hbar(H, focusing), _loop_hbar(H, focusing)) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(scenes(), st.booleans())
    def test_gamma_blind(self, drawn, zero_column):
        cfg, scene, focusing, _ = drawn
        Y = synthesize_scene(cfg, scene, focusing).Y.copy()
        if zero_column:  # a silent band: no signal power, uniform weights
            Y[:, -1] = 0.0
        sigma2 = scene.noise_variance
        got, ref = gamma_blind(Y, sigma2, focusing), _loop_gamma_blind(Y, sigma2, focusing)
        assert abs(got - ref) <= 1e-12 * abs(ref)
