"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line. The Monte-Carlo criteria (resolution
table spots, SNR-sweep ordering) run 100 trials per point and dominate the
runtime; set WBDOA_WORKERS to parallelize across processes.
"""

import json
import time
import warnings

import numpy as np
import pytest

from wbdoa.atoms import ConicProblem
from wbdoa.bench import ExperimentConfig, run_experiment
from wbdoa.cli import cli_main
from wbdoa.focusing import FocusingSet, gamma_oracle
from wbdoa.model import (
    ArrayConfig,
    WidebandScene,
    steering_matrix,
    synthesize_scene,
)
from wbdoa.recovery import RecoveryConfig, estimate_doa
from wbdoa.solver import (
    SolverConfig,
    affine_project,
    psd_project,
    solve,
)

from lmi_oracles import complex_to_real_embed, dual_atomic_norm, find_q_certificate


def _report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f" — {detail}" if detail else ""))
    return ok


def _standard_setup():
    cfg = ArrayConfig(M=16, c=1500.0, omega1=2 * np.pi * 1000)
    alphas = np.arange(20, 10, -1) / 20
    focusing = FocusingSet.build(alphas, cfg.M)
    return cfg, focusing


def test_01_noiseless_exact_recovery():
    """K = 3 noiseless scene: exact support recovery and tight duality gap."""
    cfg, focusing = _standard_setup()
    rng = np.random.default_rng(0)
    angles = np.array([-5.0, 15.0, 40.0])
    spectra = (rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))) / np.sqrt(2)
    scene = WidebandScene(angles_deg=tuple(angles), source_spectra=spectra)
    data = synthesize_scene(cfg, scene, focusing)
    gamma = gamma_oracle(data.Y, cfg, scene, focusing)  # focusing error only
    t0 = time.perf_counter()
    est = estimate_doa(data, gamma, focusing)
    elapsed = time.perf_counter() - t0
    max_err = (np.max(np.abs(np.sort(est.thetas) - angles))
               if est.Khat == 3 else float("inf"))
    rel_gap = est.diagnostics["dualityGap"] / est.diagnostics["dualObjective"]
    ok = est.Khat == 3 and max_err <= 0.1 and rel_gap <= 1e-3 and elapsed <= 60.0
    assert _report(
        "noiseless exact recovery",
        ok,
        f"Khat={est.Khat} max_err={max_err:.4f} deg rel_gap={rel_gap:.2e} "
        f"time={elapsed:.1f}s",
    )


def test_02_lmi_polynomial_equivalence():
    """Feasible (H, Q) implies polynomial <= 1; bounded polynomial implies
    a feasible Q exists (both directions).

    Instances are planted noisy scenes with the oracle fidelity budget;
    fully random data matrices can put mass in the null space of the
    worst-conditioned focusing matrices, making the dual unbounded.
    """
    M, J = 8, 5
    alphas = np.arange(10, 5, -1) / 10
    cfg = ArrayConfig(M=M, c=1500.0, omega1=2 * np.pi * 1000)
    focusing = FocusingSet.build(alphas, M)
    rng = np.random.default_rng(1)
    forward_ok, worst = True, 0.0
    converse_ok, worst_lam = True, 0.0
    duals = []
    for i in range(50):
        angles = tuple(np.sort(rng.uniform(-60.0, 60.0, 2)))
        spectra = rng.standard_normal((2, J)) + 1j * rng.standard_normal((2, J))
        scene = WidebandScene(angles_deg=angles, source_spectra=spectra,
                              noise_variance=0.05, seed=i)
        data = synthesize_scene(cfg, scene, focusing)
        gamma = gamma_oracle(data.Y, cfg, scene, focusing)
        prog = ConicProblem(Y=data.Y, focusing=focusing, gamma=gamma)
        sol = solve(prog, SolverConfig(eps_abs=1e-8, eps_rel=1e-7))
        peak = dual_atomic_norm(sol.H, focusing)
        worst = max(worst, peak)
        forward_ok &= peak <= 1.0 + 1e-4
        duals.append((sol.Hbar, peak))
    for Hbar, peak in duals:
        scaled = 0.99 * Hbar / peak
        Q, feasible, lam = find_q_certificate(scaled)
        worst_lam = min(worst_lam, lam)
        converse_ok &= feasible
    ok = forward_ok and converse_ok
    assert _report(
        "LMI / bounded-polynomial equivalence",
        ok,
        f"forward worst peak={worst:.6f} converse worst lambda_min={worst_lam:.2e}",
    )


def test_03_resolution_table_spots():
    """Resolution table at 10 dB, 100 trials: proposed method RMSE in range
    at 12 deg, still resolving at 3 deg; baseline Failed at 5 and 4 deg."""
    cfg = ExperimentConfig(scenario="resolution", trials=100,
                           delta_theta_list=(12.0, 5.0, 4.0, 3.0),
                           master_seed=0)
    table = run_experiment(cfg)
    rows = {(r["method"], r["point"]): r for r in table.rows}
    wgs12 = rows[("wgs", 12.0)]["rmse_deg"]
    wgs3 = rows[("wgs", 3.0)]["rmse_deg"]
    rss5 = rows[("rss", 5.0)]["rmse_deg"]
    rss4 = rows[("rss", 4.0)]["rmse_deg"]
    ok = (0.25 <= wgs12 <= 0.90
          and np.isfinite(wgs3) and wgs3 <= 2.0
          and np.isnan(rss5) and np.isnan(rss4))
    assert _report(
        "resolution table spot checks",
        ok,
        f"wgs@12={wgs12:.4f} wgs@3={wgs3:.4f} "
        f"rss@5={'Failed' if np.isnan(rss5) else f'{rss5:.3f}'} "
        f"rss@4={'Failed' if np.isnan(rss4) else f'{rss4:.3f}'}",
    )


def test_04_snr_sweep_ordering():
    """Proposed method beats the baseline at every SNR in {0..20} dB."""
    cfg = ExperimentConfig(scenario="rmse_vs_snr", trials=100, master_seed=0)
    table = run_experiment(cfg)
    rows = {(r["method"], r["point"]): r["rmse_deg"] for r in table.rows}
    pairs = [(snr, rows[("wgs", snr)], rows[("rss", snr)])
             for snr in (0.0, 5.0, 10.0, 15.0, 20.0)]
    ok = all(np.isfinite(w) and (np.isnan(r) or w < r) for _, w, r in pairs)
    assert _report(
        "SNR sweep ordering",
        ok,
        " ".join(f"{int(s)}dB:{w:.3f}<{r:.3f}" for s, w, r in pairs),
    )


def test_05_solver_unit_oracles():
    """Projection and embedding oracles at tight tolerances."""
    rng = np.random.default_rng(2)
    psd_ok = True
    for _ in range(100):
        A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        W = 0.5 * (A + A.conj().T)
        # independent eigen-clip through the real embedding
        R = complex_to_real_embed(W)
        ev, V = np.linalg.eigh(R)
        Rp = (V * np.clip(ev, 0.0, None)) @ V.T
        oracle = Rp[:12, :12] + 1j * Rp[12:, :12]
        psd_ok &= np.max(np.abs(psd_project(W)[0] - oracle)) < 1e-10
    focusing = FocusingSet.build([1.0, 0.8, 0.6], 6)
    prog = ConicProblem(
        Y=rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)),
        focusing=focusing, gamma=1.0)
    idem_ok = True
    for _ in range(20):
        S = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        H = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        S1, H1 = affine_project(S, prog, H)
        S2, H2 = affine_project(S1, prog, H1)
        idem_ok &= np.max(np.abs(S2 - S1)) < 1e-12 and np.max(np.abs(H2 - H1)) < 1e-12
    embed_ok = True
    for _ in range(20):
        A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        W = 0.5 * (A + A.conj().T)
        ew = np.sort(np.linalg.eigvalsh(W))
        er = np.sort(np.linalg.eigvalsh(complex_to_real_embed(W)))
        embed_ok &= np.max(np.abs(er - np.sort(np.concatenate([ew, ew])))) < 1e-10
    ok = psd_ok and idem_ok and embed_ok
    assert _report(
        "solver unit oracles",
        ok,
        f"psd_project={psd_ok} affine idempotence={idem_ok} embedding={embed_ok}",
    )


def test_06_dual_norm_oracle():
    """Exact dual-norm search matches a 10^6-point brute-force grid."""
    focusing = FocusingSet.build([1.0, 0.8], 6)
    rng = np.random.default_rng(3)
    A = steering_matrix(np.linspace(-0.5, 0.5, 1_000_000, endpoint=False), 6)
    worst = 0.0
    for _ in range(20):
        H = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        got = dual_atomic_norm(H, focusing)
        Hbar = np.stack([focusing.matrices[j].conj().T @ H[:, j] for j in range(2)],
                        axis=1)
        worst = max(worst, abs(got - float(np.linalg.norm(Hbar.conj().T @ A, axis=0).max())))
    ok = worst < 1e-6
    assert _report("dual-norm brute-force oracle", ok, f"worst |diff|={worst:.2e}")


def test_07_strong_duality():
    """Noiseless 2-atom instances: total recovered amplitude equals the
    dual objective to 1e-3 relative.

    The optimal decomposition can split one physical source into two atoms
    a fraction of 1/M apart (the pair absorbs per-band focusing-error
    phase).  The gap is taken over every located atom, before merging, so
    the merge radius does not enter it.
    """
    M, J = 8, 4
    alphas = np.arange(8, 4, -1) / 8
    cfg = ArrayConfig(M=M, c=1500.0, omega1=2 * np.pi * 1000)
    focusing = FocusingSet.build(alphas, M)
    rng = np.random.default_rng(4)
    rec = RecoveryConfig(solver=SolverConfig(eps_abs=1e-9, eps_rel=1e-8))
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # near-collinear split atoms
        for _ in range(20):
            # angles separated by at least 2/M in f
            while True:
                f1, f2 = np.sort(rng.uniform(-0.45, 0.45, 2))
                if f2 - f1 >= 2.0 / M:
                    break
            angles = tuple(np.degrees(np.arcsin(2 * np.array([f1, f2]))))
            spectra = (rng.standard_normal((2, J)) + 1j * rng.standard_normal((2, J)))
            scene = WidebandScene(angles_deg=angles, source_spectra=spectra)
            data = synthesize_scene(cfg, scene, focusing)
            gamma = gamma_oracle(data.Y, cfg, scene, focusing)
            est = estimate_doa(data, gamma, focusing, rec)
            rel = est.diagnostics["dualityGap"] / est.diagnostics["dualObjective"]
            worst = max(worst, rel)
    ok = worst <= 1e-3
    assert _report("strong duality gap", ok, f"worst rel gap={worst:.2e}")


def test_08_benchmark_determinism(tmp_path):
    """Identical benchmark configs and master seed give byte-identical CSVs."""
    config = {
        "scenario": "rmse_vs_snr", "trials": 3, "M": 8, "J": 4,
        "snr_grid_db": [20.0], "angles_deg": [-10.0, 30.0],
        "solver_eps_abs": 1e-5, "solver_eps_rel": 1e-4,
        "solver_max_iter": 5000, "master_seed": 42,
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(config))
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    rc1 = cli_main(["benchmark", "--config", str(cfg_path), "--output", str(p1)])
    rc2 = cli_main(["benchmark", "--config", str(cfg_path), "--output", str(p2)])
    ok = rc1 == 0 and rc2 == 0 and p1.read_bytes() == p2.read_bytes()
    assert _report("benchmark byte determinism", ok,
                   f"rc=({rc1},{rc2}) identical={p1.read_bytes() == p2.read_bytes()}")
