import itertools
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from wbdoa import bench
from wbdoa.bench import (
    ExperimentConfig,
    ResultTable,
    default_alphas,
    match_errors,
    random_scene,
    rmse,
    run_experiment,
    trial_seed,
    worker_count,
)
from wbdoa.cli import cli_main
from wbdoa.focusing import FocusingSet, noiseless_measurements


class TestDefaultAlphas:
    def test_values(self):
        assert np.allclose(default_alphas(10), np.arange(20, 10, -1) / 20)
        assert default_alphas(1)[0] == 1.0

    def test_in_band(self):
        # bin ratio alpha maps bin 20 (omega = 2*pi/3) down; all J bins
        # stay inside [pi/3, 2*pi/3] of a 60-point DFT
        alphas = default_alphas(10)
        omegas = alphas * 2 * np.pi / 3
        assert np.all(omegas >= np.pi / 3 - 1e-12)
        assert np.all(omegas <= 2 * np.pi / 3 + 1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError):
            default_alphas(0)
        with pytest.raises(ValueError):
            default_alphas(20)
        for J in (10.5, 10.0, True):
            with pytest.raises(ValueError, match="J must be an integer >= 1"):
                default_alphas(J)


class TestTrialSeed:
    def test_deterministic_and_distinct(self):
        assert trial_seed(0, 1, 2) == trial_seed(0, 1, 2)
        seeds = {trial_seed(0, p, t, s)
                 for p in range(3) for t in range(5) for s in range(2)}
        assert len(seeds) == 30

    def test_point_isolation(self):
        # trials of point 0 keep their seeds regardless of other points
        before = [trial_seed(7, 0, t) for t in range(10)]
        _ = [trial_seed(7, 99, t) for t in range(10)]
        assert before == [trial_seed(7, 0, t) for t in range(10)]


class TestRandomScene:
    def test_snr_definition(self):
        focusing = FocusingSet.build(default_alphas(6), 8)
        scene = random_scene((-10.0, 30.0), focusing, snr_db=7.0, seed=3)
        X = noiseless_measurements(scene, focusing)
        snr = 10 * np.log10(np.linalg.norm(X) ** 2 /
                            (8 * 6 * scene.noise_variance))
        assert snr == pytest.approx(7.0, abs=1e-10)

    def test_noiseless(self):
        scene = random_scene((0.0,), FocusingSet.build(default_alphas(4), 8),
                             snr_db=None, seed=1)
        assert scene.noise_variance == 0.0

    def test_seed_determinism(self):
        focusing = FocusingSet.build(default_alphas(4), 8)
        a = random_scene((5.0,), focusing, 10.0, seed=11)
        b = random_scene((5.0,), focusing, 10.0, seed=11)
        assert np.array_equal(a.source_spectra, b.source_spectra)
        assert a.noise_variance == b.noise_variance


class TestMatchErrors:
    def test_exact(self):
        errs = match_errors([40.0, -5.0, 15.0], [-5.0, 15.0, 40.0])
        assert np.allclose(errs, 0.0)

    def test_permutation_invariance(self):
        errs = match_errors([14.0, 41.0], [40.0, 15.0])
        assert np.allclose(np.sort(errs), [1.0, 1.0])

    def test_extra_estimates_rejected(self):
        # callers cut to the K strongest first; matching the extras would
        # use information the estimator does not have
        with pytest.raises(ValueError, match="3 estimates for 2 truths"):
            match_errors([0.0, 15.0, 80.0], [15.5, 0.5])

    def test_too_few(self):
        assert match_errors([10.0], [0.0, 20.0]) is None

    def test_least_squares_not_least_absolute(self):
        # a 0 dB trial that missed the 40 deg source: pairing -4.1 with 40 and
        # 14.75 with 15 costs the same absolute error as the sorted pairing
        # up to rounding, but a far larger squared error
        est = [-7.934449132222361, -4.1002088218584145, 14.748559786464707]
        truth = [-5.0, 15.0, 40.0]
        assert np.allclose(match_errors(est, truth), np.abs(np.subtract(est, truth)))

    @staticmethod
    def _oracle_sq_error(est, truth):
        """Least total squared error over every injective truth -> estimate map."""
        return min(sum((est[j] - t) ** 2 for t, j in zip(truth, pick))
                   for pick in itertools.permutations(range(len(est)), len(truth)))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        est = rng.uniform(-60.0, 60.0, n)
        truth = rng.uniform(-60.0, 60.0, n)
        errs = match_errors(est, truth)
        assert errs.shape == (n,)
        assert np.sum(errs ** 2) == pytest.approx(self._oracle_sq_error(est, truth),
                                                  rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_ties_from_duplicate_estimates(self, seed):
        # estimates drawn with repeats from a few integer angles, so many
        # assignments tie for the least squared error
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 6))
        est = rng.choice([-10.0, 0.0, 5.0, 20.0], n)
        truth = rng.choice([-10.0, -5.0, 0.0, 5.0, 20.0], n)
        errs = match_errors(est, truth)
        # integer angles: every squared error, and so every total, is exact
        assert np.sum(errs ** 2) == self._oracle_sq_error(est, truth)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            match_errors([np.nan, 1.0], [0.0])


class TestRmse:
    def test_hand_computed(self):
        # two trials, two sources: errors (1, 1) and (0, 2);
        # pooled rmse = sqrt((1 + 1 + 0 + 4) / 4)
        ests = [[-4.0, 16.0], [-5.0, 17.0]]
        val, fails = rmse(ests, [-5.0, 15.0])
        assert val == pytest.approx(np.sqrt(6.0 / 4.0), rel=1e-12)
        assert fails == 0

    def test_failures_counted(self):
        ests = [[-5.0, 15.0], [0.0]]
        val, fails = rmse(ests, [-5.0, 15.0])
        assert fails == 1
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_threshold_failures(self):
        ests = [[-5.0, 15.0], [-5.0, 35.0]]
        val, fails = rmse(ests, [-5.0, 15.0], fail_threshold_deg=5.0)
        assert fails == 1

    def test_all_failed_is_nan(self):
        val, fails = rmse([[0.0]], [-5.0, 15.0])
        assert np.isnan(val) and fails == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [0.0])


class TestExperimentConfig:
    def test_round_trip(self):
        # through JSON, as the CLI reads it: tuples come back as lists
        cfg = ExperimentConfig(scenario="rmse_vs_snr", trials=5, J=4)
        back = ExperimentConfig.from_dict(json.loads(json.dumps(asdict(cfg))))
        assert back == cfg

    def test_unknown_key_rejected(self):
        for key, value in (("bogus", 1), ("peak_tol", 0.05), ("min_separation_f", 0.01)):
            with pytest.raises(ValueError, match="unknown config keys"):
                ExperimentConfig.from_dict({"scenario": "resolution", key: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="resolution", trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="resolution", methods=())

    @pytest.mark.parametrize("change", [
        {"M": 1},
        {"J": 25},
        {"methods": ("music",)},
        {"methods": ("wgs", "music")},
        {"methods": ("rss",), "J": 3},  # three sources need J >= 4
        {"scenario": "resolution", "methods": ("rss",), "J": 2},  # a pair needs J >= 3
        {"M": 3, "trials": 1, "snr_grid_db": (10.0,)},  # three sources need M >= 4
        {"scenario": "resolution", "M": 2, "trials": 1,
         "delta_theta_list": (12.0,)},  # a pair needs M >= 3
        {"solver_max_iter": 0},
        {"solver_eps_abs": 0.0},
        {"snr_grid_db": ()},
        {"snr_grid_db": (float("nan"),)},
        {"snr_grid_db": (float("-inf"),)},
        {"scenario": "resolution", "delta_theta_list": ()},
        {"scenario": "resolution", "delta_theta_list": (float("inf"),)},
        {"scenario": "resolution", "resolution_snr_db": float("-inf")},
        {"methods": ("rss",), "init_err_deg": -1.0},
        {"methods": ("rss",), "init_err_deg": float("nan")},
        {"solver_eps_abs": float("nan")},
        {"solver_eps_rel": float("inf")},
        {"solver_max_iter": 1.5},
        {"angles_deg": ()},
        {"angles_deg": (float("nan"),)},
        {"angles_deg": (95.0,)},
        {"angles_deg": (5.0, 5.0)},
        {"scenario": "resolution", "theta1_deg": float("nan")},
        {"master_seed": -1},
        {"trials": 1.5},
        {"scenario": "resolution", "delta_theta_list": (-3.0,)},
        {"scenario": "resolution", "delta_theta_list": (0.0,)},
        {"scenario": "resolution", "theta1_deg": -85.0, "delta_theta_list": (5.0,)},
        {"workers": "two"},
        {"workers": 1.5},
        {"workers": 0},
        {"M": 8.5},
        {"J": 10.5},
        {"J": 10.0},
        {"trials": True},
        {"master_seed": False},
        {"workers": True},
        {"solver_max_iter": True},
        {"angles_deg": ((1.0, 2.0),)},
        {"snr_grid_db": ((10.0,),)},
        {"scenario": "resolution", "resolution_snr_db": (10.0,)},
        {"solver_eps_abs": True},
        {"solver_eps_rel": True},
        {"solver_eps_abs": "1e-6"},
        {"init_err_deg": True},
        {"angles_deg": (True, 20.0)},
        {"snr_grid_db": (True,)},
        {"omega1": True},
        {"c": True},
        {"scenario": "resolution", "theta1_deg": True},
        {"scenario": "resolution", "delta_theta_list": (True,)},
    ], ids=["M1", "J25", "music", "wgs-music", "rss-J3", "resolution-rss-J2",
            "rss-M3", "resolution-rss-M2", "max-iter-0", "eps-abs-0", "snr-empty",
            "snr-nan", "snr-minus-inf",
            "delta-empty", "delta-inf", "resolution-snr-minus-inf",
            "init-err-negative", "init-err-nan", "eps-abs-nan", "eps-rel-inf",
            "max-iter-fraction", "angles-empty", "angles-nan", "angles-95",
            "angles-repeated", "theta1-nan", "seed-negative", "trials-fraction",
            "delta-negative", "delta-zero", "delta-past-endfire", "workers-text",
            "workers-fraction", "workers-zero", "M-fraction", "J-fraction",
            "J-float", "trials-bool", "seed-bool", "workers-bool", "max-iter-bool",
            "angles-nested", "snr-nested", "resolution-snr-list", "eps-abs-bool",
            "eps-rel-bool", "eps-abs-text", "init-err-bool", "angles-bool", "snr-bool",
            "omega1-bool", "c-bool", "theta1-bool", "delta-bool"])
    def test_rejects_what_no_runner_can_use(self, change):
        with pytest.raises(ValueError):
            ExperimentConfig(**{"scenario": "rmse_vs_snr", **change})

    @pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-3"])
    def test_worker_variable_no_runner_can_use(self, monkeypatch, raw):
        # held to the rule of the workers field, not clamped to 1
        monkeypatch.setenv("WBDOA_WORKERS", raw)
        with pytest.raises(ValueError, match="WBDOA_WORKERS must be an integer >= 1"):
            worker_count(ExperimentConfig(scenario="rmse_vs_snr"))

    def test_worker_variable_read_only_without_field(self, monkeypatch):
        cfg = ExperimentConfig(scenario="rmse_vs_snr")
        monkeypatch.setenv("WBDOA_WORKERS", "3")
        assert worker_count(cfg) == 3
        assert worker_count(replace(cfg, workers=2)) == 2

    def test_rss_bin_count_boundary(self):
        ExperimentConfig(scenario="rmse_vs_snr", methods=("rss",), J=4)
        ExperimentConfig(scenario="resolution", methods=("rss",), J=3)
        ExperimentConfig(scenario="rmse_vs_snr", methods=("wgs",), J=1)

    def test_rss_sensor_count_boundary(self):
        ExperimentConfig(scenario="rmse_vs_snr", M=4)
        ExperimentConfig(scenario="resolution", M=3)
        ExperimentConfig(scenario="rmse_vs_snr", methods=("wgs",), M=2)


class TestResultTable:
    def _table(self):
        t = ResultTable()
        t.add("wgs", 0.0, 1.25, 0.0, 10, 3.5)
        t.add("rss", 0.0, float("nan"), 0.8, 10, 1.0)
        return t

    def test_csv_round_trip(self, tmp_path):
        t = self._table()
        path = tmp_path / "out.csv"
        t.to_csv(path)
        back = ResultTable.from_csv(path)
        assert back.rows[0]["rmse_deg"] == 1.25
        assert np.isnan(back.rows[1]["rmse_deg"])
        assert back.rows[1]["fail_rate"] == 0.8

    def test_runtime_zeroed_by_default(self, tmp_path):
        t = self._table()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t.to_csv(p1)
        t.rows[0]["runtime_s"] = 99.0
        t.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        t.to_csv(p1, include_runtime=True)
        assert b"99.0" in p1.read_bytes()

    def test_failed_text(self, tmp_path):
        path = tmp_path / "out.csv"
        self._table().to_csv(path)
        assert "Failed" in path.read_text()

    def test_json(self, tmp_path):
        path = tmp_path / "out.json"
        self._table().to_json(path)
        assert json.loads(path.read_text())["rows"][1]["rmse_deg"] is None

    def test_json_keeps_runtimes(self, tmp_path):
        # a table read from a default CSV already holds zero runtimes
        t, path = self._table(), tmp_path / "out.json"
        t.to_json(path)
        doc = json.loads(path.read_text())
        assert [r["runtime_s"] for r in doc["rows"]] == [r["runtime_s"] for r in t.rows]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultTable().to_csv(tmp_path / "x.csv")

    def test_bad_fail_rate(self):
        with pytest.raises(ValueError):
            ResultTable().add("wgs", 0.0, 1.0, 1.5, 10, 0.0)


SMALL = dict(trials=3, M=8, J=4, snr_grid_db=(20.0,), angles_deg=(-10.0, 30.0),
             solver_eps_abs=1e-5, solver_eps_rel=1e-4, solver_max_iter=5000)


class TestRunners:
    def test_rmse_vs_snr_small(self):
        cfg = ExperimentConfig(scenario="rmse_vs_snr", **SMALL)
        table = run_experiment(cfg)
        assert len(table.rows) == 2  # one SNR x two methods
        for r in table.rows:
            assert r["trials"] == 3
            assert r["rmse_deg"] < 5.0 or np.isnan(r["rmse_deg"])

    def test_determinism_across_runs(self):
        cfg = ExperimentConfig(scenario="rmse_vs_snr", **SMALL)
        t1 = run_experiment(cfg)
        t2 = run_experiment(cfg)
        for a, b in zip(t1.rows, t2.rows):
            assert a["rmse_deg"] == b["rmse_deg"]
            assert a["fail_rate"] == b["fail_rate"]

    def test_wgs_solves_with_the_oracle_gamma(self, monkeypatch):
        # J = 1 at 120 dB: the oracle gamma (noise power alone, as one bin
        # has no focusing error) falls below 1e-10, and each trial solves
        # with exactly the value gamma_oracle returned
        computed, solved = [], []
        gamma_oracle, estimate_doa = bench.gamma_oracle, bench.estimate_doa

        def oracle(*args, **kwargs):
            computed.append(gamma_oracle(*args, **kwargs))
            return computed[-1]

        def estimate(data, gamma, *args, **kwargs):
            solved.append(gamma)
            return estimate_doa(data, gamma, *args, **kwargs)

        monkeypatch.setattr(bench, "gamma_oracle", oracle)
        monkeypatch.setattr(bench, "estimate_doa", estimate)
        cfg = ExperimentConfig(scenario="rmse_vs_snr", trials=2, J=1, snr_grid_db=(120.0,),
                               methods=("wgs",), workers=1)
        table = run_experiment(cfg)
        assert len(computed) == 2 and 0 < max(computed) < 1e-10
        assert solved == computed
        assert table.rows[0]["rmse_deg"] < 0.1

    def test_resolution_small(self):
        cfg = ExperimentConfig(scenario="resolution", trials=3, M=8, J=4,
                               delta_theta_list=(20.0,), methods=("rss",),
                               solver_max_iter=5000)
        table = run_experiment(cfg)
        assert len(table.rows) == 1
        assert table.rows[0]["point"] == 20.0


class TestEmitReport:
    def _table(self):
        t = ResultTable()
        t.add("wgs", 0.0, 2.0, 0.0, 4, 1.0)
        t.add("wgs", 5.0, 1.0, 0.0, 4, 1.0)
        t.add("rss", 0.0, 4.0, 0.1, 4, 1.0)
        t.add("rss", 5.0, 3.0, 0.2, 4, 1.0)
        return t

    def test_csv(self, tmp_path):
        p = tmp_path / "r.csv"
        self._table().to_csv(p)
        assert [r["rmse_deg"] for r in ResultTable.from_csv(p).rows] == [2.0, 1.0, 4.0, 3.0]

    def test_csv_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "r.csv"
        self._table().to_csv(p)
        rows = ResultTable.from_csv(p).rows
        p.write_text(p.read_text() + "\n")
        assert ResultTable.from_csv(p).rows == rows

    def test_json(self, tmp_path):
        p = tmp_path / "r.json"
        self._table().to_json(p)
        assert len(json.loads(p.read_text())["rows"]) == 4

    def test_svg(self, tmp_path):
        p = tmp_path / "r.svg"
        self._table().to_svg(p)
        text = p.read_text()
        assert text.startswith("<svg") and text.count("polyline") == 2

    def test_svg_points_span_axis(self, tmp_path):
        # a largest point of 0 (an SNR sweep up to 0 dB) still ends the axis
        t = ResultTable()
        for snr, err in ((-10.0, 3.0), (-5.0, 2.0), (0.0, 1.0)):
            t.add("wgs", snr, err, 0.0, 4, 1.0)
        p = tmp_path / "r.svg"
        t.to_svg(p)
        xs = [pt.split(",")[0] for pt in
              p.read_text().split('polyline points="')[1].split('"')[0].split()]
        assert xs == ["60.00", "320.00", "580.00"]

    def test_svg_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        self._table().to_svg(p1)
        self._table().to_svg(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_svg_refuses_nothing_to_plot(self, tmp_path):
        failed = ResultTable()
        failed.add("rss", 4.0, float("nan"), 1.0, 4, 1.0)
        for table in (ResultTable(), failed):
            with pytest.raises(ValueError, match="no finite RMSE"):
                table.to_svg(tmp_path / "r.svg")
        assert not (tmp_path / "r.svg").exists()

    def test_format_flag_refused(self, tmp_path, capsys):
        # the output path decides the format, so the flag that once named it is refused
        p = tmp_path / "r.csv"
        self._table().to_csv(p)
        assert cli_main(["report", "--table", str(p), "--format", "json",
                         "--output", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --format" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    BAD_ROWS = {
        "point-nan": ("point", "wgs,nan,1.0,0.0,4,0.0"),
        "point-inf": ("point", "wgs,inf,1.0,0.0,4,0.0"),
        "rmse-inf": ("rmse_deg", "wgs,5.0,inf,0.0,4,0.0"),
        "rmse-negative": ("rmse_deg", "wgs,5.0,-1.0,0.0,4,0.0"),
        "trials-zero": ("trials", "wgs,5.0,1.0,0.0,0,0.0"),
        "runtime-inf": ("runtime_s", "wgs,5.0,1.0,0.0,4,inf"),
        "runtime-negative": ("runtime_s", "wgs,5.0,1.0,0.0,4,-1.0"),
    }

    @pytest.mark.parametrize("field, row", BAD_ROWS.values(), ids=BAD_ROWS)
    def test_row_out_of_range_refused(self, tmp_path, capsys, field, row):
        # such rows once loaded and rendered as NaN SVG coordinates or as JSON
        # Infinity/NaN tokens, which RFC 8259 does not allow
        p = tmp_path / "r.csv"
        self._table().to_csv(p)
        p.write_text(p.read_text() + row + "\n")
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ResultTable.from_csv(p)
        for out in (tmp_path / "r.svg", tmp_path / "r.json"):
            assert cli_main(["report", "--table", str(p), "--output", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot report {p}: {field} must be")
            assert not out.exists()
