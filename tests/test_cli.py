import json

import numpy as np
import pytest

from wbdoa import bench
from wbdoa.cli import cli_main
from wbdoa.bench import ResultTable
from wbdoa.model import SubbandData


SCENE = {
    "array": {"M": 12, "c": 1500.0, "omega1": 6283.185307179586},
    "subbands": {"J": 6},
    "scene": {"angles_deg": [-5.0, 15.0, 40.0], "seed": 0, "snr_db": None},
}


@pytest.fixture
def scene_path(tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(SCENE))
    return p


class TestSimulate:
    def test_writes_csv(self, scene_path, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert cli_main(["simulate", "--config", str(scene_path),
                         "--output", str(out)]) == 0
        data = SubbandData.load_csv(out)
        assert data.M == 12 and data.J == 6
        assert "simulate:" in capsys.readouterr().out

    def test_missing_config(self, tmp_path):
        assert cli_main(["simulate", "--config", str(tmp_path / "nope.json"),
                         "--output", str(tmp_path / "o.csv")]) == 1

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["simulate", "--config", str(bad),
                         "--output", str(tmp_path / "o.csv")]) == 1

    def test_bad_scene_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"array": {"M": "x"}, "scene": {}}))
        assert cli_main(["simulate", "--config", str(bad),
                         "--output", str(tmp_path / "o.csv")]) == 1


class TestEstimate:
    def test_oracle_from_scene(self, scene_path, tmp_path, capsys):
        out = tmp_path / "est.json"
        rc = cli_main(["estimate", "--input", str(scene_path),
                       "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        got = sorted(doc["angles_deg"])
        assert np.allclose(got, [-5.0, 15.0, 40.0], atol=1.0)
        stdout = capsys.readouterr().out
        assert "Khat=3" in stdout
        assert "np.float64" not in stdout

    def test_blind_from_csv(self, scene_path, tmp_path):
        data_csv = tmp_path / "data.csv"
        assert cli_main(["simulate", "--config", str(scene_path),
                         "--output", str(data_csv)]) == 0
        out = tmp_path / "est.json"
        rc = cli_main(["estimate", "--input", str(data_csv),
                       "--gamma-mode", "blind", "--sigma2", "0.0",
                       "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["angles_deg"]) >= 1

    def test_oracle_needs_scene(self, scene_path, tmp_path):
        data_csv = tmp_path / "data.csv"
        cli_main(["simulate", "--config", str(scene_path), "--output", str(data_csv)])
        assert cli_main(["estimate", "--input", str(data_csv)]) == 1

    def test_gamma_safety_scales_gamma(self, scene_path, capsys):
        gammas = []
        for safety in ("1", "2"):
            assert cli_main(["estimate", "--input", str(scene_path),
                             "--gamma-safety", safety]) == 0
            out = capsys.readouterr().out
            gammas.append(float(out.split("gamma=", 1)[1].split()[0]))
        assert gammas[1] == pytest.approx(2.0 * gammas[0], rel=1e-5)

    @pytest.mark.parametrize("safety", ["nan", "inf", "-1", "0"])
    def test_bad_gamma_safety(self, scene_path, capsys, safety):
        assert cli_main(["estimate", "--input", str(scene_path),
                         "--gamma-safety", safety]) == 1
        assert "safety" in capsys.readouterr().err

    def test_non_finite_input(self, scene_path, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        cli_main(["simulate", "--config", str(scene_path), "--output", str(data_csv)])
        lines = data_csv.read_text().splitlines()
        row = lines[1].split(",")
        row[0] = "nan"
        lines[1] = ",".join(row)
        data_csv.write_text("\n".join(lines) + "\n")
        assert cli_main(["estimate", "--input", str(data_csv),
                         "--gamma-mode", "blind", "--sigma2", "0.0"]) == 1
        assert "finite" in capsys.readouterr().err
        # a scene JSON whose spectra hold NaN (json accepts the literal)
        scene = dict(SCENE, scene={"angles_deg": [10.0],
                                   "spectra": [[[float("nan"), 0.0]] + [[1.0, 0.0]] * 5]})
        bad = tmp_path / "nan_scene.json"
        bad.write_text(json.dumps(scene))
        assert cli_main(["estimate", "--input", str(bad)]) == 1
        assert "finite" in capsys.readouterr().err
        # a NaN noise variance with explicit spectra
        scene = dict(SCENE, scene={"angles_deg": [10.0], "noise_variance": float("nan"),
                                   "spectra": [[[1.0, 0.0]] * 6]})
        bad.write_text(json.dumps(scene))
        assert cli_main(["estimate", "--input", str(bad)]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [
        (["--sigma2", "nan"], "noise variance"),
        (["--sigma2", "inf"], "noise variance"),
        (["--sigma2", "1e308"], "gamma overflows"),
        (["--peak-tol", "0.7"], "peak_tol"),
        (["--max-iter", "0"], "max_iter"),
    ], ids=["sigma2-nan", "sigma2-inf", "sigma2-overflow", "peak-tol", "max-iter"])
    def test_bad_estimate_option(self, scene_path, tmp_path, capsys, option, message):
        data_csv = tmp_path / "data.csv"
        cli_main(["simulate", "--config", str(scene_path), "--output", str(data_csv)])
        assert cli_main(["estimate", "--input", str(data_csv), "--gamma-mode", "blind",
                         "--sigma2", "0.01", *option]) == 1
        assert message in capsys.readouterr().err

    def test_missing_csv(self, tmp_path):
        assert cli_main(["estimate", "--input", str(tmp_path / "nope.csv"),
                         "--gamma-mode", "blind", "--sigma2", "0.0"]) == 1

    def test_blind_needs_sigma2(self, scene_path, tmp_path):
        data_csv = tmp_path / "data.csv"
        cli_main(["simulate", "--config", str(scene_path), "--output", str(data_csv)])
        assert cli_main(["estimate", "--input", str(data_csv),
                         "--gamma-mode", "blind"]) == 1


class TestBenchmark:
    CONFIG = {
        "scenario": "rmse_vs_snr", "trials": 2, "M": 8, "J": 4,
        "snr_grid_db": [20.0], "angles_deg": [-10.0, 30.0],
        "solver_eps_abs": 1e-5, "solver_eps_rel": 1e-4,
        "solver_max_iter": 5000,
    }

    def test_runs_and_writes(self, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "table.csv"
        assert cli_main(["benchmark", "--config", str(cfg),
                         "--output", str(out)]) == 0
        table = ResultTable.from_csv(out)
        assert len(table.rows) == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(self.CONFIG))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["benchmark", "--config", str(cfg), "--output", str(p1)]) == 0
        assert cli_main(["benchmark", "--config", str(cfg), "--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_quick_caps_trials(self, tmp_path, capsys):
        doc = dict(self.CONFIG, trials=50, methods=["rss"])
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "t.csv"
        assert cli_main(["benchmark", "--config", str(cfg), "--output", str(out),
                         "--quick"]) == 0
        assert ResultTable.from_csv(out).rows[0]["trials"] == 20

    def test_scenario_without_runner(self, tmp_path):
        # the scenario value the config once accepted but no runner handled
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"scenario": "single" "_run"}))
        assert cli_main(["benchmark", "--config", str(cfg),
                         "--output", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("change", [
        {"M": 1}, {"J": 25}, {"methods": ["music"]}, {"methods": ["rss"], "J": 3},
        {"solver_max_iter": 0}, {"snr_grid_db": []}, {"snr_grid_db": [float("nan")]},
        {"snr_grid_db": [float("-inf")]}, {"methods": ["rss"], "init_err_deg": -1},
        {"scenario": "resolution", "delta_theta_list": []},
        {"scenario": "resolution", "resolution_snr_db": float("nan")},
        {"solver_eps_abs": float("nan")}, {"solver_max_iter": 1.5},
        {"angles_deg": []}, {"angles_deg": [float("nan")]}, {"angles_deg": [95]},
        {"angles_deg": [5, 5]}, {"scenario": "resolution", "theta1_deg": float("nan")},
        {"master_seed": -1}, {"trials": 1.5},
        {"scenario": "resolution", "delta_theta_list": [-3]},
        {"scenario": "resolution", "theta1_deg": -85, "delta_theta_list": [5]},
        {"workers": "two"}, {"workers": 1.5}, {"workers": 0},
    ], ids=["M1", "J25", "music", "rss-J3", "max-iter-0", "snr-empty", "snr-nan",
            "snr-minus-inf", "init-err-negative", "resolution-delta-empty",
            "resolution-snr-nan", "eps-abs-nan", "max-iter-fraction", "angles-empty",
            "angles-nan", "angles-95", "angles-repeated", "resolution-theta1-nan",
            "seed-negative", "trials-fraction", "resolution-delta-negative",
            "resolution-delta-past-endfire", "workers-text", "workers-fraction",
            "workers-zero"])
    def test_config_no_runner_can_use(self, tmp_path, capsys, change):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"scenario": "rmse_vs_snr", **change}))
        assert cli_main(["benchmark", "--config", str(cfg), "--quick",
                         "--output", str(tmp_path / "t.csv")]) == 1
        assert "bad experiment config" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["abc", "-3"])
    def test_worker_variable_no_runner_can_use(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("WBDOA_WORKERS", raw)
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"scenario": "rmse_vs_snr", "trials": 1}))
        assert cli_main(["benchmark", "--config", str(cfg),
                         "--output", str(tmp_path / "t.csv")]) == 1
        assert "WBDOA_WORKERS must be an integer >= 1" in capsys.readouterr().err

    def test_worker_variable_resolved_into_config(self, tmp_path, monkeypatch):
        # the runners get the value in cfg.workers and do not read it again
        seen = []

        def fake_run(cfg):
            seen.append(cfg.workers)
            table = ResultTable()
            table.add("wgs", 0.0, 0.1, 0.0, 1, 0.0)
            return table

        monkeypatch.setattr(bench, "run_experiment", fake_run)
        monkeypatch.setenv("WBDOA_WORKERS", "2")
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"scenario": "rmse_vs_snr", "trials": 1}))
        assert cli_main(["benchmark", "--config", str(cfg),
                         "--output", str(tmp_path / "t.csv")]) == 0
        assert seen == [2]

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, wat=1)))
        assert cli_main(["benchmark", "--config", str(cfg),
                         "--output", str(tmp_path / "t.csv")]) == 1


class TestReport:
    def _write_table(self, tmp_path):
        t = ResultTable()
        t.add("wgs", 0.0, 1.0, 0.0, 2, 0.0)
        t.add("wgs", 5.0, 0.5, 0.0, 2, 0.0)
        p = tmp_path / "t.csv"
        t.to_csv(p)
        return p

    def test_svg(self, tmp_path):
        src = self._write_table(tmp_path)
        out = tmp_path / "plot.svg"
        assert cli_main(["report", "--table", str(src), "--output", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_json(self, tmp_path):
        src = self._write_table(tmp_path)
        out = tmp_path / "t.json"
        assert cli_main(["report", "--table", str(src), "--format", "json",
                         "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["rows"]) == 2


class TestArgHandling:
    def test_no_command(self, capsys):
        assert cli_main([]) == 1

    def test_help_is_success(self, capsys):
        assert cli_main(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 1
