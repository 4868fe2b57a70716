import json
import warnings

import numpy as np
import pytest

from wbdoa import bench
from wbdoa.cli import _scene_from_doc, cli_main
from wbdoa.bench import ResultTable
from wbdoa.focusing import FocusingSet, gamma_blind, gamma_oracle
from wbdoa.model import SubbandData, WidebandScene


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

    @pytest.mark.parametrize("alphas", [[0.9, 0.8], [1.0, 1.0], [1.0, 1.2], []])
    def test_bad_alphas(self, tmp_path, capsys, alphas):
        # the reference bin must be 1, the ratios strictly decreasing in (0, 1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SCENE, "subbands": {"alphas": alphas}}))
        assert cli_main(["simulate", "--config", str(bad),
                         "--output", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert "bad scene config" in err and "Traceback" not in err
        if not alphas:
            assert "need at least one bin" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("part, key, value", [
        ("array", "M", 8.7), ("array", "M", 12.0), ("array", "M", True),
        ("subbands", "J", 4.9), ("subbands", "J", True),
        ("scene", "seed", 1.5), ("scene", "seed", True),
    ])
    def test_non_integral_count_or_seed(self, tmp_path, capsys, part, key, value):
        # int() once truncated these: M=8.7, J=4.9 simulated M=8, J=4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SCENE, part: {**SCENE[part], key: value}}))
        assert cli_main(["simulate", "--config", str(bad),
                         "--output", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert f"bad scene config: {key} must be an integer" in err
        assert "Traceback" not in err and not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("part, key, value", [
        ("array", "c", True), ("array", "omega1", "7001"), ("scene", "snr_db", "10"),
        ("scene", "noise_variance", True),
    ])
    def test_real_value_not_a_number(self, tmp_path, capsys, part, key, value):
        # float() once cast these to 1.0, 7001.0, 10.0 and 1.0 and simulated them
        doc = {**SCENE, "scene": {"angles_deg": [10.0], "spectra": [[[1.0, 0.0]] * 6]}
               if key == "noise_variance" else SCENE["scene"]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, part: {**doc[part], key: value}}))
        assert cli_main(["simulate", "--config", str(bad),
                         "--output", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert f"bad scene config: {key} " in err and "must be finite" in err
        assert "Traceback" not in err and not (tmp_path / "o.csv").exists()

    IGNORED_KEYS = {
        "noise-variance-without-spectra": {"scene": {"angles_deg": [10.0], "seed": 1,
                                                     "noise_variance": 5.0}},
        "snr-beside-spectra": {"scene": {"angles_deg": [10.0], "snr_db": 0,
                                         "spectra": [[[1.0, 0.0]] * 6]}},
        "unknown-top-level": {"wat": 1},
        "unknown-in-scene": {"scene": {**SCENE["scene"], "wat": 1}},
        "unknown-in-array": {"array": {**SCENE["array"], "d": 0.1}},
        "J-and-alphas": {"subbands": {"J": 6, "alphas": [1.0, 0.9]}},
    }

    @pytest.mark.parametrize("change", IGNORED_KEYS.values(), ids=IGNORED_KEYS)
    def test_key_it_would_ignore(self, tmp_path, capsys, change):
        # each once simulated as if the key were absent, and exited 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SCENE, **change}))
        assert cli_main(["simulate", "--config", str(bad),
                         "--output", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad scene config: ") and "takes only the keys" in err
        assert "Traceback" not in err and not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("snr_db", [None, 10.0])
    def test_nan_angle(self, tmp_path, capsys, snr_db):
        bad = tmp_path / "bad.json"
        scene = {**SCENE["scene"], "angles_deg": [float("nan"), 15.0], "snr_db": snr_db}
        bad.write_text(json.dumps({**SCENE, "scene": scene}))
        assert cli_main(["simulate", "--config", str(bad),
                         "--output", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert "angle must lie in (-90, 90)" in err and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    BAD_SCENES = {
        "angles-bool": {"angles_deg": (True, 20.0)},
        "angles-text": {"angles_deg": ("5", 20.0)},
        "angles-nan": {"angles_deg": (float("nan"),)},
        "angles-95": {"angles_deg": (95.0,)},
        "spectra-nan": {"source_spectra": [[1.0, float("nan"), 1.0, 1.0, 1.0, 1.0]]},
        "spectra-3d": {"source_spectra": np.ones((1, 6, 1))},
        "seed-bool": {"seed": True},
        "seed-fraction": {"seed": 1.5},
    }

    @pytest.mark.parametrize("bad", BAD_SCENES.values(), ids=BAD_SCENES)
    def test_bad_scene_refused_on_every_route(self, tmp_path, capsys, bad):
        # the scene once cast angles with float() and checked neither its
        # spectra nor its seed: True read as 1 deg, and a NaN spectrum built
        scene = {"angles_deg": (10.0,), "seed": 0, **bad}
        spectra = np.asarray(scene.pop("source_spectra", np.ones((len(scene["angles_deg"]), 6))),
                             dtype=complex)
        with pytest.raises(ValueError):
            WidebandScene(source_spectra=spectra, **scene)
        extras = []
        if spectra.ndim == 2:  # the scene JSON holds spectra as K x J [re, im] pairs
            extras.append({"spectra": [[[z.real, z.imag] for z in row] for row in spectra]})
        if "source_spectra" not in bad:
            focusing = FocusingSet.build(bench.default_alphas(6), 12)
            with pytest.raises(ValueError):
                bench.random_scene(scene["angles_deg"], focusing, None, scene["seed"])
            extras.append({"snr_db": None})
        for extra in extras:
            bad_path, out = tmp_path / "bad.json", tmp_path / "o.csv"
            doc = {**SCENE, "scene": {"angles_deg": list(scene["angles_deg"]),
                                      "seed": scene["seed"], **extra}}
            bad_path.write_text(json.dumps(doc))
            assert cli_main(["simulate", "--config", str(bad_path), "--output", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: bad scene config: ") and "Traceback" not in err
            assert not out.exists()


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
        rc = cli_main(["estimate", "--input", str(data_csv), "--sigma2", "0.0",
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
        assert cli_main(["estimate", "--input", str(data_csv), "--sigma2", "0.0"]) == 1
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
        (["--max-iter", "0"], "max_iter"),
    ], ids=["sigma2-nan", "sigma2-inf", "sigma2-overflow", "max-iter"])
    def test_bad_estimate_option(self, scene_path, tmp_path, capsys, option, message):
        data_csv = tmp_path / "data.csv"
        cli_main(["simulate", "--config", str(scene_path), "--output", str(data_csv)])
        assert cli_main(["estimate", "--input", str(data_csv), "--sigma2", "0.01",
                         *option]) == 1
        assert message in capsys.readouterr().err

    def test_missing_csv(self, tmp_path):
        assert cli_main(["estimate", "--input", str(tmp_path / "nope.csv"),
                         "--sigma2", "0.0"]) == 1

    def test_csv_without_sigma2_names_it(self, scene_path, tmp_path, capsys):
        # a CSV carries no scene, so without --sigma2 no gamma can be computed
        data_csv = tmp_path / "data.csv"
        cli_main(["simulate", "--config", str(scene_path), "--output", str(data_csv)])
        capsys.readouterr()
        assert cli_main(["estimate", "--input", str(data_csv)]) == 1
        assert "--sigma2" in capsys.readouterr().err

    def test_gamma_modes(self, tmp_path, capsys):
        # oracle gamma is the realized power of the scene JSON's noise and
        # focusing error; blind gamma is the bound from the measurements and
        # --sigma2, which a scene JSON once dropped for its oracle gamma
        doc = dict(SCENE, scene={"angles_deg": [10.0], "seed": 3, "snr_db": 10.0})
        scene_path = tmp_path / "noisy.json"
        scene_path.write_text(json.dumps(doc))
        data_csv = tmp_path / "data.csv"
        assert cli_main(["simulate", "--config", str(scene_path),
                         "--output", str(data_csv)]) == 0
        array, scene, data, focusing = _scene_from_doc(doc)
        loaded = SubbandData.load_csv(data_csv)
        oracle, sigma2 = gamma_oracle(data.Y, array, scene, focusing), 2.0 * scene.noise_variance
        runs = [
            (["--input", str(scene_path)], oracle, "oracle"),
            (["--input", str(data_csv), "--sigma2", "0.05"],
             gamma_blind(loaded.Y, 0.05, FocusingSet.build(loaded.alphas, loaded.M)), "blind"),
            (["--input", str(scene_path), "--sigma2", repr(sigma2)],
             gamma_blind(data.Y, sigma2, focusing), "blind"),
        ]
        assert runs[2][1] != pytest.approx(oracle, rel=0.1)
        capsys.readouterr()
        for argv, expected, mode in runs:
            assert expected > 0
            assert cli_main(["estimate", *argv]) == 0
            out = capsys.readouterr().out
            assert float(out.split("gamma=", 1)[1].split()[0]) == pytest.approx(expected,
                                                                                rel=1e-5)
            assert f" mode={mode} " in out
        # the input decides the mode, so the flag that once named it is refused
        assert cli_main(["estimate", "--input", str(scene_path), "--gamma-mode", "blind"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --gamma-mode" in err and "Traceback" not in err

    def test_solves_with_the_computed_gamma(self, tmp_path, capsys):
        # one noiseless bin has neither noise nor focusing error, so the
        # oracle gamma is rounding alone; the solve takes it as computed
        doc = {"array": {"M": 8}, "subbands": {"J": 1},
               "scene": {"angles_deg": [10.0], "seed": 3, "snr_db": None}}
        scene_path = tmp_path / "one_bin.json"
        scene_path.write_text(json.dumps(doc))
        array, scene, data, focusing = _scene_from_doc(doc)
        expected = gamma_oracle(data.Y, array, scene, focusing)
        assert expected < 1e-20  # 7.9e-32 with numpy 2.4 on x86-64
        assert cli_main(["estimate", "--input", str(scene_path)]) == 0
        out = capsys.readouterr().out
        assert float(out.split("gamma=", 1)[1].split()[0]) == pytest.approx(expected, rel=1e-5)
        assert "angles=[10.0]" in out


class TestBenchmark:
    CONFIG = {
        "scenario": "rmse_vs_snr", "trials": 2, "M": 8, "J": 4,
        "snr_grid_db": [20.0], "angles_deg": [-10.0, 30.0],
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

    def test_json_report_byte_identical_without_timings(self, tmp_path):
        # the JSON once kept wall-clock runtimes that the CSV zeroes
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, methods=["rss"])))
        out = [tmp_path / f"{name}.json" for name in ("a", "b", "timed")]
        for path, extra in zip(out, ([], [], ["--timings"])):
            table = tmp_path / "t.csv"
            assert cli_main(["benchmark", "--config", str(cfg), "--output", str(table),
                             *extra]) == 0
            assert cli_main(["report", "--table", str(table), "--output", str(path)]) == 0
        assert out[0].read_bytes() == out[1].read_bytes()
        assert json.loads(out[0].read_text())["rows"][0]["runtime_s"] == 0.0
        assert json.loads(out[2].read_text())["rows"][0]["runtime_s"] > 0.0

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

    @pytest.mark.parametrize("key, old_default", [
        ("theta1_deg", 40.0), ("resolution_snr_db", 10.0), ("init_err_deg", 2.0),
        ("solver_eps_abs", 1e-6), ("solver_eps_rel", 1e-5), ("solver_max_iter", 20000)])
    def test_fixed_study_setting_refused(self, tmp_path, capsys, key, old_default):
        # these were config keys; the paper's fixed values are now bench constants
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"scenario": "resolution", "trials": 1, key: old_default}))
        out = tmp_path / "t.csv"
        assert cli_main(["benchmark", "--config", str(cfg), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad experiment config: ") and "Traceback" not in err
        assert f"unexpected keyword argument '{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"M": 1}, {"J": 25}, {"methods": ["music"]}, {"methods": ["rss"], "J": 3},
        {"M": 3, "trials": 1, "snr_grid_db": [10]},
        {"scenario": "resolution", "M": 2, "trials": 1, "delta_theta_list": [12]},
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
        {"M": 8.5}, {"J": 10.5}, {"trials": True},
        {"trials": 1, "methods": ["wgs"], "angles_deg": [[1, 2]]}, {"snr_grid_db": [[10]]},
        {"scenario": "resolution", "resolution_snr_db": [10]},
        {"solver_eps_abs": True}, {"solver_eps_rel": True}, {"solver_eps_abs": "1e-6"},
        {"init_err_deg": True}, {"angles_deg": [True, 20]}, {"snr_grid_db": [True]},
        {"omega1": True}, {"scenario": "resolution", "theta1_deg": True},
        {"scenario": "resolution", "delta_theta_list": [True]},
        {"c": float("nan")}, {"c": float("inf")}, {"c": float("-inf")},
        {"omega1": float("nan")}, {"omega1": float("inf")}, {"omega1": float("-inf")},
    ], ids=["M1", "J25", "music", "rss-J3", "rss-M3", "resolution-rss-M2",
            "max-iter-0", "snr-empty", "snr-nan",
            "snr-minus-inf", "init-err-negative", "resolution-delta-empty",
            "resolution-snr-nan", "eps-abs-nan", "max-iter-fraction", "angles-empty",
            "angles-nan", "angles-95", "angles-repeated", "resolution-theta1-nan",
            "seed-negative", "trials-fraction", "resolution-delta-negative",
            "resolution-delta-past-endfire", "workers-text", "workers-fraction",
            "workers-zero", "M-fraction", "J-fraction", "trials-bool", "angles-nested",
            "snr-nested", "resolution-snr-list", "eps-abs-bool", "eps-rel-bool",
            "eps-abs-text", "init-err-bool", "angles-bool", "snr-bool", "omega1-bool",
            "resolution-theta1-bool", "resolution-delta-bool", "c-nan", "c-inf",
            "c-minus-inf", "omega1-nan", "omega1-inf", "omega1-minus-inf"])
    def test_config_no_runner_can_use(self, tmp_path, capsys, change):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"scenario": "rmse_vs_snr", **change}))
        assert cli_main(["benchmark", "--config", str(cfg), "--quick",
                         "--output", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert "bad experiment config" in err and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()
        if set(change) <= {"c", "omega1"}:  # the error names the field
            assert f"bad experiment config: {next(iter(change))} " in err

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

    def test_log_y_zero_rmse_refused(self, tmp_path, capsys):
        # log10(0) once wrote a polyline of NaN coordinates and exited 0
        t = ResultTable()
        t.add("wgs", 0.0, 0.0, 0.0, 2, 0.0)
        t.add("wgs", 5.0, 0.5, 0.0, 2, 0.0)
        src, out = tmp_path / "t.csv", tmp_path / "plot.svg"
        t.to_csv(src)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["report", "--table", str(src), "--output", str(out),
                             "--log-y"]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot report {src}: ")
        assert not out.exists()

    def test_log_y(self, tmp_path):
        src = self._write_table(tmp_path)
        out = tmp_path / "plot.svg"
        assert cli_main(["report", "--table", str(src), "--output", str(out), "--log-y"]) == 0
        assert "nan" not in out.read_text()

    def test_log_y_with_json_refused(self, tmp_path, capsys):
        # a JSON report has no axis to scale; the flag was once ignored there
        src = self._write_table(tmp_path)
        out = tmp_path / "t.json"
        assert cli_main(["report", "--table", str(src), "--output", str(out), "--log-y"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --log-y ") and "Traceback" not in err
        assert not out.exists()

    def test_json(self, tmp_path):
        # a .json output is the JSON report; it once held SVG without --format json
        src = self._write_table(tmp_path)
        out = tmp_path / "t.json"
        assert cli_main(["report", "--table", str(src), "--output", str(out)]) == 0
        rows = ResultTable.from_csv(src).rows
        assert json.loads(out.read_text())["rows"] == [dict(r) for r in rows]

    def test_keeps_runtimes_read(self, tmp_path):
        # a table written with --timings keeps its runtimes in the report
        t = ResultTable()
        t.add("wgs", 0.0, 1.0, 0.0, 2, 1.25)
        t.add("wgs", 5.0, 0.5, 0.0, 2, 0.75)
        src, out = tmp_path / "t.csv", tmp_path / "out.json"
        t.to_csv(src, include_runtime=True)
        assert cli_main(["report", "--table", str(src), "--output", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["runtime_s"] for r in rows] == [1.25, 0.75]


class TestFileErrors:
    """A file that cannot be read or written is an error line and exit 1,
    not a traceback."""

    TABLES = {
        "malformed-header": "method,point\nwgs,0.0\n",
        "malformed-row": ",".join(ResultTable.CSV_COLUMNS) + "\nwgs,0.0,1.0\n",
        "no-rows": ",".join(ResultTable.CSV_COLUMNS) + "\n",
        "all-failed": ",".join(ResultTable.CSV_COLUMNS)
                      + "\nwgs,4.0,Failed,1.0,2,0.0\nrss,4.0,Failed,0.5,2,0.0\n",
    }

    @staticmethod
    def _fails_cleanly(capsys, argv):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("kind", ["missing", *TABLES])
    def test_report_bad_table(self, tmp_path, capsys, kind):
        table = tmp_path / "t.csv"
        if kind != "missing":
            table.write_text(self.TABLES[kind])
        out = tmp_path / "plot.svg"
        err = self._fails_cleanly(capsys, ["report", "--table", str(table),
                                           "--output", str(out)])
        assert str(table) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "estimate", "benchmark", "report"])
    def test_unwritable_output(self, scene_path, tmp_path, capsys, command):
        out = str(tmp_path / "no_such_dir" / "out")
        if command == "benchmark":
            cfg = tmp_path / "bench.json"
            cfg.write_text(json.dumps(dict(TestBenchmark.CONFIG, methods=["rss"])))
            argv = ["benchmark", "--config", str(cfg)]
        elif command == "report":
            table = tmp_path / "t.csv"
            table.write_text(self.TABLES["all-failed"].replace("Failed", "1.0"))
            argv = ["report", "--table", str(table)]
        else:
            flag = "--config" if command == "simulate" else "--input"
            argv = [command, flag, str(scene_path)]
        err = self._fails_cleanly(capsys, [*argv, "--output", out])
        assert "no_such_dir" in err


class TestArgHandling:
    def test_no_command(self, capsys):
        assert cli_main([]) == 1

    def test_help_is_success(self, capsys):
        assert cli_main(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 1
