"""Command-line pipeline: exit codes, manifests, determinism, handoff."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from odeaug import cli, experiment
from odeaug.anomalies import AnomalyKind, AnomalySpec, pick_injection_regions
from odeaug.cli import main
from odeaug.control import segment_control
from odeaug.series import TimeSeries, read_csv, write_csv


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def bench_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "bench.json"
    path.write_text(json.dumps({
        "seed": 3,
        "series_length": 200,
        "n_large": 3,
        "n_small": 3,
        "n_generated": 3,
        "n_val_normal": 2,
        "n_val_anomalous": 3,
        "n_test": 3,
        "anomaly_duration": 8,
        "lstm": {"layer_sizes": [6], "epochs": 3, "patience": 100},
        "fit": {"sgd": {"epochs": 60}},
    }))
    return str(path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, bench_config):
    out = tmp_path_factory.mktemp("data") / "bench"
    assert run("gen-data", "--config", bench_config, "--out", str(out)) == 0
    return str(out)


def tree_bytes(root):
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in sorted(files):
            full = os.path.join(base, name)
            rel = os.path.relpath(full, root)
            out[rel] = open(full, "rb").read()
    return out


class TestGenData:
    def test_outputs_and_manifest(self, data_dir):
        for sub in ("large", "small", "val_normal", "val_anomalous", "test"):
            assert os.path.isdir(os.path.join(data_dir, sub))
        manifest = json.load(open(os.path.join(data_dir, "manifest.json")))
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 3
        assert manifest["outputs"]
        series = read_csv(os.path.join(data_dir, "test", "series_000.csv"))
        assert series.labels is not None

    def test_rerun_is_byte_identical(self, tmp_path, bench_config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("gen-data", "--config", bench_config, "--seed", "7",
                   "--out", str(a)) == 0
        assert run("gen-data", "--config", bench_config, "--seed", "7",
                   "--out", str(b)) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_refuses_overwrite_without_force(self, tmp_path, bench_config):
        out = tmp_path / "d"
        assert run("gen-data", "--config", bench_config, "--out", str(out)) == 0
        assert run("gen-data", "--config", bench_config, "--out", str(out)) == 1
        assert run("gen-data", "--config", bench_config, "--out", str(out),
                   "--force") == 0


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run("frobnicate") == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag_exits_2(self):
        assert run("gen-data") == 2

    def test_no_subcommand_exits_2(self):
        assert run() == 2

    @pytest.mark.parametrize("duration", ["inf", "nan", "0", "2.5", "-3"])
    def test_bad_inject_duration_exits_2(self, duration, capsys):
        # an infinite duration used to escape argparse as an OverflowError
        assert run("inject", "--data", "in.csv", "--channel", "x",
                   "--control", "u", "--kind", "zero", "--duration", duration,
                   "--out", "out.csv") == 2
        assert "duration" in capsys.readouterr().err


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, data_dir):
    """fit-ode + synth-control + augment + train + threshold handoff chain."""
    root = tmp_path_factory.mktemp("artifacts")
    small = os.path.join(data_dir, "small")
    models = []
    for i, name in enumerate(sorted(os.listdir(small))):
        model = root / f"model_{i}.json"
        assert run(
            "fit-ode", "--data", os.path.join(small, name),
            "--control", "control", "--dependent", "response",
            "--seed", str(10 + i), "--out", str(model),
        ) == 0
        models.append(str(model))
    profile = root / "profile.json"
    assert run("synth-control", "--data", small, "--channel", "control",
               "--out", str(profile)) == 0
    gen_dir = root / "generated"
    assert run(
        "augment", "--profile", str(profile), "--models", *models,
        "--count", "3", "--length", "200", "--seed", "4",
        "--out", str(gen_dir),
    ) == 0
    lstm_config = root / "lstm.json"
    lstm_config.write_text(json.dumps(
        {"layer_sizes": [6], "epochs": 3, "prediction_length": 3,
         "patience": 100}
    ))
    net = root / "network.json"
    assert run(
        "train", "--data", small,
        "--val-normal", os.path.join(data_dir, "val_normal"),
        "--predicted", "response", "--seed", "5",
        "--config", str(lstm_config),
        "--out", str(net),
    ) == 0
    scorer = root / "scorer.json"
    assert run(
        "threshold", "--net", str(net),
        "--normal", os.path.join(data_dir, "val_normal"),
        "--labeled", os.path.join(data_dir, "val_anomalous"),
        "--out", str(scorer),
    ) == 0
    return {"root": root, "models": models, "profile": str(profile),
            "gen_dir": str(gen_dir), "net": str(net), "scorer": str(scorer)}


class TestPipelineHandoff:
    def test_fitted_model_document(self, artifacts):
        doc = json.load(open(artifacts["models"][0]))
        assert doc["kind"] == "ode-model"
        assert doc["structure"] == "linear1"
        assert len(doc["windows"]) == 1
        assert doc["rmse"] >= 0
        assert "features" in doc and "initial_value" in doc

    def test_generated_series_schema(self, artifacts):
        files = sorted(f for f in os.listdir(artifacts["gen_dir"])
                       if f.endswith(".csv"))
        assert len(files) == 3
        series = read_csv(os.path.join(artifacts["gen_dir"], files[0]))
        assert series.channel_names == ["control", "response"]
        assert len(series) == 200
        manifest = json.load(
            open(os.path.join(artifacts["gen_dir"], "manifest.json"))
        )
        assert len(manifest["generated"]) == 3
        assert all("donor_index" in rec for rec in manifest["generated"])

    def test_inject_writes_labeled_csv(self, artifacts, data_dir, tmp_path):
        src = os.path.join(data_dir, "small", "series_000.csv")
        out = tmp_path / "labeled.csv"
        assert run(
            "inject", "--data", src, "--channel", "response",
            "--control", "control", "--kind", "zero", "--duration", "6",
            "--seed", "2", "--model", artifacts["models"][0],
            "--out", str(out),
        ) == 0
        series = read_csv(out)
        assert series.labels is not None and series.labels.sum() == 6
        manifest = json.load(open(str(out) + ".manifest.json"))
        assert manifest["regions"][0]["kind"] == "zero"

    def test_inject_fractional_duration(self, data_dir, tmp_path):
        src = os.path.join(data_dir, "small", "series_000.csv")
        out = tmp_path / "labeled.csv"
        assert run(
            "inject", "--data", src, "--channel", "response",
            "--control", "control", "--kind", "zero", "--duration", "0.5",
            "--count", "2", "--seed", "2", "--out", str(out),
        ) == 0
        manifest = json.load(open(str(out) + ".manifest.json"))
        assert manifest["config"]["duration"] == 0.5
        series = read_csv(src)
        expected = pick_injection_regions(
            segment_control(series, "control"),
            AnomalySpec(AnomalyKind.ZERO, duration=0.5, count=2, seed=2),
            len(series))
        assert [(r["start"], r["end"]) for r in manifest["regions"]] == expected
        assert read_csv(out).labels.sum() == sum(e - s for s, e in expected)

    def test_detect_and_evaluate(self, artifacts, data_dir, tmp_path):
        det_dir = tmp_path / "detections"
        assert run(
            "detect", "--net", artifacts["net"], "--scorer", artifacts["scorer"],
            "--data", os.path.join(data_dir, "test"), "--out", str(det_dir),
        ) == 0
        files = sorted(os.listdir(det_dir))
        assert any(f.endswith(".detections.csv") for f in files)
        first = [f for f in files if f.endswith(".detections.csv")][0]
        header = open(os.path.join(det_dir, first)).readline().strip()
        assert header == "t,score,flag"

        report = tmp_path / "report.csv"
        assert run(
            "evaluate", "--net", artifacts["net"], "--scorer", artifacts["scorer"],
            "--data", os.path.join(data_dir, "test"),
            "--format", "csv", "--out", str(report),
        ) == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0] == "regime,NS,NP,precision,recall,f_score"
        assert lines[1].startswith("eval,3,600,")

    def test_scorer_has_threshold(self, artifacts):
        doc = json.load(open(artifacts["scorer"]))
        assert doc["kind"] == "gaussian-scorer"
        assert doc["threshold"] is not None

    def test_threshold_with_nan_scores_exits_1(self, artifacts, data_dir,
                                               tmp_path, monkeypatch, capsys):
        real_score_many = experiment.score_many

        def score_many_with_nan(*args):
            scores = real_score_many(*args)
            scores[-1][-1] = math.nan
            return scores

        monkeypatch.setattr(experiment, "score_many", score_many_with_nan)
        out = tmp_path / "scorer.json"
        assert run(
            "threshold", "--net", artifacts["net"],
            "--normal", os.path.join(data_dir, "val_normal"),
            "--labeled", os.path.join(data_dir, "val_anomalous"),
            "--out", str(out),
        ) == 1
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    def test_threshold_with_nan_beta_exits_1(self, artifacts, data_dir,
                                             tmp_path, capsys):
        out = tmp_path / "scorer.json"
        assert run(
            "threshold", "--net", artifacts["net"],
            "--normal", os.path.join(data_dir, "val_normal"),
            "--labeled", os.path.join(data_dir, "val_anomalous"),
            "--beta", "nan", "--out", str(out),
        ) == 1
        assert "beta" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag, value, word", [("--beta", "nan", "beta"),
                                                   ("--ridge", "-1", "ridge")])
    def test_threshold_checks_arguments_before_any_work(
            self, artifacts, data_dir, tmp_path, monkeypatch, capsys,
            flag, value, word):
        calls = []

        def counting(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for name in ("predict_many", "score_many"):
            monkeypatch.setattr(experiment, name,
                                counting(name, getattr(experiment, name)))
        out = tmp_path / "scorer.json"
        assert run(
            "threshold", "--net", artifacts["net"],
            "--normal", os.path.join(data_dir, "val_normal"),
            "--labeled", os.path.join(data_dir, "val_anomalous"),
            flag, value, "--out", str(out),
        ) == 1
        assert word in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        assert calls == []

    def test_synth_control_with_nan_threshold_exits_1(self, data_dir, tmp_path,
                                                      capsys):
        out = tmp_path / "profile.json"
        assert run(
            "synth-control", "--data", os.path.join(data_dir, "small"),
            "--channel", "control", "--threshold", "nan", "--out", str(out),
        ) == 1
        assert "threshold" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_synth_control_with_negative_bins_exits_1(self, tmp_path, capsys):
        # one high and one low run give point-mass histograms, so numpy
        # never saw the bin count and the profile recorded bins -3
        data = tmp_path / "two_runs.csv"
        control = np.repeat([1.0, 0.0], 10)
        write_csv(TimeSeries(["control", "response"], 0.1,
                             np.column_stack([control, control])), data)
        out = tmp_path / "profile.json"
        assert run("synth-control", "--data", str(data), "--channel", "control",
                   "--bins", "-3", "--out", str(out)) == 1
        assert "bins" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["two_runs.csv"]

    def test_detect_flags_overflowed_score(self, artifacts, data_dir, tmp_path):
        # read_csv accepts the value (it is finite); against a tight
        # covariance the density overflows to NaN
        doc = json.load(open(artifacts["scorer"]))
        doc["covariance"] = [[0.01 * (i == j) for j in range(doc["dim"])]
                             for i in range(doc["dim"])]
        scorer = tmp_path / "scorer.json"
        scorer.write_text(json.dumps(doc))
        row = 50
        lines = open(os.path.join(data_dir, "test", "series_000.csv")).read()
        lines = lines.splitlines()
        col = lines[0].split(",").index("response")
        fields = lines[row + 1].split(",")
        fields[col] = "1.7976931348623157e308"
        lines[row + 1] = ",".join(fields)
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "detections"
        assert run(
            "detect", "--net", artifacts["net"], "--scorer", str(scorer),
            "--data", str(data), "--out", str(out),
        ) == 0
        detections = (out / "huge.detections.csv").read_text().splitlines()
        assert detections[row + 1].split(",")[1:] == ["-inf", "1"]

    def test_detect_with_nan_threshold_scorer_exits_1(self, artifacts, data_dir,
                                                      tmp_path, capsys):
        doc = json.load(open(artifacts["scorer"]))
        doc["threshold"] = math.nan
        scorer = tmp_path / "scorer.json"
        scorer.write_text(json.dumps(doc))
        out = tmp_path / "detections"
        assert run(
            "detect", "--net", artifacts["net"], "--scorer", str(scorer),
            "--data", os.path.join(data_dir, "test"), "--out", str(out),
        ) == 1
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_detect_keeps_previous_output(self, artifacts, data_dir,
                                                 tmp_path):
        # the third input lacks an input channel: detect must fail before
        # it removes the old output, even under --force
        test_dir = os.path.join(data_dir, "test")
        out = tmp_path / "detections"
        assert run(
            "detect", "--net", artifacts["net"], "--scorer", artifacts["scorer"],
            "--data", test_dir, "--out", str(out),
        ) == 0
        before = tree_bytes(out)
        data = tmp_path / "data"
        data.mkdir()
        for i, name in enumerate(sorted(os.listdir(test_dir))[:3]):
            lines = open(os.path.join(test_dir, name)).read().splitlines()
            if i == 2:
                col = lines[0].split(",").index("control")
                lines = [",".join(f for j, f in enumerate(line.split(","))
                                  if j != col) for line in lines]
            (data / name).write_text("\n".join(lines) + "\n")
        assert run(
            "detect", "--net", artifacts["net"], "--scorer", artifacts["scorer"],
            "--data", str(data), "--out", str(out), "--force",
        ) == 1
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("command", ["detect", "evaluate"])
    def test_scorer_without_threshold_exits_1(self, artifacts, data_dir,
                                              tmp_path, capsys, command):
        doc = json.load(open(artifacts["scorer"]))
        doc["threshold"] = None
        scorer = tmp_path / "scorer.json"
        scorer.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(
            command, "--net", artifacts["net"], "--scorer", str(scorer),
            "--data", os.path.join(data_dir, "test"), "--out", str(out),
        ) == 1
        assert "no threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_evaluate_to_stdout_equals_file(self, artifacts, data_dir,
                                            tmp_path, capsys, fmt):
        args = ["evaluate", "--net", artifacts["net"],
                "--scorer", artifacts["scorer"],
                "--data", os.path.join(data_dir, "test"), "--format", fmt]
        assert run(*args) == 0
        printed = capsys.readouterr().out
        report = tmp_path / "report"
        assert run(*args, "--out", str(report)) == 0
        assert capsys.readouterr().out == ""
        assert printed == report.read_text()
        manifest = json.load(open(str(report) + ".manifest.json"))
        assert manifest["command"] == "evaluate"
        assert manifest["config"] == {"format": fmt}

    def test_detect_on_directory_without_csv_exits_0(self, artifacts,
                                                     tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "detections"
        assert run(
            "detect", "--net", artifacts["net"], "--scorer", artifacts["scorer"],
            "--data", str(empty), "--out", str(out),
        ) == 0
        assert os.listdir(out) == ["manifest.json"]

    def test_wrong_channel_is_runtime_error(self, artifacts, data_dir):
        assert run(
            "fit-ode", "--data", os.path.join(data_dir, "small", "series_000.csv"),
            "--control", "nope", "--dependent", "response",
            "--out", "/tmp/never.json",
        ) == 1

    def test_fit_ode_with_zero_epoch_config_exits_1(self, data_dir, tmp_path,
                                                    capsys):
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"sgd": {"epochs": 0}}))
        out = tmp_path / "model.json"
        assert run(
            "fit-ode", "--data", os.path.join(data_dir, "small", "series_000.csv"),
            "--control", "control", "--dependent", "response",
            "--config", str(config), "--out", str(out),
        ) == 1
        assert "epochs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fit_doc, message", [
        ({"drop_fractions": []}, "drop_fractions"),
        ({"window_bounds": [[0, 50], [80, 200]]}, "window_bounds"),
    ])
    def test_fit_ode_with_invalid_fit_config_exits_1(self, data_dir, tmp_path,
                                                     capsys, fit_doc, message):
        config = tmp_path / "fit.json"
        config.write_text(json.dumps(fit_doc))
        out = tmp_path / "model.json"
        assert run(
            "fit-ode", "--data", os.path.join(data_dir, "small", "series_000.csv"),
            "--control", "control", "--dependent", "response",
            "--config", str(config), "--out", str(out),
        ) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_fit_ode_prints_one_error_line(self, data_dir,
                                                     tmp_path):
        # the iterate stays finite but its loss overflows: numpy must not
        # add warnings to the error line
        config = tmp_path / "fit.json"
        config.write_text(json.dumps(
            {"sgd": {"learning_rate": 0.4, "warmup_fraction": 1,
                     "epochs": 50}}))
        out = tmp_path / "model.json"
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        result = subprocess.run(
            [sys.executable, "-m", "odeaug.cli", "fit-ode",
             "--data", os.path.join(data_dir, "small", "series_000.csv"),
             "--control", "control", "--dependent", "response",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "odeaug fit-ode: error: gradient regression diverged"]
        assert not out.exists()

    def test_augment_with_wrong_arity_model_exits_1(self, artifacts, tmp_path,
                                                    capsys):
        doc = json.load(open(artifacts["models"][0]))
        for window in doc["windows"]:
            window["params"] = window["params"][:2]
        model = tmp_path / "short_model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "generated"
        assert run(
            "augment", "--profile", artifacts["profile"], "--models", str(model),
            "--count", "2", "--length", "100", "--seed", "4", "--out", str(out),
        ) == 1
        assert "expects 3 parameters" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command, document, key", [
        ("augment", "model", "sample_period"),
        ("augment", "model", "windows"),
        ("augment", "profile", "states"),
        ("inject", "model", "windows"),
        ("detect", "net", "config"),
    ])
    def test_document_missing_key_names_file_and_key(
            self, artifacts, data_dir, tmp_path, capsys, command, document,
            key):
        paths = {"model": artifacts["models"][0],
                 "profile": artifacts["profile"], "net": artifacts["net"]}
        doc = json.load(open(paths[document]))
        del doc[key]
        broken = tmp_path / f"broken_{document}.json"
        broken.write_text(json.dumps(doc))
        paths[document] = str(broken)
        out = tmp_path / "out"
        argv = {
            "augment": ["--profile", paths["profile"], "--models",
                        paths["model"], "--count", "2", "--length", "100"],
            "inject": ["--data", os.path.join(data_dir, "small",
                                              "series_000.csv"),
                       "--channel", "response", "--control", "control",
                       "--kind", "wrong_state", "--model", paths["model"]],
            "detect": ["--net", paths["net"], "--scorer", artifacts["scorer"],
                       "--data", os.path.join(data_dir, "test")],
        }[command]
        assert run(command, *argv, "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert str(broken) in err[0] and repr(key) in err[0]
        assert not out.exists()


    @pytest.mark.parametrize("command, document, key, value", [
        ("detect", "net", "layers", [{"w_x": 1, "w_h": 1, "b": 1}]),
        ("detect", "scorer", "mean", 5.0),
        ("augment", "model", "windows", [5]),
        ("inject", "model", "windows", [5]),
        ("augment", "model", "features", [1.0, 2.0, 3.0, 4.0]),
        ("augment", "profile", None, None),
        ("detect", "net", None, None),
    ], ids=["scalar-layer-arrays", "scalar-scorer-mean", "augment-int-window",
            "inject-int-window", "list-features", "bad-json-profile",
            "bad-json-net"])
    def test_malformed_document_names_file_without_traceback(
            self, artifacts, data_dir, tmp_path, capsys, command, document,
            key, value):
        paths = {"model": artifacts["models"][0],
                 "profile": artifacts["profile"], "net": artifacts["net"],
                 "scorer": artifacts["scorer"]}
        broken = tmp_path / f"broken_{document}.json"
        if key is None:
            # the document cut off mid-way is not valid JSON
            text = open(paths[document]).read()
            broken.write_text(text[:len(text) // 2])
        else:
            doc = json.load(open(paths[document]))
            doc[key] = value
            broken.write_text(json.dumps(doc))
        paths[document] = str(broken)
        out = tmp_path / "out"
        argv = {
            "augment": ["--profile", paths["profile"], "--models",
                        paths["model"], "--count", "2", "--length", "100"],
            "inject": ["--data", os.path.join(data_dir, "small",
                                              "series_000.csv"),
                       "--channel", "response", "--control", "control",
                       "--kind", "wrong_state", "--model", paths["model"]],
            "detect": ["--net", paths["net"], "--scorer", paths["scorer"],
                       "--data", os.path.join(data_dir, "test")],
        }[command]
        assert run(command, *argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"odeaug {command}: error: {broken}")
        assert not out.exists()


class TestConfigFiles:
    @pytest.mark.parametrize("command, doc, word", [
        ("gen-data", {"n_small": 2.5}, "n_small"),
        ("gen-data", [1, 2], "JSON object"),
        ("fit-ode", [1, 2], "JSON object"),
        ("train", [1, 2], "JSON object"),
        ("gen-data", {"lstm": [1]}, "lstm"),
        ("gen-data", {"fit": {"sgd": 5}}, "sgd"),
        ("gen-data", {"anomaly_kinds": []}, "anomaly_kinds"),
        ("gen-data", {"anomaly_kinds": "zero"}, "anomaly_kinds"),
        ("gen-data", {"anomaly_kinds": ["foo"]}, "anomaly_kinds"),
        ("gen-data", {"lstm": {"prediction_length": 2.5}}, "prediction_length"),
        ("fit-ode", {"sgd": {"epochs": True}}, "epochs"),
        ("fit-ode", {"use_pso": "false"}, "use_pso"),
    ])
    def test_bad_config_names_file_and_field(self, data_dir, tmp_path, capsys,
                                             command, doc, word):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        data = os.path.join(data_dir, "small", "series_000.csv")
        extra = {"gen-data": [],
                 "fit-ode": ["--data", data, "--control", "control",
                             "--dependent", "response"],
                 "train": ["--data", data]}[command]
        assert run(command, *extra, "--config", str(config),
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert str(config) in err and word in err
        assert "Traceback" not in err
        assert not out.exists()


class TestExperimentCommands:
    def test_experiment_and_curve(self, tmp_path, bench_config):
        exp_dir = tmp_path / "exp"
        code = run("experiment", "--config", bench_config, "--seed", "2",
                   "--regimes", "S(r),S(r)+ODE(s)", "--out", str(exp_dir))
        assert code == 0
        report_csv = (exp_dir / "report.csv").read_text()
        assert "S(r)+ODE(s)" in report_csv
        assert (exp_dir / "report.txt").exists()

        curve_dir = tmp_path / "curve"
        code = run("curve", "--config", bench_config, "--seed", "2",
                   "--fractions", "0,1", "--out", str(curve_dir))
        assert code == 0
        curve_text = (curve_dir / "curve.csv").read_text()
        lines = curve_text.strip().split("\n")
        assert lines[0] == "fraction,f_score"
        assert len(lines) == 3

        # shared seed: curve endpoints equal the report rows
        import csv as _csv

        rows = list(_csv.DictReader(report_csv.splitlines()))
        f_by_regime = {r["regime"]: float(r["f_score"]) for r in rows}
        curve_rows = list(_csv.DictReader(curve_text.splitlines()))
        assert float(curve_rows[0]["f_score"]) == pytest.approx(
            f_by_regime["S(r)"], abs=5e-7)
        assert float(curve_rows[1]["f_score"]) == pytest.approx(
            f_by_regime["S(r)+ODE(s)"], abs=5e-7)

    @pytest.mark.parametrize("command", ["experiment", "curve"])
    @pytest.mark.parametrize("key, value", [("threshold_beta", math.nan),
                                            ("ridge", -1.0)])
    def test_bad_scoring_config_fails_before_training(
            self, tmp_path, monkeypatch, capsys, command, key, value):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the benchmark was built")

        monkeypatch.setattr(cli, "gen_benchmark", must_not_run)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert run(command, "--config", str(config), "--out", str(out)) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "experiment"])
    @pytest.mark.parametrize("key, value", [
        ("duration_range", [0, 0]), ("duration_range", [-3, -1]),
        ("n_small", 2.5), ("n_test", True), ("injections_per_series", -1)])
    def test_bad_benchmark_config_exits_1_before_generating(
            self, tmp_path, monkeypatch, capsys, command, key, value):
        # a zero-length duration range used to loop forever in gen-data
        def must_not_run(*args, **kwargs):
            raise AssertionError("the benchmark was built")

        monkeypatch.setattr(cli, "gen_benchmark", must_not_run)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert run(command, "--config", str(config), "--out", str(out)) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "experiment"])
    def test_bad_lstm_settings_fail_before_any_fit(self, tmp_path, monkeypatch,
                                                   capsys, command):
        fits = []
        real_fit = experiment.fit

        def counting_fit(*args, **kwargs):
            fits.append(args)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(experiment, "fit", counting_fit)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"n_small": 4, "lstm": {"epochs": 0}}))
        out = tmp_path / "out"
        assert run(command, "--config", str(config), "--out", str(out)) == 1
        assert "epochs" in capsys.readouterr().err
        assert not out.exists()
        assert fits == []

    def test_experiment_rerun_byte_identical(self, tmp_path, bench_config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run("experiment", "--config", bench_config, "--seed", "5",
                       "--regimes", "S(r)", "--out", str(out)) == 0
        assert tree_bytes(a) == tree_bytes(b)
