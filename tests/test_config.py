"""The config boundary: field checks on every config dataclass, and
seeded mutations of the config documents the CLI reads."""

import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from odeaug.anomalies import AnomalyKind, AnomalySpec
from odeaug.augment import AugmentationPlan
from odeaug.benchmark import BenchmarkConfig, LstmSettings
from odeaug.cli import main
from odeaug.errors import check_count, check_real
from odeaug.lstm import PredictorConfig
from odeaug.ode import FitConfig, PsoConfig, SgdConfig

# one valid instance of every config dataclass; AugmentationPlan checks
# neither its profile nor its donors beyond there being one
CONFIGS = [
    BenchmarkConfig(), LstmSettings(), FitConfig(), SgdConfig(), PsoConfig(),
    PredictorConfig(input_channels=("u", "x"), predicted_channels=("x",)),
    AnomalySpec(AnomalyKind.ZERO),
    AugmentationPlan(profile=None, fitted=[None], count=2, length=10, seed=0,
                     sample_period=0.1),
]


def typed_fields(kind):
    return [pytest.param(config, f.name, id=f"{type(config).__name__}.{f.name}")
            for config in CONFIGS for f in dataclasses.fields(config)
            if f.type is kind]


def test_sweep_covers_every_config():
    swept = {type(p.values[0]) for p in typed_fields(int) + typed_fields(float)}
    assert swept == {type(config) for config in CONFIGS}
    assert len(typed_fields(int)) >= 30 and len(typed_fields(float)) >= 15


@pytest.mark.parametrize("config, name", typed_fields(int))
@pytest.mark.parametrize("value", [True, 2.5, "3"])
def test_int_field_rejects_non_integer(config, name, value):
    with pytest.raises(ValueError, match=re.escape(name)):
        dataclasses.replace(config, **{name: value})


@pytest.mark.parametrize("config, name", typed_fields(float))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_float_field_rejects_non_finite(config, name, value):
    with pytest.raises(ValueError, match=re.escape(name)):
        dataclasses.replace(config, **{name: value})


@pytest.mark.parametrize("config, name", typed_fields(bool))
@pytest.mark.parametrize("value", ["false", 1, None])
def test_bool_field_rejects_non_bool(config, name, value):
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(config, **{name: value})


@pytest.mark.parametrize("value, low, ok", [
    (0, 0, True), (3, 1, True), (np.int64(3), 1, True), (-7, -math.inf, True),
    (0, 1, False), (True, 0, False), (3.0, 1, False), (None, 1, False),
])
def test_check_count(value, low, ok):
    if ok:
        check_count("n", value, low)
    else:
        with pytest.raises(ValueError, match="n must be an integer"):
            check_count("n", value, low)


@pytest.mark.parametrize("value, bounds, ok", [
    (0.0, dict(low=0), True), (1, dict(low=0, high=1), True),
    (np.float64(0.5), dict(low=0, high=1, low_open=True, high_open=True), True),
    (0.0, dict(low=0, low_open=True), False),
    (1.0, dict(high=1, high_open=True), False), (1.5, dict(high=1), False),
    (math.nan, {}, False), (True, {}, False), ("1", {}, False),
])
def test_check_real(value, bounds, ok):
    if ok:
        check_real("x", value, **bounds)
    else:
        with pytest.raises(ValueError, match="x must be a finite number"):
            check_real("x", value, **bounds)


# ---------------------------------------------------------------------------
# seeded mutation fuzz of the config documents

BASES = {
    "gen-data": {
        "seed": 1, "series_length": 80, "n_large": 1, "n_small": 1,
        "n_generated": 1, "n_val_normal": 1, "n_val_anomalous": 1,
        "n_test": 1, "sample_period": 0.1, "param_jitter": 0.1,
        "duration_range": [10, 30], "low_level_range": [0.1, 0.3],
        "base_params": [2.0, 0.3, 0.1], "noise_std_frac": 0.01,
        "anomaly_kinds": ["zero", "noise"], "injections_per_series": 1,
        "anomaly_duration": 5, "ridge": 1e-6, "threshold_beta": 1.0,
        "lstm": {"layer_sizes": [3], "epochs": 2, "learning_rate": 0.01},
        "fit": {"smooth_window": 3, "drop_fractions": [0.1],
                "sgd": {"epochs": 10, "learning_rate": 0.05},
                "pso": {"iterations": 2, "inertia": 0.7}},
    },
    "fit-ode": {
        "seed": 2, "smooth_window": 3, "min_points": 8, "use_pso": True,
        "drop_fractions": [0.05, 0.1], "window_bounds": [[0, 60], [60, 120]],
        "sgd": {"epochs": 20, "learning_rate": 0.05, "warmup_fraction": 0.3},
        "pso": {"swarm_size": 4, "iterations": 2, "social": 1.5, "seed": 3},
    },
    "train": {
        "layer_sizes": [3], "prediction_length": 2, "epochs": 2,
        "learning_rate": 0.01, "clip_norm": 1.0, "seed": 4,
        "tbptt_length": 16, "series_batch_size": 2, "patience": 3,
    },
}
MUTATIONS = ("drop", "wrong_type", "non_finite", "bool_count", "list_object",
             "truncate")


def _objects(doc):
    """``doc`` and every object nested in it."""
    yield doc
    for value in doc.values():
        if isinstance(value, dict):
            yield from _objects(value)


def mutate(base, kind, rng):
    """The JSON text of ``base`` after one ``kind`` mutation."""
    doc = copy.deepcopy(base)

    def pick(keep, extra=()):
        """A random (object, key) whose value passes ``keep``."""
        slots = list(extra) + [(obj, key) for obj in _objects(doc)
                               for key, value in obj.items() if keep(value)]
        return slots[rng.integers(len(slots))]

    if kind == "truncate":
        text = json.dumps(doc)
        return text[:rng.integers(len(text))]
    if kind == "drop":
        obj, key = pick(lambda v: True)
        del obj[key]
    elif kind == "wrong_type":
        obj, key = pick(lambda v: True)
        obj[key] = ["x", None, {"a": 1}, [1, "x"]][rng.integers(4)]
    elif kind == "non_finite":
        obj, key = pick(lambda v: type(v) in (int, float))
        obj[key] = [math.nan, math.inf, -math.inf][rng.integers(3)]
    elif kind == "bool_count":
        obj, key = pick(lambda v: type(v) is int)
        obj[key] = bool(rng.integers(2))
    elif kind == "list_object":
        # (None, None) stands for the document itself
        obj, key = pick(lambda v: isinstance(v, dict), [(None, None)])
        if obj is None:
            return json.dumps(list(doc.values()))
        obj[key] = list(obj[key].values())
    return json.dumps(doc)


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "bench"
    config = out.parent / "bench.json"
    config.write_text(json.dumps({**BASES["gen-data"], "series_length": 120}))
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
    return out / "small" / "series_000.csv"


def command_line(command, config, data, out):
    if command == "gen-data":
        return ["gen-data", "--config", config, "--out", out]
    if command == "fit-ode":
        return ["fit-ode", "--data", data, "--control", "control",
                "--dependent", "response", "--config", config, "--out", out]
    return ["train", "--data", data, "--config", config, "--out", out]


@pytest.mark.parametrize("command", sorted(BASES))
def test_base_configs_run(command, fuzz_data, tmp_path):
    config = tmp_path / "base.json"
    config.write_text(json.dumps(BASES[command]))
    argv = command_line(command, str(config), str(fuzz_data),
                        str(tmp_path / "out"))
    assert main(argv) == 0


@pytest.mark.parametrize("command", sorted(BASES))
@pytest.mark.parametrize("kind", MUTATIONS)
def test_mutated_config_exits_cleanly(command, kind, fuzz_data, tmp_path,
                                      capsys):
    # each run exits 0, or exits 1 naming the file; an uncaught exception
    # (a traceback at the command line) fails the test by propagating
    rng = np.random.default_rng([len(command), MUTATIONS.index(kind)])
    config = tmp_path / f"{command}.json"
    codes = []
    for trial in range(4):
        text = mutate(BASES[command], kind, rng)
        config.write_text(text)
        argv = command_line(command, str(config), str(fuzz_data),
                            str(tmp_path / f"out{trial}"))
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1), (text, err)
        if code == 1:
            assert str(config) in err, (text, err)
        codes.append(code)
    if kind in ("non_finite", "bool_count", "list_object", "truncate"):
        assert codes == [1] * 4
