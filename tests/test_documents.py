"""Every document kind survives a round trip through JSON text.

Each case builds a seeded random object, writes it, passes the document
through ``json.dumps``/``json.loads`` (CSV: a file), reads it back, and
compares every field of the result with the original, arrays bit for bit.
"""

import dataclasses
import json

import numpy as np
import pytest

from odeaug.augment import FittedPair, fitted_pair_from_dict, fitted_pair_to_dict
from odeaug.benchmark import BenchmarkConfig, LstmSettings, config_to_dict
from odeaug.control import (PairFeatures, build_profile, profile_from_dict,
                            profile_to_dict, segment_control)
from odeaug.lstm import (PredictorConfig, init_network, network_from_dict,
                         network_to_dict)
from odeaug.ode import (FitConfig, OdeParams, PsoConfig, SgdConfig,
                        params_from_dict, params_to_dict)
from odeaug.scoring import (fit_gaussian, log_likelihood, scorer_from_dict,
                            scorer_to_dict)
from odeaug.series import TimeSeries, read_csv, write_csv


def assert_same(a, b, where="doc"):
    """Field-by-field equality; arrays must match in dtype and bits."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype, where
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), where
    elif isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), where
        for key in a:
            assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    else:
        assert type(a) is type(b) and a == b, (where, a, b)


def through_json(doc):
    return json.loads(json.dumps(doc))


def random_windows(rng):
    cuts = np.sort(rng.choice(np.arange(1, 200), size=2, replace=False))
    bounds = [0, int(cuts[0]), int(cuts[1]), 200]
    return OdeParams([(s, e, tuple(rng.normal(size=3)))
                      for s, e in zip(bounds, bounds[1:])])


def two_state_series(rng, n=300):
    u = np.empty(n)
    pos, high = 0, bool(rng.random() < 0.5)
    while pos < n:
        dur = int(rng.integers(10, 60))
        u[pos:pos + dur] = rng.uniform(0.7, 1.0) if high else rng.uniform(0.1, 0.3)
        pos += dur
        high = not high
    return TimeSeries(["control", "response"], 0.1,
                      np.column_stack([u, rng.normal(size=n)]))


def ode_model(rng, tmp_path):
    params = random_windows(rng)
    doc = through_json(params_to_dict(params, rmse=0.5))
    back = params_from_dict(doc)
    assert (doc["structure"], doc["rmse"]) == ("linear1", 0.5)
    assert_same(params, back)


def fitted_pair(rng, tmp_path):
    pair = FittedPair(PairFeatures(*(float(v) for v in rng.uniform(1, 50, 4))),
                      random_windows(rng), float(rng.normal()))
    doc = through_json(
        fitted_pair_to_dict(pair, rmse=0.5, sample_period=0.1))
    back = fitted_pair_from_dict(doc)
    assert (doc["structure"], doc["rmse"], doc["sample_period"]) == (
        "linear1", 0.5, 0.1)
    assert_same(pair, back)


def control_profile(rng, tmp_path):
    segmentations = [segment_control(two_state_series(rng), "control")
                     for _ in range(3)]
    profile = build_profile(segmentations, bins=int(rng.integers(2, 12)))
    assert_same(profile, profile_from_dict(through_json(profile_to_dict(profile))))


def single_state_control_profile(rng, tmp_path):
    # every source holds one state, so the other state's histograms are None
    high = bool(rng.random() < 0.5)
    segmentations = []
    for _ in range(2):
        u = rng.uniform(0.7, 1.0, 50) if high else rng.uniform(0.1, 0.3, 50)
        series = TimeSeries(["control"], 0.1, u[:, None])
        segmentations.append(segment_control(series, "control", 0.5))
    profile = build_profile(segmentations, bins=int(rng.integers(2, 12)))
    assert profile.single_state == ("high" if high else "low")
    missing = "low" if high else "high"
    assert profile.duration_hists[missing] is None
    assert profile.level_hists[missing] is None
    assert_same(profile, profile_from_dict(through_json(profile_to_dict(profile))))


def network(rng, tmp_path):
    config = PredictorConfig(
        input_channels=("control", "response"), predicted_channels=("response",),
        layer_sizes=(5, 3), prediction_length=2, learning_rate=0.003, epochs=17,
        clip_norm=2.5, seed=int(rng.integers(1000)), tbptt_length=40,
        series_batch_size=3, patience=4, val_fraction=0.2,
        norm_mean={"control": float(rng.normal()), "response": float(rng.normal())},
        norm_std={"control": float(rng.uniform(0.5, 2)),
                  "response": float(rng.uniform(0.5, 2))},
    )
    net = init_network(config, rng)
    back_net, back_config = network_from_dict(
        through_json(network_to_dict(net, config)))
    assert_same(net, back_net)
    assert_same(config, back_config)


def scorer(rng, tmp_path):
    fitted = fit_gaussian(rng.normal(size=(50, 4)), ridge=float(rng.uniform(0, 1e-3)))
    fitted.threshold = float(rng.normal())
    back = scorer_from_dict(through_json(scorer_to_dict(fitted)))
    assert_same(fitted, back)
    e = rng.normal(size=4)
    assert log_likelihood(back, e) == log_likelihood(fitted, e)


def benchmark_config(rng, tmp_path):
    cut = int(rng.integers(50, 450))
    config = BenchmarkConfig(
        seed=int(rng.integers(1000)),
        n_small=int(rng.integers(1, 20)),
        base_params=(2.5, 0.4, 0.2),
        ridge=float(rng.uniform(0, 1e-3)),
        threshold_beta=float(rng.uniform(0.5, 2)),
        lstm=LstmSettings(layer_sizes=(8, 4), epochs=int(rng.integers(1, 50))),
        fit=FitConfig(
            drop_fractions=(0.0, 0.15),
            # JSON-style lists with a numpy int: stored as int tuples
            window_bounds=[[0, np.int64(cut)], [cut, 500]],
            use_pso=True,
            sgd=SgdConfig(learning_rate=0.02, epochs=int(rng.integers(1, 900))),
            pso=PsoConfig(swarm_size=12, iterations=7, seed=int(rng.integers(1000))),
        ),
    )
    assert_same(config, BenchmarkConfig(**through_json(config_to_dict(config))))


def list_valued_config(rng, tmp_path):
    # built with lists where the fields hold tuples: the dataclasses
    # normalise them, so the config equals itself after a round trip
    config = BenchmarkConfig(
        base_params=[2.0, 0.3, float(rng.uniform(0, 0.2))],
        duration_range=[20, int(rng.integers(30, 80))],
        low_level_range=[0.1, 0.3], high_level_range=[0.7, 1.0],
        anomaly_kinds=["zero", "wrong_state"],
        lstm=LstmSettings(layer_sizes=[8, int(rng.integers(1, 8))]),
        fit=FitConfig(drop_fractions=[0.1, float(rng.uniform(0, 0.5))]),
    )
    back = BenchmarkConfig(**through_json(config_to_dict(config)))
    assert back == config
    assert_same(config, back)


def csv_series(rng, tmp_path):
    n = int(rng.integers(2, 60))
    series = TimeSeries(["u", "x", "y"], float(rng.choice([0.1, 0.25, 0.05])),
                        rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-5, 5, size=3),
                        rng.random(n) < 0.3)
    path = tmp_path / "series.csv"
    write_csv(series, path)
    assert_same(series, read_csv(path))


KINDS = [ode_model, fitted_pair, control_profile, network, scorer,
         benchmark_config, csv_series, list_valued_config,
         single_state_control_profile]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
def test_document_round_trips_through_json_text(kind, seed, tmp_path):
    kind(np.random.default_rng([seed, KINDS.index(kind)]), tmp_path)


def versioned_documents():
    """(reader, a valid document) for every versioned document kind."""
    rng = np.random.default_rng(0)
    windows = random_windows(rng)
    pair = FittedPair(PairFeatures(10.0, 20.0, 0.9, 0.2), windows, 0.5)
    config = PredictorConfig(
        input_channels=("a",), predicted_channels=("a",), layer_sizes=(2,),
        norm_mean={"a": 0.0}, norm_std={"a": 1.0})
    profile = build_profile([segment_control(two_state_series(rng), "control")])
    return {
        "ode-model": (params_from_dict, params_to_dict(windows)),
        "fitted-pair": (fitted_pair_from_dict, fitted_pair_to_dict(pair)),
        "control-profile": (profile_from_dict, profile_to_dict(profile)),
        "lstm-network": (network_from_dict,
                         network_to_dict(init_network(config), config)),
        "gaussian-scorer": (scorer_from_dict,
                            scorer_to_dict(fit_gaussian(rng.normal(size=(20, 2))))),
    }


@pytest.mark.parametrize("kind", sorted(versioned_documents()))
@pytest.mark.parametrize("version", [99, 0, "two", "1", True, 1.0, None, "drop"])
def test_reader_accepts_only_version_1(kind, version):
    # every reader used to take any version, or none
    reader, doc = versioned_documents()[kind]
    reader(through_json(doc))
    doc = through_json(doc)
    if version == "drop":
        del doc["version"]
    else:
        doc["version"] = version
    with pytest.raises(ValueError, match="version must be 1"):
        reader(doc)
