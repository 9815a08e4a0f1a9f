"""Benchmark generation and the regime experiment harness."""

import math

import numpy as np
import pytest

from odeaug.benchmark import (BenchmarkConfig, LstmSettings, config_from_dict,
                              config_to_dict, gen_benchmark)
from odeaug.experiment import (REGIMES, augmentation_curve, build_generated,
                               run_experiment)
from odeaug.ode import FitConfig, SgdConfig


def tiny_config(seed=0, **overrides):
    """Small-but-complete benchmark for fast structural tests."""
    base = dict(
        seed=seed,
        series_length=200,
        n_large=4,
        n_small=3,
        n_generated=4,
        n_val_normal=2,
        n_val_anomalous=3,
        n_test=3,
        anomaly_duration=8,
        lstm=LstmSettings(layer_sizes=(6,), epochs=4, patience=100),
        fit=FitConfig(sgd=SgdConfig(epochs=60)),
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


class TestGenBenchmark:
    def test_sizes_match_config(self):
        config = tiny_config()
        bench = gen_benchmark(config)
        assert len(bench.large) == config.n_large
        assert len(bench.small) == config.n_small
        assert len(bench.val_normal) == config.n_val_normal
        assert len(bench.val_anomalous) == config.n_val_anomalous
        assert len(bench.test) == config.n_test
        for s in bench.large + bench.small:
            assert len(s) == config.series_length
            assert s.labels is None

    def test_labeled_fraction_near_target(self):
        config = tiny_config(seed=3)
        bench = gen_benchmark(config)
        frac = float(np.mean([s.labels.mean() for s in bench.test]))
        # the expected labeled-point fraction of an anomalous set
        target = (config.injections_per_series * config.anomaly_duration
                  / config.series_length)
        assert abs(frac - target) / target <= 0.5

    def test_seeded_determinism(self):
        a = gen_benchmark(tiny_config(seed=5))
        b = gen_benchmark(tiny_config(seed=5))
        for sa, sb in zip(a.test, b.test):
            assert np.array_equal(sa.values, sb.values)
            assert np.array_equal(sa.labels, sb.labels)
        c = gen_benchmark(tiny_config(seed=6))
        assert not np.array_equal(a.test[0].values, c.test[0].values)

    def test_config_round_trip(self):
        config = tiny_config(seed=9)
        back = config_from_dict(config_to_dict(config))
        assert back == config

    @pytest.mark.parametrize("name, value", [
        ("ridge", math.nan), ("ridge", math.inf), ("ridge", -1.0),
        ("threshold_beta", math.nan), ("threshold_beta", math.inf),
        ("threshold_beta", 0.0),
    ])
    def test_config_rejects_bad_scoring_value(self, name, value):
        with pytest.raises(ValueError, match=name):
            tiny_config(**{name: value})


class TestRunExperiment:
    def test_report_covers_requested_regimes_in_order(self):
        bench = gen_benchmark(tiny_config(seed=1))
        report = run_experiment(bench, ["S(r)", "ODE(s)", "S(r)+ODE(s)"])
        assert [r.regime for r in report.rows] == ["S(r)", "ODE(s)", "S(r)+ODE(s)"]

    def test_all_five_regimes(self):
        bench = gen_benchmark(tiny_config(seed=2))
        report = run_experiment(bench)
        assert [r.regime for r in report.rows] == list(REGIMES)

    def test_combined_counts_are_sums(self):
        config = tiny_config(seed=1)
        bench = gen_benchmark(config)
        report = run_experiment(bench, ["S(r)", "ODE(s)", "S(r)+ODE(s)"])
        small, gen, both = (report.row(r) for r in
                            ("S(r)", "ODE(s)", "S(r)+ODE(s)"))
        assert both.n_series == small.n_series + gen.n_series
        assert both.n_points == small.n_points + gen.n_points
        assert small.n_series == config.n_small
        assert gen.n_series == config.n_generated
        assert small.n_points == sum(len(s) for s in bench.small)

    def test_metric_ranges(self):
        bench = gen_benchmark(tiny_config(seed=4))
        report = run_experiment(bench, ["S(r)"])
        row = report.rows[0]
        assert 0.0 <= row.precision <= 1.0
        assert 0.0 <= row.recall <= 1.0
        assert 0.0 <= row.f_score <= 1.0

    def test_deterministic_with_seed(self):
        config = tiny_config(seed=7)
        a = run_experiment(gen_benchmark(config), ["S(r)", "S(r)+ODE(s)"])
        b = run_experiment(gen_benchmark(config), ["S(r)", "S(r)+ODE(s)"])
        assert a.rows == b.rows

    def test_unknown_regime_rejected(self):
        bench = gen_benchmark(tiny_config())
        with pytest.raises(ValueError, match="unknown"):
            run_experiment(bench, ["M(x)"])

    def test_errors_annotated_with_regime(self):
        config = tiny_config(seed=1, n_val_anomalous=1)
        bench = gen_benchmark(config)
        # strip every anomaly so threshold selection sees one class only
        for s in bench.val_anomalous:
            s.labels[:] = False
        with pytest.raises(RuntimeError, match=r"regime S\(r\)"):
            run_experiment(bench, ["S(r)"])

    def test_stacked_training_failure_names_regime(self):
        bench = gen_benchmark(tiny_config(seed=2))
        labels = np.zeros(len(bench.large[0]), dtype=bool)
        labels[10] = True
        bench.large[0] = bench.large[0].with_labels(labels)
        with pytest.raises(RuntimeError, match=r"regime L\(r\): .*all-normal"):
            run_experiment(bench)


class TestBuildGenerated:
    def test_count_and_shape(self):
        config = tiny_config(seed=3)
        bench = gen_benchmark(config)
        generated, plan = build_generated(bench)
        assert len(generated) == config.n_generated
        for g in generated:
            assert len(g) == config.series_length
            assert g.channel_names == ["control", "response"]

    def test_deterministic(self):
        config = tiny_config(seed=8)
        a, _ = build_generated(gen_benchmark(config))
        b, _ = build_generated(gen_benchmark(config))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.values, sb.values)


class TestAugmentationCurve:
    def test_endpoints_match_experiment_rows(self):
        config = tiny_config(seed=5)
        bench = gen_benchmark(config)
        report = run_experiment(bench, ["S(r)", "S(r)+ODE(s)"])
        curve = augmentation_curve(bench, [0.0, 0.5, 1.0])
        assert curve[0][1] == report.row("S(r)").f_score
        assert curve[-1][1] == report.row("S(r)+ODE(s)").f_score

    def test_output_length_and_fractions(self):
        bench = gen_benchmark(tiny_config(seed=6))
        fractions = [0.0, 0.25, 0.75, 1.0]
        curve = augmentation_curve(bench, fractions)
        assert [q for q, _ in curve] == fractions

    def test_stacked_training_failure_names_fraction(self):
        bench = gen_benchmark(tiny_config(seed=4))
        labels = np.zeros(len(bench.small[1]), dtype=bool)
        labels[10] = True
        bench.small[1] = bench.small[1].with_labels(labels)
        with pytest.raises(RuntimeError, match="regime fraction 0: .*all-normal"):
            augmentation_curve(bench, [0.0, 1.0])

    def test_fraction_validation(self):
        bench = gen_benchmark(tiny_config())
        with pytest.raises(ValueError, match="sorted"):
            augmentation_curve(bench, [0.5, 0.0])
        with pytest.raises(ValueError, match="sorted"):
            augmentation_curve(bench, [0.25, 0.5])
        with pytest.raises(ValueError, match="lie in"):
            augmentation_curve(bench, [0.0, 1.5])
