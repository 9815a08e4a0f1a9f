"""Error vectors, Gaussian scorer, threshold selection, detection."""

import json
import math

import numpy as np
import pytest

from odeaug.cli import main
from odeaug.errors import DegenerateLabelsError
from odeaug.experiment import detection_metrics
from odeaug.lstm import PredictorConfig, init_network, network_to_dict, predict
from odeaug.scoring import (GaussianScorer, error_vectors, fit_gaussian,
                            log_likelihood, log_likelihood_batch,
                            scorer_from_dict, scorer_to_dict, select_threshold)
from odeaug.scoring import score_many, score_series
from odeaug.series import TimeSeries, write_csv


def identity_config(**overrides):
    base = dict(
        input_channels=("x",), predicted_channels=("x",),
        layer_sizes=(4,), prediction_length=2, seed=0,
        norm_mean={"x": 0.0}, norm_std={"x": 1.0},
    )
    base.update(overrides)
    return PredictorConfig(**base)


class TestErrorVectors:
    def test_hand_computed_example(self):
        # x(3) = 1.0; prediction from t=2 said 1.1, from t=1 said 0.9
        config = identity_config()
        values = np.array([0.0, 0.0, 0.0, 1.0, 0.0])[:, None]
        series = TimeSeries(["x"], 1.0, values)
        preds = np.zeros((5, 2))
        preds[2, 0] = 1.1   # horizon-1 prediction of x(3), made at t=2
        preds[1, 1] = 0.9   # horizon-2 prediction of x(3), made at t=1
        errors = error_vectors(preds, series, config)
        # row t - l holds point t
        assert errors[3 - 2] == pytest.approx([-0.1, 0.1])

    def test_perfect_predictor_gives_zero_vectors(self):
        config = identity_config(prediction_length=3)
        rng = np.random.default_rng(0)
        x = rng.normal(size=12)
        series = TimeSeries(["x"], 1.0, x[:, None])
        preds = np.zeros((12, 3))
        for t in range(12):
            for i in (1, 2, 3):
                if t + i < 12:
                    preds[t, i - 1] = x[t + i]
        errors = error_vectors(preds, series, config)
        assert np.allclose(errors, 0.0)

    def test_emitted_only_from_horizon_onward(self):
        config = identity_config(prediction_length=2)
        series = TimeSeries(["x"], 1.0, np.zeros((10, 1)))
        errors = error_vectors(np.zeros((10, 2)), series, config)
        assert errors.shape == (10 - 2, 2)

    def test_single_step_horizon_is_plain_residual(self):
        config = identity_config(prediction_length=1)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        series = TimeSeries(["x"], 1.0, x[:, None])
        preds = np.array([[1.5], [2.5], [3.5], [0.0]])
        errors = error_vectors(preds, series, config)
        assert errors.shape == (3, 1)
        assert errors[0, 0] == pytest.approx(2.0 - 1.5)

    def test_multi_channel_layout(self):
        # d = 2, l = 3: column c * l + (i - 1) of row t - l holds the
        # residual of channel c at point t against the prediction made at
        # t - i
        horizon, d, t_len = 3, 2, 9
        config = identity_config(
            input_channels=("x", "y"), predicted_channels=("x", "y"),
            prediction_length=horizon,
            norm_mean={"x": 0.5, "y": -1.0}, norm_std={"x": 2.0, "y": 0.5},
        )
        rng = np.random.default_rng(11)
        series = TimeSeries(["x", "y"], 1.0, rng.normal(size=(t_len, d)))
        preds = rng.normal(size=(t_len, horizon * d))
        actual = (series.values - np.array([0.5, -1.0])) / np.array([2.0, 0.5])
        expected = np.empty((t_len - horizon, horizon * d))
        for t in range(horizon, t_len):
            for c in range(d):
                for i in range(1, horizon + 1):
                    col = c * horizon + (i - 1)
                    expected[t - horizon, col] = actual[t, c] - preds[t - i, col]
        errors = error_vectors(preds, series, config)
        assert errors.shape == (t_len - horizon, horizon * d)
        assert np.array_equal(errors, expected)

    def test_series_shorter_than_horizon_gives_no_rows(self):
        config = identity_config(prediction_length=5)
        series = TimeSeries(["x"], 1.0, np.zeros((4, 1)))
        errors = error_vectors(np.zeros((4, 5)), series, config)
        assert errors.shape == (0, 5)


class TestFitGaussian:
    def test_mean_is_sample_mean(self):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(40, 3))
        scorer = fit_gaussian(mat, ridge=0.0)
        assert np.allclose(scorer.mean, mat.mean(axis=0), atol=1e-12)

    def test_covariance_is_mle_plus_ridge(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(30, 2))
        ridge = 1e-4
        scorer = fit_gaussian(mat, ridge=ridge)
        centered = mat - mat.mean(axis=0)
        mle = centered.T @ centered / mat.shape[0]
        assert np.allclose(scorer.covariance, mle + ridge * np.eye(2), atol=1e-12)

    def test_degenerate_needs_ridge(self):
        e = np.array([1.0, 2.0])
        mat = np.stack([e, e])
        with pytest.raises(ValueError, match="positive definite"):
            fit_gaussian(mat, ridge=0.0)
        scorer = fit_gaussian(mat, ridge=1e-6)
        assert np.isfinite(log_likelihood(scorer, e))

    def test_too_few_vectors_rejected(self):
        with pytest.raises(ValueError, match="two"):
            fit_gaussian(np.array([[1.0]]))

    @pytest.mark.parametrize("ridge", [math.nan, math.inf, -1e-6])
    def test_bad_ridge_rejected(self, ridge):
        mat = np.random.default_rng(4).normal(size=(10, 2))
        with pytest.raises(ValueError, match="ridge"):
            fit_gaussian(mat, ridge=ridge)


class TestLogLikelihood:
    def test_standard_normal_at_mean(self):
        scorer = GaussianScorer(mean=np.zeros(1), covariance=np.eye(1))
        value = log_likelihood(scorer, np.zeros(1))
        assert value == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_identity_covariance_k_dim(self):
        for k in (2, 5):
            scorer = GaussianScorer(mean=np.zeros(k), covariance=np.eye(k))
            assert log_likelihood(scorer, np.zeros(k)) == pytest.approx(
                -(k / 2) * math.log(2 * math.pi), abs=1e-12
            )

    def test_decreasing_in_mahalanobis_distance(self):
        scorer = GaussianScorer(
            mean=np.zeros(2), covariance=np.array([[2.0, 0.3], [0.3, 1.0]])
        )
        direction = np.array([1.0, -0.5])
        values = [log_likelihood(scorer, r * direction) for r in (0, 0.5, 1, 2, 4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dimension_mismatch_rejected(self):
        scorer = GaussianScorer(mean=np.zeros(2), covariance=np.eye(2))
        with pytest.raises(ValueError, match="mismatch"):
            log_likelihood(scorer, np.zeros(3))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(50, 3))
        scorer = fit_gaussian(mat)
        batch = log_likelihood_batch(scorer, mat)
        singles = [log_likelihood(scorer, e) for e in mat]
        assert np.allclose(batch, singles, atol=1e-10)

    def test_density_integrates_to_one_monte_carlo(self):
        # 1-D importance-free check: uniform grid over +-8 sigma
        scorer = GaussianScorer(mean=np.array([0.5]), covariance=np.array([[1.3]]))
        xs = np.linspace(-8, 9, 1_000_001)
        dx = xs[1] - xs[0]
        dens = np.exp(log_likelihood_batch(scorer, xs[:, None]))
        assert abs(dens.sum() * dx - 1.0) < 1e-2


def brute_force_threshold(scores, labels, beta=1.0):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    uniq = np.unique(scores)
    candidates = [-math.inf, math.inf] + [
        0.5 * (a + b) for a, b in zip(uniq[:-1], uniq[1:])
    ]
    best = None
    for tau in candidates:
        pred = scores < tau
        tp = int((pred & labels).sum())
        fp = int((pred & ~labels).sum())
        fn = int((~pred & labels).sum())
        denom = (1 + beta**2) * tp + fp + beta**2 * fn
        f = (1 + beta**2) * tp / denom if denom else 0.0
        key = (f, tp, -tau)
        if best is None or key > best[0]:
            best = (key, tau, f)
    return best[1], best[2]


class TestSelectThreshold:
    def test_separable_case_midpoint(self):
        scores = np.array([-10.0, -9.0, -1.0, -2.0])
        labels = np.array([True, True, False, False])
        tau, f = select_threshold(scores, labels)
        assert tau == pytest.approx(-5.5)
        assert f == pytest.approx(1.0)

    def test_matches_brute_force_on_random_scores(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 1000
            labels = rng.random(n) < 0.2
            scores = rng.normal(size=n) - 2.0 * labels
            tau, f = select_threshold(scores, labels)
            bf_tau, bf_f = brute_force_threshold(scores, labels)
            assert f == pytest.approx(bf_f, abs=1e-12)
            assert tau == pytest.approx(bf_tau)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            select_threshold([1.0, 2.0], [False, False])
        with pytest.raises(DegenerateLabelsError):
            select_threshold([1.0, 2.0], [True, True])

    def test_f_beta_weighting(self):
        rng = np.random.default_rng(9)
        labels = rng.random(500) < 0.3
        scores = rng.normal(size=500) - labels
        tau2, f2 = select_threshold(scores, labels, beta=2.0)
        bf_tau, bf_f = brute_force_threshold(scores, labels, beta=2.0)
        assert f2 == pytest.approx(bf_f, abs=1e-12)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_beta_rejected(self, beta):
        # a NaN beta used to make every F NaN, so tie-breaks alone chose
        with pytest.raises(ValueError, match="beta"):
            select_threshold([0.1, 0.2, 0.3, 0.4], [1, 1, 0, 0], beta=beta)

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            select_threshold([0.1, 0.2, 0.3, math.nan], [1, 1, 1, 0])

    def test_infinite_warmup_scores_allowed(self):
        tau, f = select_threshold([math.inf, -5.0, -1.0, math.inf],
                                  [False, True, False, False])
        assert tau == pytest.approx(-3.0)
        assert f == pytest.approx(1.0)

    def test_tie_prefers_higher_recall(self):
        # F = 2*TP/(cut+positives): cuts 1 and 4 both reach F=2/3, and the
        # cut-4 threshold wins on recall
        scores = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        labels = np.array([True, False, False, True, False])
        tau, f = select_threshold(scores, labels)
        assert f == pytest.approx(2.0 / 3.0)
        assert tau == pytest.approx(3.5)


def detect_argv(tmp_path, net, config, scorer, series):
    """``odeaug detect`` arguments for ``series``, with its input files."""
    net_path, scorer_path = tmp_path / "net.json", tmp_path / "scorer.json"
    net_path.write_text(json.dumps(network_to_dict(net, config)))
    scorer_path.write_text(json.dumps(scorer_to_dict(scorer)))
    write_csv(series, str(tmp_path / "s.csv"))
    return ["detect", "--net", str(net_path), "--scorer", str(scorer_path),
            "--data", str(tmp_path / "s.csv"), "--out", str(tmp_path / "out")]


def detect_flags(tmp_path, net, config, scorer, series):
    """The flag column ``odeaug detect`` writes for ``series``."""
    assert main(detect_argv(tmp_path, net, config, scorer, series)) == 0
    rows = np.loadtxt(tmp_path / "out" / "s.detections.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    return rows[:, 2].astype(bool)


class TestDetect:
    """Flags are ``score < threshold``, as ``detect`` writes them and
    ``detection_metrics`` counts them."""

    def _setup(self):
        config = identity_config(prediction_length=2)
        net = init_network(config)
        rng = np.random.default_rng(4)
        series = TimeSeries(["x"], 1.0, rng.normal(size=(30, 1)))
        preds = predict(net, config, series)
        scorer = fit_gaussian(error_vectors(preds, series, config), ridge=1e-6)
        return config, net, series, scorer

    def test_threshold_required(self, tmp_path, capsys):
        config, net, series, scorer = self._setup()
        assert main(detect_argv(tmp_path, net, config, scorer, series)) == 1
        assert "threshold" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_first_horizon_points_normal(self, tmp_path):
        config, net, series, scorer = self._setup()
        scorer.threshold = 1e9  # flag everything scoreable
        flags = detect_flags(tmp_path, net, config, scorer, series)
        assert not flags[:2].any()
        assert flags[2:].all()
        # the warm-up points score +inf, so they are never flagged
        labeled = series.with_labels(np.ones(len(series), dtype=bool))
        precision, recall, _ = detection_metrics(net, config, scorer, [labeled])
        assert precision == 1.0
        assert recall == pytest.approx((len(series) - 2) / len(series))

    def test_boundary_is_strict(self, tmp_path):
        config, net, series, scorer = self._setup()
        preds = predict(net, config, series)
        scores = log_likelihood_batch(scorer, error_vectors(preds, series, config))
        scorer.threshold = float(scores[0])
        flags = detect_flags(tmp_path, net, config, scorer, series)
        # row 0 scores point l
        assert not flags[config.prediction_length]
        # a point scoring exactly the threshold is not counted as flagged
        labels = np.zeros(len(series), dtype=bool)
        labels[config.prediction_length] = True
        _, recall, _ = detection_metrics(net, config, scorer,
                                         [series.with_labels(labels)])
        assert recall == 0.0

    def test_invariant_under_monotone_transform_of_threshold(self, tmp_path):
        config, net, series, scorer = self._setup()
        preds = predict(net, config, series)
        scores = log_likelihood_batch(scorer, error_vectors(preds, series, config))
        scorer.threshold = float(np.median(scores))
        base = detect_flags(tmp_path, net, config, scorer, series)
        assert base[2:].any() and not base.all()

    def test_score_many_matches_one_series_calls(self):
        config, net, _, scorer = self._setup()
        config.series_batch_size = 2
        rng = np.random.default_rng(5)
        series_list = [TimeSeries(["x"], 1.0, rng.normal(size=(n, 1)))
                       for n in (30, 5, 45)]
        many = score_many(net, config, scorer, series_list)
        assert len(many) == 3
        for series, scores in zip(series_list, many):
            assert np.array_equal(scores,
                                  score_series(net, config, scorer, series))
        assert score_many(net, config, scorer, []) == []

    def test_overflowed_score_is_flagged(self, tmp_path):
        # a finite residual near the float maximum overflows the solve to
        # NaN; the point must score -inf and be flagged, not pass
        config = identity_config(prediction_length=3)
        net = init_network(config)
        values = np.random.default_rng(4).normal(size=(30, 1))
        values[10, 0] = 1.7976931348623157e308
        series = TimeSeries(["x"], 1.0, values)
        scorer = GaussianScorer(mean=np.zeros(3), covariance=0.01 * np.eye(3),
                                threshold=-50.0)
        with np.errstate(all="ignore"):
            scores = score_series(net, config, scorer, series)
            flags = detect_flags(tmp_path, net, config, scorer, series)
        assert scores[10] == -math.inf
        assert flags[10]
        assert not np.isnan(scores).any()


class TestScorerSerialization:
    @pytest.mark.parametrize("key, value", [
        ("mean", [math.nan, 0.0]),
        ("covariance", [[1.0, 0.0], [0.0, math.inf]]),
        ("threshold", math.nan),
    ])
    def test_non_finite_numbers_rejected(self, key, value):
        doc = scorer_to_dict(GaussianScorer(mean=np.zeros(2),
                                            covariance=np.eye(2),
                                            threshold=-1.0))
        doc[key] = value
        with pytest.raises(ValueError, match="finite|NaN"):
            scorer_from_dict(doc)

    def test_infinite_threshold_sentinels_load(self):
        for tau in (-math.inf, math.inf):
            doc = scorer_to_dict(GaussianScorer(mean=np.zeros(2),
                                                covariance=np.eye(2),
                                                threshold=tau))
            assert scorer_from_dict(doc).threshold == tau

    @pytest.mark.parametrize("mean", [5.0, [[0.0, 0.0]]])
    def test_mean_must_be_a_vector(self, mean):
        doc = scorer_to_dict(GaussianScorer(mean=np.zeros(2),
                                            covariance=np.eye(2)))
        doc["mean"] = mean
        with pytest.raises(ValueError, match="1-D"):
            scorer_from_dict(doc)
