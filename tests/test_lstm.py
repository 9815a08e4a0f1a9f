"""Network forward/backward correctness, training behaviour, serialization."""

import itertools
import math

import numpy as np
import pytest

from odeaug import lstm
from odeaug.errors import InvalidJobError, TrainingDivergedError
from odeaug.lstm import (PredictorConfig, init_network,
                         loss_and_gradients, make_targets, network_from_dict,
                         network_to_dict, predict, predict_many, train,
                         train_many)
from odeaug.lstm import _forward, _sigmoid, _zero_state
from odeaug.series import TimeSeries


def toy_config(**overrides):
    base = dict(
        input_channels=("a", "b"),
        predicted_channels=("b",),
        layer_sizes=(2, 2),
        prediction_length=2,
        seed=3,
    )
    base.update(overrides)
    return PredictorConfig(**base)


def finite_difference_check(config, batch_shape=(2, 5), h=1e-5):
    rng = np.random.default_rng(0)
    net = init_network(config)
    b, t = batch_shape
    x = rng.normal(size=(b, t, len(config.input_channels)))
    targets = rng.normal(size=(b, t, config.output_dim))
    mask = np.ones_like(targets)
    mask[:, -config.prediction_length:, :] = 0.0

    _, grads = loss_and_gradients(net, x, targets, mask)
    worst = 0.0
    for p, g in zip(net.parameters(), grads):
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp, _ = loss_and_gradients(net, x, targets, mask)
            p[idx] = orig - h
            lm, _ = loss_and_gradients(net, x, targets, mask)
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(g[idx]), abs(fd), 1e-8)
            worst = max(worst, abs(g[idx] - fd) / denom)
            it.iternext()
    return worst


class TestGradients:
    def test_bptt_matches_finite_differences_two_layer(self):
        worst = finite_difference_check(toy_config())
        assert worst < 1e-4

    def test_bptt_matches_finite_differences_single_layer(self):
        worst = finite_difference_check(
            toy_config(layer_sizes=(3,), prediction_length=1)
        )
        assert worst < 1e-4

    def test_carried_state_gradient(self):
        # nonzero initial states must not break the backward pass
        config = toy_config(layer_sizes=(2,))
        rng = np.random.default_rng(1)
        net = init_network(config)
        x = rng.normal(size=(1, 4, 2))
        targets = rng.normal(size=(1, 4, config.output_dim))
        mask = np.ones_like(targets)
        h0 = [rng.normal(size=(1, 2))]
        c0 = [rng.normal(size=(1, 2))]
        _, grads = loss_and_gradients(net, x, targets, mask, h0=h0, c0=c0)
        step = 1e-5
        p = net.layers[0].w_h
        g = grads[1]
        orig = p[0, 0]
        p[0, 0] = orig + step
        lp, _ = loss_and_gradients(net, x, targets, mask, h0=h0, c0=c0)
        p[0, 0] = orig - step
        lm, _ = loss_and_gradients(net, x, targets, mask, h0=h0, c0=c0)
        p[0, 0] = orig
        fd = (lp - lm) / (2 * step)
        assert abs(g[0, 0] - fd) / max(abs(fd), 1e-8) < 1e-4


def two_branch_sigmoid(z):
    """The logistic function evaluated on each sign half separately."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_matches_two_branch_form_bit_for_bit(self):
        tiny, sub = np.finfo(float).tiny, 5e-324
        special = np.array([
            0.0, -0.0, 700.0, -700.0, 800.0, -800.0, sub, -sub, tiny / 2,
            -tiny / 2, tiny, -tiny, math.inf, -math.inf, math.nan, -math.nan,
            709.8, 710.0, -745.1, -745.2, 36.9, -36.9,
        ])
        rng = np.random.default_rng(11)
        for z in (np.concatenate([special, rng.normal(scale=20.0, size=4000)]),
                  rng.normal(scale=3.0, size=(5, 8, 64))):
            got, want = _sigmoid(z), two_branch_sigmoid(z)
            assert got.shape == want.shape and got.dtype == want.dtype
            # the uint64 views compare every bit, the sign of 0.0 and NaN too
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        out = _sigmoid(special)
        assert np.array_equal(np.signbit(out), np.signbit(two_branch_sigmoid(special)))
        assert out[0] == out[1] == 0.5
        assert out[4] == 1.0 and out[5] == 0.0
        assert np.isnan(out[14]) and not np.signbit(out[14]) and np.signbit(out[15])


class TestSinglePath:
    def test_chunked_forward_with_carried_state_is_bit_identical(self):
        # training's tbptt loop and the one-pass validation loss rely on this
        config = toy_config(layer_sizes=(16, 8))
        net = init_network(config)
        x = np.random.default_rng(6).normal(size=(4, 23, 2))
        full, _, h_full, c_full = _forward(net, x, *_zero_state(net, 4))
        h, c = _zero_state(net, 4)
        pieces = []
        for t0 in range(0, 23, 5):
            out, _, h, c = _forward(net, x[:, t0:t0 + 5], h, c)
            pieces.append(out)
        assert np.array_equal(np.concatenate(pieces, axis=1), full)
        for a, b in zip(h + c, h_full + c_full):
            assert np.array_equal(a, b)

    def test_all_zero_mask_gives_zero_loss_and_gradients(self):
        config = toy_config()
        net = init_network(config)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 4, 2))
        targets = rng.normal(size=(2, 4, config.output_dim))
        loss, grads = loss_and_gradients(net, x, targets, np.zeros_like(targets))
        assert loss == 0.0
        assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
        assert not any(g.any() for g in grads)


@pytest.mark.parametrize("name, value", [
    ("tbptt_length", 0), ("tbptt_length", 8.0), ("series_batch_size", 0),
    ("series_batch_size", -4), ("series_batch_size", 2.5),
    ("epochs", 0), ("patience", 0), ("val_fraction", 1.0),
    ("val_fraction", 1.5), ("val_fraction", -0.1), ("learning_rate", 0.0),
    ("learning_rate", -1e-3), ("learning_rate", math.inf),
    ("learning_rate", math.nan), ("clip_norm", -1.0), ("clip_norm", math.nan),
])
def test_config_rejects_bad_value(name, value):
    with pytest.raises(ValueError, match=name):
        toy_config(**{name: value})


@pytest.mark.parametrize("name, value, match", [
    ("input_channels", ("a", None), "named by strings"),
    ("predicted_channels", (["b"],), "named by strings"),
    ("norm_mean", [0.0, 0.0], "norm_mean"),
    ("norm_mean", {"a": 0.0}, "norm_mean"),
    ("norm_std", {"b": 1.0}, "norm_std"),
])
def test_config_rejects_bad_channels_and_stats(name, value, match):
    # each was accepted, and prediction failed later with an
    # AttributeError or a KeyError
    with pytest.raises(ValueError, match=match):
        toy_config(**{name: value})


class TestPredict:
    def _series(self, n=30, seed=0):
        rng = np.random.default_rng(seed)
        return TimeSeries(["a", "b"], 0.1, rng.normal(size=(n, 2)))

    def test_zero_network_predicts_zero(self):
        config = toy_config()
        config.norm_mean = {"a": 0.0, "b": 0.0}
        config.norm_std = {"a": 1.0, "b": 1.0}
        net = init_network(config)
        for p in net.parameters():
            p[...] = 0.0
        out = predict(net, config, self._series())
        assert np.allclose(out, 0.0)

    def test_output_shape(self):
        config = toy_config()
        config.norm_mean = {"a": 0.0, "b": 0.0}
        config.norm_std = {"a": 1.0, "b": 1.0}
        net = init_network(config)
        series = self._series(n=40)
        out = predict(net, config, series)
        assert out.shape == (40, config.output_dim)

    def test_deterministic(self):
        config = toy_config()
        config.norm_mean = {"a": 0.1, "b": -0.2}
        config.norm_std = {"a": 1.1, "b": 0.9}
        net = init_network(config)
        series = self._series(n=25, seed=4)
        assert np.array_equal(predict(net, config, series),
                              predict(net, config, series))

    def test_missing_channel_rejected(self):
        config = toy_config()
        config.norm_mean = {"a": 0.0, "b": 0.0}
        config.norm_std = {"a": 1.0, "b": 1.0}
        net = init_network(config)
        series = TimeSeries(["a"], 0.1, np.zeros((10, 1)))
        with pytest.raises(ValueError, match="channels"):
            predict(net, config, series)


class TestMakeTargets:
    def test_layout_and_mask(self):
        x = np.arange(10.0).reshape(5, 2)  # 5 steps, 2 channels
        targets, mask = make_targets(x, prediction_length=2)
        assert targets.shape == (5, 4)
        # channel 0, horizon 1 at column 0; horizon 2 at column 1
        assert targets[0, 0] == x[1, 0]
        assert targets[0, 1] == x[2, 0]
        # channel 1, horizon 1 at column 2
        assert targets[0, 2] == x[1, 1]
        assert mask[3, 1] == 0.0 and mask[3, 0] == 1.0
        assert np.all(mask[4] == 0.0)

    def test_series_shorter_than_the_horizon_has_no_targets(self):
        # the slice stop t_len - i went negative and wrapped to the end
        targets, mask = make_targets(np.array([[1.0], [2.0]]),
                                     prediction_length=3)
        # only step 0 has a target, one step ahead
        assert np.array_equal(targets, [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(mask, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


class TestTrain:
    def _sine_series(self, n=200):
        t = np.arange(n) * 0.05
        return TimeSeries(["s"], 0.05, np.sin(2 * np.pi * t / 4.0)[:, None])

    def test_loss_decreases_ten_fold_on_sine(self):
        config = PredictorConfig(
            input_channels=("s",), predicted_channels=("s",),
            layer_sizes=(16,), prediction_length=3, epochs=500,
            learning_rate=1e-2, seed=0, patience=10**9, val_fraction=0.0,
        )
        _, log = train([self._sine_series()], config)
        assert log.train_losses[0] / log.train_losses[-1] >= 10.0

    def test_seeded_determinism(self):
        def run():
            config = PredictorConfig(
                input_channels=("s",), predicted_channels=("s",),
                layer_sizes=(4,), prediction_length=2, epochs=10, seed=5,
                val_fraction=0.0, patience=10**9,
            )
            net, _ = train([self._sine_series(80)], config)
            return net

        a, b = run(), run()
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_labeled_series_rejected(self):
        series = self._sine_series(50)
        labels = np.zeros(50, dtype=bool)
        labels[3] = True
        bad = series.with_labels(labels)
        config = PredictorConfig(
            input_channels=("s",), predicted_channels=("s",),
            layer_sizes=(4,), prediction_length=2,
        )
        with pytest.raises(ValueError, match="normal"):
            train([bad], config)

    def test_divergence_reported_with_epoch(self):
        config = PredictorConfig(
            input_channels=("s",), predicted_channels=("s",),
            layer_sizes=(4,), prediction_length=1, epochs=50,
            learning_rate=1e200, clip_norm=0.0, seed=0, val_fraction=0.0,
            patience=10**9,
        )
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            train([self._sine_series(60)], config)

    def test_early_stopping_on_validation(self):
        series = [self._sine_series(120) for _ in range(3)]
        config = PredictorConfig(
            input_channels=("s",), predicted_channels=("s",),
            layer_sizes=(8,), prediction_length=2, epochs=200,
            seed=1, patience=3, val_fraction=0.0,
        )
        val = [self._sine_series(120)]
        net, log = train(series, config, val_series=val)
        assert log.best_epoch >= 0
        assert len(log.val_losses) <= 200

    def test_validation_series_shorter_than_the_horizon(self):
        # it used to fail in make_targets with a numpy broadcast error
        config = PredictorConfig(
            input_channels=("s",), predicted_channels=("s",),
            layer_sizes=(3,), prediction_length=3, epochs=2, seed=0)
        _, log = train([self._sine_series(40)], config,
                       val_series=[self._sine_series(2)])
        assert len(log.val_losses) == 2
        assert all(math.isfinite(loss) and loss > 0 for loss in log.val_losses)

    def test_equal_validation_losses_keep_the_earlier_epoch(self, monkeypatch):
        series = [self._sine_series(60) for _ in range(2)]
        val = [self._sine_series(60)]

        def config(epochs):
            return PredictorConfig(
                input_channels=("s",), predicted_channels=("s",),
                layer_sizes=(3,), prediction_length=2, epochs=epochs,
                seed=4, patience=2)

        monkeypatch.setattr(lstm, "_val_losses",
                            lambda params, group, tbptt: [1.0] * len(group))
        net, log = train(series, config(10), val_series=val)
        first, _ = train(series, config(1), val_series=val)
        assert log.best_epoch == 0
        assert log.stopped_early and len(log.val_losses) == 3
        for got, want in zip(net.parameters(), first.parameters()):
            assert np.array_equal(got, want)

    def test_normalization_stats_stored(self):
        config = PredictorConfig(
            input_channels=("s",), predicted_channels=("s",),
            layer_sizes=(4,), prediction_length=1, epochs=2, seed=0,
            val_fraction=0.0, patience=10**9,
        )
        train([self._sine_series(50)], config)
        assert config.norm_mean is not None and "s" in config.norm_mean
        assert config.norm_std["s"] > 0

    def test_normalization_round_trip(self):
        config = toy_config()
        config.norm_mean = {"a": 1.5, "b": -0.5}
        config.norm_std = {"a": 2.0, "b": 0.25}
        rng = np.random.default_rng(2)
        series = TimeSeries(["a", "b"], 0.1, rng.normal(size=(20, 2)))
        z = config.normalize(series, ("a", "b"))
        back = z * np.array([2.0, 0.25]) + np.array([1.5, -0.5])
        assert np.allclose(back, series.values, atol=1e-12)


def _wave(n, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * 0.1
    a = np.sin(t * (0.5 + rng.random())) + 0.1 * rng.normal(size=n)
    b = np.cumsum(rng.normal(size=n)) * 0.05 + a
    return TimeSeries(["a", "b"], 0.1, np.column_stack([a, b]))


def _waves(count, n=80, first=0):
    return [_wave(n, first + i) for i in range(count)]


def _stack_jobs(layer_sizes):
    """Jobs that exercise every way stacked models can differ."""
    base = dict(input_channels=("a", "b"), predicted_channels=("b",),
                layer_sizes=layer_sizes, prediction_length=3, tbptt_length=32,
                epochs=5, patience=100)
    mixed = [_wave(25 + 13 * i, 40 + i) for i in range(7)]
    return [
        # two full batches
        (_waves(16), dict(base, seed=1), _waves(3, first=90)),
        # a full batch, then a one-row batch and a one-row validation set
        (_waves(9), dict(base, seed=2), _waves(1, first=90)),
        # three batches of two rows, the last one row
        (_waves(5), dict(base, seed=3, series_batch_size=2), _waves(2, first=90)),
        # mixed series lengths, within the job and against the others
        (mixed, dict(base, seed=4, series_batch_size=3),
         [_wave(40, 91), _wave(100, 92)]),
        # stops early while the others run on
        (_waves(10), dict(base, seed=5, epochs=40, patience=1,
                          learning_rate=0.3), _waves(2, first=90)),
        # internal validation split
        (_waves(13), dict(base, seed=6), None),
    ]


class TestTrainMany:
    @pytest.mark.parametrize("layer_sizes", [(6,), (5, 3)])
    def test_stack_matches_one_job_runs_bit_for_bit(self, layer_sizes):
        jobs = _stack_jobs(layer_sizes)
        stacked = train_many(
            [(s, PredictorConfig(**kw), val) for s, kw, val in jobs])
        logs = [log for _, log in stacked]
        assert logs[4].stopped_early
        assert len(logs[4].train_losses) < len(logs[0].train_losses)
        for (series, kw, val), (net, log) in zip(jobs, stacked):
            solo_net, solo_log = train(series, PredictorConfig(**kw), val_series=val)
            for a, b in zip(net.parameters(), solo_net.parameters()):
                assert np.array_equal(a, b)
            assert log == solo_log

    def test_one_job_clips_and_the_other_does_not(self, monkeypatch):
        scaled = []
        real_clip = lstm.clip_gradients

        def recording_clip(grads, max_norm):
            clipped = real_clip(grads, max_norm)
            if clipped is not grads:
                # the model without clipping keeps its gradients as they are
                off = max_norm == 0
                assert all(np.array_equal(c[off], g[off])
                           for c, g in zip(clipped, grads))
                scaled.append(off.any())
            return clipped

        jobs = _stack_jobs((6,))[:2]
        configs = [dict(jobs[0][1], clip_norm=0.05), dict(jobs[1][1], clip_norm=0.0)]
        monkeypatch.setattr(lstm, "clip_gradients", recording_clip)
        stacked = train_many([(s, PredictorConfig(**kw), val)
                              for (s, _, val), kw in zip(jobs, configs)])
        assert any(scaled)
        monkeypatch.undo()
        for (series, _, val), kw, (net, log) in zip(jobs, configs, stacked):
            solo_net, solo_log = train(series, PredictorConfig(**kw), val_series=val)
            for a, b in zip(net.parameters(), solo_net.parameters()):
                assert np.array_equal(a, b)
            assert log == solo_log
        unclipped, _ = train(jobs[0][0], PredictorConfig(**jobs[0][1]),
                             val_series=jobs[0][2])
        assert not np.array_equal(stacked[0][0].parameters()[0],
                                  unclipped.parameters()[0])

    @pytest.mark.parametrize("override", [
        {"layer_sizes": (4,)}, {"tbptt_length": 8}, {"prediction_length": 1},
    ])
    def test_jobs_that_cannot_stack_rejected(self, override):
        jobs = _stack_jobs((6,))[:2]
        configs = [PredictorConfig(**jobs[0][1]),
                   PredictorConfig(**dict(jobs[1][1], **override))]
        with pytest.raises(ValueError, match="share") as info:
            train_many([(s, config, val)
                        for (s, _, val), config in zip(jobs, configs)])
        assert info.value.job == 1

    def test_bad_job_named_before_any_training(self):
        jobs = _stack_jobs((6,))[:3]
        labels = np.zeros(80, dtype=bool)
        labels[7] = True
        jobs[2][0][0] = jobs[2][0][0].with_labels(labels)
        configs = [PredictorConfig(**kw) for _, kw, _ in jobs]
        with pytest.raises(InvalidJobError, match="normal") as info:
            train_many([(s, config, val)
                        for (s, _, val), config in zip(jobs, configs)])
        assert info.value.job == 2
        assert configs[0].norm_mean is None

    def test_diverging_job_named(self):
        jobs = _stack_jobs((6,))[:2]
        configs = [PredictorConfig(**jobs[0][1]),
                   PredictorConfig(**dict(jobs[1][1], learning_rate=1e200,
                                          clip_norm=0.0))]
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingDivergedError) as info:
            train_many([(s, config, val)
                        for (s, _, val), config in zip(jobs, configs)])
        assert info.value.job == 1


def _two_row_predict(net, config, series):
    """Predictions from one unchunked pass over the series and a zero row."""
    x = config.normalize(series, config.input_channels)
    x = np.stack([x, np.zeros_like(x)])
    return _forward(net, x, *_zero_state(net, 2))[0][0]


def _normalized_config(**overrides):
    config = toy_config(**overrides)
    config.norm_mean = {"a": 0.1, "b": -0.2}
    config.norm_std = {"a": 1.1, "b": 0.9}
    return config


class TestPredictMany:
    def _assert_rows_match(self, config, series_list):
        net = init_network(config)
        preds = predict_many(net, config, series_list)
        assert len(preds) == len(series_list)
        for series, pred in zip(series_list, preds):
            assert np.array_equal(pred, _two_row_predict(net, config, series))

    @pytest.mark.parametrize("layer_sizes", [(6,), (5, 3)])
    def test_mixed_lengths_match_two_row_passes(self, layer_sizes):
        # seven series in groups of three: the last group holds one
        lengths = [2, 1000, 37, 64, 129, 3, 500]
        config = _normalized_config(layer_sizes=layer_sizes,
                                    series_batch_size=3, tbptt_length=64)
        self._assert_rows_match(
            config, [_wave(n, i) for i, n in enumerate(lengths)])

    @pytest.mark.parametrize("tbptt, lengths", [
        (64, [129]), (64, [129, 70, 2]), (50, [101, 30]), (1, [2, 3, 9]),
    ])
    def test_one_step_chunks_match_two_row_passes(self, tbptt, lengths):
        # the longest series leaves one step past the last full chunk
        config = _normalized_config(layer_sizes=(5, 3), tbptt_length=tbptt)
        self._assert_rows_match(
            config, [_wave(n, i) for i, n in enumerate(lengths)])

    def test_groups_of_one(self):
        config = _normalized_config(layer_sizes=(6,), series_batch_size=1)
        self._assert_rows_match(config, [_wave(n, n) for n in (90, 2, 65)])

    @pytest.mark.parametrize("layer_sizes", [(6,), (5, 3), (16,)])
    def test_rows_do_not_depend_on_grouping_or_chunk_length(self, layer_sizes):
        series_list = [_wave(n, i) for i, n in enumerate(
            [2, 130, 37, 64, 129, 3, 101, 50, 9])]
        net = init_network(_normalized_config(layer_sizes=layer_sizes))
        want = None
        for size, tbptt in itertools.product((1, 2, 3, 7, 8, 32), (1, 7, 50, 64)):
            config = _normalized_config(layer_sizes=layer_sizes,
                                        series_batch_size=size,
                                        tbptt_length=tbptt)
            got = predict_many(net, config, series_list)
            if want is None:
                want = [_two_row_predict(net, config, s) for s in series_list]
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), \
                (size, tbptt)

    def test_empty_list(self):
        config = _normalized_config()
        assert predict_many(init_network(config), config, []) == []

    @pytest.mark.parametrize("bad, match", [
        (TimeSeries(["a"], 0.1, np.zeros((10, 1))), "channels"),
        (TimeSeries(["a", "b"], 0.1, np.zeros((1, 2))), "short"),
    ])
    def test_bad_series_rejected_before_any_forward_pass(self, monkeypatch,
                                                         bad, match):
        def no_forward(*args):
            raise AssertionError("a forward pass ran")

        monkeypatch.setattr(lstm, "_forward", no_forward)
        config = _normalized_config(series_batch_size=1)
        with pytest.raises(ValueError, match=match):
            predict_many(init_network(config), config,
                         [_wave(30, 0), _wave(40, 1), bad])


@pytest.mark.parametrize("lengths, overrides, val_lengths, one_step", [
    ([40], {"val_fraction": 0.0}, None, False),   # a lone series
    # batches of one row, and an internal split leaving one validation row
    ([40, 50, 60], {"series_batch_size": 1}, None, False),
    # a one-row last batch and a one-row validation set
    ([40, 50, 60, 70, 80], {"series_batch_size": 2}, [45], False),
    ([9, 12], {"tbptt_length": 1}, [7], True),
    # the longest series and the validation series end in one-step chunks
    ([65, 40], {"tbptt_length": 32}, [33], True),
])
def test_no_forward_pass_runs_on_one_row(monkeypatch, lengths, overrides,
                                         val_lengths, one_step):
    shapes = []
    real_forward = lstm._forward

    def recording_forward(net, x, h0, c0):
        shapes.append(x.shape)
        return real_forward(net, x, h0, c0)

    monkeypatch.setattr(lstm, "_forward", recording_forward)
    config = PredictorConfig(
        input_channels=("a", "b"), predicted_channels=("b",), layer_sizes=(4,),
        prediction_length=2, epochs=2, patience=100, **overrides)
    series = [_wave(n, i) for i, n in enumerate(lengths)]
    val = None if val_lengths is None else [_wave(n, 50) for n in val_lengths]
    net, _ = train(series, config, val_series=val)
    predict_many(net, config, series)
    predict_many(net, config, series[:1])
    assert shapes and min(shape[-3] for shape in shapes) >= 2
    assert any(shape[-2] == 1 for shape in shapes) == one_step


def _record_forward_calls(monkeypatch):
    """The (rows, steps) of every later forward call, in a list."""
    calls = []
    real_forward = lstm._forward

    def recording_forward(net, x, h0, c0):
        calls.append(x.shape[-3:-1])
        return real_forward(net, x, h0, c0)

    monkeypatch.setattr(lstm, "_forward", recording_forward)
    return calls


class TestPredictManyCalls:
    @pytest.mark.parametrize("lengths, size, tbptt", [
        ([40], 8, 64),
        ([2, 3, 9], 1, 1),
        ([130, 2, 37, 64, 129, 3], 2, 16),
        ([300] * 96, 8, 64),
        ([50 + (7 * i) % 90 for i in range(40)], 2, 4),   # 40 rows > 8
        ([300] * 40 + [3000] + [300] * 55, 8, 64),
    ])
    def test_calls_have_two_rows_and_a_training_chunk_of_row_steps(
            self, monkeypatch, lengths, size, tbptt):
        config = _normalized_config(layer_sizes=(4,), series_batch_size=size,
                                    tbptt_length=tbptt)
        net = init_network(config)
        series = [_wave(n, i) for i, n in enumerate(lengths)]
        calls = _record_forward_calls(monkeypatch)
        predict_many(net, config, series)
        budget = size * tbptt
        assert calls and min(rows for rows, _ in calls) >= 2
        assert max(steps for _, steps in calls) <= tbptt
        assert all(rows * steps <= budget
                   for rows, steps in calls if rows <= budget)
        assert all(steps == 1 for rows, steps in calls if rows > budget)

    def test_long_series_among_short_ones_costs_no_more_than_groups(
            self, monkeypatch):
        lengths = [300] * 40 + [3000] + [300] * 55
        config = _normalized_config(layer_sizes=(4,))
        size = config.series_batch_size
        # groups of series_batch_size in input order, each padded to its
        # longest series and to at least two rows
        groups = [lengths[g0:g0 + size] for g0 in range(0, len(lengths), size)]
        group_row_steps = sum(max(2, len(g)) * max(g) for g in groups)
        calls = _record_forward_calls(monkeypatch)
        predict_many(init_network(config), config,
                     [_wave(n, i) for i, n in enumerate(lengths)])
        assert sum(rows * steps for rows, steps in calls) <= group_row_steps

    @pytest.mark.parametrize("count", [1, 3, 40, 200])
    def test_sets_predict_the_bits_of_one_series_at_a_time(self, count):
        config = _normalized_config(layer_sizes=(16,))
        net = init_network(config)
        series = [_wave(2 + (37 * i) % 150, i) for i in range(count)]
        got = predict_many(net, config, series)
        assert len(got) == count
        assert all(np.array_equal(g, predict(net, config, s))
                   for g, s in zip(got, series))


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        config = toy_config()
        config.norm_mean = {"a": 0.3, "b": 0.6}
        config.norm_std = {"a": 1.2, "b": 0.8}
        net = init_network(config)
        doc = network_to_dict(net, config)
        back_net, back_config = network_from_dict(doc)
        rng = np.random.default_rng(9)
        series = TimeSeries(["a", "b"], 0.1, rng.normal(size=(15, 2)))
        assert np.allclose(predict(net, config, series),
                           predict(back_net, back_config, series), atol=1e-15)

    def test_round_trip_keeps_series_batch_size(self):
        config = toy_config(series_batch_size=3)
        doc = network_to_dict(init_network(config), config)
        _, back_config = network_from_dict(doc)
        assert back_config.series_batch_size == 3

    def test_document_without_series_batch_size_uses_default(self):
        config = toy_config(series_batch_size=3)
        doc = network_to_dict(init_network(config), config)
        del doc["config"]["series_batch_size"]
        _, back_config = network_from_dict(doc)
        assert back_config.series_batch_size == 8

    def test_dimension_check(self):
        config = toy_config()
        net = init_network(config)
        doc = network_to_dict(net, config)
        doc["w_out"] = [[0.0]]
        with pytest.raises(ValueError, match="dimension"):
            network_from_dict(doc)

    @pytest.mark.parametrize("layer, key, shape", [
        (None, "layers", (0,)),
        (0, "w_x", ()),
        (0, "w_h", (4,)),
        (0, "b", (1, 1)),
        (1, "w_x", None),
        (1, "w_h", None),
        (None, "w_out", None),
        (None, "b_out", (2, 1)),
    ])
    def test_array_shapes_chain_through_the_layers(self, layer, key, shape):
        # ``None`` swaps in the transpose, a well-formed array of the
        # wrong shape; the rest are arrays of the wrong rank
        config = toy_config(layer_sizes=(3, 2), prediction_length=3)
        doc = network_to_dict(init_network(config), config)
        node = doc if layer is None else doc["layers"][layer]
        if shape is None:
            node[key] = np.asarray(node[key]).T.tolist()
        else:
            node[key] = np.ones(shape).tolist()
        with pytest.raises(ValueError, match="dimension"):
            network_from_dict(doc)

    @pytest.mark.parametrize("path, value", [
        (("w_out", 0, 0), math.nan),
        (("b_out", 0), math.inf),
        (("layers", 0, "b", 1), math.nan),
        (("layers", 1, "w_h", 0, 0), -math.inf),
        (("config", "norm_mean", "a"), math.nan),
        (("config", "norm_std", "b"), math.inf),
    ])
    def test_non_finite_numbers_rejected(self, path, value):
        config = toy_config()
        config.norm_mean = {"a": 0.3, "b": 0.6}
        config.norm_std = {"a": 1.2, "b": 0.8}
        doc = network_to_dict(init_network(config), config)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValueError, match="non-finite"):
            network_from_dict(doc)
