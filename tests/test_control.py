"""Segmentation, histogram profiles, control sampling, donor selection."""

import math

import numpy as np
import pytest

from odeaug.control import (AUTO, PairFeatures, StateSegmentation,
                            build_profile, pair_features, profile_from_dict,
                            profile_to_dict, render_segments, sample_segments,
                            segment_control, select_donor)
from odeaug.series import TimeSeries


def series_of(values, dt=1.0):
    return TimeSeries(["u"], dt, np.asarray(values, dtype=float)[:, None])


def sample(profile, length, seed):
    return sample_segments(profile, length, np.random.default_rng(seed))


def sample_control(profile, length, seed):
    """A control channel drawn from ``profile`` as augmentation draws it."""
    return render_segments(sample(profile, length, seed))


class TestStateSegmentation:
    def test_starts_derive_from_durations(self):
        seg = StateSegmentation([True, False, True], [3, 1, 4], [0.9, 0.1, 0.8])
        assert seg.starts.tolist() == [0, 3, 4]
        assert seg.high.dtype == bool and seg.durations.dtype == np.int64

    @pytest.mark.parametrize("high, durations, levels, match", [
        ([], [], [], "at least one"),
        ([True, False], [2, 0], [0.9, 0.1], "non-empty"),
        ([True, False], [2, -1], [0.9, 0.1], "non-empty"),
        ([True, True], [2, 3], [0.9, 0.8], "differ in state"),
        ([False, True, True], [1, 2, 3], [0.1, 0.9, 0.8], "differ in state"),
        ([True, False], [2, 3], [0.9], "equal-length"),
        ([[True, False]], [[2, 3]], [[0.9, 0.1]], "equal-length"),
    ])
    def test_invalid_runs_rejected(self, high, durations, levels, match):
        with pytest.raises(ValueError, match=match):
            StateSegmentation(high, durations, levels)

    def test_render_repeats_each_level(self):
        seg = StateSegmentation([False, True], [2, 3], [0.1, 0.9])
        assert render_segments(seg).tolist() == [0.1, 0.1, 0.9, 0.9, 0.9]


class TestSegmentControl:
    def test_square_wave(self):
        seg = segment_control(series_of([0, 0, 0, 1, 1, 1]), "u",
                              threshold=0.5, min_duration=2)
        assert seg.high.tolist() == [False, True]
        assert seg.durations.tolist() == [3, 3]

    def test_all_low_single_segment(self):
        seg = segment_control(series_of([0.1] * 8), "u", threshold=0.5,
                              min_duration=2)
        assert seg.high.tolist() == [False]
        assert seg.durations.tolist() == [8]

    def test_short_run_merged_into_longer_neighbour(self):
        seg = segment_control(series_of([0, 0, 1, 0, 0]), "u",
                              threshold=0.5, min_duration=2)
        assert seg.high.tolist() == [False]
        assert seg.durations.tolist() == [5]
        assert seg.levels[0] == pytest.approx(0.2)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        # a NaN threshold used to mark every value LOW: one LOW segment
        with pytest.raises(ValueError, match="threshold"):
            segment_control(series_of([0, 0, 0, 1, 1, 1]), "u",
                            threshold=threshold, min_duration=2)

    def test_auto_threshold_two_clusters(self):
        y = [0.1, 0.12, 0.11, 0.9, 0.92, 0.88, 0.1, 0.11, 0.9, 0.91]
        seg = segment_control(series_of(y), "u", AUTO, min_duration=2)
        assert not seg.degenerate
        assert 0.12 < seg.threshold < 0.88
        assert set(seg.high.tolist()) == {True, False}

    def test_auto_threshold_constant_channel_degenerate(self):
        seg = segment_control(series_of([0.5] * 10), "u", AUTO, min_duration=2)
        assert seg.degenerate
        assert seg.durations.tolist() == [10]

    def test_levels_are_segment_means(self):
        seg = segment_control(series_of([0.0, 0.2, 1.0, 0.8]), "u",
                              threshold=0.5, min_duration=2)
        assert seg.levels.tolist() == pytest.approx([0.1, 0.9])

    def test_reconstruction_matches_threshold_states(self):
        rng = np.random.default_rng(2)
        y = (rng.random(200) > 0.5).astype(float)
        seg = segment_control(series_of(y), "u", threshold=0.5, min_duration=1)
        assert np.array_equal(np.repeat(seg.high, seg.durations), y > 0.5)

    def test_min_duration_respected(self):
        rng = np.random.default_rng(5)
        y = rng.normal(0.5, 0.4, size=300)
        seg = segment_control(series_of(y), "u", threshold=0.5, min_duration=4)
        if seg.durations.size > 1:
            assert seg.durations.min() >= 4

    def test_series_too_short_rejected(self):
        with pytest.raises(ValueError, match="short"):
            segment_control(series_of([0, 1, 0]), "u", 0.5, min_duration=2)


def reference_runs(y, threshold, min_duration):
    """Run merging as a loop that merges the shortest short run into its
    longer neighbour and joins equal-state neighbours after every merge;
    ``[(state, start, duration), ...]``."""
    high = y > threshold
    runs = []
    start = 0
    for i in range(1, len(y) + 1):
        if i == len(y) or high[i] != high[start]:
            runs.append([bool(high[start]), start, i - start])
            start = i

    def coalesce(rs):
        out = []
        for r in rs:
            if out and out[-1][0] == r[0]:
                out[-1][2] += r[2]
            else:
                out.append(list(r))
        return out

    runs = coalesce(runs)
    while len(runs) > 1:
        short = [i for i, r in enumerate(runs) if r[2] < min_duration]
        if not short:
            break
        idx = min(short, key=lambda i: (runs[i][2], i))
        neighbours = [j for j in (idx - 1, idx + 1) if 0 <= j < len(runs)]
        target = max(neighbours, key=lambda j: (runs[j][2], -j))
        lo, hi = min(idx, target), max(idx, target)
        runs[lo] = [runs[target][0], runs[lo][1], runs[lo][2] + runs[hi][2]]
        del runs[hi]
        runs = coalesce(runs)
    return [tuple(r) for r in runs]


def random_channel(rng, kind):
    n = int(rng.integers(10, 80))
    if kind == "random":
        return rng.random(n)
    if kind == "two_level":
        return (rng.random(n) < 0.5) + rng.normal(0.0, 0.2, n)
    if kind == "repeated":
        return np.repeat(rng.random(n // 3 + 1), rng.integers(1, 5))[:n]
    return rng.integers(0, 3, n) * 0.5   # three levels


class TestSegmentControlReference:
    @pytest.mark.parametrize("kind", ["random", "two_level", "repeated",
                                      "three_level"])
    def test_matches_reference_loop(self, kind):
        rng = np.random.default_rng(["random", "two_level", "repeated",
                                     "three_level"].index(kind))
        for _ in range(150):
            y = random_channel(rng, kind)
            min_duration = int(rng.integers(1, 6))
            if len(y) < 2 * min_duration:
                continue
            for threshold in (AUTO, float(rng.uniform(0.2, 0.8))):
                seg = segment_control(series_of(y), "u", threshold,
                                      min_duration=min_duration)
                if seg.degenerate:
                    assert seg.durations.tolist() == [len(y)]
                    continue
                got = list(zip(seg.high.tolist(), seg.starts.tolist(),
                               seg.durations.tolist()))
                assert got == reference_runs(y, seg.threshold, min_duration)
                assert seg.levels.tolist() == [
                    float(np.mean(y[a:a + d]))
                    for a, d in zip(seg.starts, seg.durations)]
                if threshold is not AUTO:
                    assert seg.threshold == threshold


def two_state_profile(high_durs, low_durs, high_levels, low_levels):
    """Profile of one segmentation alternating HIGH and LOW runs, HIGH first."""
    items = []
    for i in range(max(len(high_durs), len(low_durs))):
        if i < len(high_durs):
            items.append((True, high_durs[i], high_levels[i]))
        if i < len(low_durs):
            items.append((False, low_durs[i], low_levels[i]))
    return build_profile([StateSegmentation(*zip(*items))])


class TestBuildProfile:
    def test_point_mass_duration(self):
        profile = two_state_profile([7, 7, 7], [7, 7], [1.0, 1.1, 0.9],
                                    [0.1, 0.2])
        hist = profile.duration_hists["high"]
        assert hist.counts.sum() == 3
        assert np.count_nonzero(hist.counts) == 1
        lo, hi = hist.edges[0], hist.edges[-1]
        assert lo <= 7 <= hi

    def test_histogram_mean_consistency(self):
        durs = [10, 20, 30, 40, 25]
        profile = two_state_profile(durs, [5] * 5, [1.0] * 5, [0.1] * 5)
        hist = profile.duration_hists["high"]
        bin_width = hist.edges[1] - hist.edges[0]
        assert abs(hist.mean() - np.mean(durs)) <= bin_width / 2

    def test_pooling_is_additive(self):
        y = [0.1, 0.1, 0.1, 0.9, 0.9, 0.9]
        seg = segment_control(series_of(y), "u", 0.5, min_duration=2)
        single = build_profile([seg])
        double = build_profile([seg, seg])
        for st in ("high", "low"):
            assert np.array_equal(
                double.duration_hists[st].counts,
                2 * single.duration_hists[st].counts,
            )
        assert double.start_state_counts == (0, 2)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_profile([])

    def test_single_state_flagged(self):
        seg = segment_control(series_of([0.1] * 10), "u", 0.5, min_duration=2)
        profile = build_profile([seg])
        assert profile.single_state == "low"
        assert profile.duration_hists["high"] is None
        assert profile.level_hists["high"] is None

    @pytest.mark.parametrize("value", ["HIGH", "medium", 1])
    def test_unknown_single_state_rejected(self, value):
        seg = segment_control(series_of([0.1] * 10), "u", 0.5, min_duration=2)
        doc = profile_to_dict(build_profile([seg]))
        doc["single_state"] = value
        with pytest.raises(ValueError, match="single_state"):
            profile_from_dict(doc)

    @pytest.mark.parametrize("path, value, match", [
        # a count of 2.7 was truncated to 2
        (("states", "high", "duration", "counts", 0), 2.7, "integers"),
        (("states", "low", "level", "edges", -1), math.inf, "finite"),
        (("states", "low", "duration"), None, "lacks a histogram"),
        (("start_state_counts", "high"), 1.5, "start_state_counts"),
        (("start_state_counts", "low"), -1, "start_state_counts"),
        # inf used to end in an OverflowError
        (("source_count",), math.inf, "source_count"),
    ])
    def test_bad_document_value_rejected(self, path, value, match):
        wave = [0.1] * 6 + [0.9] * 4 + [0.1] * 5 + [0.9] * 7
        seg = segment_control(series_of(wave), "u", 0.5, min_duration=2)
        doc = profile_to_dict(build_profile([seg]))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValueError, match=match):
            profile_from_dict(doc)


class TestSampleControl:
    def _point_mass_profile(self):
        return two_state_profile([7, 7], [7, 7], [1.0, 1.0], [0.1, 0.1])

    def test_point_mass_durations(self):
        profile = self._point_mass_profile()
        seg = sample(profile, 70, seed=3)
        assert np.all(seg.durations[:-1] == 7)
        assert seg.durations.sum() == 70

    def test_states_alternate(self):
        y = [0.1, 0.1, 0.1, 0.9, 0.9, 0.1, 0.1, 0.9, 0.9, 0.9]
        profile = build_profile(
            [segment_control(series_of(y), "u", 0.5, min_duration=2)]
        )
        seg = sample(profile, 200, seed=9)
        assert np.all(seg.high[1:] != seg.high[:-1])

    def test_levels_within_histogram_support(self):
        y = [0.1, 0.15, 0.12, 0.9, 0.95, 0.85] * 4
        profile = build_profile(
            [segment_control(series_of(y), "u", 0.5, min_duration=2)]
        )
        out = sample_control(profile, 300, seed=4)
        lo = profile.level_hists["low"].edges
        hi = profile.level_hists["high"].edges
        assert out.min() >= min(lo[0], hi[0]) - 1e-12
        assert out.max() <= max(lo[-1], hi[-1]) + 1e-12

    def test_seeded_determinism(self):
        profile = self._point_mass_profile()
        a = sample_control(profile, 100, seed=5)
        b = sample_control(profile, 100, seed=5)
        c = sample_control(profile, 100, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_output_length(self):
        profile = self._point_mass_profile()
        assert sample_control(profile, 137, seed=0).shape == (137,)

    def test_single_state_profile_constant_output(self):
        seg = segment_control(series_of([0.2] * 10), "u", 0.5, min_duration=2)
        profile = build_profile([seg])
        out = sample_control(profile, 50, seed=1)
        assert np.allclose(out, out[0])

    def test_sampled_and_observed_controls_share_one_type(self):
        y = [0.1, 0.1, 0.1, 0.9, 0.9, 0.1, 0.1, 0.9, 0.9, 0.9]
        observed = segment_control(series_of(y), "u", 0.5, min_duration=2)
        sampled = sample(build_profile([observed]), 40, seed=2)
        assert type(sampled) is type(observed) is StateSegmentation
        assert sampled.starts[0] == 0
        assert np.isfinite(pair_features(sampled).as_array()).all()


class TestSelectDonor:
    def test_exact_match_wins(self):
        feats = [
            PairFeatures(10, 10, 1.0, 0.1),
            PairFeatures(20, 30, 2.0, 0.3),
            PairFeatures(15, 12, 1.5, 0.2),
        ]
        assert select_donor(feats[1], feats) == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, None, "1", True])
    def test_features_must_be_finite_numbers(self, value):
        with pytest.raises(ValueError, match="mean_low_level"):
            PairFeatures(10, 10, 1.0, value)

    def test_single_training_pair(self):
        f = PairFeatures(10, 10, 1.0, 0.1)
        assert select_donor(PairFeatures(99, 99, 9.9, 9.9), [f]) == 0

    def test_hand_computed_normalized_distance(self):
        training = [PairFeatures(10, 10, 1, 0), PairFeatures(20, 20, 2, 0)]
        synthetic = PairFeatures(12, 12, 1.2, 0)
        assert select_donor(synthetic, training) == 0

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(8)
        base = [PairFeatures(*row) for row in rng.uniform(1, 10, size=(6, 4))]
        query = PairFeatures(*rng.uniform(1, 10, size=4))

        def rescale(f, a, b):
            return PairFeatures(
                a * f.mean_high_duration + b,
                f.mean_low_duration,
                f.mean_high_level,
                f.mean_low_level,
            )

        idx_orig = select_donor(query, base)
        scaled = [rescale(f, 3.7, -2.0) for f in base]
        idx_scaled = select_donor(rescale(query, 3.7, -2.0), scaled)
        assert idx_orig == idx_scaled

    def test_tie_breaks_to_lowest_index(self):
        f = PairFeatures(10, 10, 1.0, 0.1)
        assert select_donor(f, [f, f, f]) == 0

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            select_donor(PairFeatures(1, 1, 1, 1), [])


class TestPairFeatures:
    def test_means_per_state(self):
        y = [0.1, 0.1, 0.9, 0.9, 0.9, 0.9, 0.1, 0.1]
        seg = segment_control(series_of(y), "u", 0.5, min_duration=2)
        f = pair_features(seg)
        assert f.mean_high_duration == pytest.approx(4.0)
        assert f.mean_low_duration == pytest.approx(2.0)
        assert f.mean_high_level == pytest.approx(0.9)
        assert f.mean_low_level == pytest.approx(0.1)

    def test_missing_state_fallback_is_finite(self):
        seg = segment_control(series_of([0.2] * 10), "u", 0.5, min_duration=2)
        f = pair_features(seg)
        assert f.mean_high_duration >= 1.0
        assert np.isfinite(f.as_array()).all()
