"""Region placement and the five injection transforms."""

import numpy as np
import pytest

from odeaug.anomalies import (AnomalyKind, AnomalySpec, inject,
                              pick_injection_regions)
from odeaug.control import segment_control
from odeaug.errors import PlacementError
from odeaug.ode import OdeParams, integrate
from odeaug.series import TimeSeries


def plant_series(n=300, dt=0.1, seed=0, params=(2.0, 0.5, 0.1)):
    """Two-channel normal series driven by a two-state control."""
    rng = np.random.default_rng(seed)
    u = np.empty(n)
    pos, high = 0, False
    while pos < n:
        dur = int(rng.integers(30, 60))
        u[pos:pos + dur] = rng.uniform(0.7, 1.0) if high else rng.uniform(0.1, 0.3)
        pos += dur
        high = not high
    x0 = (params[0] * u[0] + params[2]) / params[1]
    x = integrate(OdeParams.single(params, n), x0, u, dt)
    series = TimeSeries(["u", "x"], dt, np.column_stack([u, x]))
    seg = segment_control(series, "u", 0.5, min_duration=2)
    model = OdeParams.single(params, n)
    return series, seg, model


#: Regions the placement draws on ``plant_series()`` for a spec of each kind
#: with ``count`` regions of ``3 + 2 * count`` samples and seed
#: ``10 * kind.value + count``, for counts 1 to 5.
PINNED_SAMPLE_COUNT_REGIONS = {
    AnomalyKind.ZERO: [
        [(70, 75)],
        [(80, 87), (159, 166)],
        [(151, 160), (222, 231), (240, 249)],
        [(69, 80), (91, 102), (153, 164), (236, 247)],
        [(60, 73), (87, 100), (148, 161), (212, 225), (240, 253)],
    ],
    AnomalyKind.OUT_OF_RANGE: [
        [(89, 94)],
        [(90, 97), (228, 235)],
        [(58, 67), (138, 147), (223, 232)],
        [(76, 87), (92, 103), (137, 148), (230, 241)],
        [(66, 79), (79, 92), (144, 157), (214, 227), (239, 252)],
    ],
    AnomalyKind.WRONG_STATE: [
        [(154, 159)],
        [(70, 77), (239, 246)],
        [(83, 92), (93, 102), (238, 247)],
        [(61, 72), (72, 83), (91, 102), (241, 252)],
        [(64, 77), (90, 103), (144, 157), (224, 237), (238, 251)],
    ],
    AnomalyKind.NOISE: [
        [(196, 201)],
        [(26, 33), (230, 237)],
        [(103, 112), (147, 156), (196, 205)],
        [(32, 43), (79, 90), (193, 204), (245, 256)],
        [(99, 112), (112, 125), (150, 163), (199, 212), (266, 279)],
    ],
    AnomalyKind.DRIFT: [
        [(99, 104)],
        [(153, 160), (249, 256)],
        [(55, 64), (156, 165), (225, 234)],
        [(72, 83), (85, 96), (148, 159), (226, 237)],
        [(60, 73), (88, 101), (139, 152), (218, 231), (243, 256)],
    ],
}


def high_runs(seg):
    """(start, duration) of every HIGH run."""
    return list(zip(seg.starts[seg.high], seg.durations[seg.high]))


class TestPickInjectionRegions:
    def test_high_state_kinds_stay_inside_high_segments(self):
        series, seg, _ = plant_series()
        spec = AnomalySpec(AnomalyKind.ZERO, duration=5, count=3, seed=1)
        regions = pick_injection_regions(seg, spec, len(series))
        highs = [(a, a + d) for a, d in high_runs(seg)]
        assert len(regions) == 3
        for start, end in regions:
            assert end - start == 5
            assert any(start >= a and end <= b for a, b in highs)

    def test_noise_regions_may_cover_low_segments(self):
        series, seg, _ = plant_series()
        spec = AnomalySpec(AnomalyKind.NOISE, duration=30, count=4, seed=3)
        regions = pick_injection_regions(seg, spec, len(series))
        low_mask = ~np.repeat(seg.high, seg.durations)
        touched_low = any(low_mask[start:end].any() for start, end in regions)
        assert touched_low

    def test_infeasible_duration_raises(self):
        series, seg, _ = plant_series()
        spec = AnomalySpec(AnomalyKind.ZERO, duration=1000, count=1, seed=0)
        with pytest.raises(PlacementError):
            pick_injection_regions(seg, spec, len(series))

    @pytest.mark.parametrize("duration", [5, 0.5, None])
    @pytest.mark.parametrize("kind", [AnomalyKind.ZERO, AnomalyKind.OUT_OF_RANGE,
                                      AnomalyKind.WRONG_STATE, AnomalyKind.DRIFT])
    def test_no_high_segment_raises_for_every_duration_form(self, kind,
                                                            duration):
        u = np.full(100, 0.1)
        seg = segment_control(TimeSeries(["u"], 1.0, u[:, None]), "u", 0.5,
                              min_duration=2)
        assert not seg.high.any()
        with pytest.raises(PlacementError):
            pick_injection_regions(seg, AnomalySpec(kind, duration=duration),
                                   len(u))

    def test_regions_do_not_overlap(self):
        series, seg, _ = plant_series(n=600, seed=4)
        spec = AnomalySpec(AnomalyKind.NOISE, duration=20, count=8, seed=2)
        regions = sorted(pick_injection_regions(seg, spec, len(series)))
        for (s1, e1), (s2, e2) in zip(regions, regions[1:]):
            assert e1 <= s2

    def test_fractional_duration_inside_host_segment(self):
        series, seg, _ = plant_series()
        spec = AnomalySpec(AnomalyKind.OUT_OF_RANGE, duration=0.5, count=2, seed=5)
        regions = pick_injection_regions(seg, spec, len(series))
        highs = high_runs(seg)
        for start, end in regions:
            host = [(a, d) for a, d in highs if start >= a and end <= a + d]
            assert host, "region must be inside one high segment"
            assert (end - start) <= host[0][1]

    @pytest.mark.parametrize("kind", [AnomalyKind.ZERO, AnomalyKind.OUT_OF_RANGE,
                                      AnomalyKind.WRONG_STATE])
    def test_default_duration_is_a_fraction_of_a_high_segment(self, kind):
        series, seg, _ = plant_series()
        highs = high_runs(seg)
        for seed in range(20):
            spec = AnomalySpec(kind, count=2, seed=seed)
            for start, end in pick_injection_regions(seg, spec, len(series)):
                host = [(a, d) for a, d in highs if a <= start and end <= a + d]
                assert len(host) == 1
                d = host[0][1]
                assert round(0.25 * d) <= end - start <= round(0.75 * d)

    @pytest.mark.parametrize("kind", [AnomalyKind.NOISE, AnomalyKind.DRIFT])
    def test_default_duration_is_twenty_samples_or_the_host(self, kind):
        # segments shorter and longer than the 20-sample default
        durations = [12, 8, 40, 15, 30, 26, 9, 17]
        u = np.concatenate([np.full(d, 0.9 if i % 2 else 0.1)
                            for i, d in enumerate(durations)])
        seg = segment_control(TimeSeries(["u"], 1.0, u[:, None]), "u", 0.5,
                              min_duration=2)
        hosts = [(a, d) for a, d, h in zip(seg.starts, seg.durations, seg.high)
                 if kind is AnomalyKind.NOISE or h]
        lengths = set()
        for seed in range(30):
            spec = AnomalySpec(kind, seed=seed)
            [(start, end)] = pick_injection_regions(seg, spec, len(u))
            [(_, d)] = [(a, d) for a, d in hosts if a <= start and end <= a + d]
            assert end - start == min(20, d)
            lengths.add(end - start)
        assert 20 in lengths and len(lengths) > 1

    @pytest.mark.parametrize("kind,count,expected", [
        (kind, count, regions)
        for kind, rows in PINNED_SAMPLE_COUNT_REGIONS.items()
        for count, regions in enumerate(rows, start=1)
    ])
    def test_sample_count_placements_are_pinned(self, kind, count, expected):
        # gen-data, the benchmark and every digest pin place sample counts
        series, seg, _ = plant_series()
        spec = AnomalySpec(kind, duration=3 + 2 * count, count=count,
                           seed=10 * kind.value + count)
        assert pick_injection_regions(seg, spec, len(series)) == expected

    def test_sample_count_that_runs_out_of_room_raises(self):
        # three HIGH segments of 49, 30 and 48 samples hold three 30-sample
        # regions, not four
        series, seg, _ = plant_series()
        spec = AnomalySpec(AnomalyKind.DRIFT, duration=30, count=4, seed=0)
        with pytest.raises(PlacementError):
            pick_injection_regions(seg, spec, len(series))

    def test_deterministic_per_seed(self):
        series, seg, _ = plant_series()
        spec = AnomalySpec(AnomalyKind.ZERO, duration=5, count=2, seed=42)
        a = pick_injection_regions(seg, spec, len(series))
        b = pick_injection_regions(seg, spec, len(series))
        assert a == b


class TestInject:
    def test_zero_sets_exact_zeros_with_labels(self):
        series, seg, model = plant_series()
        spec = AnomalySpec(AnomalyKind.ZERO, duration=5, count=1, seed=7)
        out, report = inject(series, seg, model, spec, "x")
        (start, end, kind) = report.regions[0]
        assert kind is AnomalyKind.ZERO
        assert np.all(out.channel("x")[start:end] == 0.0)
        assert out.labels[start:end].all()
        assert out.labels.sum() == end - start

    def test_points_outside_regions_untouched(self):
        series, seg, model = plant_series()
        spec = AnomalySpec(AnomalyKind.NOISE, duration=11, count=2, seed=9)
        out, report = inject(series, seg, model, spec, "x")
        untouched = ~report.mask
        assert np.array_equal(out.channel("x")[untouched],
                              series.channel("x")[untouched])
        assert np.array_equal(out.channel("u"), series.channel("u"))

    def test_out_of_range_magnitude_rule(self):
        # engineered series with known range [20, 90]
        n = 200
        u = np.concatenate([np.full(100, 0.1), np.full(100, 0.9)])
        x = np.linspace(20.0, 90.0, n)
        series = TimeSeries(["u", "x"], 0.1, np.column_stack([u, x]))
        seg = segment_control(series, "u", 0.5, min_duration=2)
        spec = AnomalySpec(AnomalyKind.OUT_OF_RANGE, duration=8, magnitude=0.1,
                           count=1, seed=1)
        out, report = inject(series, seg, None, spec, "x")
        start, end, _ = report.regions[0]
        level = out.channel("x")[start]
        assert level == pytest.approx(97.0) or level == pytest.approx(13.0)
        assert np.allclose(out.channel("x")[start:end], level)

    def test_drift_exceeds_prior_maximum(self):
        series, seg, model = plant_series(seed=2)
        x_max = series.channel("x").max()
        spec = AnomalySpec(AnomalyKind.DRIFT, duration=15, count=1, seed=3)
        out, report = inject(series, seg, model, spec, "x")
        start, end, _ = report.regions[0]
        injected = out.channel("x")[start:end]
        assert injected[-1] > x_max
        added = injected - series.channel("x")[start:end]
        assert np.all(np.diff(added) > 0)

    def test_noise_statistics(self):
        # long constant high segment so a 150-point region fits
        n = 400
        u = np.concatenate([np.full(30, 0.1), np.full(340, 0.9), np.full(30, 0.1)])
        rng = np.random.default_rng(0)
        x = 5.0 + rng.normal(0.0, 0.5, n)
        series = TimeSeries(["u", "x"], 0.1, np.column_stack([u, x]))
        seg = segment_control(series, "u", 0.5, min_duration=2)
        spec = AnomalySpec(AnomalyKind.NOISE, duration=150, magnitude=3.0,
                           count=1, seed=11)
        out, report = inject(series, seg, None, spec, "x")
        start, end, _ = report.regions[0]
        delta = out.channel("x")[start:end] - series.channel("x")[start:end]
        target = 3.0 * series.channel("x").std()
        assert abs(delta.std() - target) / target < 0.25

    def test_wrong_state_follows_low_control_model(self):
        series, seg, model = plant_series(seed=5)
        spec = AnomalySpec(AnomalyKind.WRONG_STATE, duration=20, count=1, seed=13)
        out, report = inject(series, seg, model, spec, "x")
        start, end, _ = report.regions[0]
        low = ~seg.high
        low_level = float(np.sum(seg.levels[low] * seg.durations[low])
                          / seg.durations[low].sum())
        expected = integrate(
            OdeParams.single(model.windows[0][2], end - start),
            series.channel("x")[start], np.full(end - start, low_level),
            series.sample_period,
        )
        assert np.allclose(out.channel("x")[start:end], expected, atol=1e-9)
        # high-state value decays toward the low equilibrium
        assert out.channel("x")[end - 1] < series.channel("x")[end - 1]

    def test_wrong_state_without_model_rejected(self):
        series, seg, _ = plant_series()
        spec = AnomalySpec(AnomalyKind.WRONG_STATE, duration=10, count=1, seed=1)
        with pytest.raises(ValueError, match="model"):
            inject(series, seg, None, spec, "x")

    def test_prior_labels_preserved(self):
        series, seg, model = plant_series(seed=6)
        spec1 = AnomalySpec(AnomalyKind.ZERO, duration=5, count=1, seed=21)
        mid, rep1 = inject(series, seg, model, spec1, "x")
        spec2 = AnomalySpec(AnomalyKind.NOISE, duration=10, count=1, seed=22)
        out, rep2 = inject(mid, seg, model, spec2, "x")
        assert out.labels.sum() >= rep1.mask.sum()
        assert out.labels[rep1.mask].all()
        assert out.labels[rep2.mask].all()

    def test_mask_cardinality_matches_regions(self):
        series, seg, model = plant_series(seed=8)
        spec = AnomalySpec(AnomalyKind.ZERO, duration=6, count=3, seed=31)
        _, report = inject(series, seg, model, spec, "x")
        assert report.mask.sum() == sum(e - s for s, e, _ in report.regions)


class TestAnomalySpecValidation:
    def test_bad_duration(self):
        with pytest.raises(ValueError):
            AnomalySpec(AnomalyKind.ZERO, duration=0)
        with pytest.raises(ValueError):
            AnomalySpec(AnomalyKind.ZERO, duration=1.5)

    def test_numpy_integer_duration_is_a_sample_count(self):
        # a numpy integer was rejected, and a stored one would not pass
        # pick_injection_regions' isinstance(duration, int) dispatch
        series, seg, _ = plant_series()
        spec = AnomalySpec(AnomalyKind.ZERO, duration=np.int64(5), count=3,
                           seed=1)
        assert type(spec.duration) is int
        assert pick_injection_regions(seg, spec, len(series)) == \
            pick_injection_regions(
                seg, AnomalySpec(AnomalyKind.ZERO, duration=5, count=3, seed=1),
                len(series))

    @pytest.mark.parametrize("value", [True, "5", np.float32(0.5)])
    def test_duration_of_another_type_is_rejected(self, value):
        with pytest.raises(ValueError, match="duration"):
            AnomalySpec(AnomalyKind.ZERO, duration=value)

    def test_bad_magnitude(self):
        with pytest.raises(ValueError):
            AnomalySpec(AnomalyKind.NOISE, magnitude=-1.0)

    def test_defaults_resolve(self):
        assert AnomalySpec(AnomalyKind.NOISE).resolved_magnitude() == 3.0
        assert AnomalySpec(AnomalyKind.DRIFT).resolved_magnitude() == 0.1
        assert AnomalySpec(AnomalyKind.OUT_OF_RANGE).resolved_magnitude() == 0.1
