"""Synthetic pair generation: shape, determinism, donor bounds."""

import numpy as np
import pytest

from odeaug.augment import (AugmentationPlan, FittedPair, generate_series_pair,
                            generate_with_record)
from odeaug.control import PairFeatures, build_profile, segment_control
from odeaug.ode import OdeParams
from odeaug.series import TimeSeries


def make_plan(count=4, length=300, seed=11):
    rng = np.random.default_rng(0)
    series = []
    for _ in range(3):
        y = np.empty(240)
        pos, high = 0, False
        while pos < 240:
            dur = int(rng.integers(20, 50))
            y[pos:pos + dur] = rng.uniform(0.7, 1.0) if high else rng.uniform(0.1, 0.3)
            pos += dur
            high = not high
        series.append(TimeSeries(["u"], 0.1, y[:, None]))
    segs = [segment_control(s, "u", 0.5, min_duration=2) for s in series]
    profile = build_profile(segs)
    fitted = [
        FittedPair(PairFeatures(30, 30, 0.9, 0.2), OdeParams.single((2.0, 0.5, 0.1), 240), 1.0),
        FittedPair(PairFeatures(45, 25, 0.8, 0.15), OdeParams.single((1.8, 0.4, 0.2), 240), 1.2),
    ]
    return AugmentationPlan(
        profile=profile, fitted=fitted, count=count, length=length, seed=seed,
        sample_period=0.1, channel_names=("u", "x"),
    )


class TestGenerateSeriesPair:
    def test_shape_contract(self):
        plan = make_plan(length=300)
        out = generate_series_pair(plan, 0)
        assert len(out) == 300
        assert out.channel_names == ["u", "x"]
        assert out.labels is None

    def test_seeded_determinism(self):
        plan = make_plan()
        a = generate_series_pair(plan, 2)
        b = generate_series_pair(plan, 2)
        assert np.array_equal(a.values, b.values)

    def test_pairs_differ_across_indices(self):
        plan = make_plan()
        a = generate_series_pair(plan, 0)
        b = generate_series_pair(plan, 1)
        assert not np.array_equal(a.values, b.values)

    def test_order_independence(self):
        plan = make_plan(count=3)
        later = generate_series_pair(plan, 2)
        again = generate_series_pair(plan, 2)
        generate_series_pair(plan, 0)
        assert np.array_equal(later.values, again.values)

    def test_control_is_piecewise_constant_alternating(self):
        plan = make_plan(length=400)
        out = generate_series_pair(plan, 1)
        u = out.channel("u")
        change_points = np.nonzero(np.diff(u) != 0)[0]
        # each constant run is one sampled segment; runs must alternate
        # between the two level populations rather than repeat
        levels = np.concatenate([u[change_points], [u[-1]]])
        assert len(levels) >= 2
        high = levels > 0.5
        assert all(a != b for a, b in zip(high, high[1:]))

    def test_equilibria_interval_bound(self):
        # linear1 with positive decay: trajectory stays inside the hull of
        # per-level equilibria, widened by the initial value
        plan = make_plan(length=500)
        for k in range(100):
            plan.count = 100
            out = generate_with_record(plan, k)
            series, record = out
            donor = plan.fitted[record.donor_index]
            p0, p1, p2 = donor.params.windows[0][2]
            u = series.channel("u")
            eq = (p0 * u + p2) / p1
            lo = min(eq.min(), donor.initial_value) - 1e-9
            hi = max(eq.max(), donor.initial_value) + 1e-9
            x = series.channel("x")
            assert x.min() >= lo and x.max() <= hi

    def test_out_of_range_index_rejected(self):
        plan = make_plan(count=2)
        with pytest.raises(ValueError, match="index"):
            generate_series_pair(plan, 2)

    def test_record_identifies_donor(self):
        plan = make_plan()
        _, record = generate_with_record(plan, 0)
        assert 0 <= record.donor_index < len(plan.fitted)
        assert record.seed_key == (plan.seed, 0)


class TestPlanValidation:
    def test_needs_fitted_pairs(self):
        plan = make_plan()
        with pytest.raises(ValueError, match="fitted"):
            AugmentationPlan(
                profile=plan.profile, fitted=[], count=1, length=10, seed=0,
                sample_period=0.1,
            )
