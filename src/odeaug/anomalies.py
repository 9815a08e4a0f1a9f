"""Labeled anomaly injection for dependent-channel series.

Five anomaly kinds are supported, numbered in their conventional order:
dropout to zero, out-of-range level, wrong-state behaviour (the state
responds as if the control were low), additive noise, and upward drift
past the observed maximum.  All kinds except NOISE are placed inside
high-state segments of the control; NOISE may land anywhere.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import PlacementError, check_count, check_real
from .ode import OdeParams, integrate


class AnomalyKind(enum.Enum):
    ZERO = 1
    OUT_OF_RANGE = 2
    WRONG_STATE = 3
    NOISE = 4
    DRIFT = 5


#: Kinds whose regions must lie inside HIGH control segments.
HIGH_STATE_KINDS = frozenset(
    {AnomalyKind.ZERO, AnomalyKind.OUT_OF_RANGE, AnomalyKind.WRONG_STATE,
     AnomalyKind.DRIFT}
)

DEFAULT_MAGNITUDES = {
    AnomalyKind.OUT_OF_RANGE: 0.1,
    AnomalyKind.NOISE: 3.0,
    AnomalyKind.DRIFT: 0.1,
}

#: Segment fraction range used when no duration is configured (ZERO,
#: OUT_OF_RANGE, WRONG_STATE).
DEFAULT_FRACTION_RANGE = (0.25, 0.75)
#: Fixed default duration in samples for NOISE and DRIFT.
DEFAULT_FIXED_DURATION = 20


@dataclass
class AnomalySpec:
    """What to inject: kind, extent, strength, how many, and the seed.

    ``duration`` is an absolute sample count when given as an int, a
    fraction of the host segment when a float in (0, 1), or None for the
    kind's default behaviour.
    """

    kind: AnomalyKind
    duration: object = None
    magnitude: float = None
    count: int = 1
    seed: int = 0

    def __post_init__(self):
        check_count("count", self.count)
        check_count("seed", self.seed, 0)
        if isinstance(self.duration, float):
            check_real("duration", self.duration, 0, 1, low_open=True, high_open=True)
        elif isinstance(self.duration, int):  # check_count rejects a bool
            check_count("duration", self.duration)
        elif self.duration is not None:
            raise ValueError("duration must be int, float, or None")
        if self.magnitude is not None:
            check_real("magnitude", self.magnitude, 0, low_open=True)

    def resolved_magnitude(self):
        if self.magnitude is not None:
            return self.magnitude
        return DEFAULT_MAGNITUDES.get(self.kind)


@dataclass
class InjectionReport:
    """Where anomalies were placed: (start, end, kind) regions plus a mask."""

    regions: list
    mask: np.ndarray


def _draw_fixed_duration_regions(starts_pool, duration, count, rng):
    regions = []
    pool = list(starts_pool)
    for _ in range(count):
        if not pool:
            raise PlacementError(
                "not enough non-overlapping positions for the requested count"
            )
        s = pool[rng.integers(len(pool))]
        regions.append((int(s), int(s) + duration))
        pool = [p for p in pool if abs(p - s) >= duration]
    return regions


def pick_injection_regions(segmentation, spec, series_length, rng=None):
    """Choose ``spec.count`` non-overlapping regions for one anomaly kind.

    High-state kinds place regions inside HIGH segments; NOISE may use the
    whole series.  Fixed durations sample uniformly over all eligible start
    positions; fractional or default durations choose a host segment first.

    Raises :class:`PlacementError` when no feasible placement exists.
    """
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    series_length = int(series_length)
    kind = spec.kind

    if isinstance(spec.duration, int):
        d = spec.duration
        if kind in HIGH_STATE_KINDS:
            hosts = segmentation.high & (segmentation.durations >= d)
            starts = [
                s
                for a, dur in zip(segmentation.starts[hosts],
                                  segmentation.durations[hosts])
                for s in range(a, a + dur - d + 1)
            ]
        else:
            starts = list(range(0, series_length - d + 1))
        if not starts:
            raise PlacementError(
                f"no {'high-state ' if kind in HIGH_STATE_KINDS else ''}segment "
                f"can host a {d}-sample region"
            )
        regions = _draw_fixed_duration_regions(starts, d, spec.count, rng)
        return sorted(regions)

    # fractional / default durations: pick a host segment, then an offset
    eligible = np.flatnonzero(
        segmentation.high | (kind not in HIGH_STATE_KINDS))
    if not eligible.size:
        raise PlacementError("no eligible segment for placement")
    seg_starts = segmentation.starts
    regions = []
    for _ in range(spec.count):
        for _attempt in range(1000):
            if spec.duration is None and kind not in (
                AnomalyKind.NOISE, AnomalyKind.DRIFT
            ):
                frac = rng.uniform(*DEFAULT_FRACTION_RANGE)
            elif spec.duration is None:
                frac = None
            else:
                frac = spec.duration
            i = eligible[rng.integers(len(eligible))]
            start, dur = int(seg_starts[i]), int(segmentation.durations[i])
            if frac is None:
                d = min(DEFAULT_FIXED_DURATION, dur)
            else:
                d = max(1, int(round(frac * dur)))
            s = int(rng.integers(start, start + dur - d + 1))
            if all(s + d <= os or s >= oe for os, oe in regions):
                regions.append((s, s + d))
                break
        else:
            raise PlacementError(
                "could not place all requested regions without overlap"
            )
    return sorted(regions)


def inject(series, segmentation, model, spec, channel):
    """Apply one anomaly spec to a channel; returns (labeled series, report).

    ``model`` is the :class:`OdeParams` fitted to the series and
    is required only for WRONG_STATE, whose regions are replaced by
    integrating the model under a constant low-state control level.
    Channel statistics (range, std) are taken over points not already
    labeled anomalous, so repeated injections measure the normal signal.
    """
    y = series.channel(channel)
    n = len(series)
    prior = (
        series.labels.copy() if series.labels is not None else np.zeros(n, dtype=bool)
    )
    rng = np.random.default_rng(spec.seed)
    regions = pick_injection_regions(segmentation, spec, n, rng)

    normal = y[~prior] if (~prior).any() else y
    s_min, s_max = float(np.min(normal)), float(np.max(normal))
    s_range = s_max - s_min
    s_std = float(np.std(normal))
    magnitude = spec.resolved_magnitude()

    kind = spec.kind
    if kind is AnomalyKind.WRONG_STATE and model is None:
        raise ValueError("WRONG_STATE injection requires a fitted ODE model")

    out = y.copy()
    for start, end in regions:
        d = end - start
        if kind is AnomalyKind.ZERO:
            out[start:end] = 0.0
        elif kind is AnomalyKind.OUT_OF_RANGE:
            high_side = rng.random() < 0.5
            level = s_max + magnitude * s_range if high_side else \
                s_min - magnitude * s_range
            out[start:end] = level
        elif kind is AnomalyKind.WRONG_STATE:
            low = ~segmentation.high
            if not low.any():
                raise ValueError("segmentation has no LOW segments to imitate")
            durations = segmentation.durations[low]
            low_level = float(
                np.sum(segmentation.levels[low] * durations) / durations.sum()
            )
            ctrl = np.full(d, low_level)
            out[start:end] = integrate(
                _shift_params(model, start), y[start], ctrl, series.sample_period
            )
        elif kind is AnomalyKind.NOISE:
            out[start:end] = out[start:end] + rng.normal(0.0, magnitude * s_std, d)
        elif kind is AnomalyKind.DRIFT:
            target = s_max + magnitude * s_range
            delta = target - y[end - 1]
            out[start:end] = y[start:end] + np.linspace(delta / d, delta, d)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown anomaly kind {kind}")

    mask = np.zeros(n, dtype=bool)
    for start, end in regions:
        mask[start:end] = True
    labeled = series.with_channel(channel, out).with_labels(prior | mask)
    report = InjectionReport(
        regions=[(start, end, kind) for start, end in regions], mask=mask
    )
    return labeled, report


def _shift_params(params, offset):
    """Re-index window parameters so integration can start mid-series."""
    windows = []
    pos = 0
    for start, end, p in params.windows:
        s = max(start - offset, pos)
        e = end - offset
        if e > s:
            windows.append((s, e, p))
            pos = e
    if not windows:
        windows = [(0, 1, params.windows[-1][2])]
    return OdeParams(windows)
