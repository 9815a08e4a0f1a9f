"""Labeled anomaly injection for dependent-channel series.

Five anomaly kinds are supported, numbered in their conventional order:
dropout to zero, out-of-range level, wrong-state behaviour (the state
responds as if the control were low), additive noise, and upward drift
past the observed maximum.  All kinds except NOISE are placed inside
high-state segments of the control; NOISE may land anywhere.

One rule places the regions of every duration form: each region is one
uniform draw over the free start positions of every host segment, so
placement fails only when no free position remains
(:func:`pick_injection_regions`).
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
        elif self.duration is not None:
            check_count("duration", self.duration)
            self.duration = int(self.duration)
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


def pick_injection_regions(segmentation, spec, series_length, rng=None):
    """Choose ``spec.count`` non-overlapping regions for one anomaly kind.

    One rule places every duration form.  The hosts are the HIGH segments
    for high-state kinds.  For NOISE they are all segments, or the whole
    series when ``duration`` is a sample count.  A region's length in a
    host is the sample count, or ``max(1, round(frac * host))`` for a
    fraction.  Without a duration, ZERO, OUT_OF_RANGE and WRONG_STATE draw
    one fraction per region from ``DEFAULT_FRACTION_RANGE``, and NOISE and
    DRIFT take ``min(DEFAULT_FIXED_DURATION, host)``.  Each region is one
    uniform draw over every start whose region overlaps no earlier region,
    in host order and then start order, so a longer host weighs more.

    Raises :class:`PlacementError` when no free start remains.
    """
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    kind, duration = spec.kind, spec.duration
    if kind is AnomalyKind.NOISE and isinstance(duration, int):
        host_starts, hosts = np.zeros(1, dtype=int), np.array([int(series_length)])
    else:
        keep = segmentation.high | (kind not in HIGH_STATE_KINDS)
        host_starts, hosts = segmentation.starts[keep], segmentation.durations[keep]
    regions = []
    for _ in range(spec.count):
        if isinstance(duration, int):
            lengths = np.full(hosts.shape, duration)
        elif duration is None and kind in (AnomalyKind.NOISE, AnomalyKind.DRIFT):
            lengths = np.minimum(DEFAULT_FIXED_DURATION, hosts)
        else:
            frac = rng.uniform(*DEFAULT_FRACTION_RANGE) if duration is None \
                else duration
            lengths = np.maximum(1, np.round(frac * hosts).astype(int))
        fits = np.maximum(hosts - lengths + 1, 0)
        # every start of every host, in host order and then start order
        starts = np.arange(fits.sum()) + np.repeat(
            host_starts - np.cumsum(fits) + fits, fits)
        ends = starts + np.repeat(lengths, fits)
        for a, b in regions:
            free = (ends <= a) | (starts >= b)
            starts, ends = starts[free], ends[free]
        if not starts.size:
            raise PlacementError(
                f"no free start for {kind.name.lower()} region {len(regions) + 1}"
                f" of {spec.count}")
        i = rng.integers(starts.size)
        regions.append((int(starts[i]), int(ends[i])))
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
