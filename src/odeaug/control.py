"""Two-state control modelling: segmentation, histogram profiles, sampling.

The control channel of the systems this package targets alternates
between a high and a low operating state.  This module turns observed
controls into a statistical profile (duration and level histograms per
state) and samples the profile to synthesize novel control inputs.  The
donor-selection rule used by the augmentation stage also lives here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_count

#: The two control states, in the order profile documents list them.
STATES = ("high", "low")


@dataclass
class StateSegmentation:
    """Alternating HIGH/LOW runs covering a control channel from sample 0.

    Run ``i`` is HIGH when ``high[i]``, lasts ``durations[i]`` samples
    and has mean value ``levels[i]``.
    """

    high: np.ndarray
    durations: np.ndarray
    levels: np.ndarray
    threshold: float = math.nan
    degenerate: bool = False

    def __post_init__(self):
        self.high = np.asarray(self.high, dtype=bool)
        self.durations = np.asarray(self.durations, dtype=np.int64)
        self.levels = np.asarray(self.levels, dtype=float)
        if self.high.size == 0:
            raise ValueError("segmentation needs at least one segment")
        if not (self.high.shape == self.durations.shape == self.levels.shape
                == (self.high.size,)):
            raise ValueError("high, durations and levels must be equal-length 1-D")
        if np.any(self.durations < 1):
            raise ValueError("segments must be non-empty")
        if np.any(self.high[1:] == self.high[:-1]):
            raise ValueError("adjacent segments must differ in state")

    @property
    def starts(self):
        """The sample at which each run begins; the first is 0."""
        return np.cumsum(self.durations) - self.durations


def _two_means(y):
    """1-D 2-means centroids, initialized at the extremes."""
    lo, hi = float(np.min(y)), float(np.max(y))
    c0, c1 = lo, hi
    for _ in range(100):
        mid = 0.5 * (c0 + c1)
        low_side = y <= mid
        if low_side.all() or (~low_side).all():
            break
        n0 = float(np.mean(y[low_side]))
        n1 = float(np.mean(y[~low_side]))
        if n0 == c0 and n1 == c1:
            break
        c0, c1 = n0, n1
    return c0, c1


AUTO = "auto"


def segment_control(series, channel, threshold=AUTO, min_duration=2):
    """Split a control channel into alternating HIGH/LOW segments.

    Values strictly above the threshold are HIGH.  While some run is
    shorter than ``min_duration``, the shortest (the first of equals) is
    merged with its neighbours into one run.  ``threshold=AUTO`` places
    the cut midway between the two centroids of a 1-D 2-means clustering
    of the values; when the centroid gap collapses (effectively constant
    channel) the result is a single segment flagged degenerate.  A
    numeric threshold must be finite.
    """
    y = series.channel(channel)
    n = y.shape[0]
    min_duration = int(min_duration)
    if min_duration < 1:
        raise ValueError("min_duration must be >= 1")
    if n < 2 * min_duration:
        raise ValueError("series too short for the requested min_duration")

    if threshold == AUTO:
        rng_width = float(np.max(y) - np.min(y))
        c0, c1 = _two_means(y)
        if abs(c1 - c0) < 1e-9 * max(rng_width, 1e-300) or rng_width == 0.0:
            level = float(np.mean(y))
            return StateSegmentation([False], [n], [level], threshold=level,
                                     degenerate=True)
        threshold = 0.5 * (c0 + c1)
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")

    # runs alternate, so a short run's neighbours share the other state and
    # merging all three into one run keeps the runs alternating
    high = y > threshold
    bounds = [0, *(np.flatnonzero(np.diff(high)) + 1).tolist(), n]
    runs = [[bool(high[s]), e - s] for s, e in zip(bounds, bounds[1:])]
    while len(runs) > 1:
        lengths = [r[1] for r in runs]
        idx = lengths.index(min(lengths))
        if lengths[idx] >= min_duration:
            break
        lo, hi = max(idx - 1, 0), idx + 2
        runs[lo:hi] = [[not runs[idx][0], sum(lengths[lo:hi])]]

    high, durations = zip(*runs)
    starts = np.cumsum(durations) - durations
    levels = [float(np.mean(y[s:s + d])) for s, d in zip(starts, durations)]
    return StateSegmentation(high, durations, levels, threshold=threshold)


# ---------------------------------------------------------------------------
# histogram profile

@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", np.asarray(self.edges, dtype=float))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=int))
        if self.edges.ndim != 1 or self.counts.shape[0] != self.edges.shape[0] - 1:
            raise ValueError("need len(edges) == len(counts) + 1")
        if not np.all(np.diff(self.edges) > 0):
            raise ValueError("bin edges must be strictly increasing")
        if np.any(self.counts < 0) or int(self.counts.sum()) < 1:
            raise ValueError("counts must be non-negative with at least one nonzero bin")

    def sample(self, rng):
        """Draw a bin proportional to counts, then uniformly within it."""
        total = int(self.counts.sum())
        i = rng.choice(self.counts.shape[0], p=self.counts / total)
        return float(rng.uniform(self.edges[i], self.edges[i + 1]))

    def mean(self):
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        return float(np.sum(mids * self.counts) / self.counts.sum())


def _build_histogram(values, bins, point_mass_halfwidth):
    values = np.asarray(values, dtype=float)
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi - lo < 1e-12 * max(1.0, abs(lo)):
        h = point_mass_halfwidth
        return Histogram(np.array([lo - h, lo + h]), np.array([values.shape[0]]))
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return Histogram(edges, counts)


@dataclass
class ControlProfile:
    """Pooled per-state duration/level histograms plus start-state counts.

    The histogram dicts are keyed by :data:`STATES`.  ``single_state``
    ("high" or "low") is set when no source segmentation contained the
    other state; the missing state's histogram entries are then None and
    sampled controls hold the observed state for their whole length.
    """

    duration_hists: dict
    level_hists: dict
    start_state_counts: tuple
    source_count: int
    single_state: str = None


def build_profile(segmentations, bins=10):
    """Pool segment statistics from several segmentations into histograms.

    Duration histograms are in samples, level histograms in channel units;
    ``bins`` equal-width bins span the observed min..max (a single observed
    value degenerates to one bin).
    """
    check_count("bins", bins)
    segmentations = list(segmentations)
    if not segmentations:
        raise ValueError("need at least one segmentation")
    high = np.concatenate([seg.high for seg in segmentations])
    durations = np.concatenate([seg.durations for seg in segmentations])
    levels = np.concatenate([seg.levels for seg in segmentations])
    n_high_starts = sum(bool(seg.high[0]) for seg in segmentations)

    duration_hists, level_hists = {}, {}
    for st, own in zip(STATES, (high, ~high)):
        duration_hists[st] = level_hists[st] = None
        if own.any():
            duration_hists[st] = _build_histogram(durations[own], bins, 0.5)
            lv = levels[own]
            half = max(1e-9, 1e-9 * abs(lv[0]))
            level_hists[st] = _build_histogram(lv, bins, half)
    single_state = None
    if high.all() or not high.any():
        single_state = "high" if high[0] else "low"
    return ControlProfile(
        duration_hists=duration_hists,
        level_hists=level_hists,
        start_state_counts=(n_high_starts, len(segmentations) - n_high_starts),
        source_count=len(segmentations),
        single_state=single_state,
    )


def _sample_duration(hist, rng):
    return max(1, int(math.floor(hist.sample(rng) + 0.5)))


def sample_segments(profile, length, rng):
    """Draw alternating segments from a :class:`numpy.random.Generator`
    until ``length`` samples are covered.

    The start state is drawn proportional to the observed start-state
    counts; each segment draws its duration and level from the matching
    histograms.  The final segment is truncated to fit.
    """
    length = int(length)
    if length < 1:
        raise ValueError("length must be >= 1")
    if profile.single_state is not None:
        level = profile.level_hists[profile.single_state].sample(rng)
        return StateSegmentation([profile.single_state == "high"], [length],
                                 [level])

    n_high, n_low = profile.start_state_counts
    total = n_high + n_low
    p_high = n_high / total if total else 0.5
    high = rng.random() < p_high

    states, durations, levels = [], [], []
    pos = 0
    while pos < length:
        st = "high" if high else "low"
        dur = _sample_duration(profile.duration_hists[st], rng)
        levels.append(profile.level_hists[st].sample(rng))
        durations.append(min(dur, length - pos))
        states.append(high)
        pos += durations[-1]
        high = not high
    return StateSegmentation(states, durations, levels)


def render_segments(segmentation):
    """The control channel a segmentation describes: each run at its level."""
    return np.repeat(segmentation.levels, segmentation.durations)


# ---------------------------------------------------------------------------
# donor selection

@dataclass(frozen=True)
class PairFeatures:
    """Per-state mean durations and levels of a control channel."""

    mean_high_duration: float
    mean_low_duration: float
    mean_high_level: float
    mean_low_level: float

    def as_array(self):
        return np.array([
            self.mean_high_duration,
            self.mean_low_duration,
            self.mean_high_level,
            self.mean_low_level,
        ])


def pair_features(segmentation):
    """Summarize a segmentation into the 4-coordinate donor feature vector.

    A state absent from the segmentation falls back to duration 1 and the
    overall mean level, keeping the features finite.
    """
    overall = float(np.mean(segmentation.levels))
    stats = []
    for own in (segmentation.high, ~segmentation.high):
        if own.any():
            stats.append((float(np.mean(segmentation.durations[own])),
                          float(np.mean(segmentation.levels[own]))))
        else:
            stats.append((1.0, overall))
    (high_duration, high_level), (low_duration, low_level) = stats
    return PairFeatures(high_duration, low_duration, high_level, low_level)


def select_donor(synthetic, training):
    """Index of the training features closest to ``synthetic``.

    Each of the four coordinates is z-normalized across the training list
    (std floored at 1e-12) before the Euclidean distance is taken; ties
    break toward the lowest index.
    """
    if not training:
        raise ValueError("training features must be non-empty")
    mat = np.stack([f.as_array() for f in training])
    mean = mat.mean(axis=0)
    std = np.maximum(mat.std(axis=0), 1e-12)
    z_train = (mat - mean) / std
    z_query = (synthetic.as_array() - mean) / std
    dists = np.sqrt(np.sum((z_train - z_query) ** 2, axis=1))
    return int(np.argmin(dists))


# ---------------------------------------------------------------------------
# serialization

def _hist_to_dict(hist):
    if hist is None:
        return None
    return {"edges": hist.edges.tolist(), "counts": hist.counts.tolist()}


def _hist_from_dict(doc):
    if doc is None:
        return None
    return Histogram(np.asarray(doc["edges"]), np.asarray(doc["counts"]))


def profile_to_dict(profile):
    return {
        "version": 1,
        "kind": "control-profile",
        "source_count": profile.source_count,
        "start_state_counts": dict(zip(STATES, profile.start_state_counts)),
        "single_state": profile.single_state,
        "states": {
            st: {
                "duration": _hist_to_dict(profile.duration_hists[st]),
                "level": _hist_to_dict(profile.level_hists[st]),
            }
            for st in STATES
        },
    }


def profile_from_dict(doc):
    if doc.get("kind") != "control-profile":
        raise ValueError("not a control profile document")
    if doc["single_state"] not in (None, *STATES):
        raise ValueError(f"unknown single_state {doc['single_state']!r}")
    return ControlProfile(
        duration_hists={
            st: _hist_from_dict(doc["states"][st]["duration"]) for st in STATES
        },
        level_hists={
            st: _hist_from_dict(doc["states"][st]["level"]) for st in STATES
        },
        start_state_counts=tuple(
            int(doc["start_state_counts"][st]) for st in STATES),
        source_count=int(doc["source_count"]),
        single_state=doc["single_state"],
    )
