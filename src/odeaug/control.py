"""Two-state control modelling: segmentation, histogram profiles, sampling.

The control channel of the systems this package targets alternates
between a high and a low operating state.  This module turns observed
controls into a statistical profile (duration and level histograms per
state) and samples the profile to synthesize novel control inputs.  The
donor-selection rule used by the augmentation stage also lives here.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np


class State(enum.Enum):
    HIGH = "high"
    LOW = "low"

    def other(self):
        return State.LOW if self is State.HIGH else State.HIGH


@dataclass(frozen=True)
class Segment:
    state: State
    start: int
    duration: int
    level: float

    @property
    def end(self):
        return self.start + self.duration


@dataclass
class StateSegmentation:
    """Contiguous alternating-state segments covering a channel."""

    segments: list
    threshold: float = math.nan
    degenerate: bool = False

    def __post_init__(self):
        if not self.segments:
            raise ValueError("segmentation needs at least one segment")
        pos = self.segments[0].start
        prev_state = None
        for seg in self.segments:
            if seg.start != pos or seg.duration < 1:
                raise ValueError("segments must be contiguous and non-empty")
            if prev_state is seg.state:
                raise ValueError("adjacent segments must differ in state")
            pos = seg.end
            prev_state = seg.state


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
            seg = Segment(State.LOW, 0, n, float(np.mean(y)))
            return StateSegmentation([seg], threshold=float(np.mean(y)),
                                     degenerate=True)
        threshold = 0.5 * (c0 + c1)
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")

    # runs alternate, so a short run's neighbours share the other state and
    # merging all three into one run keeps the runs alternating
    high = y > threshold
    bounds = [0, *(np.flatnonzero(np.diff(high)) + 1).tolist(), n]
    runs = [[bool(high[s]), s, e - s] for s, e in zip(bounds, bounds[1:])]
    while len(runs) > 1:
        lengths = [r[2] for r in runs]
        idx = lengths.index(min(lengths))
        if lengths[idx] >= min_duration:
            break
        lo, hi = max(idx - 1, 0), idx + 2
        runs[lo:hi] = [[not runs[idx][0], runs[lo][1], sum(lengths[lo:hi])]]

    segments = [
        Segment(State.HIGH if h else State.LOW, s, d, float(np.mean(y[s:s + d])))
        for h, s, d in runs
    ]
    return StateSegmentation(segments, threshold=threshold)


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

    ``single_state`` is set when no source segmentation contained the other
    state; the missing state's histogram entries are then None and sampled
    controls hold the observed state for their whole length.
    """

    duration_hists: dict
    level_hists: dict
    start_state_counts: tuple
    source_count: int
    single_state: State = None


def build_profile(segmentations, bins=10):
    """Pool segment statistics from several segmentations into histograms.

    Duration histograms are in samples, level histograms in channel units;
    ``bins`` equal-width bins span the observed min..max (a single observed
    value degenerates to one bin).
    """
    segmentations = list(segmentations)
    if not segmentations:
        raise ValueError("need at least one segmentation")
    durations = {State.HIGH: [], State.LOW: []}
    levels = {State.HIGH: [], State.LOW: []}
    starts = {State.HIGH: 0, State.LOW: 0}
    for seg in segmentations:
        starts[seg.segments[0].state] += 1
        for s in seg.segments:
            durations[s.state].append(s.duration)
            levels[s.state].append(s.level)

    missing = [st for st in State if not durations[st]]
    single_state = None
    if missing:
        single_state = missing[0].other()

    duration_hists, level_hists = {}, {}
    for st in State:
        if durations[st]:
            duration_hists[st] = _build_histogram(durations[st], bins, 0.5)
            lv = levels[st]
            half = max(1e-9, 1e-9 * abs(lv[0]))
            level_hists[st] = _build_histogram(lv, bins, half)
        else:
            duration_hists[st] = None
            level_hists[st] = None
    return ControlProfile(
        duration_hists=duration_hists,
        level_hists=level_hists,
        start_state_counts=(starts[State.HIGH], starts[State.LOW]),
        source_count=len(segmentations),
        single_state=single_state,
    )


def _as_generator(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _sample_duration(hist, rng):
    return max(1, int(math.floor(hist.sample(rng) + 0.5)))


def sample_segments(profile, length, seed):
    """Draw alternating segments until ``length`` samples are covered.

    The start state is drawn proportional to the observed start-state
    counts; each segment draws its duration and level from the matching
    histograms.  The final segment is truncated to fit.  Returns the list
    of realized :class:`Segment` (with truncated final duration).
    """
    length = int(length)
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = _as_generator(seed)
    if profile.single_state is not None:
        st = profile.single_state
        level = profile.level_hists[st].sample(rng)
        return [Segment(st, 0, length, level)]

    n_high, n_low = profile.start_state_counts
    total = n_high + n_low
    p_high = n_high / total if total else 0.5
    state = State.HIGH if rng.random() < p_high else State.LOW

    segments = []
    pos = 0
    while pos < length:
        dur = _sample_duration(profile.duration_hists[state], rng)
        level = profile.level_hists[state].sample(rng)
        dur = min(dur, length - pos)
        segments.append(Segment(state, pos, dur, level))
        pos += dur
        state = state.other()
    return segments


def render_segments(segments, length):
    out = np.empty(int(length))
    for seg in segments:
        out[seg.start:seg.end] = seg.level
    return out


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


def pair_features(segmentation_or_segments):
    """Summarize a segmentation into the 4-coordinate donor feature vector.

    A state absent from the segmentation falls back to duration 1 and the
    overall mean level, keeping the features finite.
    """
    segments = getattr(segmentation_or_segments, "segments", segmentation_or_segments)
    overall = float(np.mean([s.level for s in segments]))
    stats = {}
    for st in State:
        own = [s for s in segments if s.state is st]
        if own:
            stats[st] = (
                float(np.mean([s.duration for s in own])),
                float(np.mean([s.level for s in own])),
            )
        else:
            stats[st] = (1.0, overall)
    return PairFeatures(
        mean_high_duration=stats[State.HIGH][0],
        mean_low_duration=stats[State.LOW][0],
        mean_high_level=stats[State.HIGH][1],
        mean_low_level=stats[State.LOW][1],
    )


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
        "start_state_counts": {
            "high": profile.start_state_counts[0],
            "low": profile.start_state_counts[1],
        },
        "single_state": profile.single_state.value if profile.single_state else None,
        "states": {
            st.value: {
                "duration": _hist_to_dict(profile.duration_hists[st]),
                "level": _hist_to_dict(profile.level_hists[st]),
            }
            for st in State
        },
    }


def profile_from_dict(doc):
    if doc.get("kind") != "control-profile":
        raise ValueError("not a control profile document")
    return ControlProfile(
        duration_hists={
            st: _hist_from_dict(doc["states"][st.value]["duration"]) for st in State
        },
        level_hists={
            st: _hist_from_dict(doc["states"][st.value]["level"]) for st in State
        },
        start_state_counts=(
            int(doc["start_state_counts"]["high"]),
            int(doc["start_state_counts"]["low"]),
        ),
        source_count=int(doc["source_count"]),
        single_state=State(doc["single_state"]) if doc["single_state"] else None,
    )
