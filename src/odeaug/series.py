"""Time-series containers and the numerical preprocessing primitives.

A :class:`TimeSeries` is a uniformly sampled multichannel record.  The
array-level helpers (:func:`moving_average`, :func:`derivative`,
:func:`curvature`) preprocess the dependent channel for the model fit.

All operations are pure: they return new objects and never mutate their
inputs, so values can be shared freely across threads.
"""

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CsvFormatError


@dataclass
class TimeSeries:
    """Uniformly sampled multichannel series.

    Parameters
    ----------
    channel_names : list of str
        One label per column of ``values``.
    sample_period : float
        Spacing of the implicit time grid, seconds; strictly positive.
    values : ndarray, shape (n, m)
        One row per time step, one column per channel.  Must be finite.
    labels : ndarray of bool, shape (n,), optional
        Point-wise anomaly mask (True = anomalous).
    """

    channel_names: list
    sample_period: float
    values: np.ndarray
    labels: np.ndarray = None

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        self.channel_names = list(self.channel_names)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if self.values.shape[1] != len(self.channel_names):
            raise ValueError(
                f"{len(self.channel_names)} channel names for "
                f"{self.values.shape[1]} columns"
            )
        if len(self.channel_names) < 1:
            raise ValueError("at least one channel required")
        if len(set(self.channel_names)) != len(self.channel_names):
            raise ValueError("channel names must be unique")
        if not (float(self.sample_period) > 0.0):
            raise ValueError("sample_period must be strictly positive")
        self.sample_period = float(self.sample_period)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values contain non-finite entries")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=bool)
            if self.labels.shape != (self.values.shape[0],):
                raise ValueError("label count must equal row count")

    def __len__(self):
        return self.values.shape[0]

    def channel_index(self, name):
        try:
            return self.channel_names.index(name)
        except ValueError:
            raise ValueError(f"unknown channel {name!r}") from None

    def channel(self, name):
        """Return a copy of one channel as a 1-D array."""
        return self.values[:, self.channel_index(name)].copy()

    def with_channel(self, name, new_values):
        """Return a new series with one channel replaced."""
        new_values = np.asarray(new_values, dtype=float)
        if new_values.shape != (len(self),):
            raise ValueError("replacement channel must match series length")
        values = self.values.copy()
        values[:, self.channel_index(name)] = new_values
        labels = None if self.labels is None else self.labels.copy()
        return TimeSeries(self.channel_names, self.sample_period, values, labels)

    def with_labels(self, labels):
        return TimeSeries(self.channel_names, self.sample_period,
                          self.values.copy(), np.asarray(labels, dtype=bool))


# ---------------------------------------------------------------------------
# array-level primitives

def moving_average(y, window):
    """Centered moving average; the window shrinks symmetrically at the ends.

    The output has the same length as ``y``; point ``t`` averages
    ``y[t-h : t+h+1]`` with ``h = min(window // 2, t, n - 1 - t)``, so
    constants are preserved and the output never leaves ``[min(y), max(y)]``.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    window = int(window)
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be an odd positive integer")
    if window > n:
        raise ValueError(f"window {window} exceeds series length {n}")
    half = window // 2
    if half == 0:
        return y.copy()
    csum = np.concatenate(([0.0], np.cumsum(y)))
    out = np.empty(n)
    for t in range(n):
        h = min(half, t, n - 1 - t)
        out[t] = (csum[t + h + 1] - csum[t - h]) / (2 * h + 1)
    return out


def _first_derivative(y, dt):
    """Second-order finite differences: central inside, one-sided at the ends."""
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return d


def derivative(y, dt, order):
    """Order-th derivative estimate, one value per sample.

    The first-derivative stencil is applied recursively ``order`` times,
    so units are y-units per second**order.
    """
    y = np.asarray(y, dtype=float)
    order = int(order)
    if order < 1:
        raise ValueError("order must be a positive integer")
    if y.shape[0] < order + 2:
        raise ValueError(
            f"series of length {y.shape[0]} too short for order-{order} derivative"
        )
    d = y
    for _ in range(order):
        d = _first_derivative(d, dt)
    return d


def curvature(y, dt, max_order=3):
    """Local-variation score: sum of normalized absolute derivatives.

    Each derivative of order 1..max_order is scaled by its series-wide
    standard deviation before the absolute values are summed; a constant
    derivative contributes with scale 1 instead.
    """
    y = np.asarray(y, dtype=float)
    if int(max_order) < 1:
        raise ValueError("max_order must be >= 1")
    score = np.zeros_like(y)
    d = y
    for _ in range(int(max_order)):
        d = _first_derivative(d, dt)
        s = float(np.std(d))
        if s <= 1e-12 * max(1.0, float(np.max(np.abs(d))) if d.size else 1.0):
            s = 1.0
        score += np.abs(d) / s
    return score


# ---------------------------------------------------------------------------
# CSV interface
#
# Schema: header "t,<channel names...>[,label]"; t strictly increasing with
# a constant step; label column, when present, holds only 0 or 1.

LABEL_COLUMN = "label"
_REL_STEP_TOL = 1e-6


def _floats(rows, width):
    """``rows`` of ``width`` fields each, through ``float``, as one array."""
    return np.fromiter(map(float, itertools.chain.from_iterable(rows)), float,
                       count=len(rows) * width).reshape(len(rows), width)


def _numeric(row):
    """Whether ``float`` takes every field of ``row``."""
    try:
        [float(v) for v in row]
    except ValueError:
        return False
    return True


def read_csv(path, channels=(), labeled=False):
    """Read one series from a CSV file, validating the schema.

    Raises :class:`CsvFormatError` with the offending line number on any
    deviation from the schema, which includes a missing one of
    ``channels`` and, if ``labeled``, a missing label column.  The first
    line with a wrong field count, a non-numeric field or a bad label is
    reported, in that order on one line; ``t`` and the values come after.
    """
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(path, 1, "empty file") from None
        if not header or header[0] != "t":
            raise CsvFormatError(path, 1, "header must start with 't'")
        has_label = len(header) > 1 and header[-1] == LABEL_COLUMN
        names = header[1:-1] if has_label else header[1:]
        if not names:
            raise CsvFormatError(path, 1, "no data channels in header")
        missing = [c for c in channels if c not in names]
        if missing:
            raise CsvFormatError(path, 1, f"missing channels {missing}")
        if labeled and not has_label:
            raise CsvFormatError(path, 1, "no label column")
        rows = list(reader)

    # each check looks only at the rows before the first fault found so
    # far, so the first line at fault wins; row i is on line i + 2
    width = len(header)
    counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    ragged = np.flatnonzero(counts != width)
    n = int(ragged[0]) if ragged.size else len(rows)
    fault = (f"expected {width} fields, got {counts[n]}"
             if n < len(rows) else None)
    try:
        data = _floats(rows[:n], width)
    except ValueError:
        n = next(i for i, row in enumerate(rows) if not _numeric(row))
        fault, data = "non-numeric field", _floats(rows[:n], width)
    if has_label:
        label = data[:, -1]
        bad = np.flatnonzero((label != 0.0) & (label != 1.0))
        if bad.size:
            n, fault = int(bad[0]), "label must be 0 or 1"
    if fault:
        raise CsvFormatError(path, n + 2, fault)

    if len(rows) < 2:
        raise CsvFormatError(path, 2, "need at least two data rows")
    t = data[:, 0]
    if not np.all(np.isfinite(t)):
        row = int(np.nonzero(~np.isfinite(t))[0][0])
        raise CsvFormatError(path, row + 2, "non-finite t")
    steps = np.diff(t)
    dt = steps[0]
    if dt <= 0:
        raise CsvFormatError(path, 3, "t must be strictly increasing")
    bad = np.nonzero(np.abs(steps - dt) > _REL_STEP_TOL * max(abs(dt), 1e-300))[0]
    if bad.size:
        raise CsvFormatError(
            path, int(bad[0]) + 3, "t step differs from the first step"
        )
    values = np.ascontiguousarray(data[:, 1:-1] if has_label else data[:, 1:])
    if not np.all(np.isfinite(values)):
        row = int(np.nonzero(~np.all(np.isfinite(values), axis=1))[0][0])
        raise CsvFormatError(path, row + 2, "non-finite value")
    return TimeSeries(names, float(dt), values,
                      data[:, -1] != 0.0 if has_label else None)


def write_csv(series, path):
    """Write a series in the standard schema; floats use shortest round-trip form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["t"] + list(series.channel_names)
        if series.labels is not None:
            header.append(LABEL_COLUMN)
        writer.writerow(header)
        dt = series.sample_period
        # tolist gives Python floats and bools, whose repr and str are the
        # fields written
        rows = enumerate(series.values.tolist())
        if series.labels is None:
            writer.writerows([repr(i * dt), *map(repr, row)] for i, row in rows)
        else:
            writer.writerows(
                [repr(i * dt), *map(repr, row), str(int(label))]
                for (i, row), label in zip(rows, series.labels.tolist()))

