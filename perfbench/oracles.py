"""Reference computations the benchmark checks the program's outputs against.

Everything here is computed apart from the program: closed-form
trajectories, recounted precision/recall/F, the Gaussian density bound,
SHA-256 digests and a plain CSV reader.  Nothing imports ``odeaug``.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np


def linear1_closed_form(params, control, x0, dt):
    """Exact ``dx/dt = p0*u - p1*x + p2`` with ``u`` held over each sample.

    Over one sample the state relaxes towards ``x_eq = (p0*u + p2)/p1``:
    ``x <- x_eq + (x - x_eq) * exp(-p1*dt)``.  Returns one value per
    control sample, starting at ``x0``.
    """
    p0, p1, p2 = (float(p) for p in params)
    control = np.asarray(control, dtype=float)
    decay = math.exp(-p1 * dt)
    out = np.empty(control.shape[0])
    x = float(x0)
    out[0] = x
    for i in range(control.shape[0] - 1):
        x_eq = (p0 * control[i] + p2) / p1
        x = x_eq + (x - x_eq) * decay
        out[i + 1] = x
    return out


def two_state_control(rng, length, durations, low_levels, high_levels):
    """Piecewise-constant control alternating between a low and a high level.

    Each segment draws its duration from ``durations`` (inclusive integer
    range) and its level uniformly from the range of its state.  Returns
    the control and the list of levels drawn per state.
    """
    out = np.empty(length)
    levels = {"low": [], "high": []}
    high = bool(rng.random() < 0.5)
    pos = 0
    while pos < length:
        dur = int(rng.integers(durations[0], durations[1] + 1))
        state = "high" if high else "low"
        level = float(rng.uniform(*(high_levels if high else low_levels)))
        out[pos:pos + dur] = level
        levels[state].append(level)
        pos += dur
        high = not high
    return out, levels


def prf_counts(flags, labels):
    """Point-wise (precision, recall, F) recounted from two boolean masks.

    Uses the program's documented conventions for empty classes: no
    positives anywhere and none flagged is (1, 1, 1); an empty
    denominator gives 0.
    """
    flags = np.asarray(flags, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    tp = int(np.count_nonzero(flags & labels))
    fp = int(np.count_nonzero(flags & ~labels))
    fn = int(np.count_nonzero(~flags & labels))
    if tp == fp == fn == 0:
        return 1.0, 1.0, 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


def f_flag_all(labels):
    """F of the detector that flags every point: P = prevalence, R = 1."""
    prevalence = float(np.mean(np.asarray(labels, dtype=bool)))
    return 2 * prevalence / (1 + prevalence)


def gaussian_peak_log_density(covariance):
    """Log-density of a multivariate normal at its mean: its maximum."""
    covariance = np.asarray(covariance, dtype=float)
    sign, logdet = np.linalg.slogdet(covariance)
    if sign <= 0:
        raise ValueError("covariance is not positive definite")
    return -0.5 * (covariance.shape[0] * math.log(2 * math.pi) + logdet)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def _tree_digests(path):
    if os.path.isfile(path):
        return {os.path.basename(path): sha256_file(path)}
    out = {}
    for root, _dirs, files in os.walk(path):
        for name in files:
            if name == "manifest.json" or name.endswith(".manifest.json"):
                continue
            full = os.path.join(root, name)
            out[os.path.relpath(full, path)] = sha256_file(full)
    return out


def manifest_mismatches(output_path):
    """Files whose recomputed digest differs from the output's manifest.

    ``output_path`` is an output directory (manifest inside it) or an
    output file (manifest beside it).  Input digests are checked too.
    Returns a list of human-readable mismatches; empty means all match.
    """
    if os.path.isdir(output_path):
        manifest_path = os.path.join(output_path, "manifest.json")
    else:
        manifest_path = output_path + ".manifest.json"
    with open(manifest_path) as fh:
        doc = json.load(fh)
    problems = []
    expected = {("output", output_path): doc["outputs"]}
    for path, digests in doc["inputs"].items():
        expected[("input", path)] = digests
    for (role, path), digests in expected.items():
        actual = _tree_digests(path)
        if actual != digests:
            problems.append(f"{manifest_path}: {role} {path} digests differ")
    return problems


def read_table(path):
    """Header and float rows of a CSV file; ``inf`` parses as infinity."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])
