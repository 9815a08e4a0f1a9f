"""Tests of the benchmark's own oracles.

Run with ``python3 -m pytest perfbench/test_oracles.py``; the project's
test run collects only ``tests/``.
"""

import json
import math
import os

import numpy as np
import pytest

import oracles


def _rk4_fine(params, control, x0, dt, substeps=200):
    p0, p1, p2 = params
    out = [x0]
    x = x0
    h = dt / substeps
    for u in control[:-1]:
        f = lambda y: p0 * u - p1 * y + p2  # noqa: E731
        for _ in range(substeps):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(x)
    return np.array(out)


def test_closed_form_matches_fine_step_reference():
    rng = np.random.default_rng(0)
    control, _ = oracles.two_state_control(rng, 120, (5, 15), (0.1, 0.3), (0.7, 1.0))
    params = (1.7, 0.6, 0.25)
    exact = oracles.linear1_closed_form(params, control, 0.4, 0.1)
    fine = _rk4_fine(params, control, 0.4, 0.1)
    assert np.max(np.abs(exact - fine)) < 1e-12


def test_closed_form_relaxes_to_equilibrium():
    params = (2.0, 0.5, 0.1)
    x = oracles.linear1_closed_form(params, np.full(400, 0.8), 0.0, 0.1)
    assert x[0] == 0.0
    assert abs(x[-1] - (2.0 * 0.8 + 0.1) / 0.5) < 1e-6


def test_two_state_control_alternates_inside_ranges():
    rng = np.random.default_rng(1)
    control, levels = oracles.two_state_control(rng, 300, (20, 40), (0.1, 0.3), (0.7, 1.0))
    assert control.shape == (300,)
    assert all(0.1 <= v <= 0.3 for v in levels["low"])
    assert all(0.7 <= v <= 1.0 for v in levels["high"])
    assert abs(len(levels["low"]) - len(levels["high"])) <= 1


def test_prf_counts_against_hand_counts():
    flags = np.array([1, 1, 1, 0, 0, 0, 0], dtype=bool)
    labels = np.array([1, 1, 0, 1, 0, 0, 0], dtype=bool)
    # tp=2 fp=1 fn=1
    p, r, f = oracles.prf_counts(flags, labels)
    assert (p, r) == (2 / 3, 2 / 3)
    assert f == pytest.approx(2 / 3)
    # tp=1 fp=3 fn=0: P=1/4, R=1, F=2*(1/4)/(5/4)=2/5
    p, r, f = oracles.prf_counts([1, 1, 1, 1], [1, 0, 0, 0])
    assert (p, r) == (0.25, 1.0)
    assert f == pytest.approx(0.4)
    assert oracles.prf_counts([0, 0], [1, 0]) == (0.0, 0.0, 0.0)
    assert oracles.prf_counts([0, 0], [0, 0]) == (1.0, 1.0, 1.0)


def test_f_flag_all_is_f_of_all_ones():
    labels = np.array([1, 0, 0, 0, 0, 1, 0, 0], dtype=bool)
    assert oracles.f_flag_all(labels) == pytest.approx(
        oracles.prf_counts(np.ones(8, dtype=bool), labels)[2])


def test_peak_log_density_of_known_gaussian():
    variances = np.array([0.5, 2.0, 3.0])
    peak = oracles.gaussian_peak_log_density(np.diag(variances))
    expected = -0.5 * (3 * math.log(2 * math.pi) + float(np.sum(np.log(variances))))
    assert peak == pytest.approx(expected, rel=1e-14)
    # the density at any other point is lower
    rng = np.random.default_rng(2)
    for e in rng.normal(size=(50, 3)):
        log_density = expected - 0.5 * float(np.sum(e * e / variances))
        assert log_density <= peak


def test_peak_log_density_rejects_indefinite_covariance():
    with pytest.raises(ValueError):
        oracles.gaussian_peak_log_density(np.diag([1.0, -1.0]))


def test_manifest_mismatch_found_after_tampering(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "a.csv").write_text("t,x\n0.0,1.0\n")
    manifest = {"inputs": {},
                "outputs": {"a.csv": oracles.sha256_file(str(out / "a.csv"))}}
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert oracles.manifest_mismatches(str(out)) == []
    (out / "a.csv").write_text("t,x\n0.0,2.0\n")
    assert len(oracles.manifest_mismatches(str(out))) == 1


def test_read_table_parses_infinity(tmp_path):
    path = os.path.join(tmp_path, "d.csv")
    with open(path, "w") as fh:
        fh.write("t,score,flag\n0.0,inf,0\n0.1,-3.5,1\n")
    header, table = oracles.read_table(path)
    assert header == ["t", "score", "flag"]
    assert table[0, 1] == math.inf and table[1, 1] == -3.5
