"""Point-wise PRF conventions and report formatting."""

import numpy as np
import pytest

from odeaug.metrics import MetricsReport, RegimeRow, prf_metrics


def masks_from_counts(tp, fp, fn, tn):
    predicted = np.array([True] * (tp + fp) + [False] * (fn + tn))
    actual = np.array([True] * tp + [False] * fp + [True] * fn + [False] * tn)
    return predicted, actual


class TestPrfMetrics:
    @pytest.mark.parametrize(
        "p_target, r_target, f_table",
        [
            (0.41, 0.84, 0.55),
            (0.34, 0.85, 0.49),
            (0.32, 0.82, 0.46),
            (0.52, 0.83, 0.64),
            (0.56, 0.84, 0.67),
        ],
    )
    def test_reference_f_values(self, p_target, r_target, f_table):
        # counts engineered so P and R are exact two-decimal fractions
        scale = 10_000
        tp = int(round(p_target * r_target * scale))
        fp = int(round(r_target * scale)) - tp
        fn = int(round(p_target * scale)) - tp
        predicted, actual = masks_from_counts(tp, fp, fn, tn=100)
        p, r, f = prf_metrics(predicted, actual)
        assert p == pytest.approx(p_target, abs=1e-9)
        assert r == pytest.approx(r_target, abs=1e-9)
        assert abs(f - f_table) <= 0.005

    def test_harmonic_mean_identity_random_counts(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            tp, fp, fn, tn = rng.integers(0, 50, size=4)
            predicted, actual = masks_from_counts(int(tp), int(fp), int(fn), int(tn))
            p, r, f = prf_metrics(predicted, actual)
            if p + r > 0:
                assert f == pytest.approx(2 * p * r / (p + r), abs=1e-12)
            else:
                assert f == 0.0 or (tp == 0 and fp == 0 and fn == 0)

    def test_vacuous_perfection(self):
        predicted = np.zeros(10, dtype=bool)
        actual = np.zeros(10, dtype=bool)
        assert prf_metrics(predicted, actual) == (1.0, 1.0, 1.0)

    def test_no_predictions_with_positives(self):
        predicted = np.zeros(5, dtype=bool)
        actual = np.array([True, False, False, False, False])
        p, r, f = prf_metrics(predicted, actual)
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_all_false_positives(self):
        predicted = np.array([True, True, False])
        actual = np.zeros(3, dtype=bool)
        p, r, f = prf_metrics(predicted, actual)
        assert p == 0.0 and r == 0.0 and f == 0.0

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(1)
        predicted = rng.random(200) < 0.3
        actual = rng.random(200) < 0.1
        base = prf_metrics(predicted, actual)
        perm = rng.permutation(200)
        assert prf_metrics(predicted[perm], actual[perm]) == base

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            prf_metrics([True], [True, False])


class TestMetricsReport:
    def _report(self):
        rows = [
            RegimeRow("S(r)", 40, 3571, 0.34, 0.85, 0.49),
            RegimeRow("ODE(s)", 125, 13598, 0.32, 0.82, 0.46),
            RegimeRow("S(r)+ODE(s)", 165, 17169, 0.52, 0.83, 0.64),
        ]
        return MetricsReport(rows)

    def test_combined_counts_are_sums(self):
        report = self._report()
        assert (report.row("S(r)").n_series + report.row("ODE(s)").n_series
                == report.row("S(r)+ODE(s)").n_series == 165)
        assert (report.row("S(r)").n_points + report.row("ODE(s)").n_points
                == report.row("S(r)+ODE(s)").n_points == 17169)

    def test_csv_format(self):
        text = self._report().to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "regime,NS,NP,precision,recall,f_score"
        assert lines[1].startswith("S(r),40,3571,")

    def test_table_format_aligned(self):
        text = self._report().to_table_text()
        lines = text.strip().split("\n")
        assert len(lines) == 5
        assert lines[0].startswith("Train dataset")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_unknown_regime_lookup(self):
        with pytest.raises(KeyError):
            self._report().row("L(r)")
