"""Point-wise precision/recall/F metrics and the per-regime report."""

import io
from dataclasses import dataclass

import numpy as np


def prf_metrics(predicted, actual):
    """Point-wise precision, recall, and F1 of a predicted anomaly mask.

    Degenerate conventions: no predicted positives gives P=0, no actual
    positives gives R=0, and P+R=0 gives F=0 — except when there are no
    positives anywhere and none predicted, which counts as vacuously
    perfect (1, 1, 1).
    """
    predicted = np.asarray(predicted, dtype=bool)
    actual = np.asarray(actual, dtype=bool)
    if predicted.shape != actual.shape:
        raise ValueError("masks must have the same length")
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0, 1.0, 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f_score = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return precision, recall, f_score


@dataclass(frozen=True)
class RegimeRow:
    regime: str
    n_series: int
    n_points: int
    precision: float
    recall: float
    f_score: float


@dataclass
class MetricsReport:
    """One row per training regime, Table-style: NS, NP, P, R, F."""

    rows: list

    def row(self, regime):
        for r in self.rows:
            if r.regime == regime:
                return r
        raise KeyError(f"no row for regime {regime!r}")

    def to_csv_text(self):
        buf = io.StringIO()
        buf.write("regime,NS,NP,precision,recall,f_score\n")
        for r in self.rows:
            buf.write(
                f"{r.regime},{r.n_series},{r.n_points},"
                f"{r.precision:.6f},{r.recall:.6f},{r.f_score:.6f}\n"
            )
        return buf.getvalue()

    def to_table_text(self):
        headers = ["Train dataset", "NS", "NP", "P", "R", "F"]
        body = [
            [r.regime, str(r.n_series), str(r.n_points),
             f"{r.precision:.2f}", f"{r.recall:.2f}", f"{r.f_score:.2f}"]
            for r in self.rows
        ]
        widths = [
            max(len(h), *(len(row[i]) for row in body)) if body else len(h)
            for i, h in enumerate(headers)
        ]
        lines = []
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines) + "\n"
