"""Prediction-error scoring: Gaussian likelihood of multi-step residuals.

For each point with a full set of past predictions, the error vector
stacks the residuals of that point against the predictions made 1..l
steps earlier, per predicted channel.  A multivariate Gaussian fitted to
error vectors from normal data scores new points by log-likelihood; a
threshold chosen to maximize the F-score on a labeled validation set
turns scores into anomaly flags.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabelsError, check_document, check_real
# ``predict`` is not called here; perfbench/tracing.py wraps it by this
# module's name.
from .lstm import predict, predict_many  # noqa: F401


def error_vectors(predictions, series, config):
    """Error vectors for every point with all ``l`` past predictions.

    ``predictions`` must come from :func:`odeaug.lstm.predict_many` on
    the same series.  Residuals are computed in normalized units (actual
    values are z-scored with the config's stats before subtraction).
    Returns a ``(T - l, l * d)`` array: row ``t - l`` holds the residuals
    of point ``t`` against the predictions made 1..l steps earlier,
    channel-major.
    """
    horizon = config.prediction_length
    actual = config.normalize(series, config.predicted_channels)
    t_len, d = actual.shape
    if predictions.shape != (t_len, horizon * d):
        raise ValueError("predictions do not match the series and config")
    n = max(t_len - horizon, 0)
    errors = np.empty((n, horizon * d))
    for c in range(d):
        for i in range(1, horizon + 1):
            col = c * horizon + (i - 1)
            past = predictions[horizon - i:horizon - i + n, col]
            errors[:, col] = actual[horizon:, c] - past
    return errors


@dataclass
class GaussianScorer:
    """Gaussian density over error vectors plus the decision threshold.

    ``covariance`` already includes the ridge term.  ``threshold`` is in
    log-likelihood units; None until selected.
    """

    mean: np.ndarray
    covariance: np.ndarray
    ridge: float = 0.0
    threshold: float = None

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.mean.ndim != 1:
            raise ValueError("mean must be a 1-D vector")
        k = self.mean.shape[0]
        if self.covariance.shape != (k, k):
            raise ValueError("covariance shape must match mean dimension")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.covariance).all()):
            raise ValueError("mean and covariance must be finite")
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        # +-inf thresholds are select_threshold's flag-all/flag-none sentinels
        if self.threshold is not None and math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")
        self._chol = None

    @property
    def dim(self):
        return self.mean.shape[0]

    def _factor(self):
        if self._chol is None:
            try:
                self._chol = np.linalg.cholesky(self.covariance)
            except np.linalg.LinAlgError:
                raise ValueError(
                    "covariance is not positive definite; increase the ridge"
                ) from None
        return self._chol


def fit_gaussian(mat, ridge=1e-6):
    """Maximum-likelihood Gaussian over the rows of an error-vector array.

    The stored covariance is the MLE (1/N) covariance plus ``ridge`` times
    the identity, with ``ridge`` finite and >= 0.  Requires at least two
    vectors; positive definiteness is verified eagerly so degenerate fits
    fail here, not at scoring time.
    """
    check_real("ridge", ridge, 0)
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 2:
        raise ValueError("need at least two error vectors")
    mean = mat.mean(axis=0)
    centered = mat - mean
    cov = (centered.T @ centered) / mat.shape[0]
    cov = cov + ridge * np.eye(cov.shape[0])
    scorer = GaussianScorer(mean=mean, covariance=cov, ridge=float(ridge))
    scorer._factor()
    return scorer


def log_likelihood(scorer, e):
    """Log of the multivariate normal density at one error vector."""
    e = np.asarray(e, dtype=float)
    if e.ndim != 1:
        raise ValueError("expected one error vector")
    return float(log_likelihood_batch(scorer, e)[0])


def log_likelihood_batch(scorer, mat):
    """Log of the multivariate normal density at each row of a matrix."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape[1] != scorer.dim:
        raise ValueError(
            f"dimension mismatch: vector {mat.shape[1]}, scorer {scorer.dim}"
        )
    chol = scorer._factor()
    z = np.linalg.solve(chol, (mat - scorer.mean).T)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    k = scorer.dim
    return -0.5 * (k * math.log(2.0 * math.pi) + log_det + np.sum(z * z, axis=0))


def select_threshold(scores, labels, beta=1.0):
    """Threshold maximizing F_beta for the rule "score < threshold => anomaly".

    Candidates are the -inf/+inf sentinels and the midpoint between each
    pair of consecutive unique scores.  Where a midpoint does not fall
    above the lower score and at most at the upper one (next to -inf,
    between adjacent floats, or on overflow), the upper score stands in for
    it.  Each candidate counts as flagging exactly the scores strictly
    below it, the rule ``detect`` and ``evaluate`` apply, so they reproduce
    the achieved F.  Ties prefer higher recall, then the lower threshold.
    Returns (threshold, achieved F).  Scores may be +-inf (the warm-up and
    overflow points of :func:`score_many`) but not NaN; ``beta`` must be
    finite and > 0.

    Raises :class:`DegenerateLabelsError` when labels are single-class.
    """
    check_real("beta", beta, 0, low_open=True)
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be aligned 1-D arrays")
    if np.isnan(scores).any():
        raise ValueError("scores contain NaN")
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == scores.shape[0]:
        raise DegenerateLabelsError("labels must contain both classes")

    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    # np.unique would hash the already sorted scores, at ~1 MB of peak RSS
    uniq = s_sorted[np.concatenate(([True], s_sorted[1:] > s_sorted[:-1]))]
    lower, upper = uniq[:-1], uniq[1:]
    with np.errstate(invalid="ignore", over="ignore"):  # -inf + inf, overflow
        mid = 0.5 * (lower + upper)
    mid = np.where((lower < mid) & (mid <= upper), mid, upper)
    candidates = np.concatenate(([-math.inf], mid, [math.inf]))
    # a candidate flags the scores strictly below it
    cuts = np.searchsorted(s_sorted, candidates, side="left")
    tp = np.concatenate(([0], np.cumsum(labels[order])))[cuts]
    b2 = beta * beta
    denom = (1.0 + b2) * tp + (cuts - tp) + b2 * (n_pos - tp)
    f = np.divide((1.0 + b2) * tp, denom, out=np.zeros(denom.shape),
                  where=denom > 0)
    # the highest F, then the most true positives, then the lowest threshold
    best = np.lexsort((candidates, -tp, -f))[0]
    return float(candidates[best]), float(f[best])


def score_many(net, config, scorer, series_list):
    """Scores for every point of each series; the first l points get +inf.

    Returns one array per series, from one :func:`predict_many` call.
    +inf marks "no error vector yet"; those points can never fall below a
    finite threshold, matching the normal-by-convention warm-up rule.  A
    residual so large that the density overflows to NaN scores -inf, so
    the point is flagged rather than passed as normal.
    """
    series_list = list(series_list)
    all_scores = []
    for series, preds in zip(series_list,
                             predict_many(net, config, series_list)):
        errors = error_vectors(preds, series, config)
        density = log_likelihood_batch(scorer, errors)
        scores = np.full(len(series), math.inf)
        scores[config.prediction_length:] = np.where(np.isnan(density),
                                                     -math.inf, density)
        all_scores.append(scores)
    return all_scores


def score_series(net, config, scorer, series):
    """Scores for every point of one series, as :func:`score_many` gives."""
    return score_many(net, config, scorer, [series])[0]


# ---------------------------------------------------------------------------
# serialization

def scorer_to_dict(scorer):
    return {
        "version": 1,
        "kind": "gaussian-scorer",
        "dim": scorer.dim,
        "mean": scorer.mean.tolist(),
        "covariance": scorer.covariance.tolist(),
        "ridge": scorer.ridge,
        "threshold": scorer.threshold,
    }


def scorer_from_dict(doc):
    check_document(doc, "gaussian-scorer")
    scorer = GaussianScorer(
        mean=np.asarray(doc["mean"], dtype=float),
        covariance=np.asarray(doc["covariance"], dtype=float),
        ridge=float(doc["ridge"]),
        threshold=None if doc["threshold"] is None else float(doc["threshold"]),
    )
    if scorer.dim != int(doc["dim"]):
        raise ValueError("scorer dimension metadata mismatch")
    return scorer
