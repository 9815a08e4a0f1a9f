"""Five-regime training experiment and the augmentation-fraction curve.

Regimes: real large L(r), real small S(r), generated-only ODE(s), and the
two augmented combinations.  The generated set is produced once from the
small set's fitted models and shared by every regime containing ODE(s),
so the combined-regime series/point counts are exact sums.  All regimes
share one derived training seed and the same validation/test sets; the
only difference between rows is the training data.
"""

from dataclasses import replace

import numpy as np

from .augment import AugmentationPlan, FittedPair, generate_series_pair
from .benchmark import CONTROL_CHANNEL, RESPONSE_CHANNEL
from .control import AUTO, build_profile, pair_features, segment_control
from .errors import InvalidJobError, TrainingDivergedError, check_real
# ``train``, ``predict`` and ``score_series`` are not called here;
# perfbench/tracing.py wraps them by this module's name.
from .lstm import predict, predict_many, train, train_many  # noqa: F401
from .metrics import MetricsReport, RegimeRow, prf_metrics
from .ode import SeriesPair, fit
from .scoring import (error_vectors, fit_gaussian, score_many,  # noqa: F401
                      score_series, select_threshold)

REGIMES = ("L(r)", "S(r)", "ODE(s)", "S(r)+ODE(s)", "L(r)+ODE(s)")

_FIT_TAG, _GEN_TAG, _TRAIN_TAG, _SENSOR_TAG = 21, 22, 23, 24


def _derive_seed(*keys):
    ss = np.random.SeedSequence([int(k) for k in keys])
    return int(ss.generate_state(1, np.uint32)[0])


def build_generated(benchmark):
    """Fit ODE models on the small real set and generate synthetic pairs.

    Returns the generated series list.  Deterministic in the benchmark
    seed, independently of which regimes later consume the output.
    """
    config = benchmark.config
    fitted = []
    segmentations = []
    for i, series in enumerate(benchmark.small):
        seg = segment_control(series, CONTROL_CHANNEL, AUTO, min_duration=2)
        segmentations.append(seg)
        pair = SeriesPair.from_series(series, CONTROL_CHANNEL, RESPONSE_CHANNEL)
        fit_config = replace(
            config.fit, seed=_derive_seed(config.seed, _FIT_TAG, i)
        )
        report = fit(pair, fit_config)
        fitted.append(
            FittedPair(pair_features(seg), report.params, float(pair.dependent[0]))
        )
    plan = AugmentationPlan(
        profile=build_profile(segmentations),
        fitted=fitted,
        count=config.n_generated,
        length=config.series_length,
        seed=_derive_seed(config.seed, _GEN_TAG),
        sample_period=config.sample_period,
        channel_names=(CONTROL_CHANNEL, RESPONSE_CHANNEL),
    )
    return [_apply_sensor_noise(benchmark, generate_series_pair(plan, k), k)
            for k in range(plan.count)]


def _apply_sensor_noise(benchmark, series, k):
    """Pass a synthetic series through the benchmark's sensor model.

    Real benchmark series carry measurement noise; mixing noiseless ODE
    trajectories into training would shift the input distribution, so
    generated dependents receive the same noise level (seeded per pair).
    """
    config = benchmark.config
    if config.noise_std_frac <= 0:
        return series
    rng = np.random.default_rng(
        np.random.SeedSequence([int(config.seed), _SENSOR_TAG, int(k)])
    )
    clean = series.channel(RESPONSE_CHANNEL)
    std = config.noise_std_frac * float(np.max(clean) - np.min(clean))
    return series.with_channel(
        RESPONSE_CHANNEL, clean + rng.normal(0.0, std, clean.shape[0]))


def calibrate_scorer(net, config, normal, labeled, ridge, beta):
    """Fit the Gaussian scorer and pick its decision threshold.

    The scorer is fitted to the network's error vectors on the ``normal``
    series; the threshold is the one that maximises F-beta on the
    ``labeled`` series.  Returns (scorer with its threshold set, achieved
    F-beta).  ``ridge``, ``beta`` and the labels are checked before any
    series is predicted.
    """
    check_real("ridge", ridge, 0)
    check_real("beta", beta, 0, low_open=True)
    if any(series.labels is None for series in labeled):
        raise ValueError("threshold selection needs labeled series")
    pooled = [error_vectors(preds, series, config) for series, preds
              in zip(normal, predict_many(net, config, normal))]
    scorer = fit_gaussian(np.concatenate(pooled), ridge=ridge)
    scorer.threshold, achieved = select_threshold(
        np.concatenate(score_many(net, config, scorer, labeled)),
        np.concatenate([series.labels for series in labeled]), beta=beta,
    )
    return scorer, achieved


def detection_metrics(net, config, scorer, labeled):
    """Point-wise (precision, recall, F) of the scorer's flags, pooled
    over the ``labeled`` series; the labels are checked before any series
    is scored."""
    if any(series.labels is None for series in labeled):
        raise ValueError("evaluation needs labeled series")
    scores = score_many(net, config, scorer, labeled)
    return prf_metrics(np.concatenate(scores) < scorer.threshold,
                       np.concatenate([series.labels for series in labeled]))


def _score_sets(benchmark, labels, train_sets):
    """Train one network per training set in one stacked pass, calibrate
    each detector on the validation sets and score it on the test set.

    Returns one (precision, recall, F) per set, on the pooled point-wise
    test masks.  A failure is re-raised with its set's label attached.
    """
    config = benchmark.config
    seed = _derive_seed(config.seed, _TRAIN_TAG)
    configs = [config.lstm.predictor_config(seed) for _ in labels]
    try:
        trained = train_many([(train_series, net_config, benchmark.val_normal)
                              for train_series, net_config
                              in zip(train_sets, configs)])
    except (InvalidJobError, TrainingDivergedError) as exc:
        raise RuntimeError(f"regime {labels[exc.job]}: {exc}") from exc
    scores = []
    for label, (net, _), net_config in zip(labels, trained, configs):
        try:
            scorer, _ = calibrate_scorer(
                net, net_config, benchmark.val_normal, benchmark.val_anomalous,
                config.ridge, config.threshold_beta)
            scores.append(detection_metrics(net, net_config, scorer,
                                            benchmark.test))
        except Exception as exc:
            raise RuntimeError(f"regime {label}: {exc}") from exc
    return scores


def run_experiment(benchmark, regimes=REGIMES):
    """Evaluate each requested regime on the shared test set.

    The regimes' networks train in one stacked pass.  Rows appear in
    canonical order.  Stage failures are re-raised with the regime name
    attached.
    """
    regimes = list(regimes)
    unknown = [r for r in regimes if r not in REGIMES]
    if unknown:
        raise ValueError(f"unknown regimes {unknown}; choose from {list(REGIMES)}")
    generated = (build_generated(benchmark)
                 if any("ODE(s)" in r for r in regimes) else [])
    sets = {
        "L(r)": benchmark.large,
        "S(r)": benchmark.small,
        "ODE(s)": generated,
        "S(r)+ODE(s)": benchmark.small + generated,
        "L(r)+ODE(s)": benchmark.large + generated,
    }
    names = [name for name in REGIMES if name in regimes]
    scores = _score_sets(benchmark, names, [sets[name] for name in names])
    return MetricsReport([
        RegimeRow(name, len(sets[name]), sum(len(s) for s in sets[name]), *prf)
        for name, prf in zip(names, scores)])


def augmentation_curve(benchmark, fractions):
    """Test F-score as generated series are mixed into the small real set.

    ``fractions`` must be sorted ascending and contain 0.  Fraction q
    trains on S(r) plus the first floor(q * n_generated) generated series;
    endpoints therefore reproduce the S(r) and S(r)+ODE(s) regime rows
    exactly under a shared seed.  The fractions' networks train in one
    stacked pass; a failure is re-raised naming its fraction.
    """
    fractions = [float(q) for q in fractions]
    if not fractions or fractions != sorted(fractions) or fractions[0] != 0.0:
        raise ValueError("fractions must be sorted ascending and start at 0")
    if any(q < 0 or q > 1 for q in fractions):
        raise ValueError("fractions must lie in [0, 1]")

    generated = build_generated(benchmark)
    scores = _score_sets(
        benchmark, [f"fraction {q:g}" for q in fractions],
        [benchmark.small + generated[:int(np.floor(q * len(generated)))]
         for q in fractions])
    return [(q, f_score) for q, (_, _, f_score) in zip(fractions, scores)]


def curve_to_csv_text(curve):
    lines = ["fraction,f_score"]
    lines.extend(f"{q:.6f},{f:.6f}" for q, f in curve)
    return "\n".join(lines) + "\n"
