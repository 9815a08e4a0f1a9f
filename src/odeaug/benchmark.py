"""Seeded ground-truth benchmark: a desk-scale stand-in for real sensor data.

Normal series come from a known first-order response model driven by a
two-state control sampler, with per-series parameter jitter so fitted
models differ across series, plus measurement noise.  Labeled sets are
produced by injecting the standard anomaly kinds; the ground-truth
parameters (not a fit) drive the wrong-state replacements.
"""

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .anomalies import AnomalyKind, AnomalySpec, inject
from .control import AUTO, segment_control
from .errors import PlacementError
from .lstm import PredictorConfig
from .ode import FitConfig, OdeParams, PsoConfig, SgdConfig, integrate
from .series import TimeSeries

CONTROL_CHANNEL = "control"
RESPONSE_CHANNEL = "response"


def _as_kind(k):
    if isinstance(k, AnomalyKind):
        return k
    if isinstance(k, str):
        return AnomalyKind[k.upper()]
    return AnomalyKind(k)


@dataclass
class LstmSettings:
    """Predictor hyperparameters used by the experiment harness; rejects
    what :class:`PredictorConfig` rejects."""

    layer_sizes: tuple = (16,)
    prediction_length: int = 3
    learning_rate: float = 1e-2
    epochs: int = 30
    clip_norm: float = 5.0
    tbptt_length: int = 64
    series_batch_size: int = 8
    patience: int = 6

    def __post_init__(self):
        self.layer_sizes = tuple(self.layer_sizes)
        self.predictor_config(0)

    def predictor_config(self, seed):
        """The predictor these settings give on the benchmark channels."""
        return PredictorConfig(
            input_channels=(CONTROL_CHANNEL, RESPONSE_CHANNEL),
            predicted_channels=(RESPONSE_CHANNEL,), seed=seed, **asdict(self),
        )


@dataclass
class BenchmarkConfig:
    seed: int = 0
    sample_period: float = 0.1
    series_length: int = 500
    n_large: int = 40
    n_small: int = 8
    n_generated: int = 24
    n_val_normal: int = 4
    n_val_anomalous: int = 8
    n_test: int = 12
    base_params: tuple = (2.0, 0.3, 0.1)
    param_jitter: float = 0.1
    duration_range: tuple = (20, 80)
    low_level_range: tuple = (0.1, 0.3)
    high_level_range: tuple = (0.7, 1.0)
    noise_std_frac: float = 0.01
    anomaly_kinds: tuple = tuple(AnomalyKind)
    injections_per_series: int = 2
    anomaly_duration: int = 12
    ridge: float = 1e-6
    threshold_beta: float = 1.0
    lstm: LstmSettings = field(default_factory=LstmSettings)
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        for name in ("base_params", "duration_range", "low_level_range",
                     "high_level_range"):
            setattr(self, name, tuple(getattr(self, name)))
        self.anomaly_kinds = tuple(_as_kind(k) for k in self.anomaly_kinds)
        for name in ("series_length", "n_large", "n_small", "n_generated",
                     "n_val_normal", "n_val_anomalous", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.noise_std_frac < 0:
            raise ValueError("noise_std_frac must be >= 0")
        if self.base_params[1] <= 0:
            raise ValueError("ground-truth decay coefficient must be positive")
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError("ridge must be finite and >= 0")
        if not (math.isfinite(self.threshold_beta) and self.threshold_beta > 0):
            raise ValueError("threshold_beta must be finite and > 0")


@dataclass
class Benchmark:
    config: BenchmarkConfig
    large: list
    small: list
    val_normal: list
    val_anomalous: list
    test: list


_SET_TAGS = {"large": 0, "small": 1, "val_normal": 2, "val_anomalous": 3, "test": 4}


def _sample_ground_truth_control(config, rng):
    n = config.series_length
    lo_d, hi_d = config.duration_range
    out = np.empty(n)
    high = rng.random() < 0.5
    pos = 0
    while pos < n:
        dur = int(rng.integers(lo_d, hi_d + 1))
        level = (
            rng.uniform(*config.high_level_range)
            if high
            else rng.uniform(*config.low_level_range)
        )
        out[pos:pos + dur] = level
        pos += dur
        high = not high
    return out


def _gen_normal(config, rng):
    """One normal 2-channel series plus its ground-truth parameters."""
    control = _sample_ground_truth_control(config, rng)
    jitter = 1.0 + config.param_jitter * rng.uniform(-1.0, 1.0, size=3)
    params = tuple(float(b * j) for b, j in zip(config.base_params, jitter))
    p0, p1, p2 = params
    x0 = (p0 * control[0] + p2) / p1
    clean = integrate(
        OdeParams.single(params, config.series_length),
        x0,
        control,
        config.sample_period,
    )
    noise_std = config.noise_std_frac * float(np.max(clean) - np.min(clean))
    response = clean + (
        rng.normal(0.0, noise_std, clean.shape[0]) if noise_std > 0 else 0.0
    )
    series = TimeSeries(
        [CONTROL_CHANNEL, RESPONSE_CHANNEL],
        config.sample_period,
        np.column_stack([control, response]),
    )
    return series, params


def _inject_all(config, series, true_params, series_index, rng):
    """Apply the configured anomaly kinds to one normal series, in turn."""
    segmentation = segment_control(series, CONTROL_CHANNEL, AUTO, min_duration=2)
    model = OdeParams.single(true_params, len(series))
    kinds = config.anomaly_kinds
    labeled = series
    for j in range(config.injections_per_series):
        kind = kinds[(series_index + j) % len(kinds)]
        spec = AnomalySpec(
            kind=kind,
            duration=int(config.anomaly_duration),
            count=1,
            seed=int(rng.integers(0, 2**31)),
        )
        try:
            labeled, _ = inject(labeled, segmentation, model, spec, RESPONSE_CHANNEL)
        except PlacementError:
            # crowded series: skip this injection rather than fail the set
            continue
    if labeled.labels is None:
        labeled = labeled.with_labels(np.zeros(len(labeled), dtype=bool))
    return labeled


def _gen_set(config, set_name, count, labeled):
    out = []
    for idx in range(count):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(config.seed), _SET_TAGS[set_name], idx])
        )
        series, params = _gen_normal(config, rng)
        if labeled:
            series = _inject_all(config, series, params, idx, rng)
        out.append(series)
    return out


def gen_benchmark(config=None):
    """Generate all benchmark splits; byte-identical for identical seeds."""
    config = config or BenchmarkConfig()
    return Benchmark(
        config=config,
        large=_gen_set(config, "large", config.n_large, labeled=False),
        small=_gen_set(config, "small", config.n_small, labeled=False),
        val_normal=_gen_set(config, "val_normal", config.n_val_normal, labeled=False),
        val_anomalous=_gen_set(
            config, "val_anomalous", config.n_val_anomalous, labeled=True
        ),
        test=_gen_set(config, "test", config.n_test, labeled=True),
    )


# ---------------------------------------------------------------------------
# config (de)serialization for CLI use

def config_to_dict(config):
    doc = asdict(config)
    doc["anomaly_kinds"] = [k.name.lower() for k in config.anomaly_kinds]
    return doc


def config_from_dict(doc):
    """The config a :func:`config_to_dict` document describes; the
    dataclasses turn JSON lists back into tuples themselves."""
    doc = dict(doc)
    if "lstm" in doc and isinstance(doc["lstm"], dict):
        doc["lstm"] = LstmSettings(**doc["lstm"])
    if "fit" in doc and isinstance(doc["fit"], dict):
        fit = dict(doc["fit"])
        if "sgd" in fit and isinstance(fit["sgd"], dict):
            fit["sgd"] = SgdConfig(**fit["sgd"])
        if "pso" in fit and isinstance(fit["pso"], dict):
            fit["pso"] = PsoConfig(**fit["pso"])
        doc["fit"] = FitConfig(**fit)
    return BenchmarkConfig(**doc)
