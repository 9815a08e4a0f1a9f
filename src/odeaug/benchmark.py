"""Seeded ground-truth benchmark: a desk-scale stand-in for real sensor data.

Normal series come from a known first-order response model driven by a
two-state control sampler, with per-series parameter jitter so fitted
models differ across series, plus measurement noise.  Labeled sets are
produced by injecting the standard anomaly kinds; the ground-truth
parameters (not a fit) drive the wrong-state replacements.
"""

from dataclasses import dataclass, field, asdict

import numpy as np

from .anomalies import AnomalyKind, AnomalySpec, inject
from .control import AUTO, segment_control
from .errors import PlacementError, as_block, check_count, check_real
from .lstm import PredictorConfig
from .ode import PARAM_COUNT, FitConfig, OdeParams, equilibrium, integrate
from .series import TimeSeries

CONTROL_CHANNEL = "control"
RESPONSE_CHANNEL = "response"


def _as_kind(k):
    """An anomaly kind from itself, its name or its number."""
    if not isinstance(k, (AnomalyKind, str)):
        check_count("anomaly_kinds", k)
    try:
        return AnomalyKind[k.upper()] if isinstance(k, str) else AnomalyKind(k)
    except (KeyError, ValueError):
        raise ValueError(f"anomaly_kinds: unknown kind {k!r}") from None


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
        for name, size in (("base_params", PARAM_COUNT), ("duration_range", 2),
                           ("low_level_range", 2), ("high_level_range", 2)):
            values = tuple(getattr(self, name))
            if len(values) != size:
                raise ValueError(f"{name} must hold {size} values")
            for value in values:
                check = check_count if name == "duration_range" else check_real
                check(name, value)
            setattr(self, name, values)
        if isinstance(self.anomaly_kinds, str) or not self.anomaly_kinds:
            raise ValueError("anomaly_kinds must be a non-empty list of kinds")
        self.anomaly_kinds = tuple(_as_kind(k) for k in self.anomaly_kinds)
        check_count("seed", self.seed, 0)
        for name in ("series_length", "n_large", "n_small", "n_generated",
                     "n_val_normal", "n_val_anomalous", "n_test",
                     "injections_per_series", "anomaly_duration"):
            check_count(name, getattr(self, name))
        if self.duration_range[0] > self.duration_range[1]:
            raise ValueError("duration_range must have low <= high")
        check_real("base_params[1] (the decay)", self.base_params[1], 0,
                   low_open=True)
        check_real("sample_period", self.sample_period, 0, low_open=True)
        check_real("param_jitter", self.param_jitter, 0, 1, high_open=True)
        check_real("noise_std_frac", self.noise_std_frac, 0)
        check_real("ridge", self.ridge, 0)
        check_real("threshold_beta", self.threshold_beta, 0, low_open=True)
        self.lstm = as_block("lstm", self.lstm, LstmSettings)
        self.fit = as_block("fit", self.fit, FitConfig)


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
    jitter = 1.0 + config.param_jitter * rng.uniform(-1.0, 1.0, size=PARAM_COUNT)
    params = tuple(float(b * j) for b, j in zip(config.base_params, jitter))
    clean = integrate(
        OdeParams.single(params, config.series_length),
        equilibrium(params, control[0]),
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
            duration=config.anomaly_duration,
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
