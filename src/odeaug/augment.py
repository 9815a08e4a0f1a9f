"""Synthetic (control, dependent) pair generation.

A sampled control input is matched to the closest fitted donor pair by
normalized feature distance, and the donor's ODE parameters are
integrated under the new control to produce the dependent channel.
Generation is a pure function of (plan, index): child seeds are derived
from the plan seed and the pair index, so pairs can be produced in any
order or in parallel.
"""

from dataclasses import dataclass

import numpy as np

from .control import (ControlProfile, PairFeatures, pair_features,
                      render_segments, sample_segments, select_donor)
from .errors import DivergenceError, GenerationError, check_count, check_real
from .ode import OdeParams, integrate, params_from_dict, params_to_dict
from .series import TimeSeries


@dataclass(frozen=True)
class FittedPair:
    """One donor: control features, fitted parameters, initial state."""

    features: PairFeatures
    params: OdeParams
    initial_value: float


@dataclass
class AugmentationPlan:
    profile: ControlProfile
    fitted: list
    count: int
    length: int
    seed: int
    sample_period: float
    channel_names: tuple = ("control", "dependent")

    def __post_init__(self):
        if not self.fitted:
            raise ValueError("plan needs at least one fitted pair")
        check_count("count", self.count)
        check_count("length", self.length, 2)
        check_count("seed", self.seed, 0)
        check_real("sample_period", self.sample_period, 0, low_open=True)
        if len(self.channel_names) != 2:
            raise ValueError("channel_names must be (control, dependent)")


@dataclass(frozen=True)
class GenerationRecord:
    index: int
    donor_index: int
    seed_key: tuple


def generate_with_record(plan, k):
    """Generate pair ``k`` of the plan along with its provenance record."""
    k = int(k)
    if not (0 <= k < plan.count):
        raise ValueError(f"pair index {k} outside [0, {plan.count})")
    seed_key = (int(plan.seed), k)
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_key)))
    segmentation = sample_segments(plan.profile, plan.length, rng)
    control = render_segments(segmentation)
    features = pair_features(segmentation)
    donor_idx = select_donor(features, [f.features for f in plan.fitted])
    donor = plan.fitted[donor_idx]
    try:
        dependent = integrate(
            donor.params, donor.initial_value, control, plan.sample_period
        )
    except DivergenceError as exc:
        raise GenerationError(
            donor_idx, seed_key, f"integration diverged at step {exc.step_index}"
        ) from exc
    series = TimeSeries(
        list(plan.channel_names),
        plan.sample_period,
        np.column_stack([control, dependent]),
    )
    return series, GenerationRecord(k, donor_idx, seed_key)


def generate_series_pair(plan, k):
    """Generate the ``k``-th synthetic pair: 2 channels (control, dependent)."""
    return generate_with_record(plan, k)[0]


# ---------------------------------------------------------------------------
# serialization: fitted-pair documents and generation manifests

def fitted_pair_to_dict(pair, **meta):
    doc = params_to_dict(pair.params)
    doc["initial_value"] = pair.initial_value
    doc["features"] = {
        "mean_high_duration": pair.features.mean_high_duration,
        "mean_low_duration": pair.features.mean_low_duration,
        "mean_high_level": pair.features.mean_high_level,
        "mean_low_level": pair.features.mean_low_level,
    }
    doc.update(meta)
    return doc


def fitted_pair_from_dict(doc):
    features = PairFeatures(**doc["features"])
    check_real("initial_value", doc["initial_value"])
    return FittedPair(
        features, params_from_dict(doc), float(doc["initial_value"]))


def donor_from_dict(doc):
    """A donor model document's fitted pair, sample period and channels."""
    channels = doc.get("channels") or {"control": "control",
                                       "dependent": "dependent"}
    names = (channels["control"], channels["dependent"])
    if not all(isinstance(name, str) for name in names):
        raise ValueError(f"channel names must be strings, got {names!r}")
    check_real("sample_period", doc["sample_period"], 0, low_open=True)
    return fitted_pair_from_dict(doc), float(doc["sample_period"]), names
