"""Exception types raised across the pipeline, and the field checks
every config dataclass runs.

Plain ``ValueError`` is used for ordinary invalid arguments; the classes
here exist where callers need to carry extra context (step indices, best
candidates seen so far) or to catch a specific failure mode.
"""

import math
import numbers


def check_count(name, value, low=1):
    """Raise ValueError, naming ``name``, unless ``value`` is an integer
    >= ``low`` and not a bool."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(name, value, low=-math.inf, high=math.inf, low_open=False,
               high_open=False):
    """Raise ValueError, naming ``name``, unless ``value`` is a finite
    number (not a bool) between ``low`` and ``high``, each bound excluded
    when its ``*_open`` flag is set."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)
            and (low < value if low_open else low <= value)
            and (value < high if high_open else value <= high)):
        raise ValueError(
            f"{name} must be a finite number in "
            f"{'(' if low_open or low == -math.inf else '['}{low:g}, {high:g}"
            f"{')' if high_open or high == math.inf else ']'}, got {value!r}")


def check_document(doc, kind):
    """Raise ValueError unless ``doc`` is a ``kind`` document of version 1,
    the integer and not a bool or a float."""
    if doc.get("kind") != kind:
        raise ValueError(f"not a {kind} document")
    version = doc.get("version")
    if type(version) is not int or version != 1:
        raise ValueError(f"{kind} document version must be 1, got {version!r}")


def as_block(name, value, cls):
    """``value`` as a ``cls``, built from it if it is a JSON object."""
    if isinstance(value, cls):
        return value
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    try:
        return cls(**value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


class CsvFormatError(ValueError):
    """A CSV file does not conform to the expected schema."""

    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class DivergenceError(RuntimeError):
    """Numerical integration produced a non-finite or runaway state."""

    def __init__(self, step_index, message=None):
        self.step_index = step_index
        super().__init__(message or f"integration diverged at step {step_index}")


class UnidentifiableError(ValueError):
    """The regression design is rank-deficient; parameters cannot be resolved."""


class RefinementFailedError(RuntimeError):
    """Every swarm evaluation diverged; carries the best input candidate."""

    def __init__(self, best_params, best_rmse):
        self.best_params = best_params
        self.best_rmse = best_rmse
        super().__init__("all particle evaluations diverged during refinement")


class PlacementError(RuntimeError):
    """No feasible region placement for the requested anomaly injection."""


class GenerationError(RuntimeError):
    """Synthetic series generation failed; identifies donor and seed."""

    def __init__(self, donor_index, seed_key, message):
        self.donor_index = donor_index
        self.seed_key = seed_key
        super().__init__(f"{message} (donor {donor_index}, seed {seed_key})")


class TrainingDivergedError(RuntimeError):
    """Network training produced a non-finite loss; ``job`` indexes the
    training job that diverged."""

    def __init__(self, epoch, message=None, job=0):
        self.epoch = epoch
        self.job = job
        super().__init__(message or f"training loss became non-finite at epoch {epoch}")


class InvalidJobError(ValueError):
    """A training job cannot be trained; ``job`` is its index in the call."""

    def __init__(self, job, message):
        self.job = job
        super().__init__(message)


class DegenerateLabelsError(ValueError):
    """Threshold selection needs at least one positive and one negative label."""
