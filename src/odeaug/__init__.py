"""ODE-augmented training data for LSTM-based anomaly detection.

Pipeline pieces: fit a windowed ODE to (control, dependent) sensor
pairs, model the two-state control statistically, sample novel controls
and integrate the fitted ODE to generate synthetic training series,
inject labeled anomalies, and train/evaluate a stacked-LSTM predictor
with Gaussian error-vector scoring.
"""

from .anomalies import AnomalyKind, AnomalySpec, InjectionReport, inject, \
    pick_injection_regions
from .augment import AugmentationPlan, FittedPair, generate_series_pair
from .benchmark import Benchmark, BenchmarkConfig, LstmSettings, gen_benchmark
from .control import (AUTO, ControlProfile, PairFeatures, State,
                      StateSegmentation, build_profile, pair_features,
                      segment_control, select_donor)
from .experiment import (REGIMES, augmentation_curve, build_generated,
                         run_experiment)
from .lstm import (LstmNetwork, PredictorConfig, init_network, predict,
                   predict_many, train)
from .metrics import MetricsReport, RegimeRow, prf_metrics
from .ode import (FitConfig, FitReport, OdeParams, PsoConfig, SeriesPair,
                  SgdConfig, fit, fit_gradient_sgd, integrate, refine_pso)
from .scoring import (GaussianScorer, error_vectors, fit_gaussian,
                      log_likelihood, score_many, select_threshold)
from .series import TimeSeries, read_csv, write_csv

__version__ = "0.1.0"
