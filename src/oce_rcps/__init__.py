"""Risk-calibrated prediction-set thresholding with OCE risk control."""

__version__ = "0.1.0"

from .bounds import betting_fractions, capital_process, oce_risk_ucb
from .calibrate import (
    CalibrationOutcome,
    LambdaGrid,
    ReliabilitySpec,
    select_oce_crc,
    select_oce_rcps,
    select_rcps,
)
from .datagen import (
    Dataset,
    DatasetParseError,
    GeneratorParams,
    SplitSpec,
    generate_dataset,
    read_dataset,
    split_dataset,
    write_dataset,
)
from .harness import ExperimentSummary, TrialConfig, TrialRecord, kde_density, run_trial, run_trials, summarize
from .risk import (
    LossKind,
    OceCost,
    bound_B,
    empirical_objective,
    empirical_oce,
    optimize_t,
)
