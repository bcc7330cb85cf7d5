"""Monte-Carlo simulator and detector library for sparse-spreading
synchronous CDMA with likelihood ascent search (LAS) detection."""

from .channel import ChannelParams, matched_filter, snr_to_sigma, transmit
from .detect import (
    DetectorRun,
    LockstepRuns,
    MAX_EXHAUSTIVE_BITS,
    Schedule,
    gml_exhaustive,
    initial_gradient,
    las_lockstep,
    las_run,
    likelihood,
    mf_detect,
    slas_detect,
    wslas_detect,
)
from .harness import (
    BerEstimate,
    ConfigError,
    ExperimentConfig,
    InfeasibleError,
    q_function,
    run_experiment,
    single_user_bound,
    sweep,
    wilson_interval,
    write_csv,
)
from .seqgen import (
    CrossCorr,
    SequenceMatrix,
    crosscorrelation,
    gen_sparse_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BerEstimate",
    "ChannelParams",
    "ConfigError",
    "CrossCorr",
    "DetectorRun",
    "ExperimentConfig",
    "InfeasibleError",
    "LockstepRuns",
    "MAX_EXHAUSTIVE_BITS",
    "Schedule",
    "SequenceMatrix",
    "crosscorrelation",
    "gen_sparse_matrix",
    "gml_exhaustive",
    "initial_gradient",
    "las_lockstep",
    "las_run",
    "likelihood",
    "matched_filter",
    "mf_detect",
    "q_function",
    "run_experiment",
    "single_user_bound",
    "slas_detect",
    "snr_to_sigma",
    "sweep",
    "transmit",
    "wilson_interval",
    "write_csv",
    "wslas_detect",
]
