"""Simulator and analytic calculator for temporally multiplexed DLCZ repeater links.

Subpackages map onto the problem's layers:

    link_physics   photon statistics of one elementary link: batch sampling
                   pipeline and its exact closed forms
    metrics        concurrence / visibility / retrieval-efficiency estimators
    rate           closed-form nested-chain rate recursion
    chain_sim      discrete-event Monte Carlo of the full chain
    fitters        weighted least-squares fits (exponential, linear, fringe)
    experiments    storage-time and mode-count scan pipelines
    calibration    frozen benchmark-link calibration and its solver
    config_io      INI configs, manifests, deterministic result files
    cli            the `dlczsim` command
"""

from .calibration import calibrated_link_params
from .chain_sim import ChainTrace, SimConfig, simulate_chain, simulate_elementary_link
from .errors import (
    ConfigError,
    ContractError,
    DlczSimError,
    EstimatorError,
    IllConditionedError,
    NoHeraldsError,
    ParameterError,
    RankDeficiencyError,
    StalledChainError,
)
from .fitters import FitResult, Samples, fit_exponential, fit_linear_origin, fit_sinusoid
from .link_physics import (
    LinkParams,
    PmnTable,
    expected_herald_probability,
    expected_pmn,
    expected_window_detection,
    fringe_expectation,
    fringe_visibility,
    run_link_trials,
)
from .metrics import (
    ConcurrenceResult,
    CountsRecord,
    concurrence,
    intrinsic_efficiency,
    visibility,
)
from .rate import ChainParams, ChainReport, elementary_p0, multiplexed_success, swap_chain

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "calibrated_link_params",
    "ChainParams",
    "ChainReport",
    "ChainTrace",
    "ConcurrenceResult",
    "ConfigError",
    "ContractError",
    "CountsRecord",
    "DlczSimError",
    "EstimatorError",
    "FitResult",
    "IllConditionedError",
    "LinkParams",
    "NoHeraldsError",
    "ParameterError",
    "PmnTable",
    "RankDeficiencyError",
    "Samples",
    "SimConfig",
    "StalledChainError",
    "concurrence",
    "elementary_p0",
    "expected_herald_probability",
    "expected_pmn",
    "expected_window_detection",
    "fit_exponential",
    "fit_linear_origin",
    "fit_sinusoid",
    "fringe_expectation",
    "fringe_visibility",
    "intrinsic_efficiency",
    "multiplexed_success",
    "run_link_trials",
    "simulate_chain",
    "simulate_elementary_link",
    "swap_chain",
    "visibility",
]
