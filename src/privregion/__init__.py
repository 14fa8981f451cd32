"""Privacy-region trajectory obfuscation and the attacks it must survive.

A user's published GPS tracks are cut at the boundary of a disk around
their home location. This package simulates the strategies for choosing
those disks, mounts the Bayesian attack that tries to recover the home
location from the published exit points, and measures the privacy each
strategy buys at matched utility cost.
"""

from .core import (
    BetaParams,
    Disk,
    GammaParams,
    Point,
    derive_rng,
    make_rng,
)
from .harmonic import (
    harmonic_log_density,
    sample_exit_offsets,
)
from .inference import (
    AttackReport,
    PosteriorSamples,
    attack,
    grid_posterior,
    posterior_mse,
    recover_center,
    rr_log_posterior,
    rwm_sample,
    tb_log_posterior,
)
from .strategies import (
    CalibrationResult,
    ExitObservationSet,
    FixedRadius,
    RandomRadius,
    StrategySpec,
    TwoBalls,
    calibrate_random_radius,
    generate_observations,
    obfuscate_track,
    sample_region,
    sample_sps,
    sp_cdf,
)
from .trajectory import (
    CutResult,
    Trajectory,
    cut_privacy_region,
    read_track,
    simulate_brownian,
    squared_perturbation,
    write_track,
)
from .experiments import (
    TABLE1_SETTINGS,
    ScenarioConfig,
    load_config,
    run_bench,
    run_calibrate,
    run_curve,
    run_obfuscate,
    run_table1,
)

__version__ = "0.1.0"

__all__ = [
    "AttackReport",
    "BetaParams",
    "CalibrationResult",
    "CutResult",
    "Disk",
    "ExitObservationSet",
    "FixedRadius",
    "GammaParams",
    "Point",
    "PosteriorSamples",
    "RandomRadius",
    "ScenarioConfig",
    "StrategySpec",
    "TABLE1_SETTINGS",
    "Trajectory",
    "TwoBalls",
    "attack",
    "calibrate_random_radius",
    "cut_privacy_region",
    "derive_rng",
    "generate_observations",
    "grid_posterior",
    "harmonic_log_density",
    "load_config",
    "make_rng",
    "obfuscate_track",
    "posterior_mse",
    "read_track",
    "recover_center",
    "rr_log_posterior",
    "run_bench",
    "run_calibrate",
    "run_curve",
    "run_obfuscate",
    "run_table1",
    "rwm_sample",
    "sample_exit_offsets",
    "sample_region",
    "sample_sps",
    "simulate_brownian",
    "sp_cdf",
    "squared_perturbation",
    "tb_log_posterior",
    "write_track",
    "__version__",
]
