"""Beamforming design and rate simulation for an active IRS link.

An active intelligent reflecting surface amplifies as well as phase
shifts, subject to a reflect-power budget and an amplification noise
penalty. This package provides the channel model, four coefficient
designs plus two sanity baselines, the link metrics, a brute-force
optimality oracle for small surfaces, and a seeded Monte-Carlo
experiment harness with a CSV-emitting CLI.
"""

from .system import (
    SystemParams,
    ChannelRealization,
    dbm_to_watts,
    node_distances,
    path_loss_gain,
    sample_channels,
    sample_channels_batch,
    trial_seed,
    trial_seeds,
)
from .beamforming import (
    Method,
    SignMode,
    SolverOptions,
    Beamformer,
    ConvergenceTrace,
    TraceRecord,
    lambda_from_normalized,
    egr,
    mrr,
    srr,
    MatchedBatch,
    srr_batch,
    asnr_direction,
    max_asnr,
    MaxAsnrBatch,
    max_asnr_batch,
    random_phase,
    passive_aligned,
)
from .metrics import (
    reflected_power,
    receive_power,
    snr,
    rate,
    rate_batch,
    asnr_value,
)
from .oracle import (
    OracleResult,
    Adjudication,
    grid_search_best,
    sign_adjudicate,
)
from .config import Scenario, ConfigError, ExperimentConfig, parse_config
from .experiments import (
    ExperimentResult,
    build_beamformer,
    monte_carlo_rates,
    run_convergence,
    run_srr_sweep,
    run_rate_vs_n,
    run_oracle_check,
    format_csv,
)

__version__ = "0.1.0"
