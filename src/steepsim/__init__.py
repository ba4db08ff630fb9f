"""Secrecy-capacity simulator for two-phase probe-echo transmission.

A multi-antenna prober sends random pilots, a single-antenna peer echoes them
back encrypted with a secret, and the resulting effective wiretap channel
gives the legitimate side an advantage an eavesdropper cannot remove. The
package computes the per-realization secrecy capacity of that scheme, a
conventional half-duplex two-way baseline on the same channels, Monte Carlo
distributions and outage curves over fading ensembles, and a symbol-level
simulation used to verify the closed forms.
"""

__version__ = "0.1.0"

from .baseline import BaselineAnalysis, conventional
from .channel import (
    ChannelRealization,
    InfeasiblePowerError,
    PowerConvention,
    SystemConfig,
    norm2,
    reference_power,
    sample_realization,
)
from .linops import (
    DegenerateChannelError,
    HermitianEig,
    hermitian_eig,
    sample_cn,
    sample_cn_matrix,
    solve_psd,
)
from .mc import (
    EnsembleResult,
    RunManifest,
    gain_distribution,
    outage_at,
    run_ensemble,
    write_outputs,
)
from .sigsim import (
    SignalTrace,
    alice_receiver,
    eve_receiver,
    run_phase1,
    run_phase2,
    trace_to_csv,
    variance_report,
)
from .steep import (
    SteepAnalysis,
    beta,
    beta_via_eig,
    c_key_siso,
    c_steep,
    c_steep_asymptotic_nA_le_nE,
    c_steep_large_pb,
    mmse_residual_cov,
    natural_outage_condition,
    outage_power_threshold,
    sdof,
    sigma2_vA,
    sigma2_vE,
)

__all__ = [
    "__version__",
    "BaselineAnalysis",
    "ChannelRealization",
    "DegenerateChannelError",
    "EnsembleResult",
    "HermitianEig",
    "InfeasiblePowerError",
    "PowerConvention",
    "RunManifest",
    "SignalTrace",
    "SteepAnalysis",
    "SystemConfig",
    "alice_receiver",
    "beta",
    "beta_via_eig",
    "c_key_siso",
    "c_steep",
    "c_steep_asymptotic_nA_le_nE",
    "c_steep_large_pb",
    "conventional",
    "eve_receiver",
    "gain_distribution",
    "hermitian_eig",
    "mmse_residual_cov",
    "natural_outage_condition",
    "norm2",
    "outage_at",
    "outage_power_threshold",
    "reference_power",
    "run_ensemble",
    "run_phase1",
    "run_phase2",
    "sample_cn",
    "sample_cn_matrix",
    "sample_realization",
    "sdof",
    "sigma2_vA",
    "sigma2_vE",
    "solve_psd",
    "trace_to_csv",
    "variance_report",
    "write_outputs",
]
