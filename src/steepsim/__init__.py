"""Secrecy-capacity simulator for two-phase probe-echo transmission.

A multi-antenna prober sends random pilots, a single-antenna peer echoes them
back encrypted with a secret, and the resulting effective wiretap channel
gives the legitimate side an advantage an eavesdropper cannot remove. The
package computes the per-realization secrecy capacity of that scheme, a
conventional half-duplex two-way baseline on the same channels, Monte Carlo
distributions and outage curves over fading ensembles, and a symbol-level
simulation used to verify the closed forms.

The package namespace holds the names the README and scripts/ use; the rest
of the API lives in the submodules (steepsim.steep, steepsim.sigsim, ...).
"""

__version__ = "0.1.0"

from .baseline import conventional
from .channel import InfeasiblePowerError, PowerConvention, SystemConfig, sample_realization
from .linops import DegenerateChannelError
from .mc import gain_distribution, outage_at, run_ensemble, samples_file, write_outputs
from .steep import c_steep

__all__ = [
    "__version__",
    "DegenerateChannelError",
    "InfeasiblePowerError",
    "PowerConvention",
    "SystemConfig",
    "c_steep",
    "conventional",
    "gain_distribution",
    "outage_at",
    "run_ensemble",
    "sample_realization",
    "samples_file",
    "write_outputs",
]
