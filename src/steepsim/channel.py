"""System configuration and random channel realizations.

The network has a multi-antenna prober (Alice, n_A antennas), a single-antenna
echoer (Bob) and an eavesdropper with n_E antennas (Eve). A realization holds
the four channel responses the analysis needs: the downlink vector h_BA seen
by Bob, the uplink vector h_AB seen by Alice, Eve's downlink matrix G_A and
Eve's uplink vector g_B. Uplink and downlink are correlated through a mixing
coefficient gamma: h_AB = gamma*h_BA + (1-gamma)*w with w an independent draw.
The mixture is used literally, without rescaling, so for 0 < gamma < 1 the
per-entry variance of h_AB is gamma^2 + (1-gamma)^2 rather than 1.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .linops import DegenerateChannelError, sample_cn, sample_cn_matrix


# bound on |P_A_dB| and |P_B_dB|, and on Eve's probe SNR P_A/sigma2_EA in
# dB. The power bound keeps 10^(dB/10) finite and nonzero by a wide margin.
# The probe-SNR bound keeps the test oracle beta_via_eig (tests/oracles.py)
# accurate: for n_A > n_E it forms scale*G_A^H G_A, which has rank n_E, and
# that Gram's rounding costs it accuracy in proportion to P_A/sigma2_EA (beta
# taken through it was off by up to 2e-6 relative at 100 dB). The package
# never forms that Gram: steep.beta factors the n_E-square one when
# n_A > n_E, and steep.mmse_estimator takes one SVD of G_A, forming no Gram.
POWER_DB_LIMIT = 100.0
# bound on the noise variances: sigma2_* must lie in [1/VARIANCE_LIMIT,
# VARIANCE_LIMIT]. With powers inside POWER_DB_LIMIT, every SNR and effective
# noise variance of the closed forms then stays below about 1e126 divided by
# the draw's smallest squared channel norm, far from float64's overflow at
# 1.8e308; variances of 1e+-300 gave inf and NaN rates (e.g. P_A_dB=100 with
# sigma2_B=1e-300)
VARIANCE_LIMIT = 1e100
# bound on n_A and n_E. At 32 each, an ensemble block of 512 trials holds
# G_A in 8.4 MB (16*512*32*32 bytes), its draw in 9.2 MB and the bordered
# Gram matrix in 8.9 MB, and peaks at 28 MB under tracemalloc; verify's
# draw buffer for its longest run, 10^7 symbols, takes 10.4 GB
# (16*(n_A + n_E + 1) bytes per symbol); n_A = n_E = 20000 asked for 2.98
# GiB for one realization's G_A, and n_A = n_E = 3000 for ~69 GiB per block
MAX_ANTENNAS = 32


class InfeasiblePowerError(Exception):
    """Configured echo-side power cannot cover the forwarded probe-noise term."""


class PowerConvention(str, Enum):
    """How the configured P_B_dB is interpreted.

    CONSUMED_PB: P_B_dB is the total per-sample power consumed by Bob during
        the echo phase; the reference power P_B' is derived per realization.
    REFERENCE_PB_PRIME: P_B_dB sets the reference power P_B' directly.
    """

    CONSUMED_PB = "ConsumedPB"
    REFERENCE_PB_PRIME = "ReferencePBPrime"


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    Args:
        n_A: Alice antenna count, an integer in [1, MAX_ANTENNAS].
        n_E: Eve antenna count, an integer in [1, MAX_ANTENNAS].
        P_A_dB: Alice transmit power in dB relative to unit noise, in
            [-POWER_DB_LIMIT, POWER_DB_LIMIT]; P_A_dB - 10*log10(sigma2_EA)
            is at most POWER_DB_LIMIT too.
        P_B_dB: Bob power in dB, in [-POWER_DB_LIMIT, POWER_DB_LIMIT]; meaning
            depends on power_convention.
        sigma2_B: noise variance at Bob (probe phase). Each noise variance
            lies in [1/VARIANCE_LIMIT, VARIANCE_LIMIT].
        sigma2_A: noise variance at Alice (echo phase).
        sigma2_EA: noise variance at Eve during the probe phase.
        sigma2_EB: noise variance at Eve during the echo phase.
        gamma: uplink/downlink mixing coefficient in [0, 1].
        power_convention: interpretation of P_B_dB.

    Every float field takes a finite real number, a numpy scalar included,
    and stores it as float; anything else, a bool too, raises ValueError.
    """

    n_A: int
    n_E: int
    P_A_dB: float
    P_B_dB: float
    sigma2_B: float = 1.0
    sigma2_A: float = 1.0
    sigma2_EA: float = 1.0
    sigma2_EB: float = 1.0
    gamma: float = 0.2
    power_convention: PowerConvention = PowerConvention.CONSUMED_PB

    def __post_init__(self):
        for f in fields(self):
            if f.type != "float":  # annotations are strings in this module
                continue
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")
            try:
                real = float(value)
            except OverflowError:  # an int beyond float64's range
                real = math.inf
            if not math.isfinite(real):
                raise ValueError(f"{f.name} must be finite, got {value}")
            # a numpy float would not survive json.dump of the manifest
            object.__setattr__(self, f.name, real)
        for name in ("n_A", "n_E"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not 1 <= value <= MAX_ANTENNAS:
                raise ValueError(f"{name} must be in [1, {MAX_ANTENNAS}], got {value}")
            # a numpy integer would not survive json.dump of the manifest
            object.__setattr__(self, name, int(value))
        for name in ("P_A_dB", "P_B_dB"):
            if abs(getattr(self, name)) > POWER_DB_LIMIT:
                raise ValueError(
                    f"{name} must be in [-{POWER_DB_LIMIT:g}, {POWER_DB_LIMIT:g}] dB, "
                    f"got {getattr(self, name)}"
                )
        for name in ("sigma2_B", "sigma2_A", "sigma2_EA", "sigma2_EB"):
            if not 1.0 / VARIANCE_LIMIT <= getattr(self, name) <= VARIANCE_LIMIT:
                raise ValueError(
                    f"{name} must be in [{1.0 / VARIANCE_LIMIT:g}, {VARIANCE_LIMIT:g}], "
                    f"got {getattr(self, name)}"
                )
        probe_snr_db = self.P_A_dB - 10.0 * math.log10(self.sigma2_EA)
        if probe_snr_db > POWER_DB_LIMIT:
            raise ValueError(
                f"Eve's probe SNR P_A_dB - 10*log10(sigma2_EA) must be <= "
                f"{POWER_DB_LIMIT:g} dB, got {probe_snr_db:.6g}"
            )
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not isinstance(self.power_convention, PowerConvention):
            raise ValueError(f"bad power convention: {self.power_convention!r}")

    @property
    def P_A(self) -> float:
        """Alice transmit power on a linear scale."""
        return 10.0 ** (self.P_A_dB / 10.0)

    @property
    def P_B(self) -> float:
        """Bob power on a linear scale (interpretation per power_convention)."""
        return 10.0 ** (self.P_B_dB / 10.0)


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the four channel responses."""

    h_BA: np.ndarray
    h_AB: np.ndarray
    G_A: np.ndarray
    g_B: np.ndarray


def norm2(v: np.ndarray) -> float:
    """Squared Euclidean (or Frobenius) norm as a real float."""
    return float(np.vdot(v, v).real)


def response_norm2(ch: ChannelRealization, name: str) -> float:
    """Squared norm of the response ch.<name>: the scalar API's one zero-norm
    rule, which raises DegenerateChannelError naming a zero-norm response."""
    n = norm2(getattr(ch, name))
    if n == 0.0:
        raise DegenerateChannelError(f"degenerate draw: {name} has zero norm")
    return n


def sample_realization(cfg: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization with i.i.d. CN(0,1) entries.

    Draws h_BA, w, g_B, G_A in that order and forms the correlated uplink
    h_AB = gamma*h_BA + (1-gamma)*w.

    Raises:
        DegenerateChannelError: if any drawn response has zero norm
            (probability zero; rejected rather than resampled so the
            trial-to-seed mapping stays stable).
    """
    h_BA = sample_cn(cfg.n_A, rng)
    w = sample_cn(cfg.n_A, rng)
    g_B = sample_cn(cfg.n_E, rng)
    G_A = sample_cn_matrix(cfg.n_E, cfg.n_A, rng)
    h_AB = cfg.gamma * h_BA + (1.0 - cfg.gamma) * w
    ch = ChannelRealization(h_BA=h_BA, h_AB=h_AB, G_A=G_A, g_B=g_B)
    for name in ("h_BA", "h_AB", "G_A", "g_B"):
        response_norm2(ch, name)
    return ch


def echo_budget(cfg: SystemConfig) -> float:
    """Bob's budget left for the echo under CONSUMED_PB: P_B - (n_A/P_A)*sigma2_B.

    Depends on the configuration alone, so a run is either feasible for every
    realization or for none.

    Raises:
        InfeasiblePowerError: if the budget cannot cover the forwarded
            probe-noise floor (n_A/P_A)*sigma2_B.
    """
    echo_floor = (cfg.n_A / cfg.P_A) * cfg.sigma2_B
    if cfg.P_B <= echo_floor:
        raise InfeasiblePowerError(
            f"infeasible power budget: P_B={cfg.P_B:.6g} does not exceed "
            f"the probe-noise floor {echo_floor:.6g}"
        )
    return cfg.P_B - echo_floor


def reference_power(cfg: SystemConfig, nh_BA):
    """Reference echo power P_B' for nh_BA = ||h_BA||^2, a float or an array.

    Under REFERENCE_PB_PRIME the configured linear P_B is returned unchanged.
    Under CONSUMED_PB the configured P_B is Bob's total per-sample budget
    P_B = P_B' + P_B'*||h_BA||^2 + (n_A/P_A)*sigma2_B, and the unique P_B'
    solving it is returned, elementwise for an array.

    Raises:
        InfeasiblePowerError: under CONSUMED_PB, see echo_budget.
    """
    if cfg.power_convention is PowerConvention.REFERENCE_PB_PRIME:
        return cfg.P_B
    return echo_budget(cfg) / (1.0 + nh_BA)
