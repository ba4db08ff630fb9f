"""Conventional half-duplex two-way baseline.

Each direction runs a classical one-shot wiretap transmission: Alice beamforms
a secret to Bob in phase 1, Bob sends another secret to Alice in phase 2, and
the achievable sum is the clamped per-phase secrecy capacities added together.
The baseline spends the full configured P_B in phase 2 regardless of the
power convention used for the echo scheme; the probe-echo side derives its
reference power from the same budget, which is the intended comparison.
The gain over the probe-echo scheme comes from the caller's c_steep of the
same realization; this module computes no c_steep of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelRealization, SystemConfig, norm2, response_norm2
from .steep import SteepAnalysis, log2_ratio


@dataclass(frozen=True)
class BaselineAnalysis:
    """Per-realization SNRs, per-phase capacities, their sum, and the gain
    of the probe-echo scheme over this baseline."""

    snr_B: float
    snr_EA: float
    snr_A: float
    snr_EB: float
    c1: float
    c2: float
    c_conv: float
    gain: float


def conventional(
    cfg: SystemConfig, ch: ChannelRealization, steep: SteepAnalysis
) -> BaselineAnalysis:
    """Analyze the two-way baseline on one realization.

    Phase 1 beamforms along h_BA, so Eve sees the equivalent vector channel
    g_A = G_A h_BA^* / ||h_BA||. Phase 2 is a plain single-antenna broadcast
    received by maximal ratio combining. c1 and c2 are evaluated in a form
    whose sign matches the SNR comparison exactly.

    Args:
        steep: steep.c_steep(cfg, ch), the probe-echo analysis of the same
            realization; the gain is its clamped rate minus c_conv.

    Raises:
        DegenerateChannelError: if h_BA or h_AB has zero norm.
    """
    nh_BA = response_norm2(ch, "h_BA")
    nh_AB = response_norm2(ch, "h_AB")
    g_A = ch.G_A @ (ch.h_BA.conj() / math.sqrt(nh_BA))
    snr_B = cfg.P_A * nh_BA / cfg.sigma2_B
    snr_EA = cfg.P_A * norm2(g_A) / cfg.sigma2_EA
    snr_A = cfg.P_B * nh_AB / cfg.sigma2_A
    snr_EB = cfg.P_B * norm2(ch.g_B) / cfg.sigma2_EB
    c1 = log2_ratio((snr_B - snr_EA) / (1.0 + snr_EA), snr_B, snr_EA)
    c2 = log2_ratio((snr_A - snr_EB) / (1.0 + snr_EB), snr_A, snr_EB)
    c_conv = max(0.0, c1) + max(0.0, c2)
    return BaselineAnalysis(
        snr_B=snr_B,
        snr_EA=snr_EA,
        snr_A=snr_A,
        snr_EB=snr_EB,
        c1=c1,
        c2=c2,
        c_conv=c_conv,
        gain=steep.c_steep_clamped - c_conv,
    )
