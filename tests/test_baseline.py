import math

import numpy as np
import pytest

from steepsim.baseline import conventional
from steepsim.channel import ChannelRealization, SystemConfig, norm2, sample_realization
from steepsim.linops import DegenerateChannelError
from steepsim.steep import c_steep


def _cfg(**kw):
    base = dict(n_A=4, n_E=2, P_A_dB=20.0, P_B_dB=30.0)
    base.update(kw)
    return SystemConfig(**base)


def test_link_snrs_match_manual_forms():
    cfg = _cfg(n_A=3, n_E=4)
    ch = sample_realization(cfg, np.random.default_rng(7))
    ba = conventional(cfg, ch, steep=c_steep(cfg, ch))
    assert ba.snr_B == pytest.approx(cfg.P_A * norm2(ch.h_BA) / cfg.sigma2_B, rel=1e-12)
    # Eve overhears the transmit beam steered along h_BA*
    g_a = ch.G_A @ (ch.h_BA.conj() / math.sqrt(norm2(ch.h_BA)))
    assert ba.snr_EA == pytest.approx(cfg.P_A * norm2(g_a) / cfg.sigma2_EA, rel=1e-12)
    assert ba.snr_A == pytest.approx(cfg.P_B * norm2(ch.h_AB) / cfg.sigma2_A, rel=1e-12)
    assert ba.snr_EB == pytest.approx(cfg.P_B * norm2(ch.g_B) / cfg.sigma2_EB, rel=1e-12)


def test_direction_rates_are_wiretap_differences():
    cfg = _cfg()
    ch = sample_realization(cfg, np.random.default_rng(8))
    ba = conventional(cfg, ch, steep=c_steep(cfg, ch))
    assert ba.c1 == pytest.approx(math.log2(1 + ba.snr_B) - math.log2(1 + ba.snr_EA), abs=1e-12)
    assert ba.c2 == pytest.approx(math.log2(1 + ba.snr_A) - math.log2(1 + ba.snr_EB), abs=1e-12)
    assert ba.c_conv == max(0.0, ba.c1) + max(0.0, ba.c2)


def test_direction_rate_signs_are_exact():
    cfg = _cfg(n_E=6)
    rng = np.random.default_rng(9)
    for _ in range(200):
        ch = sample_realization(cfg, rng)
        ba = conventional(cfg, ch, steep=c_steep(cfg, ch))
        assert (ba.c1 > 0.0) == (ba.snr_B > ba.snr_EA)
        assert (ba.c2 > 0.0) == (ba.snr_A > ba.snr_EB)


def test_overheard_beam_stronger_than_downlink_kills_c1():
    # When Eve's steered channel beats Bob's at equal noise, no power helps.
    rng = np.random.default_rng(14)
    for p_a_db in (-20.0, 0.0, 20.0, 60.0):
        cfg = _cfg(n_A=3, n_E=2, P_A_dB=p_a_db)
        ch = sample_realization(cfg, rng)
        loud = np.zeros((2, 3), dtype=complex)
        loud[0] = 2.0 * ch.h_BA
        overheard = ChannelRealization(ch.h_BA, ch.h_AB, loud, ch.g_B)
        ba = conventional(cfg, overheard, steep=c_steep(cfg, ch))
        assert ba.c1 <= 0.0
        assert max(0.0, ba.c1) == 0.0


def test_gain_is_clamped_rate_minus_baseline():
    cfg = _cfg()
    ch = sample_realization(cfg, np.random.default_rng(10))
    sa = c_steep(cfg, ch)
    ba = conventional(cfg, ch, steep=sa)
    assert ba.gain == pytest.approx(sa.c_steep_clamped - ba.c_conv, abs=1e-12)


def test_blind_eavesdropper_reduces_to_two_way_sum():
    cfg = _cfg(n_A=3, n_E=2)
    ch = sample_realization(cfg, np.random.default_rng(11))
    blind = ChannelRealization(
        h_BA=ch.h_BA,
        h_AB=ch.h_AB,
        G_A=np.zeros((2, 3), dtype=complex),
        g_B=np.zeros(2, dtype=complex),
    )
    # the echo-side analysis divides by ||g_B||^2, so it is supplied here
    ba = conventional(cfg, blind, steep=c_steep(cfg, ch))
    assert ba.snr_EA == 0.0
    assert ba.snr_EB == 0.0
    assert ba.c_conv == pytest.approx(
        math.log2(1 + ba.snr_B) + math.log2(1 + ba.snr_A), rel=1e-12
    )


def test_dead_forward_link_raises():
    cfg = _cfg(n_A=2, n_E=2)
    ch = sample_realization(cfg, np.random.default_rng(12))
    dead = ChannelRealization(
        h_BA=np.zeros(2, dtype=complex), h_AB=ch.h_AB, G_A=ch.G_A, g_B=ch.g_B
    )
    with pytest.raises(DegenerateChannelError):
        conventional(cfg, dead, steep=c_steep(cfg, ch))


def test_baseline_spends_full_configured_power():
    # The half-duplex reference always budgets P_B on the return link, so
    # snr_A must track the configured power, not the echo-phase reference.
    cfg = _cfg(P_B_dB=10.0)
    ch = sample_realization(cfg, np.random.default_rng(13))
    ba = conventional(cfg, ch, steep=c_steep(cfg, ch))
    assert ba.snr_A == pytest.approx(10.0 * norm2(ch.h_AB) / cfg.sigma2_A, rel=1e-12)
