import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steepsim.channel import (
    MAX_ANTENNAS,
    ChannelRealization,
    PowerConvention,
    SystemConfig,
    norm2,
    reference_power,
    sample_realization,
)
from steepsim.steep import (
    _gram,
    beta,
    c_key_siso,
    c_steep,
    c_steep_asymptotic_nA_le_nE,
    c_steep_large_pb,
    log2_ratio,
    mmse_residual_cov,
    natural_outage_condition,
    outage_power_threshold,
    sdof,
    sigma2_vA,
    sigma2_vE,
)
from oracles import beta_via_eig

LN2 = math.log(2.0)


def _cfg(**kw):
    base = dict(n_A=4, n_E=2, P_A_dB=20.0, P_B_dB=30.0)
    base.update(kw)
    return SystemConfig(**base)


@settings(max_examples=40, deadline=None)
@given(
    n_A=st.integers(min_value=1, max_value=MAX_ANTENNAS),
    n_E=st.integers(min_value=1, max_value=MAX_ANTENNAS),
    P_A_dB=st.floats(min_value=-10.0, max_value=40.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_beta_routes_agree(n_A, n_E, P_A_dB, seed):
    # beta_via_eig is the oracle for the production Cholesky route
    cfg = _cfg(n_A=n_A, n_E=n_E, P_A_dB=P_A_dB)
    ch = sample_realization(cfg, np.random.default_rng(seed))
    assert beta(cfg, ch) == pytest.approx(beta_via_eig(cfg, ch), rel=1e-9)


def _beta_lu(cfg, ch):
    """beta through one LU solve with scale*G_A^H G_A + I, the route the
    bordered Cholesky factorization replaced; the accuracy yardstick."""
    scale = cfg.P_A / (cfg.n_A * cfg.sigma2_EA)
    u = ch.h_BA.conj()
    return float(np.vdot(u, np.linalg.solve(scale * _gram(ch.G_A) + np.eye(cfg.n_A), u)).real)


@pytest.mark.parametrize(
    "n_A, n_E", [(1, 1), (2, 1), (4, 6), (9, 8), (9, 9), (16, 8), (17, 16), (32, 8)]
)
def test_beta_accuracy_against_40_digits(n_A, n_E):
    # beta of the float64 inputs at 40 digits; per cell, the worst relative
    # error of the Cholesky route over draws and probe powers stays within
    # 3x the LU route's worst, or 1e-14 where both are at rounding level.
    # When n_A > n_E, the route through I + s*G G^H never forms the rank-n_E
    # Gram G^H G, so it stays near rounding level up to 80 dB, where the LU
    # route has lost about half the digits
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    worst_chol = worst_lu = 0.0
    for seed in range(8):
        ch = sample_realization(_cfg(n_A=n_A, n_E=n_E), np.random.default_rng([n_A, n_E, seed]))
        G = mp.matrix(ch.G_A.tolist())
        u = mp.matrix(ch.h_BA.conj().tolist())
        v = G * u
        for P_A_dB in (-10.0, 20.0, 50.0, 80.0):
            cfg = _cfg(n_A=n_A, n_E=n_E, P_A_dB=P_A_dB)
            s = mp.mpf(cfg.P_A / (cfg.n_A * cfg.sigma2_EA))
            if n_A <= n_E:
                exact = mp.re((u.H * mp.lu_solve(G.H * G * s + mp.eye(n_A), u))[0])
            else:
                # Woodbury: the n_E x n_E solve with I + s*G G^H is smaller
                w = mp.lu_solve(G * G.H * s + mp.eye(n_E), v)
                exact = mp.re((u.H * u)[0] - s * (v.H * w)[0])
            worst_chol = max(worst_chol, float(abs(beta(cfg, ch) - exact) / exact))
            worst_lu = max(worst_lu, float(abs(_beta_lu(cfg, ch) - exact) / exact))
    assert worst_chol <= max(3.0 * worst_lu, 1e-14), (worst_chol, worst_lu)
    if n_A > n_E:
        assert worst_chol <= 1e-12, worst_chol


@settings(max_examples=40, deadline=None)
@given(
    n_A=st.integers(min_value=1, max_value=6),
    n_E=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_beta_bounded_by_return_link_energy(n_A, n_E, seed):
    # residual covariance never exceeds identity, so beta <= ||h_BA||^2
    cfg = _cfg(n_A=n_A, n_E=n_E)
    ch = sample_realization(cfg, np.random.default_rng(seed))
    b = beta(cfg, ch)
    assert 0.0 < b <= norm2(ch.h_BA) * (1.0 + 1e-12)


def test_residual_cov_spectrum_in_unit_interval():
    cfg = _cfg(n_A=5, n_E=3)
    ch = sample_realization(cfg, np.random.default_rng(12))
    r = mmse_residual_cov(cfg, ch.G_A)
    lam = np.linalg.eigvalsh(r)
    assert np.all(lam > 0.0)
    assert np.all(lam <= 1.0 + 1e-12)


def test_residual_cov_identity_for_blind_eavesdropper():
    cfg = _cfg(n_A=3, n_E=2)
    r = mmse_residual_cov(cfg, np.zeros((2, 3), dtype=complex))
    assert np.allclose(r, np.eye(3), atol=1e-14)
    ch = sample_realization(cfg, np.random.default_rng(13))
    blind = ChannelRealization(
        h_BA=ch.h_BA, h_AB=ch.h_AB, G_A=np.zeros((2, 3), dtype=complex), g_B=ch.g_B
    )
    assert beta(cfg, blind) == pytest.approx(norm2(ch.h_BA), rel=1e-12)


def test_effective_noise_variances_match_manual_forms():
    cfg = _cfg(n_A=3, n_E=4)
    ch = sample_realization(cfg, np.random.default_rng(21))
    pbp = reference_power(cfg, ch)
    floor = cfg.n_A / cfg.P_A * cfg.sigma2_B
    want_a = floor + cfg.sigma2_A / (pbp * norm2(ch.h_AB))
    want_e = beta(cfg, ch) + floor + cfg.sigma2_EB / (pbp * norm2(ch.g_B))
    assert sigma2_vA(cfg, ch, pbp) == pytest.approx(want_a, rel=1e-12)
    assert sigma2_vE(cfg, ch, pbp) == pytest.approx(want_e, rel=1e-12)


def test_secrecy_rate_matches_log_difference():
    cfg = _cfg()
    ch = sample_realization(cfg, np.random.default_rng(30))
    sa = c_steep(cfg, ch)
    want = math.log2(1.0 + 1.0 / sa.sigma2_vA) - math.log2(1.0 + 1.0 / sa.sigma2_vE)
    assert sa.c_steep == pytest.approx(want, abs=1e-12)
    assert sa.c_steep_clamped == max(0.0, sa.c_steep)


def test_secrecy_rate_sign_tracks_variance_order():
    cfg = _cfg(n_E=6, P_B_dB=20.0)
    rng = np.random.default_rng(31)
    signs = set()
    for _ in range(300):
        sa = c_steep(cfg, sample_realization(cfg, rng))
        assert (sa.c_steep > 0.0) == (sa.sigma2_vE > sa.sigma2_vA)
        assert sa.natural_outage == (sa.c_steep <= 0.0)
        signs.add(sa.c_steep > 0.0)
    assert signs == {True, False}, "seed should exercise both outage outcomes"


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=1e200),
    s=st.floats(min_value=0.0, max_value=1e200),
)
def test_log2_ratio_keeps_log1p_above_minus_one(a, s):
    arg = (a - s) / (1.0 + s)
    if arg > -1.0:
        assert log2_ratio(arg, a, s) == math.log1p(arg) / LN2
    else:
        assert log2_ratio(arg, a, s) == math.log2(1.0 + a) - math.log2(1.0 + s) < 0.0


@pytest.mark.parametrize("a, s", [(1.0, 1e17), (0.0, 1e16), (1e-300, 1e300), (1e3, 1e40)])
def test_log2_ratio_where_log1p_is_undefined(a, s):
    # (a - s)/(1 + s) rounds to exactly -1, where math.log1p raises
    arg = (a - s) / (1.0 + s)
    assert arg == -1.0
    got = log2_ratio(arg, a, s)
    assert got < 0.0
    assert got == pytest.approx(math.log2((1.0 + a) / (1.0 + s)) if s < 1e300 else -math.log2(s))


def test_outage_threshold_brackets_flag():
    cfg = _cfg(n_E=3)
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(50):
        ch = sample_realization(cfg, rng)
        thr = outage_power_threshold(cfg, ch)
        if thr <= 0.0:
            continue
        assert natural_outage_condition(cfg, ch, 0.99 * thr)
        assert not natural_outage_condition(cfg, ch, 1.01 * thr)
        checked += 1
    assert checked > 10


def test_large_echo_power_limit():
    ch = sample_realization(_cfg(), np.random.default_rng(50))
    devs = []
    for pb_db in (30.0, 45.0, 60.0):
        cfg = _cfg(P_B_dB=pb_db, power_convention=PowerConvention.REFERENCE_PB_PRIME)
        sa = c_steep(cfg, ch)
        devs.append(abs(sa.c_steep - c_steep_large_pb(cfg, ch)))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-4


def test_probe_power_invariant_asymptote_requires_shape():
    cfg = _cfg(n_A=4, n_E=2)
    ch = sample_realization(cfg, np.random.default_rng(51))
    with pytest.raises(ValueError):
        c_steep_asymptotic_nA_le_nE(cfg, ch)


def test_sdof_hand_values():
    assert sdof(4, 1, 2, 100, 1, 0) == Fraction(96, 101)
    assert sdof(2, 1, 4, 10, 1, 1) == Fraction(2, 11)
    # eavesdropper with more antennas than both sides kills the rate
    assert sdof(2, 1, 4, 10, 1, 0) == Fraction(0, 1)


def test_sdof_rejects_short_probing():
    with pytest.raises(ValueError):
        sdof(4, 1, 2, 3, 1, 0)
    with pytest.raises(ValueError):
        sdof(4, 2, 2, 100, 1, 0)
    with pytest.raises(ValueError):
        sdof(4, 1, 2, 100, 1, 2)
    # antenna counts below one (n_E below zero), even where the sample
    # counts would allow them; 0/0 used to raise ZeroDivisionError
    for args, name in [
        ((0, 0, 2, 0, 0, 0), "n_A"),
        ((-1, 1, 2, 100, 1, 0), "n_A"),
        ((4, 1, -3, 100, 1, 0), "n_E"),
        ((4, -2, 2, 100, -2, 0), "n_B"),
        ((4, 0, 2, 100, 0, 0), "n_B"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            sdof(*args)
    assert sdof(4, 1, 0, 100, 1, 0) == Fraction(96, 101)


def test_key_rate_positive_and_hurt_by_eavesdropper_antennas():
    k1 = c_key_siso(100.0, 1.0, 1.0, 1, 200_000, np.random.default_rng(2))
    k4 = c_key_siso(100.0, 1.0, 1.0, 4, 200_000, np.random.default_rng(2))
    assert k1 > k4 > 0.0
    with pytest.raises(ValueError):
        c_key_siso(100.0, 1.0, 1.0, 1, 0, np.random.default_rng(2))


def test_alice_variance_hand_value():
    # n_A=4, P_A=100, unit variances, P_B'=10, ||h_AB||^2=2 -> 0.04 + 0.05
    cfg = _cfg(n_A=4, n_E=2, P_A_dB=20.0)
    ch = sample_realization(cfg, np.random.default_rng(60))
    h_ab = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
    fixed = ChannelRealization(h_BA=ch.h_BA, h_AB=h_ab, G_A=ch.G_A, g_B=ch.g_B)
    assert sigma2_vA(cfg, fixed, 10.0) == pytest.approx(0.09, rel=1e-12)


def test_beta_limits():
    cfg_lo = _cfg(P_A_dB=-80.0)
    ch = sample_realization(cfg_lo, np.random.default_rng(61))
    # vanishing probe power: Eve learns nothing, residual covariance -> I
    assert beta(cfg_lo, ch) == pytest.approx(norm2(ch.h_BA), rel=1e-6)
    # huge eavesdropper noise acts the same way
    cfg_blind = _cfg(sigma2_EA=1e12)
    assert beta(cfg_blind, ch) == pytest.approx(norm2(ch.h_BA), rel=1e-6)


def test_beta_large_probe_power_eigen_subspace():
    # n_A > n_E: only the null-space component of the return link survives
    cfg = _cfg(n_A=4, n_E=2, P_A_dB=60.0)
    ch = sample_realization(cfg, np.random.default_rng(62))
    gram = ch.G_A.conj().T @ ch.G_A
    lam, q = np.linalg.eigh(gram)
    q1 = q[:, :2]  # eigenvectors of the two (numerically) zero eigenvalues
    want = norm2(q1.conj().T @ ch.h_BA.conj())
    assert beta(cfg, ch) == pytest.approx(want, rel=0.01)


def test_scaled_beta_large_probe_power_inverse_gram():
    # n_A <= n_E: alpha*beta converges to a probe-power-free quadratic form
    cfg = _cfg(n_A=2, n_E=4, P_A_dB=60.0)
    ch = sample_realization(cfg, np.random.default_rng(63))
    alpha = cfg.P_A / (cfg.n_A * cfg.sigma2_B)
    gram = ch.G_A.conj().T @ ch.G_A
    want = (cfg.sigma2_EA / cfg.sigma2_B) * float(
        np.real(ch.h_BA @ np.linalg.solve(gram, ch.h_BA.conj()))
    )
    assert alpha * beta(cfg, ch) == pytest.approx(want, rel=0.01)


def test_large_echo_limit_positive_whenever_beta_is():
    rng = np.random.default_rng(64)
    for n_E in (1, 3, 6):
        cfg = _cfg(n_E=n_E)
        ch = sample_realization(cfg, rng)
        assert c_steep_large_pb(cfg, ch) > 0.0


def test_asymptote_invariant_to_probe_power_and_monotone_in_eve_noise():
    ch = sample_realization(_cfg(n_A=2, n_E=4), np.random.default_rng(65))
    lo = c_steep_asymptotic_nA_le_nE(_cfg(n_A=2, n_E=4, P_A_dB=20.0), ch)
    hi = c_steep_asymptotic_nA_le_nE(_cfg(n_A=2, n_E=4, P_A_dB=23.0103), ch)
    assert lo == pytest.approx(hi, abs=1e-12)
    noisier = c_steep_asymptotic_nA_le_nE(_cfg(n_A=2, n_E=4, sigma2_EA=4.0), ch)
    assert noisier > lo


def test_outage_boundary_gives_zero_rate():
    # Engineer attenuation difference == P_B' * beta, with P_B' = 1 exactly.
    probe = _cfg(
        n_A=1, n_E=2, P_B_dB=0.0, power_convention=PowerConvention.REFERENCE_PB_PRIME
    )
    ch = sample_realization(probe, np.random.default_rng(66))
    unit = ChannelRealization(
        h_BA=ch.h_BA,
        h_AB=np.ones(1, dtype=complex),
        G_A=ch.G_A,
        g_B=np.array([1.0, 0.0], dtype=complex),
    )
    b = beta(probe, unit)
    cfg = _cfg(
        n_A=1,
        n_E=2,
        P_B_dB=0.0,
        power_convention=PowerConvention.REFERENCE_PB_PRIME,
        sigma2_A=b + 1.0,
        sigma2_EB=1.0,
    )
    sa = c_steep(cfg, unit)
    assert sa.c_steep == pytest.approx(0.0, abs=1e-12)


def test_no_outage_for_any_echo_power_when_eve_attenuation_dominates():
    # sigma2_A/||h_AB||^2 <= sigma2_EB/||g_B||^2 keeps Alice ahead at all powers
    cfg = _cfg(n_E=2)
    rng = np.random.default_rng(67)
    checked = 0
    for _ in range(100):
        ch = sample_realization(cfg, rng)
        a_att = cfg.sigma2_A / norm2(ch.h_AB)
        e_att = cfg.sigma2_EB / norm2(ch.g_B)
        if a_att > e_att:
            continue
        for pbp in (1e-6, 1.0, 1e6):
            assert not natural_outage_condition(cfg, ch, pbp)
        checked += 1
    assert checked > 10
