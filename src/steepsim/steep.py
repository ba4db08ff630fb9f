"""Closed-form per-realization analysis of the probe-echo scheme.

Phase 1: Alice transmits unit-variance probes X_A scaled by sqrt(P_A/n_A).
Phase 2: Bob echoes sqrt(P_B')*(s + sqrt(n_A/P_A)*y_B), the secret plus his
rescaled noisy probe observation. After Alice cancels the probe component she
knows, both she and Eve see the secret through effective scalar channels
r = s + v whose noise variances sigma2_vA and sigma2_vE fully determine the
secrecy capacity. Eve's advantage during the probe phase enters through the
residual covariance of her MMSE probe estimate; the quadratic form beta of
the downlink through that residual measures what Eve still cannot cancel.

All capacities are in bits per channel use (base-2 logs).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import ChannelRealization, SystemConfig, norm2, reference_power, response_norm2
from .linops import DegenerateChannelError, sample_cn, sample_cn_matrix
# numpy placeholders that nothing calls: perfbench/tracer.py still wraps
# these two names under steepsim.steep, and beta needs neither routine
from numpy.linalg import eigh as hermitian_eig, solve as solve_psd  # noqa: F401

LN2 = math.log(2.0)
# trials per batch of c_key_siso: its h and g then take 16*(1 + n_E) MB
_SISO_CHUNK = 1_000_000


def log2_ratio(arg: float, a: float, s: float) -> float:
    """log2(1 + a) - log2(1 + s) for a, s >= 0, given arg = (a - s)/(1 + s).

    The caller computes arg in a form whose floating-point sign is exact,
    and log1p(arg) keeps that sign. Once s exceeds a by a factor of about
    1e16, arg rounds to -1, where log1p is undefined; the difference of logs
    is returned there instead, and with s that large its sign is certainly
    negative.
    """
    if arg <= -1.0:
        return math.log2(1.0 + a) - math.log2(1.0 + s)
    return math.log1p(arg) / LN2


@dataclass(frozen=True)
class SteepAnalysis:
    """Derived quantities for one channel realization.

    c_steep keeps its sign so callers can distinguish zero-by-clamp from a
    barely positive capacity; c_steep_clamped = max(0, c_steep).
    """

    beta: float
    sigma2_vA: float
    sigma2_vE: float
    c_steep: float
    c_steep_clamped: float
    natural_outage: bool
    p_b_prime: float


def mmse_estimator(cfg: SystemConfig, G_A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eve's MMSE probe estimate X_hat = W @ Y_EA: (W, R), R = cov(X_A - X_hat).

    From one SVD g = U diag(s) V^H of g = sqrt(P_A/(n_A*sigma2_EA))*G_A, with
    d = 1/(1 + s^2), and 1 in the n_A - n_E null directions that the rounding
    of a Gram would blur: W = V diag(s*d) U^H / sqrt(sigma2_EA) over the
    min(n_A, n_E) singular pairs, and R = (g^H g + I)^{-1} = V diag(d) V^H,
    Hermitian to rounding with eigenvalues in (0, 1].
    """
    g = math.sqrt(cfg.P_A / (cfg.n_A * cfg.sigma2_EA)) * G_A
    u, s, vh = np.linalg.svd(g)
    k = s.shape[0]
    d = np.ones(cfg.n_A)
    d[:k] = 1.0 / (1.0 + s * s)
    w = (vh[:k].conj().T * (s * d[:k] / math.sqrt(cfg.sigma2_EA))) @ u[:, :k].conj().T
    return w, (vh.conj().T * d) @ vh


def beta(cfg: SystemConfig, ch: ChannelRealization) -> float:
    """Eve's irreducible probe uncertainty seen through Bob's downlink.

    beta = h_BA^T M^{-1} h_BA^* with M = scale*G_A^H G_A + I, whose
    eigenvalues are all at least 1. One Cholesky factorization of a
    bordered matrix gives it, through the smaller of the two Grams of
    g = sqrt(scale)*G_A (sqrt(scale) scales G_A before any product).

    When n_A <= n_E, the bordered matrix is

        A = [[M,      h_BA^*        ],
             [h_BA^T, 1 + ||h_BA||^2]] = L L^H,

    whose last row of L is (L_M^{-1} h_BA^*)^H, so beta is that row's
    squared norm.

    When n_A > n_E, g^H g has rank n_E, and the Woodbury identity
    M^{-1} = I - g^H N^{-1} g with N = I + g g^H gives
    beta = ||h_BA||^2 - q, q = u^H N^{-1} u, u = g h_BA^*. The
    (n_E+1)-square bordered matrix

        B = [[N,   u             ],
             [u^H, 1 + ||h_BA||^2]] = L L^H

    gives q as the squared norm of L's last row. This route never forms
    g^H g, whose rounding blurs its null space more as the probe SNR
    grows. Subtracting q costs at most a factor ||h_BA||^2/beta, which does
    not grow with the probe SNR: beta is at least the share of ||h_BA||^2
    in that null space.

    Either Schur complement equals 1 + beta >= 1, so the factorization
    cannot fail, and q >= 0 makes beta <= ||h_BA||^2 exact. LAPACK's potrf
    reads only the lower triangle, so the Gram needs no symmetrizing.
    """
    n_A, n_E = cfg.n_A, cfg.n_E
    g = math.sqrt(cfg.P_A / (cfg.n_A * cfg.sigma2_EA)) * ch.G_A
    nh = norm2(ch.h_BA)
    if n_A <= n_E:
        a = np.zeros((n_A + 1, n_A + 1), dtype=complex)
        a[:n_A, :n_A] = g.conj().T @ g
        a[range(n_A), range(n_A)] += 1.0
        a[n_A, :n_A] = ch.h_BA
        a[n_A, n_A] = 1.0 + nh
        return norm2(np.linalg.cholesky(a)[n_A, :n_A])
    b = np.zeros((n_E + 1, n_E + 1), dtype=complex)
    b[:n_E, :n_E] = g @ g.conj().T
    b[range(n_E), range(n_E)] += 1.0
    b[n_E, :n_E] = g.conj() @ ch.h_BA
    b[n_E, n_E] = 1.0 + nh
    return nh - norm2(np.linalg.cholesky(b)[n_E, :n_E])


def c_steep(cfg: SystemConfig, ch: ChannelRealization) -> SteepAnalysis:
    """Secrecy capacity and companion quantities for one realization.

    The effective noise variances on Alice's and Eve's secret estimates are

        sigma2_vA = (n_A/P_A)*sigma2_B + sigma2_A/(P_B'*||h_AB||^2)
        sigma2_vE = beta + (n_A/P_A)*sigma2_B + sigma2_EB/(P_B'*||g_B||^2)

    and c_steep = log2(1 + 1/sigma2_vA) - log2(1 + 1/sigma2_vE), evaluated in
    a form whose floating-point sign matches sigma2_vE - sigma2_vA exactly, so
    the natural_outage flag and the capacity sign can never disagree.

    Raises:
        DegenerateChannelError: if h_AB or g_B has zero norm.
    """
    p_b_prime = reference_power(cfg, norm2(ch.h_BA))
    b = beta(cfg, ch)
    floor = (cfg.n_A / cfg.P_A) * cfg.sigma2_B
    var_a = floor + cfg.sigma2_A / (p_b_prime * response_norm2(ch, "h_AB"))
    var_e = b + floor + cfg.sigma2_EB / (p_b_prime * response_norm2(ch, "g_B"))
    diff = var_e - var_a
    c = log2_ratio(diff / (var_a * (1.0 + var_e)), 1.0 / var_a, 1.0 / var_e)
    return SteepAnalysis(
        beta=b,
        sigma2_vA=var_a,
        sigma2_vE=var_e,
        c_steep=c,
        c_steep_clamped=max(0.0, c),
        natural_outage=diff <= 0.0,
        p_b_prime=p_b_prime,
    )


def c_steep_large_pb(cfg: SystemConfig, ch: ChannelRealization) -> float:
    """Limit of the secrecy capacity as the echo power grows without bound.

    Equals log2(1 + alpha / (1 + (1 + 1/alpha)/beta)) with
    alpha = P_A/(n_A*sigma2_B); strictly positive whenever beta > 0.

    Raises:
        DegenerateChannelError: if h_BA has zero norm, which makes beta 0.
    """
    response_norm2(ch, "h_BA")
    alpha = cfg.P_A / (cfg.n_A * cfg.sigma2_B)
    b = beta(cfg, ch)
    return math.log1p(alpha / (1.0 + (1.0 + 1.0 / alpha) / b)) / LN2


def c_steep_asymptotic_nA_le_nE(cfg: SystemConfig, ch: ChannelRealization) -> float:
    """Large-probe-power capacity limit when Eve has at least n_A antennas.

    Equals log2(1 + (sigma2_EA/sigma2_B) * h_BA^T (G_A^H G_A)^{-1} h_BA^*),
    which no longer depends on P_A; the quadratic form is ||x||^2 for the
    minimum-norm least-squares solution x of G_A^H x = h_BA^* (one SVD).

    Raises:
        ValueError: if n_A > n_E (the Gram matrix would be singular by rank).
        DegenerateChannelError: if G_A's numerical rank is below n_A.
    """
    if cfg.n_A > cfg.n_E:
        raise ValueError(f"requires n_A <= n_E, got n_A={cfg.n_A}, n_E={cfg.n_E}")
    x, _, rank, _ = np.linalg.lstsq(ch.G_A.conj().T, ch.h_BA.conj(), rcond=None)
    if rank < cfg.n_A:
        raise DegenerateChannelError(f"degenerate draw: G_A has rank {rank} < n_A = {cfg.n_A}")
    return math.log1p((cfg.sigma2_EA / cfg.sigma2_B) * norm2(x)) / LN2


def natural_outage_condition(cfg: SystemConfig, ch: ChannelRealization, P_B_prime: float) -> bool:
    """Attenuation-gap form of the outage test.

    Outage holds iff A - E >= P_B' * beta, where A = sigma2_A/||h_AB||^2 and
    E = sigma2_EB/||g_B||^2 are the normalized return-channel attenuations for
    Alice and Eve. Evaluated independently of the capacity sign.

    Raises:
        DegenerateChannelError: if h_AB or g_B has zero norm.
    """
    a_att = cfg.sigma2_A / response_norm2(ch, "h_AB")
    e_att = cfg.sigma2_EB / response_norm2(ch, "g_B")
    return a_att - e_att >= P_B_prime * beta(cfg, ch)


def outage_power_threshold(cfg: SystemConfig, ch: ChannelRealization) -> float:
    """Reference power above which natural outage cannot happen.

    Zero when Alice's return attenuation is already no worse than Eve's.

    Raises:
        DegenerateChannelError: if h_AB or g_B has zero norm, or h_BA, which
            makes the divisor beta 0.
    """
    response_norm2(ch, "h_BA")
    a_att = cfg.sigma2_A / response_norm2(ch, "h_AB")
    e_att = cfg.sigma2_EB / response_norm2(ch, "g_B")
    if a_att <= e_att:
        return 0.0
    return (a_att - e_att) / beta(cfg, ch)


def sdof(n_A: int, n_B: int, n_E: int, m_A: int, m_B: int, delta: int) -> Fraction:
    """Secure degree of freedom of key generation from two-way probing.

    Exact rational: over m_A + m_B probing samples, Alice-side probing
    contributes min(n_B, (n_A-n_E)+) per surplus sample, Bob-side probing
    contributes min(n_A, (n_B-n_E)+), and perfect reciprocity (delta=1) adds
    n_A*n_B once.

    Raises:
        ValueError: unless n_A >= 1, n_B >= 1, n_E >= 0, m_A >= n_A,
            m_B >= n_B and delta is 0 or 1.
    """
    for name, value, low in (("n_A", n_A, 1), ("n_B", n_B, 1), ("n_E", n_E, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if m_A < n_A:
        raise ValueError(f"m_A must be >= n_A, got m_A={m_A}, n_A={n_A}")
    if m_B < n_B:
        raise ValueError(f"m_B must be >= n_B, got m_B={m_B}, n_B={n_B}")
    if delta not in (0, 1):
        raise ValueError(f"delta must be 0 or 1, got {delta}")
    num = (
        min(n_B, max(0, n_A - n_E)) * (m_A - n_A)
        + min(n_A, max(0, n_B - n_E)) * (m_B - n_B)
        + n_A * n_B * delta
    )
    return Fraction(num, m_A + m_B)


def c_key_siso(
    P_A: float,
    sigma2_B: float,
    sigma2_E: float,
    n_E: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of the single-antenna probing key capacity.

    E{log2(1 + SNR_m/(1 + SNR_e))} over scalar CN(0,1) main-channel fading h
    and an n_E-vector g at Eve, with SNR_m = P_A|h|^2/sigma2_B and
    SNR_e = P_A||g||^2/sigma2_E.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    total = 0.0
    for done in range(0, trials, _SISO_CHUNK):
        n = min(_SISO_CHUNK, trials - done)
        h = sample_cn(n, rng)
        g = sample_cn_matrix(n, n_E, rng)
        snr_m = P_A * np.abs(h) ** 2 / sigma2_B
        snr_e = P_A * np.sum(np.abs(g) ** 2, axis=1) / sigma2_E
        total += float(np.sum(np.log1p(snr_m / (1.0 + snr_e))))
    return total / (trials * LN2)
