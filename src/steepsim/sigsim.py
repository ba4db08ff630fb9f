"""Symbol-level simulation of the two transmission phases.

Generates actual probe, echo and noise waveforms for one channel realization
and runs the closed-form receivers on them, serving as an empirical oracle
for the effective-noise variances of steep.c_steep. All quantities are
conditioned on the channel realization: the only randomness is probes,
secrets and noise.

The signal chain is four steps on drawn unit-variance CN(0,1) waveforms, one
column per symbol: run_phase1, run_phase2, alice_receiver and eve_receiver.
variance_report is the one place that draws: one buffer per phase, split by
linops.cn_parts. It runs the steps over column blocks of SYMBOL_BLOCK symbols,
one pass per phase, and keeps only three length-m vectors between passes.
"""
from __future__ import annotations

import math

import numpy as np

from .channel import ChannelRealization, SystemConfig, norm2, response_norm2
from . import steep as _steep
from .linops import cn_from_normals, cn_parts
# not called here: the benchmark's tracer wraps them under steepsim.sigsim
from .channel import reference_power  # noqa: F401
from .linops import sample_cn, sample_cn_matrix  # noqa: F401

# symbols per column block of variance_report: a block array takes 64 kB per
# antenna row (16 bytes per complex symbol), not the 16*m bytes of an array
# over the whole run (8 MB at m = 500 000)
SYMBOL_BLOCK = 4096
# Largest bias that float64 rounding adds to an empirical variance, per unit
# of echo power. Each residual r - s is a difference of floats: the echo
# s + h_BA^T X_A (plus forwarded noise), with power 1 + ||h_BA||^2 per
# symbol, passes through the observation, the probe cancellation, the
# projection onto the receive vector and the subtraction of s. Each of those
# eight or so roundings errs by at most u = 2^-53 of the echo, so together
# they add about 8*u^2*(1 + ||h_BA||^2) to mean |r - s|^2; twice that is the
# bound. Over 150 random configs with sigma2_A = sigma2_B = 1e-90, where
# Alice's empirical variance is rounding alone, it measured at most
# 3.5*u^2*(1 + ||h_BA||^2), for n_A and n_E up to 32.
ROUNDING_BIAS = 16 * 2.0**-106


def run_phase1(
    cfg: SystemConfig,
    ch: ChannelRealization,
    X_A: np.ndarray,
    w_B: np.ndarray,
    W_EA: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe phase: Alice sends sqrt(P_A/n_A)*X_A, Bob and Eve listen.

    X_A (n_A x k), Bob's noise w_B (k) and Eve's noise W_EA (n_E x k) are
    unit-variance waveforms. Returns Bob's observation y_B and Eve's Y_EA.
    """
    amp = math.sqrt(cfg.P_A / cfg.n_A)
    y_B = amp * (ch.h_BA @ X_A) + math.sqrt(cfg.sigma2_B) * w_B
    Y_EA = amp * (ch.G_A @ X_A) + math.sqrt(cfg.sigma2_EA) * W_EA
    return y_B, Y_EA


def run_phase2(
    cfg: SystemConfig,
    ch: ChannelRealization,
    y_B: np.ndarray,
    P_B_prime: float,
    s: np.ndarray,
    W_A: np.ndarray,
    W_EB: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Echo phase: Bob sends sqrt(P_B')*(s + sqrt(n_A/P_A)*y_B).

    The secret s (k), Alice's noise W_A (n_A x k) and Eve's noise W_EB
    (n_E x k) are unit-variance waveforms. Returns Alice's observation Y_A
    and Eve's Y_EB.
    """
    echo = s + math.sqrt(cfg.n_A / cfg.P_A) * y_B
    amp = math.sqrt(P_B_prime)
    Y_A = amp * np.outer(ch.h_AB, echo) + math.sqrt(cfg.sigma2_A) * W_A
    Y_EB = amp * np.outer(ch.g_B, echo) + math.sqrt(cfg.sigma2_EB) * W_EB
    return Y_A, Y_EB


def alice_receiver(
    ch: ChannelRealization, Y_A: np.ndarray, hx_A: np.ndarray, P_B_prime: float
) -> np.ndarray:
    """Alice's sufficient statistic r_A = s + v_A after probe cancellation.

    Alice reconstructs and cancels the probe component of Y_A. Inside Bob's
    echo the probe amplitude sqrt(P_A/n_A) and the echo rescale
    sqrt(n_A/P_A) cancel, so that term is sqrt(P_B') * h_AB h_BA^T X_A with
    the unit-variance X_A; hx_A is h_BA^T X_A.
    """
    y_prime = Y_A - math.sqrt(P_B_prime) * np.outer(ch.h_AB, hx_A)
    return (ch.h_AB.conj() @ y_prime) / (math.sqrt(P_B_prime) * response_norm2(ch, "h_AB"))


def mmse_gain(cfg: SystemConfig, ch: ChannelRealization) -> np.ndarray:
    """MMSE filter mapping Eve's probe-phase observation to a probe estimate.

    One n_A-by-n_E matrix applied to every column: the channel is static
    within the block, so the per-symbol estimator is the same.
    """
    amp2 = cfg.P_A / cfg.n_A
    c_yy = amp2 * (ch.G_A @ ch.G_A.conj().T) + cfg.sigma2_EA * np.eye(cfg.n_E)
    c_yy = 0.5 * (c_yy + c_yy.conj().T)
    return math.sqrt(amp2) * np.linalg.solve(c_yy, ch.G_A).conj().T


def eve_receiver(
    ch: ChannelRealization, Y_EB: np.ndarray, hx_hat: np.ndarray, P_B_prime: float
) -> np.ndarray:
    """Eve's statistic r_E = s + v_E after cancelling her probe estimate.

    hx_hat is h_BA^T X_hat for Eve's MMSE estimate X_hat = mmse_gain @ Y_EA.
    """
    resid = Y_EB - math.sqrt(P_B_prime) * np.outer(ch.g_B, hx_hat)
    return (ch.g_B.conj() @ resid) / (math.sqrt(P_B_prime) * response_norm2(ch, "g_B"))


def variance_report(
    cfg: SystemConfig,
    ch: ChannelRealization,
    m: int,
    rng: np.random.Generator,
) -> dict:
    """Run both phases plus receivers and compare empirical vs closed form.

    Returns a dict with the analytic variances, their empirical estimates,
    the standard errors of those estimates, the rounding floor below which
    an empirical variance cannot resolve its analytic value, and the
    residual-covariance comparison. The variance estimators average |v|^2
    over m symbols, so each has standard error (analytic value)/sqrt(m);
    covariance entries have standard error sqrt(R_ii*R_jj/m). p_b_prime and
    the analytic variances are the fields of one steep.c_steep(cfg, ch), the
    analysis that `steepsim single` prints.

    Each phase fills one buffer of 2*m*(n_A + n_E + 1) normals with a single
    draw, in the order and count of the phase's three sample_cn and
    sample_cn_matrix calls (X_A, w_B, W_EA, then s, W_A, W_EB), so rng ends
    where those six calls leave it. Pass 1 keeps y_B, h_BA^T X_A and
    h_BA^T X_hat for pass 2, which reuses the buffer: about
    16*(n_A + n_E + 4) bytes per symbol in all.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n_A, n_E = cfg.n_A, cfg.n_E
    sa = _steep.c_steep(cfg, ch)
    p_b_prime = sa.p_b_prime
    gain = mmse_gain(cfg, ch)
    blocks = [(a, min(a + SYMBOL_BLOCK, m)) for a in range(0, m, SYMBOL_BLOCK)]
    buf = np.empty(2 * m * (n_A + n_E + 1))

    rng.standard_normal(out=buf)
    parts = cn_parts(buf, [(n_A, m), (m,), (n_E, m)])
    y_B, hx_A, hx_hat = (np.empty(m, dtype=complex) for _ in range(3))
    delta_gram = np.zeros((n_A, n_A), dtype=complex)
    for a, b in blocks:
        X_A, w_B, W_EA = (cn_from_normals(re[..., a:b], im[..., a:b]) for re, im in parts)
        y_B[a:b], Y_EA = run_phase1(cfg, ch, X_A, w_B, W_EA)
        X_hat = gain @ Y_EA
        hx_A[a:b] = ch.h_BA @ X_A
        hx_hat[a:b] = ch.h_BA @ X_hat
        delta = X_A - X_hat
        delta_gram += delta @ delta.conj().T

    rng.standard_normal(out=buf)
    parts = cn_parts(buf, [(m,), (n_A, m), (n_E, m)])
    sum_a = sum_e = 0.0
    for a, b in blocks:
        s, W_A, W_EB = (cn_from_normals(re[..., a:b], im[..., a:b]) for re, im in parts)
        Y_A, Y_EB = run_phase2(cfg, ch, y_B[a:b], p_b_prime, s, W_A, W_EB)
        r_A = alice_receiver(ch, Y_A, hx_A[a:b], p_b_prime)
        r_E = eve_receiver(ch, Y_EB, hx_hat[a:b], p_b_prime)
        sum_a += float(np.sum(np.abs(r_A - s) ** 2))
        sum_e += float(np.sum(np.abs(r_E - s) ** 2))

    var_a, var_e = sa.sigma2_vA, sa.sigma2_vE
    cov_emp = delta_gram / m
    cov = _steep.mmse_residual_cov(cfg, ch.G_A)
    d = np.real(np.diag(cov))
    cov_se = np.sqrt(np.outer(d, d) / m)

    return {
        "m": m,
        "p_b_prime": p_b_prime,
        # a variance below this floor would have its rounding bias exceed a
        # tenth of its standard error variance/sqrt(m), so its deviation
        # measures rounding rather than the closed form. The residual
        # covariance never gets there: its diagonal entries exceed
        # 1/(1 + P_A*||G_A e_i||^2/(n_A*sigma2_EA)), about 1e-12 at the
        # largest accepted probe SNR.
        "rounding_floor": 10.0 * math.sqrt(m) * ROUNDING_BIAS * (1.0 + norm2(ch.h_BA)),
        "sigma2_vA": var_a,
        "sigma2_vA_emp": sum_a / m,
        "sigma2_vA_se": var_a / math.sqrt(m),
        "sigma2_vE": var_e,
        "sigma2_vE_emp": sum_e / m,
        "sigma2_vE_se": var_e / math.sqrt(m),
        "cov_delta": cov,
        "cov_delta_emp": cov_emp,
        "cov_delta_se": cov_se,
        "cov_max_dev_se": float(np.max(np.abs(cov_emp - cov) / cov_se)),
    }
