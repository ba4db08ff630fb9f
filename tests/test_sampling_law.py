"""The ensemble's draws against the paper's channel model.

The other ensemble tests compare the block engine with the scalar API, with
golden files or with itself at other worker counts, and all of them read the
same mapping from normals to channels. These tests check the law of the draws
instead. They take each trial's row from mc._child_normals, split it here in
sample_realization's documented order (not through linops.cn_parts), and
compute beta through mc._beta:

- ||h_BA||^2 ~ Erlang(n_A) and ||g_B||^2 ~ Erlang(n_E);
- given G_A, beta = sum_i w_i E_i, with E_i i.i.d. Exp(1) and w_i the
  eigenvalues of R = (s G_A^H G_A + I)^-1, s = P_A/(n_A*sigma2_EA); so
  E[beta | G_A] = tr R and Var[beta | G_A] = tr R^2;
- adjacent trials draw independent normals;
- when n_A > n_E, n_A - n_E of the w_i equal 1, so beta tends to
  Erlang(n_A - n_E) as Eve's probe SNR grows: the positive secrecy rate
  that remains as long as Eve's receive channel is not noiseless.

Seeds, sizes and limits were fixed before the first run and are not tuned.
"""
import functools
import math

import numpy as np
import pytest

from steepsim.channel import SystemConfig
from steepsim.linops import cn_from_normals
from steepsim.mc import BLOCK_TRIALS, _beta, _child_normals, _norm2

SEED = 4242
TRIALS = 20_000
# Kolmogorov-Smirnov: sqrt(N)*D at the 1 % level (asymptotic 1.628)
KS_LIMIT = 1.63
# standardized moments of beta and the lag-1 mean product, in standard errors
Z_LIMIT = 4.0
# one pair of adjacent rows: sqrt(width) times their mean product. Under
# independence that is about N(0, 1), and its largest of 20 000 pairs about
# 4.5; two equal rows give about sqrt(width), at least 8.7 over SHAPES
PAIR_LIMIT = 6.0
SHAPES = [(4, 6), (16, 8)]


def _cfg(n_A, n_E, P_A_dB=20.0):
    return SystemConfig(n_A=n_A, n_E=n_E, P_A_dB=P_A_dB, P_B_dB=30.0)


def _split(cfg, z):
    """h_BA, w, g_B and G_A of rows z: each as all real parts, then all
    imaginary parts, in that order."""
    n_A, n_E = cfg.n_A, cfg.n_E
    out, lo = [], 0
    for shape in [(n_A,), (n_A,), (n_E,), (n_E, n_A)]:
        size = math.prod(shape)
        re = z[:, lo:lo + size].reshape(-1, *shape)
        im = z[:, lo + size:lo + 2 * size].reshape(-1, *shape)
        out.append(cn_from_normals(re, im))
        lo += 2 * size
    assert lo == z.shape[1]
    return out


@functools.cache
def _draws(n_A, n_E, P_A_dB=20.0):
    """Per-trial ||h_BA||^2, ||g_B||^2, beta, tr R and tr R^2, plus the
    per-pair lag-1 statistic of adjacent rows; drawn once per shape."""
    cfg = _cfg(n_A, n_E, P_A_dB)
    s = cfg.P_A / (cfg.n_A * cfg.sigma2_EA)
    width = 2 * (2 * n_A + n_E + n_E * n_A)
    cols = {"nh": [], "ng": [], "beta": [], "tr": [], "tr2": [], "pair": []}
    prev = None
    for lo in range(0, TRIALS, BLOCK_TRIALS):
        z = _child_normals(SEED, lo, min(lo + BLOCK_TRIALS, TRIALS), width)
        rows = z if prev is None else np.vstack([prev, z])
        cols["pair"].append(np.sum(rows[1:] * rows[:-1], axis=1) / math.sqrt(width))
        prev = z[-1:]
        h_BA, _, g_B, G_A = _split(cfg, z)
        nh = _norm2(h_BA)
        # R's eigenvalues from G_A's singular values; n_A - n_E of them are 1
        # when n_A > n_E
        sv2 = np.linalg.svd(G_A, compute_uv=False) ** 2
        w = 1.0 / (s * sv2 + 1.0)
        ones = n_A - sv2.shape[1]
        cols["nh"].append(nh)
        cols["ng"].append(_norm2(g_B))
        cols["beta"].append(_beta(cfg, h_BA, G_A, nh))
        cols["tr"].append(w.sum(axis=1) + ones)
        cols["tr2"].append((w**2).sum(axis=1) + ones)
    return {name: np.concatenate(parts) for name, parts in cols.items()}


def _erlang_cdf(x, k):
    term = np.ones_like(x)
    total = np.ones_like(x)
    for i in range(1, k):
        term = term * x / i
        total += term
    return 1.0 - np.exp(-x) * total


def _ks(samples, k):
    """sqrt(N) times the Kolmogorov-Smirnov distance to Erlang(k)."""
    n = samples.shape[0]
    cdf = _erlang_cdf(np.sort(samples), k)
    i = np.arange(1, n + 1)
    return math.sqrt(n) * max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))


@pytest.mark.parametrize("n_A, n_E", SHAPES)
@pytest.mark.parametrize("quantity", ["h_BA", "g_B"])
def test_channel_norms_are_erlang(n_A, n_E, quantity):
    d = _draws(n_A, n_E)
    samples, k = (d["nh"], n_A) if quantity == "h_BA" else (d["ng"], n_E)
    ks = _ks(samples, k)
    assert ks <= KS_LIMIT, (
        f"seed {SEED}, n_A={n_A}, n_E={n_E}: ||{quantity}||^2 against Erlang({k}): "
        f"sqrt(N)*D = {ks:.3f} > {KS_LIMIT}"
    )


@pytest.mark.parametrize("n_A, n_E", SHAPES)
def test_beta_conditional_mean_and_variance(n_A, n_E):
    d = _draws(n_A, n_E)
    z = (d["beta"] - d["tr"]) / np.sqrt(d["tr2"])
    n = z.shape[0]
    z_mean = math.sqrt(n) * float(np.mean(z)) / float(np.std(z))
    z2 = z**2
    z_var = math.sqrt(n) * (float(np.mean(z2)) - 1.0) / float(np.std(z2))
    where = f"seed {SEED}, n_A={n_A}, n_E={n_E}"
    assert abs(z_mean) <= Z_LIMIT, f"{where}: mean of beta off tr R by {z_mean:.2f} se"
    assert abs(z_var) <= Z_LIMIT, f"{where}: variance of beta off tr R^2 by {z_var:.2f} se"


@pytest.mark.parametrize("n_A, n_E", SHAPES)
def test_adjacent_trials_draw_independent_normals(n_A, n_E):
    pair = _draws(n_A, n_E)["pair"]
    assert pair.shape[0] == TRIALS - 1
    z = math.sqrt(pair.shape[0]) * float(np.mean(pair))
    assert abs(z) <= Z_LIMIT, f"seed {SEED}, n_A={n_A}, n_E={n_E}: lag-1 mean product {z:.2f} se"
    t = int(np.argmax(np.abs(pair)))
    assert abs(pair[t]) <= PAIR_LIMIT, (
        f"seed {SEED}, n_A={n_A}, n_E={n_E}: trials {t} and {t + 1} share normals "
        f"(lag-1 statistic {pair[t]:.2f})"
    )


@pytest.mark.parametrize("n_A, n_E", [(16, 8), (2, 1)])
def test_beta_at_100_dB_is_erlang_of_surplus_antennas(n_A, n_E):
    # Eve's largest accepted probe SNR: her n_E directions are all but
    # resolved, and the n_A - n_E she cannot see keep beta away from 0
    beta = _draws(n_A, n_E, P_A_dB=100.0)["beta"]
    ks = _ks(beta, n_A - n_E)
    assert ks <= KS_LIMIT, (
        f"seed {SEED}, n_A={n_A}, n_E={n_E}, P_A_dB=100: beta against "
        f"Erlang({n_A - n_E}): sqrt(N)*D = {ks:.3f} > {KS_LIMIT}"
    )
