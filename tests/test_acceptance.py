"""Quantified end-to-end checks for the two-phase secrecy simulator.

Each test pins one measurable claim: signal-level oracle agreement, algebraic
consistency of the estimator covariance, asymptotic power regimes, ensemble
outage trends, exact sign equivalences, and byte-level determinism of the
parallel runner. The shared 10^5-trial ensembles dominate the runtime and are
built once per session.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from steepsim.channel import PowerConvention, SystemConfig, sample_realization
from steepsim.mc import run_ensemble, write_outputs
from steepsim.sigsim import variance_report
from steepsim.steep import (
    beta,
    c_steep,
    c_steep_asymptotic_nA_le_nE,
    c_steep_large_pb,
    mmse_estimator,
    natural_outage_condition,
)
from exact import c1_outage, c2_outage
from oracles import beta_via_eig

SEED = 7
TRIALS = 100_000
GRID = np.linspace(0.0, 1.0, 101)
DB_DOUBLE = 10.0 * math.log10(2.0)


def _cfg(**kw):
    base = dict(n_A=4, n_E=2, P_A_dB=20.0, P_B_dB=30.0)
    base.update(kw)
    return SystemConfig(**base)


def _report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def quad_ensembles():
    """The 4-antenna, P_A=20dB ensemble grid: n_E in {2,6} x P_B in {20,30} dB."""
    t0 = time.perf_counter()
    runs = {}
    for n_e in (2, 6):
        for p_b in (20.0, 30.0):
            runs[(n_e, p_b)] = run_ensemble(
                _cfg(n_E=n_e, P_B_dB=p_b), TRIALS, SEED, rs_grid=GRID
            )
    runs["elapsed"] = time.perf_counter() - t0
    return runs



def test_exact_baseline_direction_outages():
    # I_x(4, n_E) against the values taken with scipy's incomplete beta,
    # rounded to 6 decimals
    for n_e, c1, c2 in ((6, 0.746094, 0.895244), (2, 0.187500, 0.328781)):
        cfg = _cfg(n_E=n_e)
        assert abs(c1_outage(cfg) - c1) <= 1e-6
        assert abs(c2_outage(cfg) - c2) <= 1e-6


def test_baseline_direction_outages_meet_exact(quad_ensembles):
    # the frequencies of c1 <= 0 and c2 <= 0 within 4 binomial standard
    # errors of their exact probabilities, at every P_B
    worst = 0.0
    for n_e in (2, 6):
        for p_b in (20.0, 30.0):
            res = quad_ensembles[(n_e, p_b)]
            for name, exact in (("c1", c1_outage(res.cfg)), ("c2", c2_outage(res.cfg))):
                freq = float(np.mean(getattr(res, name) <= 0.0))
                dev = abs(freq - exact) / math.sqrt(exact * (1.0 - exact) / TRIALS)
                worst = max(worst, dev)
                assert dev <= 4.0, f"n_E={n_e}, P_B={p_b} dB: {name} <= 0 at {freq} vs {exact}"
    _report("baseline directions vs exact", worst <= 4.0, f"worst {worst:.2f} se of 4")


@pytest.fixture(scope="module")
def wide_eve_ensembles():
    """n_E in {4,8} at P_B=30dB; {2,6} come from quad_ensembles."""
    return {
        n_e: run_ensemble(_cfg(n_E=n_e), TRIALS, SEED, rs_grid=GRID)
        for n_e in (4, 8)
    }


@pytest.fixture(scope="module")
def siso_ensembles():
    """Single transmit antenna, P_A=20dB: n_E in {1,2} x P_B in {30,40} dB."""
    return {
        (n_e, p_b): run_ensemble(
            _cfg(n_A=1, n_E=n_e, P_B_dB=p_b), TRIALS, SEED, rs_grid=GRID
        )
        for n_e in (1, 2)
        for p_b in (30.0, 40.0)
    }


def test_variance_oracles_match_closed_forms():
    # 10 realizations, m = 10^5 symbols each: empirical effective-noise
    # variances within 3 standard errors of the closed forms, estimator
    # residual covariance within 5 standard errors entrywise.
    t0 = time.perf_counter()
    worst_scalar = 0.0
    worst_matrix = 0.0
    for idx in range(10):
        cfg = _cfg(n_E=2 if idx % 2 == 0 else 6)
        rng = np.random.default_rng([SEED, 1000 + idx])
        ch = sample_realization(cfg, rng)
        rep = variance_report(cfg, ch, 100_000, rng)
        for name in ("sigma2_vA", "sigma2_vE"):
            dev = abs(rep[f"{name}_emp"] - rep[name]) / rep[f"{name}_se"]
            worst_scalar = max(worst_scalar, dev)
        worst_matrix = max(worst_matrix, rep["cov_max_dev_se"])
    elapsed = time.perf_counter() - t0
    ok = worst_scalar <= 3.0 and worst_matrix <= 5.0 and elapsed <= 60.0
    _report(
        "variance oracles",
        ok,
        f"worst scalar {worst_scalar:.2f} se of 3, worst covariance entry "
        f"{worst_matrix:.2f} se of 5, {elapsed:.1f} s of 60",
    )
    assert worst_scalar <= 3.0
    assert worst_matrix <= 5.0
    assert elapsed <= 60.0


def test_residual_cov_forms_agree():
    # Direct inverse, rank-limited complement form, and the eigen route for
    # the echo leakage coefficient agree to 1e-9 relative on 100 draws.
    rng = np.random.default_rng(SEED)
    worst_cov = 0.0
    worst_beta = 0.0
    for _ in range(100):
        n_a = int(rng.integers(1, 7))
        n_e = int(rng.integers(1, 7))
        cfg = _cfg(n_A=n_a, n_E=n_e)
        ch = sample_realization(cfg, rng)
        scale = cfg.P_A / (cfg.n_A * cfg.sigma2_EA)
        gram = ch.G_A.conj().T @ ch.G_A
        direct = np.linalg.inv(scale * gram + np.eye(n_a))
        amp2 = cfg.P_A / cfg.n_A
        inner = amp2 * (ch.G_A @ ch.G_A.conj().T) + cfg.sigma2_EA * np.eye(n_e)
        complement = np.eye(n_a) - amp2 * ch.G_A.conj().T @ np.linalg.solve(inner, ch.G_A)
        _, lib = mmse_estimator(cfg, ch.G_A)
        scale_ref = np.linalg.norm(direct)
        worst_cov = max(
            worst_cov,
            np.linalg.norm(lib - direct) / scale_ref,
            np.linalg.norm(lib - complement) / scale_ref,
        )
        b_solve = beta(cfg, ch)
        b_eig = beta_via_eig(cfg, ch)
        worst_beta = max(worst_beta, abs(b_solve - b_eig) / b_solve)
    ok = worst_cov <= 1e-9 and worst_beta <= 1e-9
    _report(
        "residual covariance forms",
        ok,
        f"worst covariance rel dev {worst_cov:.2e}, worst beta rel dev {worst_beta:.2e}",
    )
    assert worst_cov <= 1e-9
    assert worst_beta <= 1e-9


def test_asymptotic_capacity_regimes():
    # (a) more antennas than Eve: one extra bit per probe-power doubling
    cfg = _cfg(
        n_A=4, n_E=2, P_A_dB=60.0, P_B_dB=90.0,
        power_convention=PowerConvention.REFERENCE_PB_PRIME,
    )
    ch = sample_realization(cfg, np.random.default_rng(SEED))
    slope = (
        c_steep(replace(cfg, P_A_dB=cfg.P_A_dB + DB_DOUBLE), ch).c_steep
        - c_steep(cfg, ch).c_steep
    )
    ok_a = abs(slope - 1.0) <= 0.05

    # (b) outnumbered by Eve: rate pinned at the probe-power-free value
    cfg_b = _cfg(
        n_A=2, n_E=4, P_A_dB=60.0, P_B_dB=90.0,
        power_convention=PowerConvention.REFERENCE_PB_PRIME,
    )
    ch_b = sample_realization(cfg_b, np.random.default_rng(SEED + 1))
    c_b = c_steep(cfg_b, ch_b).c_steep
    asym = c_steep_asymptotic_nA_le_nE(cfg_b, ch_b)
    c_b2 = c_steep(replace(cfg_b, P_A_dB=cfg_b.P_A_dB + DB_DOUBLE), ch_b).c_steep
    ok_b = abs(c_b - asym) / asym <= 0.02 and abs(c_b2 - c_b) / c_b < 0.01

    # (c) large echo power: capacity at P_B' = 10^6 within 1% of the limit
    cfg_c = _cfg(
        P_B_dB=60.0, power_convention=PowerConvention.REFERENCE_PB_PRIME
    )
    ch_c = sample_realization(cfg_c, np.random.default_rng(SEED + 2))
    c_c = c_steep(cfg_c, ch_c).c_steep
    lim = c_steep_large_pb(cfg_c, ch_c)
    ok_c = abs(c_c - lim) / abs(lim) <= 0.01

    ok = ok_a and ok_b and ok_c
    _report(
        "asymptotic regimes",
        ok,
        f"slope {slope:.4f} bits/doubling, invariant-regime rel dev "
        f"{abs(c_b - asym) / asym:.2e} with doubling change {abs(c_b2 - c_b) / c_b:.2e}, "
        f"large-echo rel dev {abs(c_c - lim) / abs(lim):.2e}",
    )
    assert ok_a
    assert ok_b
    assert ok_c


def test_steep_outage_shrinks_with_echo_power(quad_ensembles):
    # Natural-outage frequency drops when P_B rises 20dB -> 30dB for both
    # Eve sizes, and is below 1% at n_E=6, P_B=30dB.
    o = {k: v.o_steep[0] for k, v in quad_ensembles.items() if k != "elapsed"}
    elapsed = quad_ensembles["elapsed"]
    ok = (
        o[(2, 20.0)] > o[(2, 30.0)]
        and o[(6, 20.0)] > o[(6, 30.0)]
        and o[(6, 30.0)] < 0.01
        and elapsed <= 120.0
    )
    _report(
        "echo power shrinks outage",
        ok,
        f"n_E=2: {o[(2, 20.0)]:.5f} -> {o[(2, 30.0)]:.5f}, "
        f"n_E=6: {o[(6, 20.0)]:.5f} -> {o[(6, 30.0)]:.5f}, "
        f"{elapsed:.1f} s of 120",
    )
    assert o[(2, 20.0)] > o[(2, 30.0)]
    assert o[(6, 20.0)] > o[(6, 30.0)]
    assert o[(6, 30.0)] < 0.01
    assert elapsed <= 120.0


def test_baseline_outage_levels(quad_ensembles):
    # Baseline natural-outage frequency: above 0.95 for n_E=6 at both echo
    # powers and above 0.2 for n_E=2.
    o = {k: v.o_conv[0] for k, v in quad_ensembles.items() if k != "elapsed"}
    ok = (
        o[(6, 20.0)] > 0.95
        and o[(6, 30.0)] > 0.95
        and o[(2, 20.0)] > 0.2
        and o[(2, 30.0)] > 0.2
    )
    _report(
        "baseline outage levels",
        ok,
        f"n_E=6: {o[(6, 20.0)]:.4f} and {o[(6, 30.0)]:.4f} vs 0.95, "
        f"n_E=2: {o[(2, 20.0)]:.4f} and {o[(2, 30.0)]:.4f} vs 0.2",
    )
    assert o[(6, 20.0)] > 0.95
    assert o[(6, 30.0)] > 0.95
    assert o[(2, 20.0)] > 0.2
    assert o[(2, 30.0)] > 0.2


def test_steep_dominates_baseline_outage(quad_ensembles, wide_eve_ensembles):
    # At P_B=30dB the probe-echo outage curve sits strictly below the
    # baseline curve at every grid point with 0 < Rs < 1, for all Eve sizes.
    runs = {
        2: quad_ensembles[(2, 30.0)],
        4: wide_eve_ensembles[4],
        6: quad_ensembles[(6, 30.0)],
        8: wide_eve_ensembles[8],
    }
    inner = (GRID > 0.0) & (GRID < 1.0)
    margins = {}
    for n_e, res in runs.items():
        margins[n_e] = float(np.min(res.o_conv[inner] - res.o_steep[inner]))
    ok = all(m > 0.0 for m in margins.values())
    _report(
        "outage dominance",
        ok,
        "min margin by n_E: "
        + ", ".join(f"{k}: {v:.4f}" for k, v in sorted(margins.items())),
    )
    for n_e, m in margins.items():
        assert m > 0.0, f"dominance violated at n_E={n_e}"


def test_single_antenna_outage_gap_grows(siso_ensembles):
    # n_A=1: the peak baseline-vs-probe-echo outage gap over 0 < Rs < 0.5
    # widens when P_B goes 30dB -> 40dB, for n_E=1 and n_E=2.
    band = (GRID > 0.0) & (GRID < 0.5)
    gaps = {}
    for (n_e, p_b), res in siso_ensembles.items():
        gaps[(n_e, p_b)] = float(np.max(res.o_conv[band] - res.o_steep[band]))
    ok = gaps[(1, 40.0)] > gaps[(1, 30.0)] and gaps[(2, 40.0)] > gaps[(2, 30.0)]
    _report(
        "single-antenna gap trend",
        ok,
        f"n_E=1: {gaps[(1, 30.0)]:.4f} -> {gaps[(1, 40.0)]:.4f}, "
        f"n_E=2: {gaps[(2, 30.0)]:.4f} -> {gaps[(2, 40.0)]:.4f}",
    )
    assert gaps[(1, 40.0)] > gaps[(1, 30.0)]
    assert gaps[(2, 40.0)] > gaps[(2, 30.0)]


def test_baseline_capacity_inequalities(quad_ensembles, wide_eve_ensembles, siso_ensembles):
    # Per trial: the sum of clamped per-direction rates is at least the
    # clamped sum. Per curve: baseline outage never exceeds the outage of
    # the unclamped sum.
    from steepsim.mc import empirical_outage

    checked = 0
    for res in (
        [v for k, v in quad_ensembles.items() if k != "elapsed"]
        + list(wide_eve_ensembles.values())
        + list(siso_ensembles.values())
    ):
        assert np.all(res.c_conv >= np.maximum(0.0, res.c1 + res.c2))
        sum_curve = empirical_outage(res.c1 + res.c2, res.rs_grid)
        assert np.all(res.o_conv <= sum_curve)
        checked += 1
    _report(
        "baseline capacity inequalities",
        True,
        f"held on every trial of {checked} ensembles",
    )


def test_outage_condition_equivalence():
    # On 10^4 fresh realizations the sign of the secrecy rate must coincide
    # exactly with the attenuation-difference inequality evaluated without
    # touching the rate formula.
    cfg = _cfg(n_E=6, P_B_dB=20.0)
    rng = np.random.default_rng(SEED)
    mismatches = 0
    outages = 0
    for _ in range(10_000):
        ch = sample_realization(cfg, rng)
        sa = c_steep(cfg, ch)
        flagged = natural_outage_condition(cfg, ch, sa.p_b_prime)
        if flagged != (sa.c_steep <= 0.0) or flagged != sa.natural_outage:
            mismatches += 1
        outages += int(flagged)
    ok = mismatches == 0 and 0 < outages < 10_000
    _report(
        "outage condition equivalence",
        ok,
        f"{mismatches} mismatches on 10^4 trials, {outages} outages observed",
    )
    assert mismatches == 0
    assert 0 < outages < 10_000, "seed must exercise both outcomes"


def test_parallel_determinism(quad_ensembles, tmp_path):
    # The n_E=6, P_B=30dB ensemble rerun with 8 workers reproduces the
    # workers=1 samples.csv byte for byte.
    serial = quad_ensembles[(6, 30.0)]
    d1 = tmp_path / "w1"
    d8 = tmp_path / "w8"
    write_outputs(serial, d1)
    parallel = run_ensemble(_cfg(n_E=6), TRIALS, SEED, rs_grid=GRID, workers=8)
    write_outputs(parallel, d8)
    same = (d1 / "samples.csv").read_bytes() == (d8 / "samples.csv").read_bytes()
    _report("parallel determinism", same, "samples.csv identical at workers 1 and 8")
    assert same
