import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from steepsim.channel import PowerConvention, SystemConfig, norm2, reference_power, sample_realization
from steepsim.cli import main
from steepsim.linops import DegenerateChannelError, sample_cn, sample_cn_matrix
from steepsim.sigsim import (
    SYMBOL_BLOCK,
    alice_receiver,
    eve_receiver,
    run_phase1,
    run_phase2,
    variance_report,
)
from steepsim.steep import mmse_estimator

CFG = SystemConfig(n_A=4, n_E=3, P_A_dB=20.0, P_B_dB=30.0)
DATA = Path(__file__).parent / "data"


def _run_block(cfg, ch, m, rng, noiseless=False) -> dict:
    """Every step of the signal chain on one m-wide block.

    The six waveforms are drawn by today's sample_cn/sample_cn_matrix calls,
    in the order and count variance_report draws them. noiseless replaces
    the four noise waveforms by zeros.
    """
    X_A = sample_cn_matrix(cfg.n_A, m, rng)
    w_B = sample_cn(m, rng)
    W_EA = sample_cn_matrix(cfg.n_E, m, rng)
    s = sample_cn(m, rng)
    W_A = sample_cn_matrix(cfg.n_A, m, rng)
    W_EB = sample_cn_matrix(cfg.n_E, m, rng)
    if noiseless:
        w_B, W_EA, W_A, W_EB = (np.zeros_like(w) for w in (w_B, W_EA, W_A, W_EB))
    pbp = reference_power(cfg, norm2(ch.h_BA))
    y_B, Y_EA = run_phase1(cfg, ch, X_A, w_B, W_EA)
    X_hat = mmse_estimator(cfg, ch.G_A)[0] @ Y_EA
    hx_A = ch.h_BA @ X_A
    Y_A, Y_EB = run_phase2(cfg, ch, y_B, pbp, s, W_A, W_EB)
    r_A = alice_receiver(ch, Y_A, hx_A, pbp)
    r_E = eve_receiver(ch, Y_EB, ch.h_BA @ X_hat, pbp)
    return {
        "pbp": pbp, "X_A": X_A, "y_B": y_B, "Y_EA": Y_EA, "X_hat": X_hat, "hx_A": hx_A,
        "s": s, "Y_A": Y_A, "Y_EB": Y_EB, "r_A": r_A, "r_E": r_E,
    }


def test_phase1_shapes():
    ch = sample_realization(CFG, np.random.default_rng(0))
    tr = _run_block(CFG, ch, 50, np.random.default_rng(1))
    assert tr["X_A"].shape == (4, 50)
    assert tr["y_B"].shape == (50,)
    assert tr["Y_EA"].shape == (3, 50)
    assert tr["Y_A"].shape == (4, 50) and tr["Y_EB"].shape == (3, 50)


def test_phase1_rejects_empty_block():
    ch = sample_realization(CFG, np.random.default_rng(0))
    with pytest.raises(ValueError):
        variance_report(CFG, ch, 0, np.random.default_rng(1))


def test_noiseless_probe_is_pure_channel_output():
    ch = sample_realization(CFG, np.random.default_rng(2))
    tr = _run_block(CFG, ch, 64, np.random.default_rng(3), noiseless=True)
    want = math.sqrt(CFG.P_A / CFG.n_A) * (ch.h_BA @ tr["X_A"])
    assert np.allclose(tr["y_B"], want, atol=1e-12)


def test_noiseless_probe_subtraction_leaves_rank_one_echo():
    ch = sample_realization(CFG, np.random.default_rng(4))
    tr = _run_block(CFG, ch, 64, np.random.default_rng(5), noiseless=True)
    pbp = tr["pbp"]
    resid = tr["Y_A"] - math.sqrt(pbp) * np.outer(ch.h_AB, tr["hx_A"])
    want = math.sqrt(pbp) * np.outer(ch.h_AB, tr["s"])
    assert np.max(np.abs(resid - want)) < 1e-12


def test_noiseless_receiver_recovers_secret_exactly():
    ch = sample_realization(CFG, np.random.default_rng(6))
    tr = _run_block(CFG, ch, 64, np.random.default_rng(7), noiseless=True)
    assert np.max(np.abs(tr["r_A"] - tr["s"])) < 1e-12


def test_variance_report_agrees_with_closed_forms():
    rng = np.random.default_rng(3)
    ch = sample_realization(CFG, rng)
    rep = variance_report(CFG, ch, 20_000, rng)
    assert abs(rep["sigma2_vA_emp"] - rep["sigma2_vA"]) <= 3.0 * rep["sigma2_vA_se"]
    assert abs(rep["sigma2_vE_emp"] - rep["sigma2_vE"]) <= 3.0 * rep["sigma2_vE_se"]
    assert rep["cov_max_dev_se"] <= 5.0
    assert np.allclose(rep["cov_delta"], mmse_estimator(CFG, ch.G_A)[1])


def test_estimator_residual_orthogonal_to_estimate():
    # MMSE orthogonality: cross-covariance of X_hat and X_A - X_hat near zero
    m = 20_000
    rng = np.random.default_rng(5)
    ch = sample_realization(CFG, rng)
    tr = _run_block(CFG, ch, m, rng)
    cross = np.abs((tr["X_A"] - tr["X_hat"]) @ tr["X_hat"].conj().T) / m
    assert np.max(cross) <= 5.0 / math.sqrt(m)


def test_empirical_snr_reproduces_capacity_terms():
    rng = np.random.default_rng(11)
    ch = sample_realization(CFG, rng)
    rep = variance_report(CFG, ch, 20_000, rng)
    for name in ("sigma2_vA", "sigma2_vE"):
        analytic = math.log2(1.0 + 1.0 / rep[name])
        empirical = math.log2(1.0 + 1.0 / rep[f"{name}_emp"])
        assert empirical == pytest.approx(analytic, rel=0.02)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("receiver, response", [(alice_receiver, "h_AB"), (eve_receiver, "g_B")])
def test_receiver_with_zero_response_raises_naming_it(receiver, response):
    # the receiver divides by the response's squared norm: a zero response
    # raises the scalar API's error, not a NaN with a RuntimeWarning
    ch = sample_realization(CFG, np.random.default_rng(11))
    zeroed = dataclasses.replace(ch, **{response: np.zeros_like(getattr(ch, response))})
    rows = CFG.n_A if response == "h_AB" else CFG.n_E
    observed = sample_cn_matrix(rows, 8, np.random.default_rng(12))
    with pytest.raises(DegenerateChannelError, match=f"\\b{response} has zero norm"):
        receiver(zeroed, observed, sample_cn(8, np.random.default_rng(13)), 10.0)


def test_eve_receiver_fills_trace():
    ch = sample_realization(CFG, np.random.default_rng(9))
    tr = _run_block(CFG, ch, 32, np.random.default_rng(10))
    assert tr["r_E"].shape == (32,)
    assert tr["X_hat"].shape == (4, 32)


@pytest.mark.parametrize(
    "cfg",
    [CFG, SystemConfig(n_A=16, n_E=8, P_A_dB=20.0, P_B_dB=20.0,
                       power_convention=PowerConvention.REFERENCE_PB_PRIME)],
    ids=["n4e3", "n16e8"],
)
def test_blocked_report_matches_one_block(cfg):
    # the column blocks and the two passes over one buffer change nothing but
    # the summation order: same draws, same rng end state, same estimates
    m = 2 * SYMBOL_BLOCK + 123
    rng = np.random.default_rng(21)
    rep = variance_report(cfg, sample_realization(cfg, rng), m, rng)
    ref_rng = np.random.default_rng(21)
    ch = sample_realization(cfg, ref_rng)
    tr = _run_block(cfg, ch, m, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    delta = tr["X_A"] - tr["X_hat"]
    want = {
        "sigma2_vA_emp": np.mean(np.abs(tr["r_A"] - tr["s"]) ** 2),
        "sigma2_vE_emp": np.mean(np.abs(tr["r_E"] - tr["s"]) ** 2),
        "cov_delta_emp": (delta @ delta.conj().T) / m,
    }
    for key, value in want.items():
        assert np.allclose(rep[key], value, rtol=1e-12, atol=0.0), key
    assert rep["p_b_prime"] == tr["pbp"]


# golden verify runs: stdout of `steepsim verify --m 20000` for seeds 0, 1
# and 2, concatenated, written before verify ran in column blocks
GOLDEN_VERIFY = [
    ("golden_verify_n4e6_ConsumedPB.txt", "n_A=4\nn_E=6\nP_A_dB=20\nP_B_dB=30\n"
     "power_convention=ConsumedPB\n"),
    ("golden_verify_n16e8_ReferencePBPrime.txt", "n_A=16\nn_E=8\nP_A_dB=20\nP_B_dB=20\n"
     "power_convention=ReferencePBPrime\n"),
]


@pytest.mark.parametrize("name, config", GOLDEN_VERIFY, ids=[g[0] for g in GOLDEN_VERIFY])
def test_golden_verify_stdout(name, config, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    out = ""
    for seed in (0, 1, 2):
        assert main(["verify", "--config", str(path), "--m", "20000", "--seed", str(seed)]) == 0
        out += capsys.readouterr().out
    assert out == (DATA / name).read_text(encoding="ascii"), f"numpy {np.__version__}"
