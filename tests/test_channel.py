import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steepsim.channel import (
    MAX_ANTENNAS,
    InfeasiblePowerError,
    PowerConvention,
    SystemConfig,
    norm2,
    reference_power,
    sample_realization,
)
from steepsim.linops import sample_cn
from steepsim.mc import run_ensemble, write_outputs


def _cfg(**kw):
    base = dict(n_A=4, n_E=2, P_A_dB=20.0, P_B_dB=30.0)
    base.update(kw)
    return SystemConfig(**base)


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        _cfg(n_A=0)
    with pytest.raises(ValueError):
        _cfg(n_E=-1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'n_B'"):
        _cfg(n_B=1)
    for name, value in [("n_A", 4.5), ("n_A", 4.0), ("n_A", True), ("n_E", 6.0), ("n_E", False),
                        ("n_E", np.float64(2.0)), ("n_A", "4")]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            _cfg(**{name: value})
    with pytest.raises(ValueError):
        _cfg(sigma2_B=0.0)
    with pytest.raises(ValueError):
        _cfg(sigma2_EA=-1.0)
    with pytest.raises(ValueError):
        _cfg(gamma=1.5)
    with pytest.raises(ValueError):
        _cfg(gamma=-0.1)
    for name, value in [("P_A_dB", True), ("gamma", True), ("P_B_dB", np.bool_(False)),
                        ("P_A_dB", "20"), ("gamma", "0.2"), ("sigma2_B", None),
                        ("sigma2_EA", 1j), ("sigma2_A", [1.0])]:
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
            _cfg(**{name: value})
    for name, value in [("P_B_dB", float("inf")), ("sigma2_EB", np.float32("nan")), ("gamma", 10**400)]:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            _cfg(**{name: value})


def test_config_stores_real_fields_as_float(tmp_path):
    cfg = _cfg(P_A_dB=np.float32(20), P_B_dB=30, sigma2_B=np.float16(0.5), gamma=np.int8(1))
    values = [cfg.P_A_dB, cfg.P_B_dB, cfg.sigma2_B, cfg.gamma]
    assert [type(v) for v in values] == [float] * 4
    assert values == [20.0, 30.0, 0.5, 1.0]
    manifest = write_outputs(run_ensemble(cfg, trials=3, seed=1), tmp_path)
    written = json.loads((tmp_path / "manifest.json").read_text(encoding="ascii"))
    assert written == json.loads(json.dumps(manifest))
    assert written["config"]["P_A_dB"] == 20.0


@pytest.mark.parametrize("value", [np.int64(3), np.int32(3), np.uint8(3), 3])
def test_config_stores_integer_antenna_counts_as_int(value):
    cfg = _cfg(n_A=value, n_E=value)
    assert type(cfg.n_A) is int and type(cfg.n_E) is int
    assert cfg.n_A == cfg.n_E == 3


@pytest.mark.parametrize("name", ["P_A_dB", "P_B_dB"])
@pytest.mark.parametrize("value", [-100.0, 100.0])
def test_config_accepts_power_limits(name, value):
    assert getattr(_cfg(**{name: value}), name) == value


@pytest.mark.parametrize("name", ["P_A_dB", "P_B_dB"])
@pytest.mark.parametrize("value", [-100.5, 100.5, -4000.0, 4000.0])
def test_config_rejects_powers_beyond_limit(name, value):
    with pytest.raises(ValueError, match=f"{name} must be in \\[-100, 100\\] dB"):
        _cfg(**{name: value})


@pytest.mark.parametrize("name", ["n_A", "n_E"])
def test_config_bounds_antenna_counts(name):
    assert getattr(_cfg(**{name: MAX_ANTENNAS}), name) == MAX_ANTENNAS
    for value in (MAX_ANTENNAS + 1, 20000):
        with pytest.raises(ValueError, match=f"^{name} must be in \\[1, {MAX_ANTENNAS}\\], got {value}$"):
            _cfg(**{name: value})


_VARIANCES = ["sigma2_B", "sigma2_A", "sigma2_EA", "sigma2_EB"]


# Eve's probe SNR bound keeps sigma2_EA at or above 1e-20
@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name in _VARIANCES for value in (1e-100, 1e100)
     if (name, value) != ("sigma2_EA", 1e-100)] + [("sigma2_EA", 1e-20)],
)
def test_config_accepts_variance_limits(name, value):
    assert getattr(_cfg(P_A_dB=-100.0, **{name: value}), name) == value


@pytest.mark.parametrize("name", _VARIANCES)
@pytest.mark.parametrize("value", [1e-300, 9e-101, 1.1e100, 1e300])
def test_config_rejects_variances_beyond_limit(name, value):
    with pytest.raises(ValueError, match=f"{name} must be in \\[1e-100, 1e\\+100\\]"):
        _cfg(P_A_dB=-100.0, **{name: value})


@pytest.mark.parametrize(
    "P_A_dB, sigma2_EA, ok",
    [(100.0, 1.0, True), (90.0, 0.1, True), (100.0, 0.5, False), (20.0, 1e-90, False)],
)
def test_config_bounds_eve_probe_snr(P_A_dB, sigma2_EA, ok):
    if ok:
        _cfg(n_A=16, n_E=8, P_A_dB=P_A_dB, sigma2_EA=sigma2_EA)
    else:
        with pytest.raises(ValueError, match="probe SNR .*sigma2_EA.* must be <= 100 dB"):
            _cfg(n_A=16, n_E=8, P_A_dB=P_A_dB, sigma2_EA=sigma2_EA)


@pytest.mark.parametrize(
    "name", ["P_A_dB", "P_B_dB", "sigma2_B", "sigma2_A", "sigma2_EA", "sigma2_EB", "gamma"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=name):
        _cfg(**{name: value})


def test_power_db_conversion():
    cfg = _cfg(P_A_dB=20.0, P_B_dB=30.0)
    assert cfg.P_A == pytest.approx(100.0)
    assert cfg.P_B == pytest.approx(1000.0)
    assert _cfg(P_A_dB=0.0).P_A == pytest.approx(1.0)
    assert _cfg(P_A_dB=-10.0).P_A == pytest.approx(0.1)


def test_sample_realization_shapes():
    cfg = _cfg(n_A=3, n_E=5)
    ch = sample_realization(cfg, np.random.default_rng(0))
    assert ch.h_BA.shape == (3,)
    assert ch.h_AB.shape == (3,)
    assert ch.G_A.shape == (5, 3)
    assert ch.g_B.shape == (5,)


def test_gamma_one_gives_reciprocal_links():
    cfg = _cfg(gamma=1.0)
    ch = sample_realization(cfg, np.random.default_rng(5))
    assert np.array_equal(ch.h_AB, ch.h_BA)


def test_return_link_mixing_law():
    # Same seed fixes (h_BA, w); recovering w from two gamma values must agree.
    ch_a = sample_realization(_cfg(gamma=0.25), np.random.default_rng(9))
    ch_b = sample_realization(_cfg(gamma=0.75), np.random.default_rng(9))
    assert np.array_equal(ch_a.h_BA, ch_b.h_BA)
    w_a = (ch_a.h_AB - 0.25 * ch_a.h_BA) / 0.75
    w_b = (ch_b.h_AB - 0.75 * ch_b.h_BA) / 0.25
    assert np.allclose(w_a, w_b, atol=1e-12)


def test_return_link_entry_variance():
    # var of one h_AB entry is gamma^2 + (1-gamma)^2 under the unnormalized mix
    cfg = _cfg(n_A=1, gamma=0.2)
    rng = np.random.default_rng(3)
    vals = np.array([sample_realization(cfg, rng).h_AB[0] for _ in range(40_000)])
    expected = 0.2**2 + 0.8**2
    assert np.mean(np.abs(vals) ** 2) == pytest.approx(expected, rel=0.03)


def test_reference_power_passthrough():
    cfg = _cfg(power_convention=PowerConvention.REFERENCE_PB_PRIME)
    ch = sample_realization(cfg, np.random.default_rng(1))
    assert reference_power(cfg, ch) == pytest.approx(cfg.P_B)


def test_reference_power_consumed_formula():
    cfg = _cfg(power_convention=PowerConvention.CONSUMED_PB)
    ch = sample_realization(cfg, np.random.default_rng(2))
    floor = cfg.n_A / cfg.P_A * cfg.sigma2_B
    expected = (cfg.P_B - floor) / (1.0 + norm2(ch.h_BA))
    assert reference_power(cfg, ch) == pytest.approx(expected, rel=1e-12)


def test_reference_power_infeasible_budget():
    # echo-noise floor n_A/P_A exceeds the whole budget
    cfg = _cfg(P_A_dB=-30.0, P_B_dB=0.0, power_convention=PowerConvention.CONSUMED_PB)
    ch = sample_realization(cfg, np.random.default_rng(4))
    with pytest.raises(InfeasiblePowerError):
        reference_power(cfg, ch)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=10**6))
def test_norm2_matches_numpy(dim, seed):
    v = sample_cn(dim, np.random.default_rng(seed))
    assert norm2(v) == pytest.approx(np.linalg.norm(v) ** 2, rel=1e-12)
    assert norm2(v) >= 0.0
