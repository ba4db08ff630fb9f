import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import re
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steepsim.baseline import conventional
from steepsim.channel import MAX_ANTENNAS, PowerConvention, SystemConfig, sample_realization
import steepsim.cli as cli
import steepsim.mc as mc
from steepsim.cli import load_config_file, main, parse_settings
from steepsim.steep import c_steep

BASE_CFG = """\
# four transmit antennas against a two-antenna eavesdropper
n_A = 4
n_E = 2
P_A_dB = 20   # converted as linear = 10^(dB/10)
P_B_dB = 30
gamma = 0.2
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return str(path)


def test_config_file_parsing(cfg_file):
    kv = load_config_file(cfg_file)
    assert kv == {"n_A": "4", "n_E": "2", "P_A_dB": "20", "P_B_dB": "30", "gamma": "0.2"}
    cfg, trials, seed, rs_grid = parse_settings(kv)
    assert cfg.n_A == 4
    assert cfg.P_B == pytest.approx(1000.0)
    assert trials is None and seed is None and rs_grid is None


def test_config_file_with_run_settings(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG + "trials = 500\nseed = 9\nRs_grid = 0,2,21\n")
    _, trials, seed, rs_grid = parse_settings(load_config_file(path))
    assert trials == 500
    assert seed == 9
    assert np.allclose(rs_grid, np.linspace(0.0, 2.0, 21))


def test_unknown_key_rejected():
    with pytest.raises(ValueError):
        parse_settings({"n_A": "4", "n_E": "2", "P_A_dB": "20", "P_B_dB": "30", "bogus": "1"})


@pytest.mark.parametrize("command", ["ensemble", "single", "verify"])
@pytest.mark.parametrize("in_config", [True, False])
def test_n_B_key_exit_code(command, in_config, tmp_path, capsys):
    # Bob has one antenna; n_B is not a config key
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG + ("n_B = 1\n" if in_config else ""))
    out = tmp_path / "x"
    extra = {"ensemble": ["--trials", "20", "--out", str(out)], "single": [],
             "verify": ["--m", "1000"]}[command]
    items = [] if in_config else ["--set", "n_B=1"]
    rc = main([command, "--config", str(path)] + items + extra)
    assert rc == 1
    assert capsys.readouterr().err == "error: unknown config keys: n_B\n"
    assert not out.exists()


def test_missing_required_key_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("n_A = 4\n")
    rc = main(["single", "--config", str(path)])
    assert rc == 1
    assert "missing required" in capsys.readouterr().err


def test_malformed_line_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("n_A 4\n")
    rc = main(["single", "--config", str(path)])
    assert rc == 1
    assert "expected key=value" in capsys.readouterr().err


def test_negative_variance_exit_code(cfg_file, capsys):
    rc = main(["verify", "--config", cfg_file, "--set", "sigma2_B=-1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_one(cfg_file):
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--config", cfg_file, "--no-such-flag"])
    assert exc.value.code == 1


def test_single_plain_report(cfg_file, capsys):
    rc = main(["single", "--config", cfg_file, "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = dict(l.split(" = ") for l in out.strip().splitlines())
    assert set(lines) == {
        "beta", "sigma2_vA", "sigma2_vE", "c_steep",
        "natural_outage", "c1", "c2", "c_conv", "gain",
    }
    assert lines["natural_outage"] in ("true", "false")


def test_single_json_cross_checks_library(cfg_file, capsys):
    rc = main(["single", "--config", cfg_file, "--seed", "4", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)

    cfg, _, _, _ = parse_settings(load_config_file(cfg_file))
    ch = sample_realization(cfg, np.random.default_rng(4))
    sa = c_steep(cfg, ch)
    ba = conventional(cfg, ch, steep=sa)
    assert report["c_steep"] == sa.c_steep
    assert report["beta"] == sa.beta
    assert report["c_conv"] == ba.c_conv
    assert report["gain"] == ba.gain
    assert report["natural_outage"] == sa.natural_outage


def test_set_overrides_apply(cfg_file, capsys):
    rc = main(["single", "--config", cfg_file, "--seed", "4", "--json"])
    base = json.loads(capsys.readouterr().out)
    rc2 = main(["single", "--config", cfg_file, "--seed", "4", "--json", "--set", "n_E=6"])
    more = json.loads(capsys.readouterr().out)
    assert rc == rc2 == 0
    assert more["sigma2_vE"] != base["sigma2_vE"]


def test_ensemble_end_to_end(cfg_file, tmp_path, capsys):
    out = tmp_path / "run1"
    rc = main([
        "ensemble", "--config", cfg_file, "--set", "n_E=6",
        "--trials", "400", "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    for name in ("samples.csv", "outage.csv", "histogram.csv", "manifest.json"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "O_steep(0)" in stdout
    with open(out / "manifest.json") as f:
        meta = json.load(f)
    assert meta["config"]["n_E"] == 6
    assert meta["trials"] == 400
    assert meta["seed"] == 7


def test_ensemble_rerun_is_byte_identical(cfg_file, tmp_path):
    args = ["ensemble", "--config", cfg_file, "--trials", "300", "--seed", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("samples.csv", "outage.csv", "histogram.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_failed_rerun_leaves_no_stale_manifest(cfg_file, tmp_path, capsys):
    out = tmp_path / "mixed"
    args = ["ensemble", "--config", cfg_file, "--out", str(out)]
    assert main(args + ["--trials", "500", "--seed", "1"]) == 0
    (out / "histogram.csv").unlink()
    (out / "histogram.csv").mkdir()  # the rerun cannot write it
    capsys.readouterr()
    assert main(args + ["--trials", "900", "--seed", "2"]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert len((out / "samples.csv").read_text().splitlines()) == 901
    # no manifest describes the 500-trial seed-1 run beside the new samples
    assert not (out / "manifest.json").exists()


def _no_trial(*block):
    raise AssertionError(f"a trial ran: {block}")


@pytest.mark.parametrize("where", ["afile", "afile/sub"])
def test_ensemble_out_under_a_file_fails_before_any_trial(
    where, cfg_file, tmp_path, capsys, monkeypatch
):
    # an output that cannot be a directory fails the run before its first
    # trial, not after the whole run
    afile = tmp_path / "afile"
    afile.write_bytes(b"not a directory\n")
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(mc, "_run_chunk", _no_trial)
    out = tmp_path / where
    rc = main(["ensemble", "--config", cfg_file, "--trials", "200000", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: cannot write into {out}: {afile} is not a directory\n"
    assert afile.read_bytes() == b"not a directory\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_ensemble_empty_out_exit_code(cfg_file, tmp_path, capsys, monkeypatch):
    # as from an unset shell variable: the working directory and an earlier
    # run's manifest there stay as they were
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.json").write_text("{}\n")
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(mc, "_run_chunk", _no_trial)
    rc = main(["ensemble", "--config", cfg_file, "--trials", "20", "--out", ""])
    assert rc == 1
    assert capsys.readouterr().err == "error: --out must name a directory, got ''\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "manifest.json").read_text() == "{}\n"


def test_ensemble_zero_trials_exit_code(cfg_file, tmp_path, capsys):
    rc = main([
        "ensemble", "--config", cfg_file, "--trials", "0",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ensemble", "single", "verify"])
def test_negative_seed_exit_code(command, cfg_file, tmp_path, capsys):
    out = tmp_path / "x"
    extra = ["--out", str(out)] if command == "ensemble" else []
    rc = main([command, "--config", cfg_file, "--seed", "-1"] + extra)
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["single", "--json"], ["verify", "--m", "1000"]])
def test_config_seed_and_seed_flag_order(command, cfg_file, tmp_path, capsys):
    # single and verify used to parse the config's seed and then draw seed 1
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(BASE_CFG + "seed = 7\n")

    def run(path, *flags):
        rc = main([command[0], "--config", str(path), *flags, *command[1:]])
        return rc, capsys.readouterr().out

    assert run(seeded) == run(cfg_file, "--seed", "7")
    assert run(seeded) != run(cfg_file)
    assert run(seeded, "--seed", "3") == run(cfg_file, "--seed", "3")


def test_ensemble_seed_order(tmp_path, capsys):
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(BASE_CFG + "seed = 7\n")
    for flags, want in (([], 7), (["--seed", "3"], 3)):
        out = tmp_path / f"run{want}"
        args = ["ensemble", "--config", str(seeded), "--trials", "20", "--out", str(out)]
        assert main(args + flags) == 0
        capsys.readouterr()
        assert json.loads((out / "manifest.json").read_text())["seed"] == want


@pytest.mark.parametrize("command", ["ensemble", "single", "verify"])
def test_negative_config_seed_exit_code(command, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG + "seed = -1\n")
    out = tmp_path / "x"
    extra = ["--out", str(out)] if command == "ensemble" else []
    assert main([command, "--config", str(path)] + extra) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_non_finite_config_value_exit_code(cfg_file, capsys):
    rc = main(["single", "--config", cfg_file, "--set", "P_A_dB=nan", "--set", "sigma2_A=nan"])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0,inf,5", "nan,1,5", "0,nan,3"])
def test_non_finite_rs_grid_exit_code(grid, cfg_file, tmp_path, capsys):
    out = tmp_path / "x"
    rc = main(["ensemble", "--config", cfg_file, "--set", f"Rs_grid={grid}", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad Rs_grid '{grid}'")
    assert err.count("\n") == 1
    assert not out.exists()


def test_ensemble_infeasible_budget_exit_code(cfg_file, tmp_path, capsys):
    rc = main([
        "ensemble", "--config", cfg_file,
        "--set", "P_A_dB=-30", "--set", "P_B_dB=0",
        "--trials", "50", "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


def test_verify_passes_on_healthy_config(cfg_file, capsys):
    rc = main(["verify", "--config", cfg_file, "--seed", "3", "--m", "20000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


@pytest.mark.parametrize("n_A, n_E", [(1, 6), (4, 6), (16, 8), (4, 1)])
def test_verify_passes_at_probe_snr_bound(cfg_file, capsys, n_A, n_E):
    # P_A_dB = 100 with sigma2_EA = 1 puts Eve's probe SNR on its bound,
    # where a Gram route to her MMSE filter or residual covariance loses
    # digits in proportion to the SNR
    for seed in (1, 2, 3):
        rc = main(["verify", "--config", cfg_file, "--set", f"n_A={n_A}", "--set", f"n_E={n_E}",
                   "--set", "P_A_dB=100", "--m", "20000", "--seed", str(seed)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.count("PASS") == 3 and "FAIL" not in out, out


def test_verify_reports_unresolved_variance(cfg_file, capsys):
    # sigma2_vA is about 3.5e-35 here; the oracle's empirical value, 4e-32,
    # is float64 rounding, and its deviation used to read 163736 se (exit 2)
    rc = main(["verify", "--config", cfg_file, "--set", "sigma2_B=8.48e-34",
               "--set", "sigma2_A=2.27e-34", "--m", "20000", "--seed", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert re.fullmatch(
        r"sigma2_vA: analytic = 3\.52\d*e-35, empirical = \S+, rounding floor = \S+ UNRESOLVED",
        lines[1],
    )
    assert lines[2].endswith("PASS") and lines[3].endswith("PASS")


def test_verify_rejects_tiny_block(cfg_file, capsys):
    rc = main(["verify", "--config", cfg_file, "--m", "10"])
    assert rc == 1
    assert "m must be" in capsys.readouterr().err


def test_sdof_prints_exact_rational(capsys):
    rc = main([
        "sdof", "--n_A", "4", "--n_E", "2", "--m_A", "100", "--m_B", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("96/101 = 0.95049504950495")


def test_sdof_constraint_violation(capsys):
    # all but the first used to end in a ZeroDivisionError or print a rate
    for args, name in [
        (["--n_A", "4", "--n_E", "2", "--m_A", "2"], "m_A"),
        (["--n_A", "0", "--n_B", "0", "--n_E", "2", "--m_A", "0", "--m_B", "0"], "n_A"),
        (["--n_A", "-1", "--n_E", "2", "--m_A", "100"], "n_A"),
        (["--n_A", "4", "--n_E", "-3", "--m_A", "100"], "n_E"),
        (["--n_A", "4", "--n_B", "-2", "--n_E", "2", "--m_A", "100", "--m_B", "-2"], "n_B"),
    ]:
        assert main(["sdof", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must be >= ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "items",
    [
        ["P_A_dB=4000"],
        ["P_B_dB=-3300", "power_convention=ReferencePBPrime"],
        ["P_A_dB=-3100", "power_convention=ReferencePBPrime"],
        ["P_B_dB=100.5"],
    ],
)
def test_power_beyond_limit_exit_code(items, cfg_file, capsys):
    # the first three used to crash inside the analysis or print NaN rates
    rc = main(["single", "--config", cfg_file] + [f"--set={item}" for item in items])
    assert rc == 1
    err = capsys.readouterr().err
    key = items[0].split("=")[0]
    assert err.startswith(f"error: {key} must be in [-100, 100] dB")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["ensemble", "single", "verify"])
def test_oversized_rs_grid_exit_code(command, cfg_file, tmp_path, capsys):
    # 10^10 points used to allocate 74.5 GiB in every subcommand
    out = tmp_path / "x"
    extra = ["--out", str(out)] if command == "ensemble" else []
    rc = main([command, "--config", cfg_file, "--set", "Rs_grid=0,1,10000000000"] + extra)
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: bad Rs_grid '0,1,10000000000': wants start,stop,points with finite "
        "start <= stop and 1 <= points <= 1000000\n"
    )
    assert not out.exists()


def test_verify_rejects_oversized_block(cfg_file, capsys):
    # 10^11 symbols used to end in a 2.91 TiB allocation failure
    rc = main(["verify", "--config", cfg_file, "--m", "100000000000"])
    assert rc == 1
    assert capsys.readouterr().err == "error: m must be in [1000, 10000000], got 100000000000\n"


@pytest.mark.parametrize("command", ["single", "ensemble", "verify"])
@pytest.mark.parametrize("key", ["n_A", "n_E"])
def test_antenna_count_bound_exit_code(command, key, cfg_file, tmp_path, capsys):
    # n_A = n_E = 20000 used to end in an allocation traceback
    out = tmp_path / "x"
    extra = {"single": [], "ensemble": ["--trials", "20", "--out", str(out)],
             "verify": ["--m", "1000"]}[command]
    rc = main([command, "--config", cfg_file, f"--set={key}={MAX_ANTENNAS}"] + extra)
    assert rc == 0
    capsys.readouterr()
    for value in (MAX_ANTENNAS + 1, 20000):
        rc = main([command, "--config", cfg_file, f"--set={key}={value}"] + extra)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {key} must be in [1, {MAX_ANTENNAS}], got {value}\n"
        )
    if command == "ensemble":
        assert (out / "samples.csv").exists()


def test_tiny_variance_computes(cfg_file, tmp_path, capsys):
    # used to end in "math domain error": c2's log1p argument rounds to -1
    sets = ["--set=sigma2_EB=1e-20"]
    assert main(["single", "--config", cfg_file, "--json"] + sets) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(v) for v in report.values() if not isinstance(v, bool))
    assert report["c2"] < 0.0
    out = tmp_path / "x"
    rc = main(["ensemble", "--config", cfg_file, "--trials", "600", "--out", str(out)] + sets)
    assert rc == 0
    rows = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
    assert rows.shape == (600, 5) and np.isfinite(rows).all()


@pytest.mark.parametrize(
    "items, message",
    [
        (["sigma2_EA=1e-300"], "sigma2_EA must be in [1e-100, 1e+100], got 1e-300"),
        (["sigma2_EB=1e-300"], "sigma2_EB must be in [1e-100, 1e+100], got 1e-300"),
        (["sigma2_A=1e300"], "sigma2_A must be in [1e-100, 1e+100], got 1e+300"),
        (["sigma2_EA=1e-20"], "Eve's probe SNR P_A_dB - 10*log10(sigma2_EA) must be <= 100 dB"),
    ],
)
@pytest.mark.parametrize("command", ["ensemble", "single"])
def test_extreme_variance_exit_code(command, items, message, cfg_file, tmp_path, capsys):
    out = tmp_path / "x"
    extra = ["--out", str(out)] if command == "ensemble" else []
    rc = main([command, "--config", cfg_file] + [f"--set={item}" for item in items] + extra)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, message",
    [
        (["--trials", "4294967297"], "trials must be <= 2**32 = 4294967296, got 4294967297"),
        (["--workers", "0"], "workers must be >= 1, got 0"),
        (["--workers", "100000"], "workers must be <= 256, got 100000"),
    ],
)
def test_ensemble_run_settings_exit_code(flag, message, cfg_file, tmp_path, capsys):
    out = tmp_path / "x"
    rc = main(["ensemble", "--config", cfg_file, "--out", str(out)] + flag)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# one non-default value per SystemConfig field
FIELD_SAMPLES = {
    "n_A": 5,
    "n_E": 3,
    "P_A_dB": 17.5,
    "P_B_dB": 33.25,
    "sigma2_B": 0.5,
    "sigma2_A": 2.0,
    "sigma2_EA": 0.25,
    "sigma2_EB": 4.0,
    "gamma": 0.75,
    "power_convention": PowerConvention.REFERENCE_PB_PRIME,
}


def test_every_config_field_reaches_manifest(tmp_path, capsys):
    names = [f.name for f in dataclasses.fields(SystemConfig)]
    assert sorted(FIELD_SAMPLES) == sorted(names)
    kv = {name: str(getattr(FIELD_SAMPLES[name], "value", FIELD_SAMPLES[name])) for name in names}
    cfg, trials, seed, rs_grid = parse_settings(kv)
    assert trials is None and seed is None and rs_grid is None
    for name in names:
        assert getattr(cfg, name) == FIELD_SAMPLES[name]
        assert type(getattr(cfg, name)) is type(FIELD_SAMPLES[name])

    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{name} = {raw}\n" for name, raw in kv.items()))
    out = tmp_path / "run"
    rc = main(["ensemble", "--config", str(path), "--trials", "20", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    with open(out / "manifest.json") as f:
        config = json.load(f)["config"]
    assert sorted(config) == sorted(names + ["rs_grid"])
    for name in names:
        assert config[name] == FIELD_SAMPLES[name]


# CLI fuzzing: random config files and --set items for every subcommand
_DB_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e308", "-1e308", "4000", "-3300", "-3100", "100"]),
    st.integers(min_value=-150, max_value=150).map(str),
    st.text(alphabet=string.ascii_letters + string.digits + " .,+-_=#", max_size=8),
)
# antenna counts at the bound and past it reach the same exit paths
_BOUND_COUNTS = st.sampled_from([MAX_ANTENNAS, MAX_ANTENNAS + 1, 20000])
_COUNT_TEXT = st.one_of(
    st.integers(min_value=1, max_value=20).map(str),
    _BOUND_COUNTS.map(str),
    st.integers(min_value=-3, max_value=0).map(str),
    st.sampled_from(["2.5", "4.0", "four", "", "1e1", "0x4"]),
)
# noise variances spanning 1e-300..1e300, one draw in two from inside the
# accepted 1e-100..1e100
_VARIANCE_TEXT = st.builds(
    "{:.3g}e{}".format,
    st.floats(min_value=1.0, max_value=9.99),
    st.one_of(st.integers(min_value=-100, max_value=99), st.integers(min_value=-300, max_value=299)),
)
_VARIANCE_KEYS = ("sigma2_B", "sigma2_A", "sigma2_EA", "sigma2_EB")
_EXTRA_LINES = st.sampled_from(
    ["bogus = 1", "n_A 4", "= 3", "# comment only", "", "P_A_dB", "Rs_grid = 0,1,3",
     "Rs_grid = 0,1,10000000000"]
)


def _file_and_items(draw, lines):
    """Put each line into the config file or into a --set item, at random."""
    in_file = [draw(st.booleans()) for _ in lines]
    config = "".join(line + "\n" for line, f in zip(lines, in_file) if f)
    items = [line for line, f in zip(lines, in_file) if not f]
    return config, items


def _draw_variances(draw, values):
    for key in _VARIANCE_KEYS:
        if draw(st.booleans()):
            values[key] = draw(_VARIANCE_TEXT)


@st.composite
def _single_inputs(draw):
    values = {
        "n_A": draw(_COUNT_TEXT),
        "n_E": draw(_COUNT_TEXT),
        "P_A_dB": draw(_DB_TEXT),
        "P_B_dB": draw(_DB_TEXT),
        "power_convention": draw(st.sampled_from(["ConsumedPB", "ReferencePBPrime", "Ref"])),
    }
    _draw_variances(draw, values)
    # a key goes missing one time in eight
    lines = [f"{k}={v}" for k, v in values.items() if draw(st.integers(0, 7))]
    lines += draw(st.lists(_EXTRA_LINES, max_size=2))
    return _file_and_items(draw, lines)


@st.composite
def _run_inputs(draw):
    """Configs that parse, so that most examples reach a run; the powers,
    counts, variances and grid reach their bounds and beyond."""
    values = {
        "n_A": draw(st.one_of(st.integers(min_value=0, max_value=8), _BOUND_COUNTS)),
        "n_E": draw(st.one_of(st.integers(min_value=1, max_value=8), _BOUND_COUNTS)),
        "P_A_dB": draw(st.floats(min_value=-110.0, max_value=110.0)),
        "P_B_dB": draw(st.floats(min_value=-110.0, max_value=110.0)),
        "gamma": draw(st.floats(min_value=0.0, max_value=1.0)),
        "power_convention": draw(st.sampled_from(list(PowerConvention))).value,
    }
    _draw_variances(draw, values)
    if draw(st.booleans()):
        values["Rs_grid"] = draw(st.sampled_from(["0,1,3", "0,2,7", "0,1,10000000000"]))
    return _file_and_items(draw, [f"{k}={v}" for k, v in values.items()])


def _run_fuzzed(command, inputs, flags, tmp):
    """Run one fuzzed command; return (exit code, stdout).

    An exception, an exit code other than 0, 1 and 2, or a failure whose
    stderr is not one "error: " line fails the test.
    """
    config, items = inputs
    path = Path(tmp) / "fuzz.cfg"
    path.write_text(config)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(path)] + [f"--set={item}" for item in items] + flags)
    assert rc in (0, 1, 2)
    if rc == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    return rc, out.getvalue()


_BASE_TEXT = "n_A=4\nn_E=2\nP_A_dB=20\nP_B_dB=30\n"


@settings(max_examples=300, deadline=None)
@given(inputs=_single_inputs())
# powers that used to crash with a traceback or print NaN rates
@example(inputs=(_BASE_TEXT, ["P_A_dB=4000"]))
@example(inputs=(_BASE_TEXT, ["P_B_dB=-3300", "power_convention=ReferencePBPrime"]))
@example(inputs=(_BASE_TEXT, ["P_A_dB=-3100", "power_convention=ReferencePBPrime"]))
# variances that used to crash with "math domain error" or print inf or NaN
@example(inputs=(_BASE_TEXT, ["sigma2_EB=1e-20"]))
@example(inputs=(_BASE_TEXT, ["sigma2_EA=1e-300"]))
@example(inputs=(_BASE_TEXT, ["sigma2_B=1e-300", "sigma2_EA=1e-300", "sigma2_EB=1e-300"]))
@example(inputs=(_BASE_TEXT, ["P_A_dB=100", "sigma2_B=1e-300"]))
@example(inputs=(_BASE_TEXT, ["P_A_dB=100", "sigma2_EA=1e-300", "n_A=6"]))
# antenna counts that used to end in an allocation traceback
@example(inputs=(_BASE_TEXT, ["n_A=20000", "n_E=20000"]))
def test_single_fuzz_exits_cleanly(inputs):
    with tempfile.TemporaryDirectory() as tmp:
        rc, out = _run_fuzzed("single", inputs, [], tmp)
    if rc == 0:
        for line in out.splitlines():
            key, val = line.split(" = ")
            assert val in ("true", "false") or math.isfinite(float(val)), line
    else:
        assert out == ""


@settings(max_examples=100, deadline=None)
@given(
    inputs=_run_inputs(),
    trials=st.integers(min_value=-1, max_value=40),
    seed=st.integers(min_value=-1, max_value=2**70),
    workers=st.sampled_from([1, 1, 1, 1, 1, 2, 0, 257]),
)
@example(inputs=(_BASE_TEXT, ["sigma2_EB=1e-20"]), trials=40, seed=1, workers=1)
@example(inputs=(_BASE_TEXT, ["Rs_grid=0,1,10000000000"]), trials=5, seed=1, workers=1)
@example(inputs=(_BASE_TEXT, []), trials=3, seed=1, workers=10**6)
def test_ensemble_fuzz_exits_cleanly(inputs, trials, seed, workers):
    flags = ["--trials", str(trials), "--seed", str(seed), "--workers", str(workers)]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        rc, out = _run_fuzzed("ensemble", inputs, flags + ["--out", str(out_dir)], tmp)
        if rc == 0:
            rows = np.loadtxt(out_dir / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
            assert rows.shape == (trials, 5) and np.isfinite(rows).all()
        else:
            assert out == "" and not out_dir.exists()


@settings(max_examples=100, deadline=None)
@given(
    inputs=_run_inputs(),
    seed=st.integers(min_value=-1, max_value=2**70),
    m=st.integers(min_value=999, max_value=3000),
)
@example(inputs=(_BASE_TEXT, []), seed=1, m=10**11)
@example(inputs=(_BASE_TEXT, []), seed=1, m=10**7 + 1)
@example(inputs=(_BASE_TEXT, ["sigma2_EB=1e-20"]), seed=1, m=1000)
# a variance below the oracle's rounding floor, which used to exit 2
@example(inputs=(_BASE_TEXT, ["sigma2_B=8.48e-34", "sigma2_A=2.27e-34"]), seed=1, m=20000)
def test_verify_fuzz_exits_cleanly(inputs, seed, m):
    with tempfile.TemporaryDirectory() as tmp:
        rc, out = _run_fuzzed("verify", inputs, ["--seed", str(seed), "--m", str(m)], tmp)
    if rc == 1:
        assert out == ""
    assert "nan" not in out and "inf" not in out


# block memory that every caller keeps in the heap (linops.keep_block_memory).
# Each case runs in a fresh interpreter, where glibc's mmap threshold still
# has its start value, and counts the minor page faults of one measured call.
# With the heap kept, 16 blocks of _run_chunk fault 1-70 times, and a first
# variance_report at m = 500 000 or a whole CLI call 1.7k-2.7k times, mostly
# on the pages of its large run-long arrays. Without it each block faults
# again: 2.2k-3.8k faults at n4e6, 11k-22k at n16e8, 8.7k-25k in that first
# variance_report (how many depends on what the interpreter freed before)
# and 21k-23k in the CLI calls. Each bound lies near the geometric mean.

_FAULTS = """\
import resource, sys
import numpy as np
from steepsim.channel import SystemConfig, sample_realization
n4e6, n16e8 = SystemConfig(4, 6, 20.0, 30.0), SystemConfig(16, 8, 20.0, 30.0)
{setup}
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
{call}
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _minor_faults(setup: str, call: str, *argv: str, cwd=None) -> int:
    """Minor page faults of call, run after setup in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS.format(setup=setup, call=call), *argv],
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


_glibc_only = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the mmap threshold rule is glibc's"
)


@_glibc_only
@pytest.mark.parametrize("cfg, bound", [("n4e6", 400), ("n16e8", 1000)])
def test_run_chunk_keeps_block_memory(cfg, bound):
    # one warm block, then 16 measured blocks
    faults = _minor_faults(
        f"from steepsim import mc\nmc._run_chunk({cfg}, 1, 0, 512)",
        f"for lo in range(512, 8704, 512):\n    mc._run_chunk({cfg}, 1, lo, lo + 512)",
    )
    assert faults < bound


@_glibc_only
def test_first_variance_report_keeps_block_memory():
    faults = _minor_faults(
        "from steepsim.sigsim import variance_report\n"
        "ch = sample_realization(n4e6, np.random.default_rng(1))",
        "variance_report(n4e6, ch, 500_000, np.random.default_rng(2))",
    )
    assert faults < 5000


@_glibc_only
@pytest.mark.parametrize(
    "antennas, args, bound",
    [
        ("n_A = 16\nn_E = 8\n", ["ensemble", "--trials", "8192", "--out", "out"], 6000),
        ("n_A = 4\nn_E = 6\n", ["verify", "--m", "500000"], 5000),
    ],
    ids=["ensemble", "verify"],
)
def test_cli_call_keeps_block_memory(tmp_path, antennas, args, bound):
    (tmp_path / "run.cfg").write_text(antennas + "P_A_dB = 20\nP_B_dB = 30\n")
    faults = _minor_faults("from steepsim.cli import main", "main(sys.argv[1:])", *args, "--config", "run.cfg", cwd=tmp_path)
    assert faults < bound
