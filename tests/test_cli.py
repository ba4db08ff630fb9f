import json

import numpy as np
import pytest

from steepsim.baseline import conventional
from steepsim.channel import sample_realization
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


def test_non_finite_config_value_exit_code(cfg_file, capsys):
    rc = main(["single", "--config", cfg_file, "--set", "P_A_dB=nan", "--set", "sigma2_A=nan"])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err


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
    rc = main(["sdof", "--n_A", "4", "--n_E", "2", "--m_A", "2"])
    assert rc == 1
    assert "m_A" in capsys.readouterr().err
