"""Tests of the benchmark itself.

They show that the correctness gate is not vacuous, that a tiny run of each
workload prints every named metric with its unit, that the traced self times
are computed as stated, and that the benchmark refuses to run without the
program. Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

from steepsim.channel import SystemConfig  # noqa: E402
from steepsim.cli import main as steepsim_main  # noqa: E402
from steepsim.mc import run_ensemble, write_outputs  # noqa: E402

CFG = SystemConfig(n_A=4, n_E=6, P_A_dB=20.0, P_B_dB=30.0)
SEED = 11
TRIALS = 300


@pytest.fixture(scope="module")
def ensemble_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ensemble")
    write_outputs(run_ensemble(CFG, TRIALS, SEED), out)
    return out


def _copy_with_edit(src: Path, dst: Path, edit) -> Path:
    """Copy an output directory and apply edit to samples.csv's parsed rows."""
    shutil.copytree(src, dst)
    path = dst / "samples.csv"
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows = edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    return dst


def _sampled_nonzero_trial(ensemble_dir) -> int:
    """A trial whose c_steep, c_conv and gain are all nonzero."""
    rows = np.loadtxt(ensemble_dir / "samples.csv", delimiter=",", skiprows=1)
    ok = np.flatnonzero((rows[:, 1] != 0) & (rows[:, 2] != 0) & (rows[:, 3] != 0))
    return int(ok[0])


def test_gate_passes_real_output(ensemble_dir):
    sample = list(range(0, TRIALS, 7))
    attempted, failures = checks.check_ensemble(CFG, SEED, TRIALS, ensemble_dir, sample)
    assert failures == []
    assert attempted == len(sample) + 3


def test_gate_fails_on_flipped_flag(ensemble_dir, tmp_path):
    t = 5

    def flip(rows):
        rows[t][4] = "0" if rows[t][4] == "1" else "1"
        return rows

    bad = _copy_with_edit(ensemble_dir, tmp_path / "bad", flip)
    _, failures = checks.check_ensemble(CFG, SEED, TRIALS, bad, [t])
    assert any(f"trial {t}: natural_outage" in f for f in failures)
    # the flag check over all rows catches it without the trial being sampled
    _, failures = checks.check_ensemble(CFG, SEED, TRIALS, bad, [])
    assert any("natural_outage disagrees" in f for f in failures)


@pytest.mark.parametrize("column,name", [(1, "c_steep"), (2, "c_conv"), (3, "gain")])
def test_gate_fails_on_rate_off_by_1e9(ensemble_dir, tmp_path, column, name):
    t = _sampled_nonzero_trial(ensemble_dir)

    def nudge(rows):
        rows[t][column] = repr(float(rows[t][column]) * (1.0 + 1e-9))
        return rows

    bad = _copy_with_edit(ensemble_dir, tmp_path / "bad", nudge)
    _, failures = checks.check_ensemble(CFG, SEED, TRIALS, bad, [t])
    assert any(f"trial {t}: {name}" in f for f in failures)


def test_gate_fails_on_missing_row(ensemble_dir, tmp_path):
    bad = _copy_with_edit(ensemble_dir, tmp_path / "bad", lambda rows: rows[:-1])
    _, failures = checks.check_ensemble(CFG, SEED, TRIALS, bad, [0])
    assert any("rows" in f for f in failures)


def test_gate_fails_on_wrong_outage_curve(ensemble_dir, tmp_path):
    bad = shutil.copytree(ensemble_dir, tmp_path / "bad")
    path = bad / "outage.csv"
    lines = path.read_text().splitlines()
    rs, o_s, o_c = lines[1].split(",")
    lines[1] = ",".join([rs, repr(float(o_s) + 1.0 / TRIALS), o_c])
    path.write_text("\n".join(lines) + "\n")
    _, failures = checks.check_ensemble(CFG, SEED, TRIALS, bad, [])
    assert any("outage.csv" in f for f in failures)


def test_verify_gate(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_A = 4\nn_E = 6\nP_A_dB = 20\nP_B_dB = 30\n")
    rc = steepsim_main(["verify", "--config", str(cfg), "--m", "20000", "--seed", "0"])
    stdout = capsys.readouterr().out
    assert rc == 0 and checks.check_verify(0, rc, stdout) == []
    assert checks.check_verify(0, 2, stdout)
    lines = stdout.splitlines()
    over = [
        line.split("deviation = ")[0] + "deviation = 3.01 se (limit 3) PASS"
        if line.startswith("sigma2_vE") else line
        for line in lines
    ]
    assert any("sigma2_vE" in f for f in checks.check_verify(0, 0, "\n".join(over)))
    dropped = "\n".join(line for line in lines if not line.startswith("residual"))
    assert any("residual covariance" in f for f in checks.check_verify(0, 0, dropped))


def test_self_time_subtracts_union_of_children():
    spans = [
        (1, None, "root", 0, 100),
        (2, 1, "a", 10, 40),
        (3, 1, "b", 30, 60),  # overlaps a, as parallel workers do
        (4, 2, "leaf", 20, 25),
    ]
    rows, root_ns = tracer.summarize(spans)
    assert root_ns == 100
    assert rows["root"]["self_ns"] == 100 - 50
    assert rows["a"]["self_ns"] == 30 - 5
    assert rows["leaf"]["self_ns"] == 5


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in run.WORKLOADS.values()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def _run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(names)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for name, unit in names:
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines)
    assert any(line.startswith("check_fail_frac = 0 ratio") for line in lines)


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "ens-n4e6", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
