"""Smoke test of scripts/run_figures.py, the bundled experiment grid."""
import csv
import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_figures.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_figures_writes_one_finite_summary_row_per_run(tmp_path):
    # 12 runs: the outage-vs-P_B sweep (4), the distributions over n_E (4)
    # and the SISO gap (4); the n_A=4, n_E=2 cells take beta's n_E-sized
    # route, the n_E >= 4 cells its n_A-sized one
    assert _load_script().main(["--trials", "64", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 12
    assert len({row["run"] for row in rows}) == 12
    for row in rows:
        assert (tmp_path / row["run"] / "samples.csv").is_file()
        for key in ("O_steep_0", "O_conv_0", "prob_gain_positive", "mean_c_steep", "mean_c_conv"):
            assert math.isfinite(float(row[key])), (row["run"], key, row[key])
        for key in ("O_steep_0", "O_conv_0", "prob_gain_positive"):
            assert 0.0 <= float(row[key]) <= 1.0, (row["run"], key, row[key])
