import csv
import json
import math

import numpy as np
import pytest

import steepsim
import steepsim.mc as mc
from steepsim.channel import InfeasiblePowerError, PowerConvention, SystemConfig
from steepsim.mc import (
    DEFAULT_RS_GRID,
    HIST_BINS,
    MAX_TRIALS,
    empirical_outage,
    gain_distribution,
    outage_at,
    run_ensemble,
    samples_file,
    write_outputs,
)


def _cfg(**kw):
    base = dict(n_A=4, n_E=2, P_A_dB=20.0, P_B_dB=30.0)
    base.update(kw)
    return SystemConfig(**base)


@pytest.fixture(scope="module")
def small_ensemble():
    return run_ensemble(_cfg(n_E=6, P_B_dB=20.0), trials=2000, seed=3)


def test_empirical_outage_brute_force():
    samples = np.array([0.5, 1.5, 1.5, 3.0])
    grid = np.array([0.0, 0.5, 1.5, 2.0, 3.0])
    got = empirical_outage(samples, grid)
    want = [np.mean(samples <= rs) for rs in grid]
    assert np.array_equal(got, want)


def test_single_trial_outage_is_step():
    res = run_ensemble(_cfg(), trials=1, seed=5)
    c = res.c_steep[0]
    assert set(np.unique(res.o_steep)) <= {0.0, 1.0}
    assert np.array_equal(res.o_steep, (res.rs_grid >= c).astype(float))


def test_same_seed_reproduces(small_ensemble):
    again = run_ensemble(_cfg(n_E=6, P_B_dB=20.0), trials=2000, seed=3)
    assert np.array_equal(small_ensemble.c_steep, again.c_steep)
    assert np.array_equal(small_ensemble.c_conv, again.c_conv)
    assert np.array_equal(small_ensemble.gain, again.gain)


def test_worker_count_does_not_change_samples(small_ensemble):
    par = run_ensemble(_cfg(n_E=6, P_B_dB=20.0), trials=2000, seed=3, workers=3)
    assert np.array_equal(small_ensemble.c_steep, par.c_steep)
    assert np.array_equal(small_ensemble.c_conv, par.c_conv)
    assert np.array_equal(small_ensemble.natural_outage, par.natural_outage)


def test_outage_curves_monotone(small_ensemble):
    assert np.all(np.diff(small_ensemble.o_steep) >= 0.0)
    assert np.all(np.diff(small_ensemble.o_conv) >= 0.0)


def test_outage_at_zero_is_natural_outage_rate(small_ensemble):
    o_s, _ = outage_at(small_ensemble, 0.0)
    assert o_s == np.mean(small_ensemble.natural_outage)
    assert o_s == small_ensemble.o_steep[0]


def test_outage_at_max_sample_is_one(small_ensemble):
    o_s, o_c = outage_at(
        small_ensemble, float(max(small_ensemble.c_steep.max(), small_ensemble.c_conv.max()))
    )
    assert o_s == 1.0
    assert o_c == 1.0
    # NaN used to slip past the check and read as (0.0, 0.0)
    for rs in (-0.5, math.nan):
        with pytest.raises(ValueError, match="rs must be >= 0"):
            outage_at(small_ensemble, rs)


def test_outage_at_interior_matches_recount(small_ensemble):
    rs = 0.37
    o_s, o_c = outage_at(small_ensemble, rs)
    assert o_s == np.mean(small_ensemble.c_steep <= rs)
    assert o_c == np.mean(small_ensemble.c_conv <= rs)


def test_histogram_mass_conserved(small_ensemble):
    for name in ("c_steep", "c_conv", "gain"):
        edges, counts = small_ensemble.histograms[name]
        assert counts.sum() == small_ensemble.trials
        assert edges.shape == (HIST_BINS + 1,)
        assert np.all(np.diff(edges) > 0)


def test_gain_distribution_sign_split(small_ensemble):
    dist = gain_distribution(small_ensemble)
    assert dist["counts"].sum() == small_ensemble.trials
    assert 0.0 <= dist["prob_negative"]
    assert dist["prob_positive"] + dist["prob_negative"] <= 1.0
    # n_E=6 at modest echo power still favors the probe-echo scheme mostly
    assert dist["prob_positive"] > 0.5


def test_mean_rate_drops_with_more_eavesdropper_antennas(small_ensemble):
    few = run_ensemble(_cfg(n_E=2, P_B_dB=20.0), trials=2000, seed=3)
    assert np.mean(small_ensemble.c_steep) < np.mean(few.c_steep)


def test_validation_errors():
    with pytest.raises(ValueError):
        run_ensemble(_cfg(), trials=0, seed=1)
    with pytest.raises(ValueError):
        run_ensemble(_cfg(), trials=10, seed=1, workers=0)
    with pytest.raises(ValueError):
        run_ensemble(_cfg(), trials=10, seed=1, rs_grid=np.array([1.0, 0.5]))


def test_infeasible_budget_aborts():
    cfg = _cfg(
        P_A_dB=-30.0, P_B_dB=0.0, power_convention=PowerConvention.CONSUMED_PB
    )
    with pytest.raises(InfeasiblePowerError, match="infeasible"):
        run_ensemble(cfg, trials=50, seed=1)
    # the same powers are feasible when P_B sets the reference power directly
    ref = _cfg(P_A_dB=-30.0, P_B_dB=0.0, power_convention=PowerConvention.REFERENCE_PB_PRIME)
    assert run_ensemble(ref, trials=5, seed=1).c_steep.shape == (5,)


@pytest.mark.parametrize(
    "grid", [[0.0, np.inf, 5.0], [np.nan, 1.0], [0.0, np.nan, 3.0], [np.nan]]
)
def test_non_finite_grid_rejected(grid):
    with pytest.raises(ValueError, match="finite"):
        run_ensemble(_cfg(), trials=5, seed=1, rs_grid=np.array(grid))


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        run_ensemble(_cfg(), trials=5, seed=-1)


@pytest.mark.parametrize("shape", [(17, 1), (1, 9), (16, 8)])
@pytest.mark.parametrize("convention", list(PowerConvention))
@pytest.mark.parametrize("P_A_dB, P_B_dB", [(-100.0, -100.0), (100.0, 100.0), (100.0, -100.0), (-100.0, 100.0)])
def test_power_limits_give_finite_rates(shape, convention, P_A_dB, P_B_dB):
    n_A, n_E = shape
    cfg = _cfg(n_A=n_A, n_E=n_E, P_A_dB=P_A_dB, P_B_dB=P_B_dB, power_convention=convention)
    try:
        res = run_ensemble(cfg, trials=200, seed=4)
    except InfeasiblePowerError:
        assert convention is PowerConvention.CONSUMED_PB
        return
    for a in (res.c_steep, res.c_conv, res.gain, res.c1, res.c2):
        assert np.isfinite(a).all()


def test_trial_count_bounded():
    # rejected up front: a run this large would allocate ~180 GB of samples
    assert MAX_TRIALS == 2**32
    with pytest.raises(ValueError, match="trials must be <= 2\\*\\*32"):
        run_ensemble(_cfg(), trials=MAX_TRIALS + 1, seed=1)


def test_default_grid_spans_unit_interval(small_ensemble):
    assert small_ensemble.rs_grid[0] == 0.0
    assert small_ensemble.rs_grid[-1] == 1.0
    assert small_ensemble.rs_grid.shape == DEFAULT_RS_GRID.shape


def test_write_outputs_layout(tmp_path, small_ensemble):
    manifest = write_outputs(small_ensemble, tmp_path)
    for name in ("samples.csv", "outage.csv", "histogram.csv", "manifest.json"):
        assert (tmp_path / name).exists()

    with open(tmp_path / "samples.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == small_ensemble.trials
    assert float(rows[17]["c_steep"]) == small_ensemble.c_steep[17]
    assert int(rows[17]["natural_outage"]) == int(small_ensemble.natural_outage[17])

    with open(tmp_path / "outage.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == small_ensemble.rs_grid.shape[0]
    assert float(rows[0]["O_steep"]) == small_ensemble.o_steep[0]

    with open(tmp_path / "histogram.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3 * HIST_BINS
    assert sum(int(r["count"]) for r in rows if r["statistic"] == "gain") == 2000

    with open(tmp_path / "manifest.json") as f:
        meta = json.load(f)
    assert meta["seed"] == small_ensemble.seed
    assert meta["trials"] == 2000
    assert sorted(meta) == ["config", "elapsed_seconds", "outputs", "seed", "trials", "version"]
    assert meta["version"] == steepsim.__version__
    assert meta["config"]["n_E"] == 6
    assert len(meta["config"]["rs_grid"]) == 101
    assert meta == manifest | {"config": meta["config"]}


def test_written_samples_identical_across_worker_counts(tmp_path, small_ensemble):
    d1 = tmp_path / "w1"
    d2 = tmp_path / "w2"
    write_outputs(small_ensemble, d1)
    par = run_ensemble(_cfg(n_E=6, P_B_dB=20.0), trials=2000, seed=3, workers=2)
    write_outputs(par, d2)
    assert (d1 / "samples.csv").read_bytes() == (d2 / "samples.csv").read_bytes()
    assert (d1 / "outage.csv").read_bytes() == (d2 / "outage.csv").read_bytes()


# rows formatted where each block ran and streamed to samples.csv: 1031
# trials are two full blocks and a partial one, run by the caller alone, by
# the caller and one helper, or by the caller and two helpers
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sample_rows_follow_the_row_format(workers, tmp_path):
    trials = 2 * mc.BLOCK_TRIALS + 7
    with samples_file(tmp_path) as rows:
        res = run_ensemble(
            _cfg(n_E=6, P_B_dB=20.0), trials=trials, seed=3, workers=workers, rows=rows
        )
        write_outputs(res, tmp_path, rows=rows)
    lines = (tmp_path / "samples.csv").read_text(encoding="ascii").splitlines(keepends=True)
    assert lines[0] == "trial,c_steep,c_conv,gain,natural_outage\n"
    assert len(lines) == trials + 1
    for t, line in enumerate(lines[1:]):
        row = (t, res.c_steep[t], res.c_conv[t], res.gain[t], res.natural_outage[t])
        assert line == mc._SAMPLE_ROW % row, f"trial {t}"
