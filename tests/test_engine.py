"""The block engine behind run_ensemble against the scalar reference.

The engine must reproduce numpy's child streams default_rng([seed, t]) bit
for bit, agree with the scalar per-realization API on every trial, match
rates stored from the scalar per-trial loop it replaced, and write the same
bytes at any worker count.
"""
import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from steepsim.channel import PowerConvention, SystemConfig
from steepsim.linops import DegenerateChannelError
from steepsim.mc import (
    BLOCK_TRIALS,
    _analyze_block,
    _child_normals,
    _normals_per_trial,
    _run_chunk,
    reference_trial,
    run_ensemble,
    write_outputs,
)

DATA = Path(__file__).parent / "data"
REL_TOL = 1e-12


def _cfg(**kw):
    base = dict(n_A=4, n_E=6, P_A_dB=20.0, P_B_dB=30.0)
    base.update(kw)
    return SystemConfig(**base)


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


# child streams

@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
@pytest.mark.parametrize(
    "start, stop",
    [
        (0, 3),
        (BLOCK_TRIALS - 2, BLOCK_TRIALS + 2),  # block boundary
        (343, 345),  # chunk boundary of 1031 trials on 3 workers
        (2**32 - 2, 2**32 + 2),  # the trial index gains a second seed word
    ],
)
def test_child_normals_match_default_rng(seed, start, stop):
    width = 68
    got = _child_normals(seed, start, stop, width)
    want = np.array(
        [np.random.default_rng([seed, t]).standard_normal(width) for t in range(start, stop)]
    )
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


# differential test against the scalar API

@settings(max_examples=60, deadline=None)
@given(
    n_A=st.integers(min_value=1, max_value=17),
    n_E=st.integers(min_value=1, max_value=9),
    convention=st.sampled_from(list(PowerConvention)),
    gamma=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.01, max_value=0.99)),
    P_A_dB=st.floats(min_value=-10.0, max_value=40.0),
    P_B_dB=st.floats(min_value=10.0, max_value=40.0),
    seed=st.integers(min_value=0, max_value=2**70),
    start=st.integers(min_value=0, max_value=10**6),
    count=st.integers(min_value=1, max_value=4),
)
def test_engine_matches_scalar_api(n_A, n_E, convention, gamma, P_A_dB, P_B_dB, seed, start, count):
    cfg = _cfg(
        n_A=n_A, n_E=n_E, gamma=gamma, P_A_dB=P_A_dB, P_B_dB=P_B_dB,
        power_convention=convention,
    )
    # an infeasible budget is rejected before any trial runs
    assume(convention is PowerConvention.REFERENCE_PB_PRIME or cfg.P_B > n_A / cfg.P_A)
    got = _run_chunk((cfg, seed, start, start + count))
    for i in range(count):
        want = reference_trial(cfg, seed, start + i)
        cs, cc, gn, flag, c1, c2 = (col[i] for col in got)
        assert bool(flag) == want[3]
        for name, a, b in zip(
            ("c_steep", "c_conv", "gain", "c1", "c2"),
            (cs, cc, gn, c1, c2),
            (want[0], want[1], want[2], want[4], want[5]),
        ):
            assert _rel_close(a, b), f"trial {start + i}: {name} {a!r} != {b!r}"


# golden runs: samples.csv written by `steepsim ensemble --trials 64` when
# ensembles still ran the scalar API trial by trial (numpy 2.4.6, OpenBLAS
# 0.3.31); the flags must match exactly and the rates within REL_TOL

GOLDEN = [
    (
        "golden_n4e6_seed2024.csv",
        dict(n_A=4, n_E=6, P_A_dB=20.0, P_B_dB=13.0, gamma=0.2,
             power_convention=PowerConvention.CONSUMED_PB),
        2024,
    ),
    (
        "golden_n9e9_seed4294967297.csv",
        dict(n_A=9, n_E=9, P_A_dB=30.0, P_B_dB=-17.0, gamma=0.2,
             power_convention=PowerConvention.REFERENCE_PB_PRIME),
        2**32 + 1,
    ),
]


@pytest.mark.parametrize("name, fields, seed", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_run(name, fields, seed):
    with open(DATA / name, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 64
    res = run_ensemble(SystemConfig(**fields), trials=64, seed=seed)
    for t, row in enumerate(rows):
        assert int(row["trial"]) == t
        assert bool(res.natural_outage[t]) == bool(int(row["natural_outage"])), (
            f"trial {t}: natural_outage drifted (numpy {np.__version__})"
        )
        for col, got in (("c_steep", res.c_steep), ("c_conv", res.c_conv), ("gain", res.gain)):
            assert _rel_close(got[t], float(row[col])), (
                f"trial {t}: {col} {got[t]!r} != {row[col]} (numpy {np.__version__})"
            )


# byte-identical output at any worker count

def test_samples_identical_across_workers_off_block(tmp_path):
    cfg = _cfg()
    trials = 2 * BLOCK_TRIALS + 7
    outs = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        write_outputs(run_ensemble(cfg, trials=trials, seed=11, workers=workers), out)
        outs.append(out)
    for name in ("samples.csv", "outage.csv", "histogram.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# zero-norm draws inside a block

@pytest.mark.parametrize("response, cols", [("h_BA", slice(0, 8)), ("g_B", slice(16, 28))])
def test_degenerate_draw_names_trial_seed_and_response(response, cols):
    cfg = _cfg()
    seed, start = 99, 1000
    z = _child_normals(seed, start, start + 5, _normals_per_trial(cfg))
    z[3, cols] = 0.0
    with pytest.raises(DegenerateChannelError) as exc:
        _analyze_block(cfg, z, seed, start)
    msg = str(exc.value)
    assert f"trial {start + 3}" in msg
    assert f"seed {seed}" in msg
    assert response in msg


# samples.csv writer

def _reference_samples_csv(result) -> str:
    lines = ["trial,c_steep,c_conv,gain,natural_outage\n"]
    for t in range(result.trials):
        lines.append(
            f"{t},{result.c_steep[t]:.17g},{result.c_conv[t]:.17g},"
            f"{result.gain[t]:.17g},{int(result.natural_outage[t])}\n"
        )
    return "".join(lines)


def test_samples_writer_matches_row_by_row_formatter(tmp_path):
    res = run_ensemble(_cfg(P_B_dB=13.0), trials=300, seed=5)
    special = np.array([0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e16, 1 / 3, math.pi])
    res = dataclasses.replace(
        res,
        c_steep=np.concatenate([special, res.c_steep[special.size:]]),
        gain=np.concatenate([-special, res.gain[special.size:]]),
    )
    write_outputs(res, tmp_path)
    assert (tmp_path / "samples.csv").read_text(encoding="ascii") == _reference_samples_csv(res)
