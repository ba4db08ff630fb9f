"""The block engine behind run_ensemble against the scalar reference.

The engine must reproduce numpy's child streams default_rng([seed, t]) bit
for bit, agree with the scalar per-realization API on every trial, match
rates stored from the scalar per-trial loop it replaced, and write the same
bytes at any worker count.
"""
import csv
import dataclasses
import math
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from steepsim.baseline import conventional
from steepsim.channel import (
    MAX_ANTENNAS,
    ChannelRealization,
    PowerConvention,
    SystemConfig,
    norm2,
    sample_realization,
)
from steepsim.linops import DegenerateChannelError
import steepsim.mc as mc
from steepsim.mc import (
    BLOCK_TRIALS,
    MAX_WORKERS,
    SeedWords,
    _analyze_block,
    _beta,
    _child_normals,
    _cpu_shares,
    _log2_ratio,
    _norm2,
    _normals_per_trial,
    _pcg64_states,
    _run_chunk,
    run_ensemble,
    write_outputs,
)
from steepsim.steep import beta, c_steep, log2_ratio

DATA = Path(__file__).parent / "data"
REL_TOL = 1e-12


def _cfg(**kw):
    base = dict(n_A=4, n_E=6, P_A_dB=20.0, P_B_dB=30.0)
    base.update(kw)
    return SystemConfig(**base)


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def reference_trial(cfg: SystemConfig, seed: int, t: int) -> tuple:
    """Trial t through the scalar API, in _analyze_block's return order."""
    ch = sample_realization(cfg, np.random.default_rng([seed, t]))
    sa = c_steep(cfg, ch)
    ba = conventional(cfg, ch, steep=sa)
    return sa.c_steep_clamped, ba.c_conv, ba.gain, sa.natural_outage, ba.c1, ba.c2


# child streams

# 2**96 + 5 and 2**200 + 11 are 4 and 7 words, so the trial index is the
# 5th or the 8th entropy word: beyond SeedSequence's 4-word pool, it goes
# through the loop that mixes the extra words in
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, 2**200 + 11])
@pytest.mark.parametrize(
    "start, stop",
    [
        (0, 3),
        (BLOCK_TRIALS - 2, BLOCK_TRIALS + 2),  # block boundary
        (343, 345),  # chunk boundary of 1031 trials on 3 workers
        (2**32 - 3, 2**32),  # the largest trial indices, below MAX_TRIALS
    ],
)
def test_child_normals_match_default_rng(seed, start, stop):
    width = 68
    got = _child_normals(seed, start, stop, width)
    want = np.array(
        [np.random.default_rng([seed, t]).standard_normal(width) for t in range(start, stop)]
    )
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize(
    "n_words, dtype",
    [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64), (4, ">u8")],
)
def test_seed_words_serve_only_four_uint64_words(n_words, dtype):
    rows = _pcg64_states(7, np.arange(3, dtype=np.uint32))
    seeds = SeedWords(rows)
    with pytest.raises(ValueError, match="4 uint64 words"):
        seeds.generate_state(n_words, dtype)


def test_seed_words_hand_out_rows_in_order():
    rows = _pcg64_states(7, np.arange(3, dtype=np.uint32))
    seeds = SeedWords(rows)
    for row, dtype in zip(rows, (np.uint64, "u8", np.dtype(np.uint64))):
        got = seeds.generate_state(4, dtype)
        assert got.dtype == np.uint64 and got.tolist() == row.tolist()
    want = np.random.SeedSequence([7, 1]).generate_state(4, np.uint64)
    assert rows[1].tolist() == want.tolist()


# the Pool: one process per non-empty chunk

def _forbid_pin(*args):
    raise AssertionError("sched_setaffinity called in run_ensemble's own process")


@pytest.mark.parametrize(
    "trials, workers, pool_sizes",
    [(1, 8, []), (3, 8, [3]), (3, MAX_WORKERS, [3]), (10, 4, [4]), (600, 1, [])],
)
def test_pool_capped_at_non_empty_chunks(trials, workers, pool_sizes, monkeypatch):
    sizes, chunks = [], []

    class StandInPool:
        """Records the pool size and runs the chunks in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    def run_chunk(job):
        chunks.append(job[2:])
        return _run_chunk(job)

    monkeypatch.setattr(mc, "Pool", StandInPool)
    monkeypatch.setattr(mc, "_run_chunk", run_chunk)
    # the chunks run in this process, which must never be pinned
    monkeypatch.setattr(os, "sched_setaffinity", _forbid_pin, raising=False)
    cfg = _cfg()
    got = run_ensemble(cfg, trials=trials, seed=4, workers=workers)
    assert sizes == pool_sizes
    n_jobs = min(trials, workers)
    assert chunks == [(trials * i // n_jobs, trials * (i + 1) // n_jobs) for i in range(n_jobs)]
    want = run_ensemble(cfg, trials=trials, seed=4)
    assert got.c_steep.tobytes() == want.c_steep.tobytes()


def test_worker_count_bounded(monkeypatch):
    monkeypatch.setattr(mc, "Pool", None)  # nothing may start a pool
    with pytest.raises(ValueError, match=f"workers must be <= {MAX_WORKERS}, got {MAX_WORKERS + 1}"):
        run_ensemble(_cfg(), trials=10**6, seed=1, workers=MAX_WORKERS + 1)


# each Pool worker runs its chunk on its share of the CPUs

@pytest.mark.parametrize(
    "mask, n, shares",
    [
        ({0, 1}, 2, [[0], [1]]),
        ({0, 1}, 3, [[0], [1], [0]]),
        ({3}, 2, [[3], [3]]),
        (set(range(8)), 3, [[0, 3, 6], [1, 4, 7], [2, 5]]),
        ({9, 2, 5, 7}, 4, [[2], [5], [7], [9]]),
    ],
)
def test_cpu_shares_split_the_mask(mask, n, shares, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask), raising=False)
    assert _cpu_shares(n) == shares


def test_cpu_shares_without_affinity_masks(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _cpu_shares(3) == [None, None, None]


_MASK = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@pytest.mark.skipif(
    len(_MASK) < 2 or not hasattr(os, "sched_setaffinity")
    or multiprocessing.get_start_method() != "fork",
    reason="needs 2 CPUs, affinity masks and forked Pool workers",
)
@pytest.mark.parametrize("workers", [2, 3])
def test_pool_workers_pin_each_chunk(workers, tmp_path, monkeypatch):
    cfg, trials = _cfg(), 10 * workers
    want = run_ensemble(cfg, trials=trials, seed=2)
    log = tmp_path / "chunks.txt"

    def run_chunk(job):
        # runs in a forked worker; the chunks are tiny, so one worker may
        # take several of them, and each must be pinned on its own
        with open(log, "a", encoding="ascii") as f:
            f.write(" ".join(map(str, [job[2], *sorted(os.sched_getaffinity(0))])) + "\n")
        return _run_chunk(job)

    monkeypatch.setattr(mc, "_run_chunk", run_chunk)
    before = os.sched_getaffinity(0)
    got = run_ensemble(cfg, trials=trials, seed=2, workers=workers)
    assert os.sched_getaffinity(0) == before
    ran = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    shares = _cpu_shares(workers)  # checked against fixed masks above
    assert ran == [(trials * i // workers, *share) for i, share in enumerate(shares)]
    assert got.c_steep.tobytes() == want.c_steep.tobytes()


@pytest.mark.parametrize("platform", ["pin fails", "no affinity masks"])
def test_pool_workers_run_unpinned_without_a_pin(platform, monkeypatch):
    cfg = _cfg()
    want = run_ensemble(cfg, trials=9, seed=3)
    if platform == "pin fails":
        def refuse(*args):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    got = run_ensemble(cfg, trials=9, seed=3, workers=2)
    assert got.c_steep.tobytes() == want.c_steep.tobytes()


# differential test against the scalar API

@settings(max_examples=60, deadline=None)
@given(
    n_A=st.integers(min_value=1, max_value=MAX_ANTENNAS),
    n_E=st.integers(min_value=1, max_value=MAX_ANTENNAS),
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


def _realization(cfg, row):
    """The scalar API's realization from one row of block normals."""
    n_A, n_E = cfg.n_A, cfg.n_E
    parts = np.split(row, np.cumsum([n_A] * 4 + [n_E] * 2 + [n_E * n_A]))
    h_BA, w, g_B, G_A = (
        (re + 1j * im).reshape(shape) / np.sqrt(2.0)
        for re, im, shape in zip(parts[0::2], parts[1::2], [(n_A,), (n_A,), (n_E,), (n_E, n_A)])
    )
    h_AB = cfg.gamma * h_BA + (1.0 - cfg.gamma) * w
    return ChannelRealization(h_BA=h_BA, h_AB=h_AB, G_A=G_A, g_B=g_B)


def test_engine_matches_scalar_api_where_log1p_is_undefined():
    # a downlink 1e-10 times smaller than drawn, with tiny noise, puts
    # sigma2_vE below 1e-16 * sigma2_vA; the log1p argument of c_steep then
    # rounds to -1, and c2's does too through Eve's 1e-20 echo-phase noise
    cfg = _cfg(gamma=0.0, sigma2_B=1e-100, sigma2_EB=1e-20,
               power_convention=PowerConvention.REFERENCE_PB_PRIME)
    z = _child_normals(3, 0, 16, _normals_per_trial(cfg))
    z[:, : 2 * cfg.n_A] *= 1e-10
    got = _analyze_block(cfg, z, 3, 0)
    for i, row in enumerate(z):
        ch = _realization(cfg, row)
        sa = c_steep(cfg, ch)
        ba = conventional(cfg, ch, steep=sa)
        var_a, var_e = sa.sigma2_vA, sa.sigma2_vE
        assert (var_e - var_a) / (var_a * (1.0 + var_e)) == -1.0
        assert (ba.snr_A - ba.snr_EB) / (1.0 + ba.snr_EB) == -1.0
        want = (sa.c_steep_clamped, ba.c_conv, ba.gain, sa.natural_outage, ba.c1, ba.c2)
        assert [float(col[i]) for col in got] == [float(x) for x in want]
        assert sa.natural_outage and -math.inf < sa.c_steep < 0.0 and -math.inf < ba.c2 < 0.0


@pytest.mark.parametrize("probe_dB", [20.0, 100.0])
@pytest.mark.parametrize(
    "n_A, n_E",
    # every pairing of the sizes, plus the cells n_A = n_E + 1 just past the
    # switch from the n_A-sized to the n_E-sized bordered matrix
    [(n_A, n_E) for n_A in (1, 8, 16, MAX_ANTENNAS) for n_E in (1, 8, 16, MAX_ANTENNAS)]
    + [(2, 1), (9, 8), (17, 16)],
)
def test_block_beta_bit_equal_to_scalar(n_A, n_E, probe_dB):
    # one bordered Cholesky factorization per trial, batched and scalar, up
    # to Eve's largest accepted probe SNR P_A_dB - 10*log10(sigma2_EA)
    cfg = _cfg(n_A=n_A, n_E=n_E, P_A_dB=probe_dB)
    seed, start, count = 6, BLOCK_TRIALS - 4, 8
    chs = [sample_realization(cfg, np.random.default_rng([seed, t]))
           for t in range(start, start + count)]
    h_BA = np.stack([ch.h_BA for ch in chs])
    got = _beta(cfg, h_BA, np.stack([ch.G_A for ch in chs]), _norm2(h_BA))
    block = _analyze_block(cfg, _child_normals(seed, start, start + count, _normals_per_trial(cfg)),
                           seed, start)
    for i, ch in enumerate(chs):
        b = beta(cfg, ch)
        assert float(got[i]) == b, f"trial {start + i}: beta {got[i]!r} != {b!r}"
        assert 0.0 <= b <= norm2(ch.h_BA)
        want = reference_trial(cfg, seed, start + i)
        assert [float(col[i]) for col in block] == [float(x) for x in want]


def test_log2_ratio_block_bit_equal_to_scalar():
    rng = np.random.default_rng(8)
    a = 10.0 ** rng.uniform(-300.0, 300.0, 2000)
    s = 10.0 ** rng.uniform(-300.0, 300.0, 2000)
    # (a - s)/(1 + s) rounds to -1 once s/a passes ~1e16
    arg = (a - s) / (1.0 + s)
    special = [-1.0, np.nextafter(-1.0, 0.0), 0.0, -0.0, 1e-300, 1e300, -2.0, math.nan]
    arg = np.concatenate([arg, special])
    a = np.concatenate([a, np.full(len(special), 0.25)])
    s = np.concatenate([s, np.full(len(special), 4.0)])
    assert np.count_nonzero(arg <= -1.0) > 10 and np.count_nonzero(arg > -1.0) > 10
    want = np.array([log2_ratio(*x) for x in zip(arg.tolist(), a.tolist(), s.tolist())])
    assert _log2_ratio(arg, a, s).tobytes() == want.tobytes()


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
