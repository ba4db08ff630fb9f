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
import signal
import subprocess
import sys
import time
import tracemalloc
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
    _analyze_block,
    _beta,
    _child_normals,
    _log2_ratio,
    _norm2,
    _normals_per_trial,
    _pcg64_seeded,
    _pcg64_states,
    _raw_state,
    _run_chunk,
    run_ensemble,
    samples_file,
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
    return sa.c_steep_clamped, sa.natural_outage, ba.c1, ba.c2


# child streams

# 2**96 + 5 and 2**200 + 11 are 4 and 7 words, so the trial index is the
# 5th or the 8th entropy word: beyond SeedSequence's 4-word pool, it goes
# through the loop that mixes the extra words in
_SEEDS = pytest.mark.parametrize(
    "seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, 2**200 + 11]
)
_TRIAL_RANGES = pytest.mark.parametrize(
    "start, stop",
    [
        (0, 3),
        (BLOCK_TRIALS - 2, BLOCK_TRIALS + 2),  # block boundary
        (343, 345),  # chunk boundary of 1031 trials on 3 workers
        (2**32 - 3, 2**32),  # the largest trial indices, below MAX_TRIALS
        (0, BLOCK_TRIALS),  # one whole block
    ],
)


@_SEEDS
@_TRIAL_RANGES
def test_child_normals_match_default_rng(seed, start, stop):
    # 76 and 336 are the n4e6 and n16e8 rows of the benchmark's workloads
    for width in (68, 76, 336):
        got = _child_normals(seed, start, stop, width)
        want = np.array(
            [np.random.default_rng([seed, t]).standard_normal(width) for t in range(start, stop)]
        )
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), f"width {width}"


@_SEEDS
@_TRIAL_RANGES
def test_seeded_states_match_pcg64(seed, start, stop):
    ts = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
    got = _pcg64_seeded(_pcg64_states(seed, ts)).tolist()
    for t, (s_hi, s_lo, i_hi, i_lo) in zip(range(start, stop), got):
        want = np.random.PCG64(np.random.SeedSequence([seed, t])).state["state"]
        assert (s_hi << 64 | s_lo, i_hi << 64 | i_lo) == (want["state"], want["inc"]), f"trial {t}"


def test_raw_state_words_read_back_through_the_public_state():
    bg = np.random.PCG64(3)
    halves = [2**64 - 1, 0x0123456789ABCDEF, 0xFEDCBA9876543210, 2**63 + 1]
    _raw_state(bg)[:] = [halves[k] for k in mc._WORD_ORDER]
    state = bg.state
    assert state["state"] == {"state": halves[0] << 64 | halves[1], "inc": halves[2] << 64 | halves[3]}
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)
    # the written state is the one the generator draws from
    want = np.random.PCG64(3)
    want.state = state
    assert bg.random_raw(4).tolist() == want.random_raw(4).tolist()


# the helper processes: min(workers, blocks, CPUs) - 1 of them, each running
# a fixed stride of blocks beside the caller and sending back its parts on a
# one-way pipe

_FORKED = pytest.mark.skipif(
    mc._START_METHOD != "fork", reason="helpers inherit the patched functions by fork"
)

# 2 workers start a helper only where the affinity mask has 2 CPUs or more.
# On a 1-CPU host, the tests here and the child interpreters they start see
# a second CPU beside the real one. A helper pinned to that CPU alone cannot
# pin itself, so it runs unpinned and shares the real CPU with the caller.
_TWO_CPUS = """
import os
if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2:
    _mask = os.sched_getaffinity(0)
    os.sched_getaffinity = lambda pid: _mask | {max(_mask) + 1}
"""


@pytest.fixture(autouse=True)
def _two_cpus(monkeypatch):
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    if mask is not None and len(mask) < 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask | {max(mask) + 1})


def _streamed(out: Path, cfg: SystemConfig, trials: int, seed: int, workers: int = 1):
    """run_ensemble with its rows streamed into out/samples.csv, as the CLI
    runs it; returns the result."""
    with samples_file(out) as rows:
        res = run_ensemble(cfg, trials=trials, seed=seed, workers=workers, rows=rows)
        write_outputs(res, out, rows=rows)
    return res


def _samples_csv(out: Path) -> bytes:
    return (out / "samples.csv").read_bytes()


def _log_lines(path: Path) -> list:
    """The integer fields of each line of a log that forked helpers append to."""
    if not path.exists():
        return []
    return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


@_FORKED
@pytest.mark.parametrize(
    "trials, workers, pool_sizes",
    # one trial per block here, so trials is also the block count
    [
        (1, 8, []), (3, 8, [2]), (3, MAX_WORKERS, [2]), (10, 4, [3]), (600, 1, []),
        (4, 4, [3]), (5, 8, [4]), (12, 8, [7]),
    ],
)
def test_pool_capped_at_non_empty_chunks(trials, workers, pool_sizes, tmp_path, monkeypatch):
    cfg = _cfg()
    want = run_ensemble(cfg, trials=trials, seed=4)
    write_outputs(want, tmp_path / "want")
    starts, sizes = [], []
    blocks = tmp_path / "blocks.txt"
    start_helper = mc._start_helper

    def recording_start(args, earlier):
        """The real start, recording each run's start method and the number
        of helper processes it started: a run's first helper has no earlier
        ones."""
        if not earlier:
            starts.append(mc._START_METHOD or multiprocessing.get_start_method())
            sizes.append(0)
        sizes[-1] += 1
        return start_helper(args, earlier)

    def run_chunk(cfg, seed, lo, hi, want_rows):
        with open(blocks, "a", encoding="ascii") as f:
            f.write(f"{os.getpid()} {lo} {hi}\n")
        return _run_chunk(cfg, seed, lo, hi, want_rows)

    monkeypatch.setattr(mc, "BLOCK_TRIALS", 1)
    monkeypatch.setattr(mc, "_start_helper", recording_start)
    monkeypatch.setattr(mc, "_run_chunk", run_chunk)
    if hasattr(os, "sched_getaffinity"):
        # 8 CPUs, so that the mask does not cap the helpers at any row here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    got = _streamed(tmp_path / "got", cfg, trials, 4, workers)
    assert sizes == pool_sizes
    fork = "fork" if sys.platform == "linux" else multiprocessing.get_start_method()
    assert starts == [fork] * len(pool_sizes)
    # every block ran once, in the caller or in a helper, and every process
    # ran at least one
    ran = _log_lines(blocks)
    assert sorted(lo_hi for _, *lo_hi in ran) == [[t, t + 1] for t in range(trials)]
    helpers = sum(pool_sizes)
    assert os.getpid() in {pid for pid, *_ in ran}
    assert len({pid for pid, *_ in ran}) == helpers + 1
    assert got.c_steep.tobytes() == want.c_steep.tobytes()
    assert _samples_csv(tmp_path / "got") == _samples_csv(tmp_path / "want")


@_FORKED
@pytest.mark.parametrize(
    "mask, handed",
    # the first trial of each block handed to each helper started
    [({0, 1}, [[0, 2, 4]]), (None, [[0, 3], [1, 4]]), ({5}, [])],
)
def test_helpers_capped_at_the_affinity_mask(mask, handed, tmp_path, monkeypatch):
    # 3 workers and 6 one-trial blocks: a 2-CPU mask has room for the caller
    # and one helper, a 1-CPU mask for the caller alone, and a platform
    # without masks sets no cap
    cfg = _cfg()
    write_outputs(run_ensemble(cfg, trials=6, seed=4), tmp_path / "want")
    start_helper, started = mc._start_helper, []

    def recording_start(args, earlier):
        started.append([lo for lo, _ in args[2]])
        return start_helper(args, earlier)

    monkeypatch.setattr(mc, "BLOCK_TRIALS", 1)
    monkeypatch.setattr(mc, "_start_helper", recording_start)
    if mask is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask), raising=False)
    _streamed(tmp_path / "got", cfg, 6, 4, workers=3)
    assert started == handed
    assert _samples_csv(tmp_path / "got") == _samples_csv(tmp_path / "want")


def test_worker_count_bounded(tmp_path, monkeypatch):
    # nothing may start a helper process
    monkeypatch.setattr(mc, "_start_helper", None)
    with pytest.raises(ValueError, match=f"workers must be <= {MAX_WORKERS}, got {MAX_WORKERS + 1}"):
        run_ensemble(_cfg(), trials=10**6, seed=1, workers=MAX_WORKERS + 1)
    # one block needs no helper at any worker count
    _streamed(tmp_path / "got", _cfg(), BLOCK_TRIALS, 1, workers=MAX_WORKERS)
    _streamed(tmp_path / "want", _cfg(), BLOCK_TRIALS, 1)
    assert _samples_csv(tmp_path / "got") == _samples_csv(tmp_path / "want")


def test_spawned_workers_match_one_worker(monkeypatch):
    # macOS and Windows start helpers this way: a fresh interpreter that
    # imports steepsim and gets its blocks and pipe ends pickled
    cfg = _cfg(n_A=16, n_E=8)
    want = run_ensemble(cfg, trials=700, seed=5)
    monkeypatch.setattr(mc, "_START_METHOD", "spawn")
    run_chunk, caller, ran_here = _run_chunk, os.getpid(), []
    start_helper, started = mc._start_helper, []

    def recording_start(args, earlier):
        started.append(start_helper(args, earlier))
        return started[-1]

    def forked_chunk(cfg, seed, lo, hi, want_rows):
        if os.getpid() != caller:
            raise AssertionError("a forked helper ran this process's _run_chunk")
        ran_here.append(lo)
        return run_chunk(cfg, seed, lo, hi, want_rows)

    # a spawned helper imports steepsim.mc afresh and never sees this patch
    monkeypatch.setattr(mc, "_run_chunk", forked_chunk)
    monkeypatch.setattr(mc, "_start_helper", recording_start)
    got = run_ensemble(cfg, trials=700, seed=5, workers=2)
    # two blocks: the helper runs the first, the caller the second
    assert ran_here == [BLOCK_TRIALS]
    assert [type(helper) for helper in started] == [mc._SpawnedHelper]
    for name in ("c_steep", "c1", "c2"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


# Linux helpers start by os.fork, so neither importing the CLI nor a
# multi-worker run loads multiprocessing, which took about 5 ms of a 2-worker
# call when the run imported it
_NO_MULTIPROCESSING = _TWO_CPUS + """
import resource, sys
from steepsim.cli import main

assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0)
print(sorted(name for name in sys.modules if name.split(".")[0] == "multiprocessing"))
"""


@_FORKED
def test_forked_run_loads_no_multiprocessing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_A = 16\nn_E = 8\nP_A_dB = 20\nP_B_dB = 30\n")
    argv = [
        "ensemble", "--config", str(cfg), "--trials", "1100", "--seed", "9",
        "--workers", "2", "--out", str(tmp_path / "out"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(mc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MULTIPROCESSING, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    # a helper ran and was reaped, and nothing of multiprocessing was loaded
    assert proc.stdout.splitlines()[-2:] == ["True", "[]"]


# every helper pins itself to the caller's mask less the CPU the caller runs
# on, and runs a fixed stride of blocks there

_MASK = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
_PLACED = pytest.mark.skipif(
    len(_MASK) < 2 or mc._START_METHOD != "fork",
    reason="needs 2 CPUs, affinity masks and forked helpers",
)


@pytest.mark.parametrize("mask", [{0}, {0, 1}, set(range(8))])
@pytest.mark.parametrize("cpu", [0, 1, 3, 9])
def test_helper_cpus_leave_out_the_callers_cpu(mask, cpu):
    # the caller's CPU inside the mask and outside it: the mask less that
    # CPU, or the whole mask if that leaves none
    cpus = mc._helper_cpus(mask, cpu)
    assert cpus == (sorted(mask - {cpu}) or sorted(mask))
    if mask - {cpu}:
        assert cpu not in cpus


def _placed_run(tmp_path, monkeypatch, workers: int):
    """A streamed run of two blocks per worker and a partial one, each block
    logging its process and that process's mask. Asserts that block b ran in
    process b mod p, that the caller's mask is the same after the run and
    that samples.csv is 1 worker's; returns the log by first trial and the
    pids of processes 0..p-1."""
    cfg, trials = _cfg(), 2 * workers * BLOCK_TRIALS + 7
    p = min(workers, len(_MASK))
    _streamed(tmp_path / "want", cfg, trials, 2)
    log = tmp_path / "blocks.txt"

    def run_chunk(cfg, seed, lo, hi, want_rows):
        # runs in the caller and in forked helpers
        with open(log, "a", encoding="ascii") as f:
            f.write(" ".join(map(str, [os.getpid(), lo, *sorted(os.sched_getaffinity(0))])) + "\n")
        return _run_chunk(cfg, seed, lo, hi, want_rows)

    monkeypatch.setattr(mc, "_run_chunk", run_chunk)
    before = os.sched_getaffinity(0)
    _streamed(tmp_path / "got", cfg, trials, 2, workers)
    assert os.sched_getaffinity(0) == before
    ran = {lo: (pid, cpus) for pid, lo, *cpus in _log_lines(log)}
    assert sorted(ran) == list(range(0, trials, BLOCK_TRIALS))
    pids = [ran[i * BLOCK_TRIALS][0] for i in range(p)]
    assert pids[-1] == os.getpid() and len(set(pids)) == p
    for lo, (pid, _) in ran.items():
        assert pid == pids[lo // BLOCK_TRIALS % p], f"block at trial {lo}"
    assert _samples_csv(tmp_path / "got") == _samples_csv(tmp_path / "want")
    return ran, pids


@_PLACED
@pytest.mark.parametrize("workers", [2, 3])
def test_helpers_run_a_fixed_stride(workers, tmp_path, monkeypatch):
    # the mask caps the processes at its CPUs, p of them, and the caller is
    # the last process. With the caller on the mask's first CPU, every
    # helper runs on the rest of the mask, the caller on the whole mask
    monkeypatch.setattr(mc, "_current_cpu", lambda: _MASK[0])
    ran, pids = _placed_run(tmp_path, monkeypatch, workers)
    for lo, (pid, cpus) in ran.items():
        want = _MASK if pid == pids[-1] else _MASK[1:]
        assert cpus == want, f"block at trial {lo}"


@_PLACED
@pytest.mark.parametrize("failing", ["_current_cpu", "sched_setaffinity"])
def test_helpers_that_cannot_pin_run_unpinned(failing, tmp_path, monkeypatch):
    # a CPU that cannot be read, or a mask that cannot be set, leaves every
    # process on the caller's whole mask, with the same bytes
    def refuse(*args):
        raise OSError("refused")

    monkeypatch.setattr(mc if failing == "_current_cpu" else os, failing, refuse)
    ran, _ = _placed_run(tmp_path, monkeypatch, 2)
    assert {tuple(cpus) for _, cpus in ran.values()} == {tuple(_MASK)}


# a helper that dies, as under the OOM killer, fails the run at once. The run
# goes in a child interpreter, so that a caller that waits for the dead helper
# fails this test by its timeout instead of hanging the suite. 1100 trials are
# three blocks: the one helper of a 2-worker run runs the first and the third,
# and dies as it starts the first; the caller runs the second.
_DYING_WORKER = _TWO_CPUS + """
import os, signal, sys, time
import steepsim.mc as mc
from steepsim.channel import SystemConfig
from steepsim.cli import main

run_chunk = mc._run_chunk
caller = os.getpid()


def dying_chunk(*block):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_chunk(*block)


mc._run_chunk = dying_chunk
if sys.argv[1] == "api":
    cfg = SystemConfig(n_A=4, n_E=6, P_A_dB=20.0, P_B_dB=30.0)
    t0 = time.monotonic()
    try:
        mc.run_ensemble(cfg, trials=1100, seed=9, workers=2)
    except ChildProcessError as exc:
        print(time.monotonic() - t0, exc)
else:
    sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(mc._START_METHOD != "fork", reason="helpers inherit the dying chunk by fork")
@pytest.mark.parametrize("entry", ["api", "cli"])
def test_dead_worker_fails_the_run(entry, tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_A = 4\nn_E = 6\nP_A_dB = 20\nP_B_dB = 30\n")
    argv = ["api"] if entry == "api" else [
        "ensemble", "--config", str(cfg), "--trials", "1100", "--seed", "9",
        "--workers", "2", "--out", str(out),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(mc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-c", _DYING_WORKER, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    if entry == "api":
        assert (proc.returncode, proc.stderr) == (0, "")
        elapsed, message = proc.stdout.split(" ", 1)
        assert float(elapsed) < 10.0
        assert message == "seed 9: the worker process for trials 0-511 died\n"
    else:
        assert proc.returncode == 2
        assert proc.stderr == "error: seed 9: the worker process for trials 0-511 died\n"
        assert proc.stdout == ""
        assert not out.exists()


# a helper ended by its own KeyboardInterrupt leaves through os._exit: it
# never unwinds into the caller's frames it was forked from, which would
# print a second error or traceback and run the caller's cleanup a second
# time. The run fails as for a dead helper, and stderr holds that one line.
_INTERRUPTED_WORKER = _DYING_WORKER.replace(
    "os.kill(os.getpid(), signal.SIGKILL)", "raise KeyboardInterrupt"
)


@pytest.mark.skipif(mc._START_METHOD != "fork", reason="helpers inherit the chunk by fork")
def test_interrupted_helper_fails_the_run_quietly(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_A = 4\nn_E = 6\nP_A_dB = 20\nP_B_dB = 30\n")
    argv = [
        "ensemble", "--config", str(cfg), "--trials", "1100", "--seed", "9",
        "--workers", "2", "--out", str(out),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(mc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-c", _INTERRUPTED_WORKER, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert "raise KeyboardInterrupt" in _INTERRUPTED_WORKER
    assert proc.returncode == 2
    assert proc.stderr == "error: seed 9: the worker process for trials 0-511 died\n"
    assert proc.stdout == ""
    assert not out.exists()


# a caller that dies closes its pipe ends: its helpers find no reader for
# their parts, and exit
_KILLED_CALLER = _TWO_CPUS + """
import os, sys
import steepsim.mc as mc
from steepsim.channel import SystemConfig

run_chunk = mc._run_chunk


def reporting_chunk(*block):
    print(os.getpid(), flush=True)
    return run_chunk(*block)


mc._run_chunk = reporting_chunk
cfg = SystemConfig(n_A=4, n_E=6, P_A_dB=20.0, P_B_dB=30.0)
mc.run_ensemble(cfg, trials=200_000, seed=9, workers=2)
"""


def _alive(pid: int) -> bool:
    """Whether pid names a running process; a zombie nobody reaps has exited."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    mc._START_METHOD != "fork" or not os.path.isdir("/proc/self"),
    reason="helpers inherit the reporting chunk by fork; process states from /proc",
)
def test_killed_caller_leaves_no_helper():
    env = dict(os.environ, PYTHONPATH=str(Path(mc.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_CALLER], stdout=subprocess.PIPE, text=True, env=env
    )
    helpers = set()
    try:
        # the caller and its helper each report every block they start; the
        # pipe stays open, so a helper's report cannot fail
        for line in proc.stdout:
            if int(line) != proc.pid:
                helpers.add(int(line))
                break
        proc.kill()
        assert proc.wait(timeout=60) == -signal.SIGKILL
        assert helpers, "the run ended before its helper ran a block"
        deadline = time.monotonic() + 5.0
        while any(map(_alive, helpers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, helpers))
    finally:
        proc.kill()
        proc.wait()
        for pid in filter(_alive, helpers):
            os.kill(pid, signal.SIGKILL)
        proc.stdout.close()


# a helper sends each block's part as soon as the block is done, so its peak
# memory does not grow with the trial count: from 10 240 to 300 000 trials its
# peak grew by under 0.1 MB, and by 10-12 MB when it kept its parts to the end
_HELPER_PEAK = _TWO_CPUS + """
import resource, sys
import steepsim.mc as mc
from steepsim.channel import SystemConfig

cfg = SystemConfig(n_A=4, n_E=6, P_A_dB=20.0, P_B_dB=30.0)
mc.run_ensemble(cfg, trials=int(sys.argv[1]), seed=1, workers=2)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts kB on Linux")
def test_helper_peak_memory_does_not_grow_with_trials():
    env = dict(os.environ, PYTHONPATH=str(Path(mc.__file__).parents[1]))
    peaks = []
    for trials in (10_240, 300_000):
        proc = subprocess.run(
            [sys.executable, "-c", _HELPER_PEAK, str(trials)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout))
    assert peaks[1] - peaks[0] < 3 * 1024, f"helper peaks {peaks} kB"


# the caller streams samples.csv's rows to disk as the blocks finish and keeps
# only the columns, so from 10 240 to 300 000 trials its peak grows by those
# and the aggregates: 25 B per trial of columns, 16 of c_conv and gain, and
# the outage curves' sorted copies, about 50 B in all. Holding the rows until
# write_outputs made it grow by 133-136 B per trial. The 90 B bound was set
# before either was measured.
_CALLER_PEAK = _TWO_CPUS + """
import resource, sys
from steepsim.cli import main

assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts kB on Linux")
@pytest.mark.parametrize("workers", [1, 2])
def test_caller_peak_memory_grows_by_the_columns_alone(workers, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(mc.__file__).parents[1]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_A = 4\nn_E = 6\nP_A_dB = 20\nP_B_dB = 30\n")
    counts, peaks = (10_240, 300_000), []
    for trials in counts:
        argv = [
            "ensemble", "--config", str(cfg), "--trials", str(trials), "--seed", "1",
            "--workers", str(workers), "--out", str(tmp_path / str(trials)),
        ]
        proc = subprocess.run(
            [sys.executable, "-c", _CALLER_PEAK, *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout.splitlines()[-1]))
    growth = (peaks[1] - peaks[0]) * 1024 / (counts[1] - counts[0])
    assert growth < 90, f"caller peaks {peaks} kB, {growth:.0f} B/trial"


# a helper's exception crosses its pipe and is raised again in the caller

_ZERO_TRIAL = 450  # in block 0 of 600 trials, which the helper of a 2-worker run takes


def _zero_one_trial(monkeypatch):
    """Make trial _ZERO_TRIAL's draw all zeros, wherever its block runs."""
    child_normals = _child_normals

    def zeroed(seed, start, stop, width):
        z = child_normals(seed, start, stop, width)
        if start <= _ZERO_TRIAL < stop:
            z[_ZERO_TRIAL - start] = 0.0
        return z

    monkeypatch.setattr(mc, "_child_normals", zeroed)


_ZERO_MESSAGE = f"trial {_ZERO_TRIAL} of seed 9: degenerate draw: h_BA has zero norm"


@_FORKED
@pytest.mark.parametrize("workers", [1, 2])
def test_worker_exception_reaches_the_caller(workers, monkeypatch):
    _zero_one_trial(monkeypatch)
    with pytest.raises(DegenerateChannelError) as info:
        run_ensemble(_cfg(), trials=600, seed=9, workers=workers)
    assert str(info.value) == _ZERO_MESSAGE


@_FORKED
def test_worker_exception_fails_the_cli_run(monkeypatch, capsys, tmp_path):
    from steepsim.cli import main

    _zero_one_trial(monkeypatch)
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text("n_A = 4\nn_E = 6\nP_A_dB = 20\nP_B_dB = 30\n")
    rc = main([
        "ensemble", "--config", str(cfg), "--trials", "600", "--seed", "9",
        "--workers", "2", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (2, "", f"error: {_ZERO_MESSAGE}\n")
    assert not out.exists()


# a failed run changes nothing on disk: it makes no output directory, leaves
# no temporary samples file, and leaves a good run's four files as they were

def _disk(root: Path) -> dict:
    """Every path under root, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@_FORKED
@pytest.mark.parametrize("into", ["no directory", "a good run"])
@pytest.mark.parametrize(
    "failure, workers",
    [("dying helper", 2), ("interrupted helper", 2), ("helper exception", 2), ("degenerate draw", 1)],
)
def test_failed_cli_run_changes_nothing_on_disk(
    failure, workers, into, monkeypatch, capsys, tmp_path
):
    from steepsim.cli import main

    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text("n_A = 4\nn_E = 6\nP_A_dB = 20\nP_B_dB = 30\n")
    args = ["ensemble", "--config", str(cfg), "--out", str(out)]
    if into == "a good run":
        assert main(args + ["--trials", "700", "--seed", "3"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "histogram.csv", "manifest.json", "outage.csv", "samples.csv",
        ]
    before = _disk(tmp_path)
    if failure == "dying helper":
        run_chunk, caller = _run_chunk, os.getpid()

        def dying_chunk(*block):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_chunk(*block)

        monkeypatch.setattr(mc, "_run_chunk", dying_chunk)
        message = "seed 9: the worker process for trials 0-511 died"
    elif failure == "interrupted helper":
        # a BaseException in the helper alone: the helper must leave without
        # unwinding into this process's frames, which would flush or remove
        # the caller's temporary samples file, and the caller sees a death
        run_chunk, caller = _run_chunk, os.getpid()

        def interrupted_chunk(*block):
            if os.getpid() != caller:
                raise KeyboardInterrupt
            return run_chunk(*block)

        monkeypatch.setattr(mc, "_run_chunk", interrupted_chunk)
        message = "seed 9: the worker process for trials 0-511 died"
    else:
        _zero_one_trial(monkeypatch)
        message = _ZERO_MESSAGE
    capsys.readouterr()
    rc = main(args + ["--trials", "600", "--seed", "9", "--workers", str(workers)])
    assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")
    assert _disk(tmp_path) == before


# a run leaves no worker process and no open pipe behind, however it ends

def _open_fds() -> set:
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(
    mc._START_METHOD != "fork" or not os.path.isdir("/proc/self/fd"),
    reason="workers inherit the patched chunk by fork; open descriptors from /proc",
)
@pytest.mark.parametrize("ending", ["normal", "killed worker", "worker exception"])
def test_nothing_left_behind(ending, monkeypatch):
    started = []
    start_helper = mc._start_helper

    def recording_start(args, earlier):
        """The real start, recording every helper it starts."""
        started.append(start_helper(args, earlier))
        return started[-1]

    if ending == "killed worker":
        run_chunk, caller = _run_chunk, os.getpid()

        def dying_chunk(*block):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_chunk(*block)

        monkeypatch.setattr(mc, "_run_chunk", dying_chunk)
        expected = ChildProcessError
    elif ending == "worker exception":
        _zero_one_trial(monkeypatch)
        expected = DegenerateChannelError
    monkeypatch.setattr(mc, "_start_helper", recording_start)
    run_ensemble(_cfg(), trials=6, seed=9)  # anything loaded on first use
    before = _open_fds()
    if ending == "normal":
        run_ensemble(_cfg(), trials=600, seed=9, workers=2)
    else:
        with pytest.raises(expected):
            run_ensemble(_cfg(), trials=600, seed=9, workers=2)
    assert multiprocessing.active_children() == []
    # one helper, reaped, and the caller's end of its pipe closed
    assert len(started) == 1
    for helper in started:
        with pytest.raises(ChildProcessError):
            os.waitpid(helper.pid, os.WNOHANG)
        with pytest.raises(OSError):
            os.fstat(helper.fd)
    assert _open_fds() == before


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
    got = _run_chunk(cfg, seed, start, start + count, False)
    for i in range(count):
        want = reference_trial(cfg, seed, start + i)
        cs, flag, c1, c2 = (col[i] for col in got[:4])
        assert bool(flag) == want[1]
        for name, a, b in zip(("c_steep", "c1", "c2"), (cs, c1, c2), (want[0], want[2], want[3])):
            assert _rel_close(a, b), f"trial {start + i}: {name} {a!r} != {b!r}"
    # run_ensemble forms c_conv and gain from the merged columns
    res = run_ensemble(cfg, trials=count, seed=seed)
    for t in range(count):
        ch = sample_realization(cfg, np.random.default_rng([seed, t]))
        ba = conventional(cfg, ch, steep=c_steep(cfg, ch))
        for name, a, b in (("c_conv", res.c_conv[t], ba.c_conv), ("gain", res.gain[t], ba.gain)):
            assert _rel_close(a, b), f"trial {t}: {name} {a!r} != {b!r}"


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
        want = (sa.c_steep_clamped, sa.natural_outage, ba.c1, ba.c2)
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


def test_block_peak_memory_at_the_antenna_bound():
    # at n_A = n_E = MAX_ANTENNAS a block's largest arrays are its draw
    # (9.2 MB), G_A (8.4 MB) and the bordered matrix and its factor (8.9 MB
    # each). Holding the draw, G_A, a scaled copy and its conjugate at once, a
    # block peaked at 45.3 MB (43.2 MiB) above its start; freeing the draw
    # early and scaling G_A in place took that to 28.0 MB (26.7 MiB). The
    # 32 MiB bound was fixed before this test first ran.
    cfg = _cfg(n_A=MAX_ANTENNAS, n_E=MAX_ANTENNAS)
    _run_chunk(cfg, 1, 0, BLOCK_TRIALS, True)  # warm-up
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        _run_chunk(cfg, 1, BLOCK_TRIALS, 2 * BLOCK_TRIALS, True)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 32 * 2**20, f"block peak {peak / 1e6:.1f} MB"


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
    # rows of trials 0-199 and 200-299, formatted as two blocks would be and
    # streamed into samples.csv
    cols = (res.c_steep, res.c_conv, res.gain, res.natural_outage)
    with samples_file(tmp_path / "rows") as rows:
        for lo, hi in ((0, 200), (200, 300)):
            rows.write(mc._sample_rows(lo, *(col[lo:hi] for col in cols)))
        write_outputs(res, tmp_path / "rows", rows=rows)
    # without streamed rows, they are formatted from the columns
    write_outputs(res, tmp_path / "cols")
    for out in ("rows", "cols"):
        written = (tmp_path / out / "samples.csv").read_text(encoding="ascii")
        assert written == _reference_samples_csv(res), out


def test_replaced_columns_write_their_own_rows(tmp_path):
    # a result changed with dataclasses.replace once wrote the rows its run
    # had formatted, not its new columns; 600 trials span two blocks
    res = run_ensemble(_cfg(), trials=600, seed=5)
    flipped = dataclasses.replace(res, c_steep=res.c_steep[::-1].copy(), gain=-res.gain)
    write_outputs(flipped, tmp_path)
    written = (tmp_path / "samples.csv").read_text(encoding="ascii")
    assert written == _reference_samples_csv(flipped)
    assert written != _reference_samples_csv(res)
