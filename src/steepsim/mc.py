"""Monte Carlo ensembles over random channel realizations.

Each trial gets its own child random stream keyed by (seed, trial index), so
a trial's realization never depends on how trials are scheduled and the
aggregate output is byte-identical at any worker count. Outage curves use
the <= comparison on clamped capacities; the value at a rate of zero is the
natural-outage frequency.

Trials are evaluated in blocks of BLOCK_TRIALS. A block draws one row of
normals per trial, split by linops.cn_parts in sample_realization's order,
then evaluates steep.c_steep and baseline.conventional over a trial axis.
The child streams are numpy's own: the block hashes SeedSequence([seed, t])
for all its trials at once, and np.random.PCG64 seeds each stream from those
words in C, exactly as default_rng([seed, t]) would. Each trial's beta is
one batched Cholesky factorization of steep.beta's bordered matrix: the
(n_A+1)-square primal one when n_A <= n_E, and the (n_E+1)-square Woodbury
one, with beta = ||h_BA||^2 - q, when n_A > n_E. Both have a Schur
complement of 1 + beta >= 1, so neither factorization can fail.
The block code calls the same numpy, BLAS and LAPACK primitives per trial as
the scalar API, so every float equals the scalar result bit for bit. After
_run_chunk's linops.keep_block_memory call, each block reuses the heap the
last freed.

With w workers, the caller starts w - 1 helper processes (forked on Linux),
never more than blocks - 1, and runs blocks itself beside them. Block b runs
in process b mod p, p = helpers + 1, the caller being process p - 1: each
helper gets its blocks as it starts and sends each block's part back on a
one-way pipe as soon as the block is done (see _run_blocks). Every block,
wherever it runs, is one _run_chunk call, which also formats the block's
samples.csv rows. A helper first pins itself to its share of the parent's
CPU affinity mask (see _cpu_shares). Left to the kernel, both workers of a
2-worker run on a 2-CPU machine were seen to share one CPU for the whole
run, which made the run slower than one worker. The caller's own mask never
changes, and a helper that cannot pin itself runs unpinned. A helper's
exception is raised again in the caller, and a helper that exits owing parts
fails the run at once, naming the trials of the block it was running.
numpy.random is imported with this module, so every forked helper starts
with it loaded.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context
from pathlib import Path

import numpy as np
from numpy.random import Generator, PCG64
from numpy.random.bit_generator import ISeedSequence

from . import __version__
from .channel import SystemConfig, reference_power
from .linops import DegenerateChannelError, cn_from_normals, cn_parts, keep_block_memory
from .steep import LN2, log2_ratio
# not called here: the benchmark's tracer wraps them under steepsim.mc
from .baseline import conventional  # noqa: F401
from .channel import sample_realization  # noqa: F401
from .steep import c_steep  # noqa: F401

HIST_BINS = 60
DEFAULT_RS_GRID = np.linspace(0.0, 1.0, 101)
# trials per block: bounds the block arrays to a few MB at n_A=16, n_E=8
BLOCK_TRIALS = 512
# largest trial count: every trial index fits one 32-bit seed word, and the
# per-trial arrays of such a run already take about 180 GB
MAX_TRIALS = 2**32
# most workers: each beyond the caller is a forked copy of it, and workers
# beyond the CPUs of the affinity mask share a CPU and only add start-up cost;
# the bound keeps a mistyped count from forking thousands of processes
MAX_WORKERS = 256
# helpers fork on Linux, inheriting the loaded modules; elsewhere they start
# the platform's default way: macOS deems fork unsafe and Windows has none
_START_METHOD = "fork" if sys.platform == "linux" else None


@dataclass
class EnsembleResult:
    """Aggregate of one ensemble run; per-trial arrays are indexed by trial.

    sample_rows holds samples.csv's rows, one string per block, as the blocks
    formatted them. write_outputs writes these rows, not the columns; only a
    result that holds none, such as one built by hand, has its rows formatted
    from c_steep, c_conv, gain and natural_outage.
    """

    cfg: SystemConfig
    trials: int
    seed: int
    rs_grid: np.ndarray
    c_steep: np.ndarray
    c_conv: np.ndarray
    gain: np.ndarray
    natural_outage: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    o_steep: np.ndarray
    o_conv: np.ndarray
    histograms: dict = field(default_factory=dict)
    elapsed: float = 0.0
    sample_rows: list = field(default_factory=list, repr=False, compare=False)


# numpy's SeedSequence (pool of 4 uint32 words) hashing constants. They do
# not depend on the entropy, so the hashing runs over a whole block of trial
# indices at once in uint32 arithmetic.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; 0 is one word."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pcg64_states(seed: int, ts: np.ndarray) -> np.ndarray:
    """Row i is SeedSequence([seed, ts[i]]).generate_state(4, np.uint64).

    Those 4 words are what PCG64 seeds its state and increment from; ts holds
    uint32 trial indices.
    """
    n = ts.shape[0]
    entropy = [np.full(n, w, dtype=np.uint32) for w in _uint32_words(seed)]
    entropy.append(ts)
    # SeedSequence.mix_entropy; a missing entropy word hashes as 0
    hash_const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word = entropy[i] if i < len(entropy) else np.zeros(n, dtype=np.uint32)
        word, hash_const = _hashmix(word, hash_const)
        pool.append(word)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                word, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], word)
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            word, hash_const = _hashmix(entropy[i_src], hash_const)
            pool[i_dst] = _mix(pool[i_dst], word)
    # SeedSequence.generate_state(4, uint64): 8 uint32 words, which numpy
    # pairs little-endian on every platform
    hash_const = _INIT_B
    words = np.empty((n, 8), dtype=np.uint32)
    for i in range(8):
        word = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        word = word * np.uint32(hash_const)
        words[:, i] = word ^ (word >> _XSHIFT)
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class SeedWords(ISeedSequence):
    """Rows of _pcg64_states, handed out one per generate_state call.

    PCG64(seq) asks seq once, for 4 uint64 words, and seeds itself from them
    in C. Any other request raises rather than hand out wrong words.
    """

    def __init__(self, rows: np.ndarray):
        self._rows = iter(rows)

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes the type np.uint64, which skips building a dtype
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(f"seed words serve 4 uint64 words, not {n_words} of {dtype}")
        return next(self._rows)


def _child_normals(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Row t - start holds default_rng([seed, t]).standard_normal(width).

    Trial indices stay below MAX_TRIALS, so each is one 32-bit seed word.
    """
    out = np.empty((stop - start, width))
    ts = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
    seeds = SeedWords(_pcg64_states(seed, ts))
    for row in out:
        Generator(PCG64(seeds)).standard_normal(out=row)
    return out


def _draw_shapes(cfg: SystemConfig) -> list:
    """Shapes of one trial's CN draws: h_BA, w, g_B and G_A."""
    return [(cfg.n_A,), (cfg.n_A,), (cfg.n_E,), (cfg.n_E, cfg.n_A)]


def _normals_per_trial(cfg: SystemConfig) -> int:
    """Length of one trial's draw: re/im of each of _draw_shapes."""
    return 2 * sum(math.prod(shape) for shape in _draw_shapes(cfg))


def _norm2(v: np.ndarray) -> np.ndarray:
    """Per-row squared norm, bit-equal to channel.norm2.

    A row-by-column matmul calls BLAS zdotu on conj(v); np.vdot calls zdotc
    on v, which sums the same products.
    """
    return (v.conj()[:, None, :] @ v[:, :, None])[:, 0, 0].real


def _log2_ratio(arg: np.ndarray, a: np.ndarray, s: np.ndarray) -> np.ndarray:
    # steep.log2_ratio per element, bit for bit: math.log1p(arg) / LN2 where
    # arg > -1 (np.log1p may differ in the last ulp), and steep.log2_ratio
    # itself for the rest, NaN included
    ok = arg > -1.0
    out = np.fromiter(
        map(math.log1p, np.where(ok, arg, 0.0).tolist()), dtype=float, count=arg.shape[0]
    )
    out /= LN2
    for i in np.flatnonzero(~ok).tolist():
        out[i] = log2_ratio(float(arg[i]), float(a[i]), float(s[i]))
    return out


def _clamp(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0.0, x) with Python's semantics."""
    return np.where(x > 0.0, x, 0.0)


def _beta(cfg: SystemConfig, h_BA: np.ndarray, G_A: np.ndarray, nh_BA: np.ndarray) -> np.ndarray:
    """steep.beta per trial, by the same route; nh_BA holds the squared
    norms of h_BA's rows."""
    k, n_E, n_A = G_A.shape
    g = math.sqrt(cfg.P_A / (cfg.n_A * cfg.sigma2_EA)) * G_A
    # each Gram goes straight into its bordered matrix, which keeps the
    # block's peak memory down
    if n_A <= n_E:
        a = np.zeros((k, n_A + 1, n_A + 1), dtype=complex)
        np.matmul(g.conj().swapaxes(1, 2), g, out=a[:, :n_A, :n_A])
        a[:, range(n_A), range(n_A)] += 1.0
        a[:, n_A, :n_A] = h_BA
        a[:, n_A, n_A] = 1.0 + nh_BA
        return _norm2(np.linalg.cholesky(a)[:, n_A, :n_A])
    b = np.zeros((k, n_E + 1, n_E + 1), dtype=complex)
    np.matmul(g, g.conj().swapaxes(1, 2), out=b[:, :n_E, :n_E])
    b[:, range(n_E), range(n_E)] += 1.0
    b[:, n_E, :n_E] = (g.conj() @ h_BA[:, :, None])[:, :, 0]
    b[:, n_E, n_E] = 1.0 + nh_BA
    return nh_BA - _norm2(np.linalg.cholesky(b)[:, n_E, :n_E])


_RESPONSES = ("h_BA", "h_AB", "G_A", "g_B")


def _analyze_block(cfg: SystemConfig, z: np.ndarray, seed: int, start: int) -> tuple:
    """Closed forms of c_steep and conventional for a block of trials.

    Row i of z holds trial start + i's normals in sample_realization's order.
    Returns (c_steep clamped, natural_outage, c1, c2), the columns that need
    a trial's draw; run_ensemble forms c_conv and gain from them.

    Raises:
        DegenerateChannelError: if a response of some trial has zero norm.
    """
    h_BA, w, g_B, G_A = (cn_from_normals(re, im) for re, im in cn_parts(z, _draw_shapes(cfg)))
    h_AB = cfg.gamma * h_BA + (1.0 - cfg.gamma) * w
    nh_BA, nh_AB, ng_B = _norm2(h_BA), _norm2(h_AB), _norm2(g_B)
    bad = np.column_stack([nh_BA == 0.0, nh_AB == 0.0, ~G_A.any(axis=(1, 2)), ng_B == 0.0])
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        name = _RESPONSES[int(np.argmax(bad[i]))]
        raise DegenerateChannelError(
            f"trial {start + i} of seed {seed}: degenerate draw: {name} has zero norm"
        )

    # steep.c_steep
    p_b_prime = reference_power(cfg, nh_BA)
    b = _beta(cfg, h_BA, G_A, nh_BA)
    floor = (cfg.n_A / cfg.P_A) * cfg.sigma2_B
    var_a = floor + cfg.sigma2_A / (p_b_prime * nh_AB)
    var_e = b + floor + cfg.sigma2_EB / (p_b_prime * ng_B)
    diff = var_e - var_a
    cs = _clamp(_log2_ratio(diff / (var_a * (1.0 + var_e)), 1.0 / var_a, 1.0 / var_e))

    # baseline.conventional
    g_A = (G_A @ (h_BA.conj() / np.sqrt(nh_BA)[:, None])[:, :, None])[:, :, 0]
    snr_B = cfg.P_A * nh_BA / cfg.sigma2_B
    snr_EA = cfg.P_A * _norm2(g_A) / cfg.sigma2_EA
    snr_A = cfg.P_B * nh_AB / cfg.sigma2_A
    snr_EB = cfg.P_B * ng_B / cfg.sigma2_EB
    c1 = _log2_ratio((snr_B - snr_EA) / (1.0 + snr_EA), snr_B, snr_EA)
    c2 = _log2_ratio((snr_A - snr_EB) / (1.0 + snr_EB), snr_A, snr_EB)
    return cs, diff <= 0.0, c1, c2


def _cpu_shares(n: int) -> list:
    """CPU sets for n processes, split from this process's affinity mask.

    Share i holds every n-th CPU of the mask from the (i mod size)-th on:
    with n at most the mask's size the scheduler still chooses among several
    CPUs on a large machine, and beyond it the shares are single CPUs in
    turn. A platform without affinity masks gets None for every share.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return [None] * n
    return [cpus[i % len(cpus)::n] for i in range(n)]


# one samples.csv row: %.17g reads back as the same float64, %d a flag as 0/1
_SAMPLE_ROW = "%d,%.17g,%.17g,%.17g,%d\n"


def _sample_rows(lo: int, *columns: np.ndarray) -> str:
    """samples.csv rows of trials lo, lo + 1, ... from the columns c_steep,
    c_conv, gain and natural_outage."""
    n = columns[0].shape[0]
    values = [None] * (5 * n)
    values[0::5] = range(lo, lo + n)
    for j, col in enumerate(columns, 1):
        values[j::5] = col.tolist()
    return _SAMPLE_ROW * n % tuple(values)


def _run_chunk(cfg: SystemConfig, seed: int, lo: int, hi: int) -> tuple:
    """One block, trials lo..hi-1.

    Returns _analyze_block's four columns and the block's samples.csv rows,
    which take c_conv and gain elementwise as baseline.conventional forms
    them. Every block runs here, in the caller or in a helper.
    """
    keep_block_memory()
    z = _child_normals(seed, lo, hi, _normals_per_trial(cfg))
    cs, no, c1, c2 = _analyze_block(cfg, z, seed, lo)
    cc = _clamp(c1) + _clamp(c2)
    return cs, no, c1, c2, _sample_rows(lo, cs, cc, cs - cc, no)


def _helper(cpus, cfg: SystemConfig, seed: int, blocks: list, conn, inherited) -> None:
    """Helper process body: run each (lo, hi) of blocks in order.

    inherited holds the caller's pipe ends that a forked helper got copies
    of; with them closed, the helper finds no reader for a part once the
    caller is gone, and exits. Each block's part goes out on conn as
    (True, part) as soon as the block is done. An exception goes out as
    (False, exception) and ends the helper. Only helpers pin themselves, so
    the caller's mask never changes; a failed pin leaves the helper unpinned.
    """
    for end in inherited:
        end.close()
    if cpus is not None:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass
    with conn:
        try:
            for lo, hi in blocks:
                conn.send((True, _run_chunk(cfg, seed, lo, hi)))
        except OSError:
            pass  # the caller is gone, or has failed and reads no part
        except Exception as exc:
            try:
                conn.send((False, exc))
            except OSError:
                pass


def _run_blocks(cfg: SystemConfig, seed: int, blocks: list, helpers: int) -> list:
    """_run_chunk's part for each (lo, hi) of blocks, in block order.

    With p = helpers + 1 processes, helpers <= len(blocks) - 1, block b runs
    in process b mod p: helper i, with its share of the CPUs, runs blocks
    i, i + p, ..., and the caller, process p - 1, runs the rest. A helper
    gets its blocks as it starts and sends each part back on a one-way pipe
    as soon as the block is done. A pipe holds about one part, so before
    each of its own blocks the caller takes the parts that have arrived;
    then it waits for the parts still owed. A helper that exits owing parts
    has failed. A caller that dies closes its pipe ends, and its helpers
    find no reader for their next part and exit.
    """
    p = helpers + 1
    parts = [None] * len(blocks)
    # per helper: its process, the caller's end of its pipe and its blocks
    # whose parts have not arrived, oldest first
    procs, conns, owed = [], [], []

    def died(i: int) -> ChildProcessError:
        lo, hi = blocks[owed[i][0]]  # the block helper i was running
        return ChildProcessError(f"seed {seed}: the worker process for trials {lo}-{hi - 1} died")

    def collect(i: int) -> None:
        """Take helper i's parts that have arrived; raise its exception, or
        name its death if it has exited owing parts."""
        # an exited helper's messages are whole in the pipe. The poll keeps
        # recv from waiting on an empty pipe whose other end a process forked
        # by another thread (a second run) inherited.
        exited = procs[i].exitcode is not None
        while owed[i]:
            try:
                if not conns[i].poll():
                    break
                ok, value = conns[i].recv()
            except (EOFError, OSError):
                raise died(i) from None
            if not ok:
                raise value
            parts[owed[i].pop(0)] = value
        if exited and owed[i]:
            raise died(i)

    try:
        if helpers:
            ctx = get_context(_START_METHOD)
            for i, cpus in enumerate(_cpu_shares(p)[:helpers]):
                conn, child = ctx.Pipe(duplex=False)
                conns.append(conn)
                owed.append(list(range(i, len(blocks), p)))
                # a forked helper closes its copies of the caller's ends
                inherited = conns[:] if _START_METHOD == "fork" else []
                args = (cpus, cfg, seed, blocks[i::p], child, inherited)
                with child:  # the helper holds the only other end once started
                    proc = ctx.Process(target=_helper, args=args)
                    proc.start()
                procs.append(proc)
        for b in range(helpers, len(blocks), p):
            for i in range(helpers):
                collect(i)
            parts[b] = _run_chunk(cfg, seed, *blocks[b])
        while any(owed):
            # loaded here, with the helpers: sdof, single and verify never need it
            from multiprocessing.connection import wait

            wait([end for i in range(helpers) if owed[i] for end in (conns[i], procs[i].sentinel)])
            for i in range(helpers):
                collect(i)
        return parts
    finally:
        # a helper still running belongs to a failed run
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.exitcode is None:
                proc.kill()
            proc.join()
            proc.close()


def empirical_outage(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Fraction of samples <= each grid value."""
    order = np.sort(samples)
    return np.searchsorted(order, grid, side="right") / samples.shape[0]


def _histogram(samples: np.ndarray, lo: float) -> tuple[np.ndarray, np.ndarray]:
    hi = float(samples.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, HIST_BINS + 1)
    counts, _ = np.histogram(samples, bins=edges)
    return edges, counts


def run_ensemble(
    cfg: SystemConfig,
    trials: int,
    seed: int,
    rs_grid: np.ndarray | None = None,
    workers: int = 1,
) -> EnsembleResult:
    """Run an ensemble of independent channel realizations.

    The result is bit-identical for fixed (cfg, trials, seed, rs_grid) at any
    worker count because trial t draws from the child stream (seed, t) and
    blocks are merged by their first trial. With workers > 1 the caller runs
    blocks itself beside min(workers, blocks) - 1 helper processes.

    Raises:
        InfeasiblePowerError: if the configured budget cannot cover the
            probe-noise floor (checked once, before any trial runs).
        DegenerateChannelError: if a draw has a zero-norm response, in the
            caller or in the helper process that ran the trial.
        ChildProcessError: if a helper process exits before it has sent the
            parts of all its blocks; the message names the first and last
            trial of the block it was running, the first it owes.
        ValueError: on a trial count outside [1, MAX_TRIALS], a negative
            seed, a worker count outside [1, MAX_WORKERS], or an unsorted or
            non-finite grid. All are checked before any trial runs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be <= 2**32 = {MAX_TRIALS}, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= {MAX_WORKERS}, got {workers}")
    grid = DEFAULT_RS_GRID if rs_grid is None else np.asarray(rs_grid, dtype=float)
    finite = grid.ndim == 1 and grid.size >= 1 and np.isfinite(grid).all()
    if not finite or np.any(np.diff(grid) < 0):
        raise ValueError("rs_grid must be a nonempty ascending 1-d grid of finite values")
    reference_power(cfg, 0.0)  # an infeasible ConsumedPB budget raises here

    t0 = time.perf_counter()
    blocks = [(lo, min(lo + BLOCK_TRIALS, trials)) for lo in range(0, trials, BLOCK_TRIALS)]
    # helpers beyond blocks - 1 would have nothing to do
    cs, no, c1, c2, rows = zip(*_run_blocks(cfg, seed, blocks, min(workers, len(blocks)) - 1))
    cs, no, c1, c2 = (np.concatenate(col) for col in (cs, no, c1, c2))
    # baseline.conventional's c_conv and gain, formed here, not sent by helpers
    cc = _clamp(c1) + _clamp(c2)
    gn = cs - cc

    return EnsembleResult(
        cfg=cfg,
        trials=trials,
        seed=seed,
        rs_grid=grid,
        c_steep=cs,
        c_conv=cc,
        gain=gn,
        natural_outage=no,
        c1=c1,
        c2=c2,
        sample_rows=list(rows),
        o_steep=empirical_outage(cs, grid),
        o_conv=empirical_outage(cc, grid),
        histograms={
            "c_steep": _histogram(cs, lo=0.0),
            "c_conv": _histogram(cc, lo=0.0),
            "gain": _histogram(gn, lo=min(0.0, float(gn.min()))),
        },
        elapsed=time.perf_counter() - t0,
    )


def outage_at(result: EnsembleResult, rs: float) -> tuple[float, float]:
    """Empirical (O_steep, O_conv) at one target rate; ValueError unless rs >= 0."""
    if not rs >= 0:
        raise ValueError(f"rs must be >= 0, got {rs}")
    return float(np.mean(result.c_steep <= rs)), float(np.mean(result.c_conv <= rs))


def gain_distribution(result: EnsembleResult) -> dict:
    """Histogram of per-trial gains plus the sign split."""
    edges, counts = result.histograms["gain"]
    return {
        "edges": edges,
        "counts": counts,
        "prob_positive": float(np.mean(result.gain > 0.0)),
        "prob_negative": float(np.mean(result.gain < 0.0)),
    }


def write_outputs(result: EnsembleResult, outdir) -> dict:
    """Write samples.csv, outage.csv, histogram.csv and manifest.json.

    Floats are written with 17 significant digits so runs reproduce
    bit-exactly. samples.csv holds result.sample_rows as run_ensemble's blocks
    formatted them, not rows formed from the columns: a result changed with
    dataclasses.replace keeps its old rows unless they are replaced too. A
    result with no rows gets them from its columns. Returns the manifest as
    written; its "config" holds every SystemConfig field plus the grid. An
    old manifest.json goes first, so a failed write leaves no manifest beside
    CSVs it does not describe.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").unlink(missing_ok=True)

    samples = outdir / "samples.csv"
    with open(samples, "w", encoding="ascii", newline="") as f:
        f.write("trial,c_steep,c_conv,gain,natural_outage\n")
        cols = (result.c_steep, result.c_conv, result.gain, result.natural_outage)
        f.writelines(result.sample_rows or [_sample_rows(0, *cols)])

    outage = outdir / "outage.csv"
    with open(outage, "w", encoding="ascii", newline="") as f:
        f.write("Rs,O_steep,O_conv\n")
        for rs, o_s, o_c in zip(result.rs_grid, result.o_steep, result.o_conv):
            f.write("%.17g,%.17g,%.17g\n" % (rs, o_s, o_c))

    hist = outdir / "histogram.csv"
    with open(hist, "w", encoding="ascii", newline="") as f:
        f.write("statistic,bin_lo,bin_hi,count\n")
        for name, (edges, counts) in result.histograms.items():
            for i in range(counts.shape[0]):
                f.write("%s,%.17g,%.17g,%d\n" % (name, edges[i], edges[i + 1], counts[i]))

    manifest = {
        "config": {**asdict(result.cfg), "rs_grid": result.rs_grid.tolist()},
        "seed": result.seed,
        "trials": result.trials,
        "version": __version__,
        "outputs": {
            "samples": str(samples),
            "outage": str(outage),
            "histogram": str(hist),
        },
        "elapsed_seconds": result.elapsed,
    }
    with open(outdir / "manifest.json", "w", encoding="ascii") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest
