"""Monte Carlo ensembles over random channel realizations.

Each trial gets its own child random stream keyed by (seed, trial index), so
a trial's realization never depends on how trials are scheduled and the
aggregate output is byte-identical at any worker count. Outage curves use
the <= comparison on clamped capacities; the value at a rate of zero is the
natural-outage frequency.

Trials are evaluated in blocks of BLOCK_TRIALS. A block draws one row of
normals per trial, split by linops.cn_parts in sample_realization's order,
then evaluates steep.c_steep and baseline.conventional over a trial axis.
The child streams are numpy's own, drawn by one PCG64 per block: the block
hashes SeedSequence([seed, t]) for all its trials at once, takes each
trial's seeded PCG64 state from those words in numpy arithmetic, and writes
it into the generator's raw state before the trial's row is drawn, so each
row equals default_rng([seed, t])'s draw. Each trial's beta is one batched
Cholesky factorization of steep.beta's bordered matrix: the (n_A+1)-square
primal one when n_A <= n_E, and the (n_E+1)-square Woodbury one, with
beta = ||h_BA||^2 - q, when n_A > n_E. Both have a Schur complement of
1 + beta >= 1, so neither factorization can fail.
The block code calls the same numpy, BLAS and LAPACK primitives per trial as
the scalar API, so every float equals the scalar result bit for bit. After
_run_chunk's linops.keep_block_memory call, each block reuses the heap the
last freed.

With w workers, the caller starts w - 1 helper processes (forked on Linux),
never more than blocks - 1 or the affinity mask's CPUs - 1, and runs blocks
itself beside them. Block b runs in process b mod p, p = helpers + 1, the
caller being process p - 1: each helper gets its blocks as it starts and
sends each block's part back on a one-way pipe as soon as the block is done
(see _run_blocks). Every block, wherever it runs, is one _run_chunk call,
which also formats the block's samples.csv rows; the caller keeps no text
(see run_ensemble's rows). Helpers inherit the caller's CPU affinity mask,
and the kernel places every process within it. A helper's exception is
raised again in the caller, and a helper that exits owing parts fails the
run at once, naming the trials of the block it was running.
numpy.random is imported with this module, so every forked helper starts
with it loaded.
"""
from __future__ import annotations

import ctypes
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context
from pathlib import Path

import numpy as np
from numpy.random import Generator, PCG64

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
# most workers: each beyond the caller is a forked copy of it. run_ensemble
# starts no more processes than the affinity mask has CPUs; where a platform
# has no masks, the bound keeps a mistyped count from forking thousands
MAX_WORKERS = 256
# helpers fork on Linux, inheriting the loaded modules; elsewhere they start
# the platform's default way: macOS deems fork unsafe and Windows has none
_START_METHOD = "fork" if sys.platform == "linux" else None


@dataclass
class EnsembleResult:
    """Aggregate of one ensemble run; per-trial arrays are indexed by trial.

    It holds no samples.csv text: run_ensemble streams the rows to a sink,
    and write_outputs otherwise formats them from the columns.
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


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) constants of count successive hashmix calls,
    each a uint32 column: call k xors with h_k and multiplies by h_(k+1),
    where h_0 = init and h_(k+1) = h_k*mult mod 2**32."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h[:-1], dtype=np.uint32)[:, None], np.array(h[1:], dtype=np.uint32)[:, None]


# SeedSequence.generate_state's 8 calls
_STATE_XOR, _STATE_MULT = _hash_consts(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per row of xor and mult."""
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pcg64_states(seed: int, ts: np.ndarray) -> np.ndarray:
    """Row i is SeedSequence([seed, ts[i]]).generate_state(4, np.uint64).

    Those 4 words are what PCG64 seeds its state and increment from; ts holds
    uint32 trial indices. Each pool word is a row of a (4, len(ts)) array,
    and the hashmix calls that SeedSequence makes one after another on
    independent words run as one array operation.
    """
    entropy = [np.uint32(w) for w in _uint32_words(seed)]
    entropy.append(ts)
    extra = entropy[_POOL_SIZE:]
    xor, mult = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE**2 + _POOL_SIZE * len(extra))
    # SeedSequence.mix_entropy; a missing entropy word hashes as 0
    pool = np.zeros((_POOL_SIZE, ts.shape[0]), dtype=np.uint32)
    for i, word in enumerate(entropy[:_POOL_SIZE]):
        pool[i] = word
    pool = _hashmix(pool, xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    k = _POOL_SIZE
    for i_src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != i_src]
        words = _hashmix(pool[i_src], xor[k : k + len(dst)], mult[k : k + len(dst)])
        pool[dst] = _mix(pool[dst], words)
        k += len(dst)
    for word in extra:
        pool = _mix(pool, _hashmix(word, xor[k : k + _POOL_SIZE], mult[k : k + _POOL_SIZE]))
        k += _POOL_SIZE
    # SeedSequence.generate_state(4, uint64): 8 uint32 words from the pool
    # words in turn, which numpy pairs little-endian on every platform
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MULT)
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


# PCG64's LCG multiplier, numpy's PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_LIMB, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)
_ONE, _SHIFT63 = np.uint64(1), np.uint64(63)


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of each 128-bit product a*b, from 32-bit limbs."""
    a0, a1 = a & _LIMB, a >> _SHIFT32
    b0, b1 = b & _LIMB, b >> _SHIFT32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> _SHIFT32) + (p01 & _LIMB) + (p10 & _LIMB)
    return p11 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)


def _pcg64_seeded(words: np.ndarray) -> np.ndarray:
    """PCG64's state after seeding from each row of _pcg64_states.

    Columns: the high and low halves of the 128-bit state, then of inc.
    PCG64 reads a row as (s_hi, s_lo, i_hi, i_lo) and seeds as numpy's
    pcg64_set_seed does: inc = 2*initseq + 1 and
    state = (inc + initstate)*MULT + inc, mod 2**128, on uint64 halves.
    """
    s_hi, s_lo, i_hi, i_lo = words.T
    inc_hi = (i_hi << _ONE) | (i_lo >> _SHIFT63)
    inc_lo = (i_lo << _ONE) | _ONE
    a_lo = inc_lo + s_lo
    a_hi = inc_hi + s_hi + (a_lo < s_lo)
    p_hi = _mulhi(a_lo, _MULT_LO) + a_lo * _MULT_HI + a_hi * _MULT_LO
    st_lo = a_lo * _MULT_LO + inc_lo
    st_hi = p_hi + inc_hi + (st_lo < inc_lo)
    return np.column_stack([st_hi, st_lo, inc_hi, inc_lo])


def _raw_state(bg: PCG64) -> np.ndarray:
    """The 4 uint64 words of bg's pcg64_random_t, as a writable view.

    bg.ctypes.state_address holds the address of numpy's pcg64_state, whose
    first member points at the (state, inc) pair. The view is valid while bg
    lives.
    """
    ptr = ctypes.c_void_p.from_address(bg.ctypes.state_address).value
    return np.frombuffer((ctypes.c_uint64 * 4).from_address(ptr), dtype=np.uint64)


def _word_order() -> list:
    """Where each word of pcg64_random_t comes from among _pcg64_seeded's
    columns: gcc and clang store each 128-bit half low word first, MSVC's
    emulated struct high word first. Found by a write through the public
    state setter, never assumed."""
    halves = [0x0123456789ABCDEF, 0x1122334455667788, 0x99AABBCCDDEEFF01, 0x2233445566778899]
    bg = PCG64(0)
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": halves[0] << 64 | halves[1], "inc": halves[2] << 64 | halves[3]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    raw = _raw_state(bg).tolist()
    if sorted(raw) != sorted(halves):
        raise ImportError(
            f"numpy {np.__version__}: PCG64's raw state does not hold its 128-bit state and "
            f"increment as four 64-bit halves"
        )
    return [halves.index(w) for w in raw]


# _pcg64_seeded's columns in the order of pcg64_random_t's words
_WORD_ORDER = _word_order()


def _child_normals(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Row t - start holds default_rng([seed, t]).standard_normal(width).

    One PCG64 serves the block: before each row, its raw state is set to the
    one PCG64(SeedSequence([seed, t])) starts from. The generator is fresh
    and only draws normals, which never buffer a 32-bit word, so the state
    is all of it. Trial indices stay below MAX_TRIALS, so each is one 32-bit
    seed word.
    """
    out = np.empty((stop - start, width))
    ts = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
    states = _pcg64_seeded(_pcg64_states(seed, ts))[:, _WORD_ORDER]
    bg = PCG64(0)
    raw = _raw_state(bg)
    normal = Generator(bg).standard_normal
    for row, state in zip(out, states):
        raw[:] = state
        normal(out=row)
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


_SAMPLES_HEADER = "trial,c_steep,c_conv,gain,natural_outage\n"
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


def _helper(cfg: SystemConfig, seed: int, blocks: list, conn, inherited) -> None:
    """Helper process body: run each (lo, hi) of blocks in order.

    inherited holds the caller's pipe ends that a forked helper got copies
    of; with them closed, the helper finds no reader for a part once the
    caller is gone, and exits. Each block's part goes out on conn as
    (True, part) as soon as the block is done. An exception goes out as
    (False, exception) and ends the helper.
    """
    for end in inherited:
        end.close()
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


def _run_blocks(cfg: SystemConfig, seed: int, blocks: list, p: int, rows) -> list:
    """The four columns of _run_chunk's parts over all (lo, hi) of blocks,
    each one run-length array that every part is copied into.

    With p <= len(blocks) processes, block b runs in process b mod p:
    helper i runs blocks i, i + p, ..., and the caller, process p - 1, runs
    the rest. A helper gets its blocks as it starts and sends each part back
    on a one-way pipe as soon as the block is done. A pipe holds about one
    part, so before each of its own blocks the caller takes the parts that
    have arrived; then it waits for the parts still owed. Rows go to rows as
    run_ensemble says, or are dropped with rows None. The columns are
    allocated at the first part, after every helper has started: a helper
    forked after them would count their touched pages, all of them under
    MALLOC_PERTURB_, as its own resident memory. A helper that exits owing
    parts has failed. A caller that dies closes its pipe ends, and its
    helpers find no reader for their next part and exit.
    """
    helpers = p - 1
    columns = []
    # rows of blocks that finished before an earlier block, by block
    held = {}
    written = 0
    # per helper: its process, the caller's end of its pipe and its blocks
    # whose parts have not arrived, oldest first
    procs, conns, owed = [], [], []

    def take(b: int, part: tuple) -> None:
        nonlocal written
        if not columns:
            columns.extend(np.empty(blocks[-1][1], dtype=values.dtype) for values in part[:4])
        lo, hi = blocks[b]
        for col, values in zip(columns, part[:4]):
            col[lo:hi] = values
        if rows is not None:
            held[b] = part[4]
            while written in held:
                rows.write(held.pop(written))
                written += 1

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
            take(owed[i].pop(0), value)
        if exited and owed[i]:
            raise died(i)

    try:
        if helpers:
            ctx = get_context(_START_METHOD)
            for i in range(helpers):
                conn, child = ctx.Pipe(duplex=False)
                conns.append(conn)
                owed.append(list(range(i, len(blocks), p)))
                # a forked helper closes its copies of the caller's ends
                inherited = conns[:] if _START_METHOD == "fork" else []
                args = (cfg, seed, blocks[i::p], child, inherited)
                with child:  # the helper holds the only other end once started
                    proc = ctx.Process(target=_helper, args=args)
                    proc.start()
                procs.append(proc)
        for b in range(helpers, len(blocks), p):
            for i in range(helpers):
                collect(i)
            take(b, _run_chunk(cfg, seed, *blocks[b]))
        while any(owed):
            # loaded here, with the helpers: sdof, single and verify never need it
            from multiprocessing.connection import wait

            wait([end for i in range(helpers) if owed[i] for end in (conns[i], procs[i].sentinel)])
            for i in range(helpers):
                collect(i)
        return columns
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
    rows=None,
) -> EnsembleResult:
    """Run an ensemble of independent channel realizations.

    The result is bit-identical for fixed (cfg, trials, seed, rs_grid) at any
    worker count because trial t draws from the child stream (seed, t) and
    blocks are merged by their first trial. With workers > 1 the caller runs
    blocks itself beside min(workers, blocks, CPUs) - 1 helper processes,
    where CPUs counts the affinity mask's CPUs; a platform without masks
    sets no such cap.

    rows, if given, is a text sink such as a samples_file. Each block's
    samples.csv rows go to rows.write, in trial order, as soon as every
    earlier block's have, and are then dropped, so the result holds only
    the columns. A run that raises may have written some blocks' rows.

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
    # helpers beyond blocks - 1 would have nothing to do, and beyond the
    # mask's CPUs - 1 would share a CPU that a fixed stride cannot relieve
    p = min(workers, len(blocks))
    try:
        p = min(p, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        pass  # a platform without affinity masks sets no cap
    cs, no, c1, c2 = _run_blocks(cfg, seed, blocks, p, rows)
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


@contextmanager
def samples_file(outdir):
    """A temporary samples.csv, header written, for run_ensemble's rows.

    Yields the text file open for writing: a hidden file in outdir if that
    is a directory, else in its nearest existing ancestor, so it is on
    outdir's filesystem and a failed run creates no directory.
    write_outputs(result, outdir, rows=file) moves it into outdir; if that
    has not happened by exit, as after a failed run, it is removed.

    Raises:
        NotADirectoryError: if outdir, or an ancestor on the way to the
            nearest existing directory, is some other file, so that no run
            starts whose outputs cannot be written.
    """
    where = Path(outdir)
    while not where.is_dir() and where != where.parent:
        if os.path.lexists(where):
            raise NotADirectoryError(f"cannot write into {outdir}: {where} is not a directory")
        where = where.parent
    path = where / f".samples-{os.urandom(6).hex()}.csv.tmp"
    try:
        with open(path, "x", encoding="ascii", newline="") as f:
            f.write(_SAMPLES_HEADER)
            yield f
    finally:
        path.unlink(missing_ok=True)


def write_outputs(result: EnsembleResult, outdir, rows=None) -> dict:
    """Write samples.csv, outage.csv, histogram.csv and manifest.json.

    Floats are written with 17 significant digits so runs reproduce
    bit-exactly. rows, if given, is the samples_file for outdir that
    run_ensemble wrote this result's rows to; it becomes samples.csv.
    Without it, the rows are formatted from the result's columns,
    BLOCK_TRIALS trials at a time, into the same bytes.
    Returns the manifest as written; its "config" holds every SystemConfig
    field plus the grid. An old manifest.json goes first, so a failed write
    leaves no manifest beside CSVs it does not describe.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").unlink(missing_ok=True)

    samples = outdir / "samples.csv"
    if rows is not None:
        rows.close()
        os.replace(rows.name, samples)
    else:
        cols = (result.c_steep, result.c_conv, result.gain, result.natural_outage)
        with open(samples, "w", encoding="ascii", newline="") as f:
            f.write(_SAMPLES_HEADER)
            for lo in range(0, result.c_steep.shape[0], BLOCK_TRIALS):
                f.write(_sample_rows(lo, *(col[lo : lo + BLOCK_TRIALS] for col in cols)))

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
