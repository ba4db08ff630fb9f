"""Monte Carlo ensembles over random channel realizations.

Each trial gets its own child random stream keyed by (seed, trial index), so
a trial's realization never depends on how trials are scheduled and the
aggregate output is byte-identical at any worker count. Outage curves use
the <= comparison on clamped capacities; the value at a rate of zero is the
natural-outage frequency.

Trials are evaluated in blocks of BLOCK_TRIALS. A block draws one row of
normals per trial from that trial's child stream, then evaluates the closed
forms of steep.c_steep and baseline.conventional over a leading trial axis.
The block code calls the same numpy, BLAS and LAPACK primitives per trial as
the scalar API, so every float equals the scalar result bit for bit;
reference_trial evaluates one trial through the scalar API.
"""
from __future__ import annotations

import json
import math
import subprocess
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import conventional
from .channel import PowerConvention, SystemConfig, echo_budget, sample_realization
from .linops import DegenerateChannelError
from .steep import EIG_ROUTE_MIN_DIM, LN2, c_steep

HIST_BINS = 60
DEFAULT_RS_GRID = np.linspace(0.0, 1.0, 101)
# trials per block: bounds the block arrays to a few MB at n_A=16, n_E=8
BLOCK_TRIALS = 512


@dataclass
class EnsembleResult:
    """Aggregate of one ensemble run; per-trial arrays are indexed by trial.

    infeasible is always 0: an infeasible power budget depends on the
    configuration alone and is rejected before any trial runs. The field is
    kept so the manifest schema does not change.
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
    infeasible: int = 0
    elapsed: float = 0.0


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants.
# The hash constants do not depend on the entropy, so the hashing runs over a
# whole block of trial indices at once in uint32 arithmetic.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _pcg64_states(seed: int, ts: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence([seed, t])) for each t in ts.

    Every t in ts must have the same number of 32-bit words.
    """
    n = ts.shape[0]
    entropy = [np.full(n, w, dtype=np.uint32) for w in _uint32_words(seed)]
    entropy.append((ts & _MASK32).astype(np.uint32))
    if int(ts[0]) > _MASK32:
        entropy.append((ts >> 32).astype(np.uint32))
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
    # SeedSequence.generate_state(4, uint64): 8 words, paired little-endian
    hash_const = _INIT_B
    words = []
    for i in range(8):
        word = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        word = word * np.uint32(hash_const)
        words.append((word ^ (word >> _XSHIFT)).astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = ((words[2 * j] | (words[2 * j + 1] << 32)).tolist() for j in range(4))
    states = []
    for sh, sl, ih, il in zip(s_hi, s_lo, i_hi, i_lo):
        # pcg_setseq_128_srandom_r: two LCG steps from state 0
        inc = (((ih << 64) | il) << 1 | 1) & _MASK128
        states.append((((inc + ((sh << 64) | sl)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _child_normals(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Row t - start holds default_rng([seed, t]).standard_normal(width)."""
    out = np.empty((stop - start, width))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    row = 0
    # a trial index takes one more seed word from 2**32 on
    for lo, hi in ((start, min(stop, 1 << 32)), (max(start, 1 << 32), stop)):
        if hi <= lo:
            continue
        for state, inc in _pcg64_states(seed, np.arange(lo, hi, dtype=np.uint64)):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            gen.standard_normal(out=out[row])
            row += 1
    return out


def _normals_per_trial(cfg: SystemConfig) -> int:
    """Length of one trial's draw: re/im of h_BA, w, g_B and G_A."""
    return 2 * (2 * cfg.n_A + cfg.n_E + cfg.n_E * cfg.n_A)


def _norm2(v: np.ndarray) -> np.ndarray:
    """Per-row squared norm, bit-equal to channel.norm2.

    A row-by-column matmul calls BLAS zdotu on conj(v); np.vdot calls zdotc
    on v, which sums the same products.
    """
    return (v.conj()[:, None, :] @ v[:, :, None])[:, 0, 0].real


def _log1p(x: np.ndarray) -> np.ndarray:
    # math.log1p, as in the scalar API: np.log1p may differ in the last ulp
    return np.fromiter(map(math.log1p, x.tolist()), dtype=float, count=x.shape[0])


def _clamp(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0.0, x) with Python's semantics."""
    return np.where(x > 0.0, x, 0.0)


_RESPONSES = ("h_BA", "h_AB", "G_A", "g_B")


def _analyze_block(cfg: SystemConfig, z: np.ndarray, seed: int, start: int) -> tuple:
    """Closed forms of c_steep and conventional for a block of trials.

    Row i of z holds trial start + i's normals in sample_realization's order.
    Returns (c_steep clamped, c_conv, gain, natural_outage, c1, c2).

    Raises:
        DegenerateChannelError: if a response of some trial has zero norm.
    """
    n_A, n_E, k = cfg.n_A, cfg.n_E, z.shape[0]
    parts = np.split(z, np.cumsum([n_A] * 4 + [n_E] * 2 + [n_E * n_A]), axis=1)
    h_BA, w, g_B, G_A = (
        (re.reshape(k, *shape) + 1j * im.reshape(k, *shape)) / np.sqrt(2.0)
        for re, im, shape in zip(parts[0::2], parts[1::2], [(n_A,), (n_A,), (n_E,), (n_E, n_A)])
    )
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
    if cfg.power_convention is PowerConvention.REFERENCE_PB_PRIME:
        p_b_prime = cfg.P_B
    else:
        p_b_prime = echo_budget(cfg) / (1.0 + nh_BA)
    scale = cfg.P_A / (cfg.n_A * cfg.sigma2_EA)
    # steep._gram, in place to keep the block's peak memory down
    gram = G_A.conj().swapaxes(1, 2) @ G_A
    gram += gram.conj().swapaxes(1, 2)
    gram *= 0.5
    u = h_BA.conj()
    if n_A >= EIG_ROUTE_MIN_DIM:
        vals, vecs = np.linalg.eigh(gram)
        del gram
        lam = np.maximum(vals[:, ::-1], 0.0)
        # C-ordered like hermitian_eig's copy, so the gemv below matches too
        q_h = np.conjugate(vecs[:, :, ::-1], order="C").swapaxes(1, 2)
        zq = (q_h @ u[:, :, None])[:, :, 0]
        b = np.sum(np.abs(zq) ** 2 / (scale * lam + 1.0), axis=1)
    else:
        m = scale * gram + np.eye(n_A)
        b = (h_BA[:, None, :] @ np.linalg.solve(m, u[:, :, None]))[:, 0, 0].real
    floor = (cfg.n_A / cfg.P_A) * cfg.sigma2_B
    var_a = floor + cfg.sigma2_A / (p_b_prime * nh_AB)
    var_e = b + floor + cfg.sigma2_EB / (p_b_prime * ng_B)
    diff = var_e - var_a
    cs = _clamp(_log1p(diff / (var_a * (1.0 + var_e))) / LN2)

    # baseline.conventional
    g_A = (G_A @ (u / np.sqrt(nh_BA)[:, None])[:, :, None])[:, :, 0]
    snr_B = cfg.P_A * nh_BA / cfg.sigma2_B
    snr_EA = cfg.P_A * _norm2(g_A) / cfg.sigma2_EA
    snr_A = cfg.P_B * nh_AB / cfg.sigma2_A
    snr_EB = cfg.P_B * ng_B / cfg.sigma2_EB
    c1 = _log1p((snr_B - snr_EA) / (1.0 + snr_EA)) / LN2
    c2 = _log1p((snr_A - snr_EB) / (1.0 + snr_EB)) / LN2
    cc = _clamp(c1) + _clamp(c2)
    return cs, cc, cs - cc, diff <= 0.0, c1, c2


def reference_trial(cfg: SystemConfig, seed: int, t: int) -> tuple:
    """Trial t through the scalar API, in _analyze_block's return order."""
    ch = sample_realization(cfg, np.random.default_rng([seed, t]))
    sa = c_steep(cfg, ch)
    ba = conventional(cfg, ch, steep=sa)
    return sa.c_steep_clamped, ba.c_conv, ba.gain, sa.natural_outage, ba.c1, ba.c2


def _run_chunk(args) -> tuple:
    cfg, seed, start, stop = args
    width = _normals_per_trial(cfg)
    blocks = [
        _analyze_block(cfg, _child_normals(seed, lo, min(lo + BLOCK_TRIALS, stop), width), seed, lo)
        for lo in range(start, stop, BLOCK_TRIALS)
    ]
    return tuple(np.concatenate(col) for col in zip(*blocks))


def empirical_outage(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Fraction of samples <= each grid value."""
    order = np.sort(samples)
    return np.searchsorted(order, grid, side="right") / samples.shape[0]


def _histogram(samples: np.ndarray, lo: float) -> tuple[np.ndarray, np.ndarray]:
    hi = float(samples.max()) if samples.size else lo
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
    chunks are merged by position.

    Raises:
        InfeasiblePowerError: if the configured budget cannot cover the
            probe-noise floor (checked once, before any trial runs).
        DegenerateChannelError: if a draw has a zero-norm response.
        ValueError: on a non-positive trial count, a negative seed or an
            unsorted grid.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    grid = DEFAULT_RS_GRID if rs_grid is None else np.asarray(rs_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or np.any(np.diff(grid) < 0):
        raise ValueError("rs_grid must be a nonempty ascending 1-d grid")
    if cfg.power_convention is PowerConvention.CONSUMED_PB:
        echo_budget(cfg)

    t0 = time.perf_counter()
    bounds = [trials * i // workers for i in range(workers + 1)]
    jobs = [(cfg, seed, a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if workers == 1:
        parts = [_run_chunk(jobs[0])]
    else:
        with Pool(processes=workers) as pool:
            parts = pool.map(_run_chunk, jobs)
    cs, cc, gn, no, c1, c2 = (np.concatenate(col) for col in zip(*parts))

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
    """Empirical (O_steep, O_conv) at one target rate."""
    if rs < 0:
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


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce and locate one ensemble run."""

    config: dict
    seed: int
    trials: int
    version: str
    outputs: dict
    infeasible: int
    elapsed_seconds: float


# 17 significant digits: every float64 reads back exactly
_fmt = "{:.17g}".format


def _version_string() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return __version__


def config_as_dict(cfg: SystemConfig) -> dict:
    d = {
        "n_A": cfg.n_A,
        "n_B": cfg.n_B,
        "n_E": cfg.n_E,
        "P_A_dB": cfg.P_A_dB,
        "P_B_dB": cfg.P_B_dB,
        "sigma2_B": cfg.sigma2_B,
        "sigma2_A": cfg.sigma2_A,
        "sigma2_EA": cfg.sigma2_EA,
        "sigma2_EB": cfg.sigma2_EB,
        "gamma": cfg.gamma,
        "power_convention": cfg.power_convention.value,
    }
    return d


def write_outputs(result: EnsembleResult, outdir) -> RunManifest:
    """Write samples.csv, outage.csv, histogram.csv and manifest.json.

    Floats are written with 17 significant digits so runs reproduce
    bit-exactly.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    samples = outdir / "samples.csv"
    with open(samples, "w", encoding="ascii", newline="") as f:
        f.write("trial,c_steep,c_conv,gain,natural_outage\n")
        columns = (
            map(str, range(result.trials)),
            *(map(_fmt, a.tolist()) for a in (result.c_steep, result.c_conv, result.gain)),
            map(str, result.natural_outage.astype(np.uint8).tolist()),
        )
        f.write("\n".join(map(",".join, zip(*columns))))
        f.write("\n")

    outage = outdir / "outage.csv"
    with open(outage, "w", encoding="ascii", newline="") as f:
        f.write("Rs,O_steep,O_conv\n")
        for rs, o_s, o_c in zip(result.rs_grid, result.o_steep, result.o_conv):
            f.write(f"{_fmt(rs)},{_fmt(o_s)},{_fmt(o_c)}\n")

    hist = outdir / "histogram.csv"
    with open(hist, "w", encoding="ascii", newline="") as f:
        f.write("statistic,bin_lo,bin_hi,count\n")
        for name, (edges, counts) in result.histograms.items():
            for i in range(counts.shape[0]):
                f.write(f"{name},{_fmt(edges[i])},{_fmt(edges[i + 1])},{counts[i]}\n")

    manifest = RunManifest(
        config={**config_as_dict(result.cfg), "rs_grid": [float(x) for x in result.rs_grid]},
        seed=result.seed,
        trials=result.trials,
        version=_version_string(),
        outputs={
            "samples": str(samples),
            "outage": str(outage),
            "histogram": str(hist),
        },
        infeasible=result.infeasible,
        elapsed_seconds=result.elapsed,
    )
    with open(outdir / "manifest.json", "w", encoding="ascii") as f:
        json.dump(manifest.__dict__, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest
