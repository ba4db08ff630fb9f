"""steepsim benchmark: one workload, measured end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload ens-n4e6 --seed 1 --seconds 30 --trace 0

Each operation is one real `steepsim` CLI call, `steepsim.cli.main([...])`,
in a fresh interpreter (perfbench/op.py). The loop is closed with one client:
the next call starts when the previous one has ended, until --seconds have
passed. Every call's outputs are checked (perfbench/checks.py). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the environment, each metric
with its quartiles, and the correctness-check count.

--trace 0 reports the end-to-end metrics. --trace 1 is a separate run that
alternates untraced calls with calls traced from the outside
(perfbench/tracer.py) and reports the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_ensemble, check_verify
from tracer import load_spans, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
OP_TIMEOUT_S = 60
# git never looks above the checkout, for the benchmark or the program
GIT_ENV = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
SAMPLED_TRIALS = 64  # trials per ensemble call recomputed through the scalar API

# The powers and convention of the paper's headline configuration.
_HEADLINE = {"P_A_dB": 20, "P_B_dB": 30, "power_convention": "ConsumedPB"}

# Verify seeds come from this pool, which passes verify at the commit that
# introduced the benchmark: the 3-se limit is a statistical test that about
# 0.5% of arbitrary seeds fail by chance, and a benchmark run must not fail
# by chance. A change to the random streams must re-check the pool.
VERIFY_SEEDS = tuple(range(64))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "ensemble" or "verify"
    settings: dict
    workers: int = 1
    trials: int = 1  # trials per ensemble call
    m: int = 0  # symbols per verify call


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ens-n4e6",
            "headline config n_A=4 n_E=6 at 1 worker: per-trial Python loop, beta on the solve route",
            "ensemble",
            {"n_A": 4, "n_E": 6, **_HEADLINE},
            workers=1,
            trials=6000,
        ),
        Workload(
            "ens-n16e8-w2",
            "n_A=16 n_E=8 at 2 workers: beta on the eigen route, Pool fork, chunking and merge",
            "ensemble",
            {"n_A": 16, "n_E": 8, **_HEADLINE},
            workers=2,
            trials=6000,
        ),
        Workload(
            "verify-m500k",
            "signal-level oracle, 500k symbols per realization: bulk draws and matmuls, bypasses mc",
            "verify",
            {"n_A": 4, "n_E": 6, **_HEADLINE},
            m=500_000,
        ),
    )
}

END_TO_END = (
    ("trials_per_s", "trials/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("mc.trial_self_us", "us/trial"),
    ("mc.parallel_efficiency", "ratio"),
    ("mc.aggregate_s", "s"),
    ("mc.write_outputs_s", "s"),
    ("mc.write_outputs_bytes", "B"),
    ("channel.sample_realization_us", "us/trial"),
    ("channel.reference_power_us", "us/trial"),
    ("linops.sample_cn_us", "us/trial"),
    ("linops.sample_cn_calls_per_trial", "calls/trial"),
    ("linops.sample_cn_matrix_us", "us/trial"),
    ("linops.sample_cn_matrix_calls_per_trial", "calls/trial"),
    ("steep.beta_us", "us/trial"),
    ("steep.c_steep_self_us", "us/trial"),
    ("linops.solve_psd_us", "us/trial"),
    ("linops.solve_psd_calls_per_trial", "calls/trial"),
    ("linops.hermitian_eig_us", "us/trial"),
    ("linops.hermitian_eig_calls_per_trial", "calls/trial"),
    ("baseline.conventional_us", "us/trial"),
    ("sigsim.run_phase1_s", "s/trial"),
    ("sigsim.run_phase2_s", "s/trial"),
    ("sigsim.alice_receiver_s", "s/trial"),
    ("sigsim.eve_receiver_s", "s/trial"),
    ("sigsim.variance_report_self_s", "s/trial"),
    ("sigsim.bytes_computed", "B/symbol"),
    ("sigsim.flops_computed", "flop/symbol"),
    ("cli.parse_s", "s"),
    ("cli.import_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


@dataclass
class Op:
    """One finished CLI call."""

    rc: int
    trials: int
    setup_s: float = 0.0
    call_s: float = 0.0
    import_s: float = 0.0
    peak_rss_mb: float = 0.0
    out_bytes: int = 0
    traced: bool = False
    workers: int = 1
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.trials / self.call_s


class Session:
    """Runs the calls of one benchmark run and checks each one."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        from steepsim.cli import load_config_file, parse_settings

        self.wl = wl
        self.workdir = workdir
        self.rng = random.Random(f"{wl.name}/{seed}")
        self.verify_order = self.rng.sample(VERIFY_SEEDS, len(VERIFY_SEEDS))
        self.config = workdir / "run.cfg"
        self.config.write_text("".join(f"{k} = {v}\n" for k, v in wl.settings.items()))
        self.cfg = parse_settings(load_config_file(str(self.config)))[0]
        self.env = {**GIT_ENV, **{v: "1" for v in BLAS_THREAD_VARS}}
        self.calls = 0
        self.checks = 0
        self.checks_failed = 0
        self.failures: list[str] = []

    def next_inputs(self) -> tuple[int, list[int]]:
        """The seed of the next call and, for an ensemble, the trials to recheck."""
        if self.wl.command == "verify":
            return self.verify_order[self.calls % len(self.verify_order)], []
        seed = self.rng.randrange(1, 2**31)
        return seed, sorted(self.rng.sample(range(self.wl.trials), SAMPLED_TRIALS))

    def call(self, seed: int, sample: list[int], *, workers=None, trace=False, size=None) -> Op:
        """Run one CLI call in a fresh interpreter and check its outputs."""
        wl = self.wl
        k = self.calls
        self.calls += 1
        workers = wl.workers if workers is None else workers
        result = self.workdir / f"op-{k}.json"
        out = self.workdir / f"out-{k}"
        trace_dir = self.workdir / f"trace-{k}" if trace else None
        if wl.command == "ensemble":
            trials = size or wl.trials
            argv = ["ensemble", "--config", str(self.config), "--trials", str(trials),
                    "--seed", str(seed), "--workers", str(workers), "--out", str(out)]
        else:
            trials = 1
            argv = ["verify", "--config", str(self.config), "--m", str(size or wl.m),
                    "--seed", str(seed)]
        spec = {"src": str(SRC), "config": str(self.config), "argv": argv,
                "result": str(result), "trace_dir": str(trace_dir) if trace else None}

        start = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "op.py"), json.dumps(spec)],
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()

        op = Op(rc=proc.returncode, trials=trials, traced=trace, workers=workers)
        # one check that the call completed, then the checks of its outputs
        call_failed = []
        try:
            res = json.loads(result.read_text())
        except (OSError, ValueError):
            res = None
            call_failed.append(f"call {k} (seed {seed}) left no result: {stderr.strip()[-300:]}")
        if res is not None:
            op.setup_s = (res["ready_ns"] - start) / 1e9
            op.call_s = res["call_s"]
            op.import_s = res["import_s"]
            op.peak_rss_mb = res["peak_rss_mb"]
            if not Path(res["module"]).resolve().is_relative_to(SRC.resolve()):
                call_failed.append(f"call {k} imported steepsim from {res['module']}, not {SRC}")
        if op.rc != 0:
            call_failed.append(f"call {k} (seed {seed}) exit code {op.rc}")
        if wl.command == "ensemble":
            n, output_failed = check_ensemble(self.cfg, seed, trials, out, sample)
            n_failed = len(output_failed)
            op.out_bytes = sum(p.stat().st_size for p in out.glob("*") if p.is_file())
        else:
            output_failed = check_verify(seed, op.rc, stdout)
            n, n_failed = 1, int(bool(output_failed))
        op.failures = call_failed + output_failed
        self.checks += 1 + n
        self.checks_failed += bool(call_failed) + n_failed
        self.failures += op.failures

        if trace_dir is not None:
            op.spans = load_spans(trace_dir)
            shutil.rmtree(trace_dir, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        result.unlink(missing_ok=True)
        return op

    def warm_up(self) -> None:
        """One small untimed, unchecked call: fills the page and bytecode caches."""
        seed, _ = self.next_inputs()
        small = 200 if self.wl.command == "ensemble" else 1000
        self.call(seed, [], size=small)
        self.checks = self.checks_failed = 0
        self.failures = []


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=GIT_ENV,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None  # None: not a git checkout


def environment(wl: Workload, load_start) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_per_process": {v: "1" for v in BLAS_THREAD_VARS},
        "processes": wl.workers,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "git_commit": _git_commit(),
    }


def sigsim_counts(n_A: int, n_E: int) -> tuple[int, int]:
    """Computed per-symbol (bytes, flops) of the signal-level chain.

    Bytes: the complex128 arrays one symbol adds to the SignalTrace (X_A,
    y_B, Y_EA, s, Y_A, Y_EB, X_hat, r_A, r_E). Flops: 8 per complex
    multiply-add of the matrix products in run_phase1, run_phase2, the two
    receivers and the residual covariance estimate; element-wise work is not
    counted.
    """
    stored = 3 * n_A + 2 * n_E + 4
    macs = (
        n_A + n_E * n_A  # phase 1: h_BA @ X_A, G_A @ X_A
        + n_A + n_E  # phase 2: the two echo outer products
        + 3 * n_A  # Alice: h_BA @ X_A, outer product, h_AB^H combining
        + n_A * n_E + n_A + 2 * n_E  # Eve: MMSE gain, h_BA @ X_hat, outer, g_B^H combining
        + n_A * n_A  # residual covariance estimate
    )
    return 16 * stored, 8 * macs


def end_to_end(wl: Workload, ops: list[Op]) -> tuple[dict, list[str]]:
    done = [op for op in ops if op.call_s > 0]
    if not done:
        return {}, ["no call completed"]
    series = {
        "trials_per_s": [op.rate for op in done],
        "setup_s": [op.setup_s for op in done],
        "peak_rss_mb": [op.peak_rss_mb for op in done],
    }
    lines = []
    metrics = {}
    for name, unit in END_TO_END:
        q1, med, q3 = _quartiles(series[name])
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"{name} = {med:.6g} {unit} (median of {len(series[name])} calls; "
                     f"quartiles {q1:.6g} .. {q3:.6g})")
    if wl.command == "verify":
        lines.append(f"symbols_per_s = {metrics['trials_per_s']['value'] * wl.m:.6g} symbols/s "
                     f"({wl.m} symbols per realization)")
    return metrics, lines


def per_layer(wl: Workload, ops: list[Op]) -> tuple[dict, list[str]]:
    traced = [op for op in ops if op.traced and op.call_s > 0]
    plain = [op for op in ops if not op.traced and op.call_s > 0]
    rows: dict = {}
    root_ns = 0
    for op in traced:
        summary, roots = summarize(op.spans)
        root_ns += roots
        for name, row in summary.items():
            acc = rows.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += row[key]
    zero = {"calls": 0, "incl_ns": 0, "self_ns": 0}
    trials = sum(op.trials for op in traced)
    calls = len(traced)

    def row(name):
        return rows.get(name, zero)

    def us(ns):
        return ns / trials / 1e3

    def per_call_s(ns):
        return ns / calls / 1e9

    own_plain = [op for op in plain if op.workers == wl.workers]
    overhead = (statistics.median(op.call_s for op in traced)
                / statistics.median(op.call_s for op in own_plain) - 1.0)
    efficiency = 0.0
    if wl.command == "ensemble":
        rate1 = statistics.median(op.rate for op in plain if op.workers == 1)
        rate2 = statistics.median(op.rate for op in plain if op.workers == 2)
        efficiency = rate2 / (2.0 * rate1)
    sig_bytes, sig_flops = sigsim_counts(wl.settings["n_A"], wl.settings["n_E"])
    is_verify = wl.command == "verify"

    values = {
        "mc.trial_self_us": us(row("mc.run_ensemble")["self_ns"] + row("mc.run_chunk")["self_ns"]),
        "mc.parallel_efficiency": efficiency,
        "mc.aggregate_s": per_call_s(row("mc.empirical_outage")["incl_ns"] + row("mc.histogram")["incl_ns"]),
        "mc.write_outputs_s": per_call_s(row("mc.write_outputs")["incl_ns"]),
        "mc.write_outputs_bytes": sum(op.out_bytes for op in traced) / calls,
        "channel.sample_realization_us": us(row("channel.sample_realization")["incl_ns"]),
        "channel.reference_power_us": us(row("channel.reference_power")["incl_ns"]),
        "steep.beta_us": us(row("steep.beta")["incl_ns"]),
        "steep.c_steep_self_us": us(row("steep.c_steep")["self_ns"]),
        "baseline.conventional_us": us(row("baseline.conventional")["incl_ns"]),
        "sigsim.variance_report_self_s": row("sigsim.variance_report")["self_ns"] / trials / 1e9,
        "sigsim.bytes_computed": sig_bytes if is_verify else 0,
        "sigsim.flops_computed": sig_flops if is_verify else 0,
        "cli.parse_s": per_call_s(row("cli.load_config_file")["incl_ns"] + row("cli.parse_settings")["incl_ns"]),
        "cli.import_s": statistics.mean(op.import_s for op in traced),
        "trace_overhead_frac": overhead,
    }
    for fn in ("sample_cn", "sample_cn_matrix", "solve_psd", "hermitian_eig"):
        values[f"linops.{fn}_us"] = us(row(f"linops.{fn}")["incl_ns"])
        values[f"linops.{fn}_calls_per_trial"] = row(f"linops.{fn}")["calls"] / trials
    for fn in ("run_phase1", "run_phase2", "alice_receiver", "eve_receiver"):
        values[f"sigsim.{fn}_s"] = row(f"sigsim.{fn}")["incl_ns"] / trials / 1e9

    self_sum = sum(r["self_ns"] for r in rows.values())
    lines = [f"traced calls = {calls}, trials traced = {trials}",
             f"{'span':32s} {'calls/trial':>12s} {'incl us/trial':>14s} {'self us/trial':>14s}"]
    for name in sorted(rows):
        r = rows[name]
        lines.append(f"{name:32s} {r['calls'] / trials:12.4g} {us(r['incl_ns']):14.6g} {us(r['self_ns']):14.6g}")
    lines.append(f"self times summed / root span wall = {self_sum / root_ns:.6f} "
                 "(1 when calls run in one process)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    lines += [f"{name} = {values[name]:.6g} {unit}" for name, unit in PER_LAYER]
    return metrics, lines


def run(wl: Workload, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    load_start = os.getloadavg()
    session = Session(wl, seed, workdir)
    session.warm_up()
    ops: list[Op] = []
    # a traced run repeats a group on the same inputs, in alternating order:
    # untraced and traced at the workload's worker count and, for ensembles,
    # untraced at the other worker count for the parallel efficiency
    group = [(wl.workers, False)]
    if trace and wl.command == "ensemble":
        group.append((2 if wl.workers == 1 else 1, False))
    if trace:
        group.append((wl.workers, True))
    deadline = time.monotonic() + seconds
    rounds = 0
    while rounds == 0 or time.monotonic() < deadline:
        call_seed, sample = session.next_inputs()
        for workers, traced in group[::-1] if rounds % 2 else group:
            ops.append(session.call(call_seed, sample, workers=workers, trace=traced))
        rounds += 1

    print("env " + json.dumps(environment(wl, load_start), sort_keys=True))
    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {seed}, {len(ops)} calls in {seconds} s, trace {int(trace)}")
    failed_calls = sum(1 for op in ops if op.failures)
    if trace and failed_calls == 0:
        metrics, lines = per_layer(wl, ops)
    elif trace:
        metrics, lines = {}, ["per-layer metrics withheld: a call failed"]
    else:
        metrics, lines = end_to_end(wl, ops)
    for line in lines:
        print(line)
    frac = session.checks_failed / max(session.checks, 1)
    print(f"check_fail_frac = {frac:.6g} ratio ({session.checks_failed} of {session.checks} checks failed)")
    for msg in session.failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    return {"correct": failed_calls == 0, "attempted": len(ops), "failed": failed_calls,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "steepsim" / "cli.py").is_file():
        print(f"error: no steepsim sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
