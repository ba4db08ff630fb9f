"""Span recorder for the traced benchmark run.

The program is traced from the outside: `install` replaces steepsim module
attributes with wrappers at the place where the caller looks them up (for
example `steepsim.mc.c_steep`, which `mc._run_chunk` calls), so nothing under
`src/` is edited. Every wrapped call becomes one span
`(id, parent id, name, start ns, end ns)` kept in memory; a process writes its
spans to `<out_dir>/spans-*.json` only once its work is done.

Pool workers are forked inside the traced `run_ensemble` call, so they inherit
its span as their parent. A worker writes its spans after each chunk and
records that write as a `trace.flush` span, so the write is excluded from the
self time of `run_ensemble` instead of being charged to it.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# (module whose global the caller reads, attribute, span name). Span names
# are "<layer>.<function>" for the layer that owns the function.
WRAPPED = (
    ("steepsim.cli", "load_config_file", "cli.load_config_file"),
    ("steepsim.cli", "parse_settings", "cli.parse_settings"),
    ("steepsim.cli", "run_ensemble", "mc.run_ensemble"),
    ("steepsim.cli", "write_outputs", "mc.write_outputs"),
    ("steepsim.cli", "sample_realization", "channel.sample_realization"),
    ("steepsim.cli", "variance_report", "sigsim.variance_report"),
    ("steepsim.mc", "_run_chunk", "mc.run_chunk"),
    ("steepsim.mc", "sample_realization", "channel.sample_realization"),
    ("steepsim.mc", "c_steep", "steep.c_steep"),
    ("steepsim.mc", "conventional", "baseline.conventional"),
    ("steepsim.mc", "empirical_outage", "mc.empirical_outage"),
    ("steepsim.mc", "_histogram", "mc.histogram"),
    ("steepsim.channel", "sample_cn", "linops.sample_cn"),
    ("steepsim.channel", "sample_cn_matrix", "linops.sample_cn_matrix"),
    ("steepsim.steep", "reference_power", "channel.reference_power"),
    ("steepsim.steep", "beta", "steep.beta"),
    ("steepsim.steep", "solve_psd", "linops.solve_psd"),
    ("steepsim.steep", "hermitian_eig", "linops.hermitian_eig"),
    ("steepsim.sigsim", "reference_power", "channel.reference_power"),
    ("steepsim.sigsim", "sample_cn", "linops.sample_cn"),
    ("steepsim.sigsim", "sample_cn_matrix", "linops.sample_cn_matrix"),
    ("steepsim.sigsim", "run_phase1", "sigsim.run_phase1"),
    ("steepsim.sigsim", "run_phase2", "sigsim.run_phase2"),
    ("steepsim.sigsim", "alice_receiver", "sigsim.alice_receiver"),
    ("steepsim.sigsim", "eve_receiver", "sigsim.eve_receiver"),
)

# Pool workers run this one; they write their spans after each call.
_WORKER_ENTRY = ("steepsim.mc", "_run_chunk")

_now = time.monotonic_ns  # CLOCK_MONOTONIC: one time base for all processes


class Tracer:
    """Records spans for the wrapped calls of one process tree."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self._count = 0
        self._files = 0

    def _new_id(self) -> int:
        self._count += 1
        return (self.pid << 32) | self._count

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                self.stack.pop()
                self.spans.append((sid, parent, name, start, end))

        return traced

    def wrap_worker_entry(self, name: str, fn):
        """Like wrap, and in a forked worker start a fresh span list and
        write the spans out after each call."""
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            if os.getpid() != self.pid:
                # forked: the inherited spans belong to the parent process
                self.pid = os.getpid()
                self.spans = []
            try:
                return traced(*args, **kwargs)
            finally:
                if os.getpid() != self.owner:
                    self.flush(as_span=True)

        return entry

    def flush(self, as_span: bool = False) -> None:
        """Write the recorded spans to a new file and forget them."""
        start = _now()
        spans, self.spans = self.spans, []
        self._files += 1
        stem = f"spans-{os.getpid()}-{self._files}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / f"{stem}.json").write_text(json.dumps(spans))
        if as_span:
            parent = self.stack[-1] if self.stack else None
            flush_span = (self._new_id(), parent, "trace.flush", start, _now())
            (self.out_dir / f"{stem}-flush.json").write_text(json.dumps([flush_span]))


def install(out_dir) -> Tracer:
    """Wrap every entry of WRAPPED in the already imported steepsim modules."""
    tracer = Tracer(out_dir)
    for module_name, attr, span in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        if (module_name, attr) == _WORKER_ENTRY:
            wrapped = tracer.wrap_worker_entry(span, fn)
        else:
            wrapped = tracer.wrap(span, fn)
        setattr(module, attr, wrapped)
    return tracer


def load_spans(out_dir) -> list[tuple]:
    """All spans written under out_dir, by any process."""
    spans: list[tuple] = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        spans.extend(tuple(s) for s in json.loads(path.read_text()))
    return spans


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of intervals."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple]) -> tuple[dict, int]:
    """Per span name: calls, inclusive ns and self ns; and the summed
    duration of the root spans (those without a parent).

    A span's self time is its duration minus the part of it that its child
    spans cover; children running in parallel workers are merged first.
    """
    children: dict = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        children[parent].append((start, end))
    out: dict = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
    root_ns = 0
    for sid, parent, name, start, end in spans:
        row = out[name]
        row["calls"] += 1
        row["incl_ns"] += end - start
        row["self_ns"] += end - start - _covered(start, end, children.get(sid, []))
        if parent is None:
            root_ns += end - start
    return dict(out), root_ns
