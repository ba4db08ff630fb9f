"""Command-line front end.

Subcommands: ensemble (Monte Carlo run with CSV/JSON outputs), single (one
realization, printed), verify (signal-level check of the closed forms), and
sdof (exact degree-of-freedom formula). The first three read a config file,
--set overrides and a seed: --seed, else the config's seed, else 1. Powers
given in dB are converted as linear = 10^(dB/10).

Exit codes are stable for scripting, and main alone maps errors to them:
0 success; 1 validation error (a ValueError, or an OSError reading the
config); 2 runtime or tolerance failure (InfeasiblePowerError,
DegenerateChannelError, or an OSError: an output that cannot be written or
the ChildProcessError of a dead ensemble worker), where single and verify
name the seed of the failing realization.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields
from enum import Enum
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from .baseline import conventional
from .channel import InfeasiblePowerError, SystemConfig, sample_realization
from .linops import DegenerateChannelError
from .mc import BLOCK_TRIALS, outage_at, run_ensemble, write_outputs
from .sigsim import variance_report
from .steep import c_steep, sdof

__all__ = ["main"]

# variance tolerances in standard errors, matching the test suite
_SCALAR_SE_TOL = 3.0
_MATRIX_SE_TOL = 5.0
# most Rs_grid points: run_ensemble keeps two outage curves of that length
# and outage.csv gets a row of up to ~70 bytes per point, so 10^6 points
# already write ~70 MB; an unbounded count tried to allocate 74.5 GiB
MAX_RS_POINTS = 10**6
# most symbols for verify: the signal-level run keeps one phase's normals and
# three complex vectors per symbol, 16*(n_A + n_E + 4) bytes (224 B at n_A=4,
# n_E=6; 1.1 kB at n_A = n_E = MAX_ANTENNAS), so 10^7 symbols take ~2.2 GB
# there and ~11 GB at the antenna bound
MAX_VERIFY_M = 10**7


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with the validation status."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def load_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value config file; '#' starts a comment."""
    kv: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            kv[key.strip()] = val.strip()
    return kv


def _parse_rs_grid(text: str) -> np.ndarray:
    try:
        start, stop, points = text.split(",")
        start, stop, points = float(start), float(stop), int(points)
        ok = 1 <= points <= MAX_RS_POINTS
        ok = ok and math.isfinite(start) and math.isfinite(stop) and start <= stop
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(
            f"bad Rs_grid {text!r}: wants start,stop,points with finite start <= stop "
            f"and 1 <= points <= {MAX_RS_POINTS}"
        )
    return np.linspace(start, stop, points)


def _typed(key: str, kind: type) -> Callable[[str], object]:
    """Parser of one config value of type kind; its error names the key."""
    if issubclass(kind, Enum):
        wants = "one of: " + ", ".join(m.value for m in kind)
    else:
        wants = {int: "an integer", float: "a number"}[kind]

    def parse(raw: str):
        try:
            return kind(raw)
        except ValueError:
            raise ValueError(f"config key {key} wants {wants}, got {raw!r}") from None

    return parse


# config key -> parser: every SystemConfig field, then the run settings
_HINTS = get_type_hints(SystemConfig)
_SCHEMA = {f.name: _typed(f.name, _HINTS[f.name]) for f in fields(SystemConfig)} | {
    "trials": _typed("trials", int),
    "seed": _typed("seed", int),
    "Rs_grid": _parse_rs_grid,
}
_REQUIRED = [f.name for f in fields(SystemConfig) if f.default is MISSING]


def parse_settings(kv: dict[str, str]):
    """Turn raw key=value strings into (SystemConfig, trials, seed, rs_grid).

    trials, seed and rs_grid are None when not present so the caller can
    apply command-line overrides and defaults.
    """
    unknown = kv.keys() - _SCHEMA.keys()
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = [k for k in _REQUIRED if k not in kv]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    values = {key: _SCHEMA[key](raw) for key, raw in kv.items()}
    trials = values.pop("trials", None)
    seed = values.pop("seed", None)
    rs_grid = values.pop("Rs_grid", None)
    return SystemConfig(**values), trials, seed, rs_grid


def _settings_from_args(args) -> None:
    """Set args.cfg, args.rs_grid, args.seed and args.trials from the config file,
    --set and the flags; a flag beats the config, which beats the default."""
    kv = load_config_file(args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set wants key=value, got {item!r}")
        key, val = item.split("=", 1)
        kv[key.strip()] = val.strip()
    args.cfg, trials, seed, args.rs_grid = parse_settings(kv)
    if args.seed is None:
        args.seed = 1 if seed is None else seed
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    if getattr(args, "trials", None) is None:
        args.trials = 100_000 if trials is None else trials


def cmd_ensemble(args) -> int:
    result = run_ensemble(
        args.cfg, args.trials, args.seed, rs_grid=args.rs_grid, workers=args.workers
    )
    manifest = write_outputs(result, args.out)
    o_s, o_c = outage_at(result, 0.0)
    print(f"trials = {result.trials}")
    print(f"O_steep(0) = {o_s:.6g}")
    print(f"O_conv(0) = {o_c:.6g}")
    for name, path in manifest["outputs"].items():
        print(f"{name}: {path}")
    print(f"manifest: {Path(args.out) / 'manifest.json'}")
    return 0


def cmd_single(args) -> int:
    ch = sample_realization(args.cfg, np.random.default_rng(args.seed))
    sa = c_steep(args.cfg, ch)
    ba = conventional(args.cfg, ch, steep=sa)
    report = {
        "beta": sa.beta,
        "sigma2_vA": sa.sigma2_vA,
        "sigma2_vE": sa.sigma2_vE,
        "c_steep": sa.c_steep,
        "natural_outage": sa.natural_outage,
        "c1": ba.c1,
        "c2": ba.c2,
        "c_conv": ba.c_conv,
        "gain": ba.gain,
    }
    if args.json:
        print(json.dumps(report))
    else:
        for key, val in report.items():
            if isinstance(val, bool):
                print(f"{key} = {str(val).lower()}")
            else:
                print(f"{key} = {val:.17g}")
    return 0


def cmd_verify(args) -> int:
    if not 1000 <= args.m <= MAX_VERIFY_M:
        raise ValueError(f"m must be in [1000, {MAX_VERIFY_M}], got {args.m}")
    rng = np.random.default_rng(args.seed)
    ch = sample_realization(args.cfg, rng)
    rep = variance_report(args.cfg, ch, args.m, rng)
    floor = rep["rounding_floor"]
    print(f"m = {rep['m']}, P_B_prime = {rep['p_b_prime']:.6g}")
    failures = []

    def check(name, head, dev, limit):
        verdict = "PASS" if dev <= limit else "FAIL"
        if verdict == "FAIL":
            failures.append(name)
        print(f"{name}: {head} = {dev:.2f} se (limit {limit:g}) {verdict}")

    for name in ("sigma2_vA", "sigma2_vE"):
        head = f"analytic = {rep[name]:.8g}, empirical = {rep[f'{name}_emp']:.8g}"
        if rep[name] < floor:
            # the oracle's rounding, not its noise, sets the empirical value
            print(f"{name}: {head}, rounding floor = {floor:.3g} UNRESOLVED")
        else:
            dev = abs(rep[f"{name}_emp"] - rep[name]) / rep[f"{name}_se"]
            check(name, f"{head}, deviation", dev, _SCALAR_SE_TOL)
    check("residual covariance", "max entry deviation", rep["cov_max_dev_se"], _MATRIX_SE_TOL)
    if failures:
        return _fail(f"tolerance failure in: {', '.join(failures)}", 2)
    return 0


def cmd_sdof(args) -> int:
    value = sdof(args.n_A, args.n_B, args.n_E, args.m_A, args.m_B, args.delta)
    print(f"{value} = {float(value):.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="steepsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the settings of every subcommand that draws realizations
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", required=True, help="flat key=value config file")
    run.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    run.add_argument("--seed", type=int, help="default: the config's seed, else 1")

    p = sub.add_parser("ensemble", parents=[run], help="run a Monte Carlo ensemble")
    p.add_argument("--trials", type=int, help="default: the config's trials, else 100000")
    p.add_argument(
        "--workers", type=int, default=1,
        help="processes that run blocks, the caller included (default 1); capped at the "
        f"CPUs of the affinity mask and at the {BLOCK_TRIALS}-trial blocks",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("single", parents=[run], help="analyze one realization")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_single)

    p = sub.add_parser(
        "verify", parents=[run], help="check closed-form variances against a signal-level run"
    )
    p.add_argument("--m", type=int, default=100_000, help="symbols per realization")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sdof", help="exact probing degree-of-freedom formula")
    p.add_argument("--n_A", type=int, required=True)
    p.add_argument("--n_B", type=int, default=1)
    p.add_argument("--n_E", type=int, required=True)
    p.add_argument("--m_A", type=int, required=True)
    p.add_argument("--m_B", type=int, default=1)
    p.add_argument("--delta", type=int, default=0, choices=(0, 1))
    p.set_defaults(func=cmd_sdof)

    return parser


def _fail(message, status: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "config" in args:
            _settings_from_args(args)
    except (OSError, ValueError) as exc:
        return _fail(exc, 1)
    try:
        return args.func(args)
    except ValueError as exc:
        # bad input: run_ensemble checks its arguments before the first trial
        return _fail(exc, 1)
    except (InfeasiblePowerError, DegenerateChannelError, OSError) as exc:
        where = f"seed {args.seed}: " if args.command in ("single", "verify") else ""
        return _fail(f"{where}{exc}", 2)


if __name__ == "__main__":
    sys.exit(main())
