"""Command-line front end.

Subcommands: ensemble (Monte Carlo run with CSV/JSON outputs), single (one
realization, printed), verify (signal-level check of the closed forms), and
sdof (exact degree-of-freedom formula). Exit codes are stable for scripting:
0 success, 1 validation error, 2 runtime or tolerance failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .baseline import conventional
from .channel import (
    InfeasiblePowerError,
    PowerConvention,
    SystemConfig,
    sample_realization,
)
from .linops import DegenerateChannelError
from .mc import DEFAULT_RS_GRID, RunManifest, outage_at, run_ensemble, write_outputs
from .sigsim import variance_report
from .steep import c_steep, sdof

__all__ = ["main", "RunManifest"]

_EPILOG = "Powers given in dB are converted as linear = 10^(dB/10)."

_INT_KEYS = ("n_A", "n_B", "n_E", "trials", "seed")
_FLOAT_KEYS = ("P_A_dB", "P_B_dB", "sigma2_B", "sigma2_A", "sigma2_EA", "sigma2_EB", "gamma")
_CONFIG_KEYS = set(_INT_KEYS) | set(_FLOAT_KEYS) | {"power_convention", "Rs_grid"}
_REQUIRED_KEYS = ("n_A", "n_E", "P_A_dB", "P_B_dB")

# variance tolerances in standard errors, matching the test suite
_SCALAR_SE_TOL = 3.0
_MATRIX_SE_TOL = 5.0


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
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"Rs_grid must be start,stop,points, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    points = int(parts[2])
    if points < 1 or stop < start:
        raise ValueError(f"bad Rs_grid {text!r}")
    return np.linspace(start, stop, points)


def parse_settings(kv: dict[str, str]):
    """Turn raw key=value strings into (SystemConfig, trials, seed, rs_grid).

    trials, seed and rs_grid are None when not present so the caller can
    apply command-line overrides and defaults.
    """
    unknown = set(kv) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = [k for k in _REQUIRED_KEYS if k not in kv]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")

    fields: dict = {}
    for key, raw in kv.items():
        if key in _INT_KEYS:
            try:
                fields[key] = int(raw)
            except ValueError:
                raise ValueError(f"config key {key} wants an integer, got {raw!r}") from None
        elif key in _FLOAT_KEYS:
            try:
                fields[key] = float(raw)
            except ValueError:
                raise ValueError(f"config key {key} wants a number, got {raw!r}") from None
        elif key == "power_convention":
            try:
                fields[key] = PowerConvention(raw)
            except ValueError:
                valid = ", ".join(p.value for p in PowerConvention)
                raise ValueError(f"power_convention must be one of: {valid}") from None
        elif key == "Rs_grid":
            fields[key] = _parse_rs_grid(raw)

    trials = fields.pop("trials", None)
    seed = fields.pop("seed", None)
    rs_grid = fields.pop("Rs_grid", None)
    cfg = SystemConfig(**fields)
    return cfg, trials, seed, rs_grid


def _settings_from_args(args):
    kv = load_config_file(args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set wants key=value, got {item!r}")
        key, val = item.split("=", 1)
        kv[key.strip()] = val.strip()
    return parse_settings(kv)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def cmd_ensemble(args) -> int:
    try:
        cfg, trials, seed, rs_grid = _settings_from_args(args)
        if args.trials is not None:
            trials = args.trials
        if args.seed is not None:
            seed = args.seed
        trials = 100_000 if trials is None else trials
        seed = 1 if seed is None else seed
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        _check_seed(seed)
        if args.workers < 1:
            raise ValueError(f"workers must be >= 1, got {args.workers}")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        result = run_ensemble(cfg, trials, seed, rs_grid=rs_grid, workers=args.workers)
        manifest = write_outputs(result, args.out)
    except (InfeasiblePowerError, DegenerateChannelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    o_s, o_c = outage_at(result, 0.0)
    print(f"trials = {result.trials} (infeasible = {result.infeasible})")
    print(f"O_steep(0) = {o_s:.6g}")
    print(f"O_conv(0) = {o_c:.6g}")
    for name, path in manifest.outputs.items():
        print(f"{name}: {path}")
    print(f"manifest: {Path(args.out) / 'manifest.json'}")
    return 0


def cmd_single(args) -> int:
    try:
        cfg, _, _, _ = _settings_from_args(args)
        _check_seed(args.seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    try:
        ch = sample_realization(cfg, rng)
        sa = c_steep(cfg, ch)
        ba = conventional(cfg, ch, steep=sa)
    except (InfeasiblePowerError, DegenerateChannelError) as exc:
        print(f"error: seed {args.seed}: {exc}", file=sys.stderr)
        return 2
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
    try:
        cfg, _, _, _ = _settings_from_args(args)
        _check_seed(args.seed)
        if args.m < 1000:
            raise ValueError(f"m must be >= 1000, got {args.m}")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    try:
        ch = sample_realization(cfg, rng)
        rep = variance_report(cfg, ch, args.m, rng)
    except (InfeasiblePowerError, DegenerateChannelError) as exc:
        print(f"error: seed {args.seed}: {exc}", file=sys.stderr)
        return 2
    failures = []
    print(f"m = {rep['m']}, P_B_prime = {rep['p_b_prime']:.6g}")
    for name in ("sigma2_vA", "sigma2_vE"):
        dev = abs(rep[f"{name}_emp"] - rep[name]) / rep[f"{name}_se"]
        ok = dev <= _SCALAR_SE_TOL
        if not ok:
            failures.append(name)
        print(
            f"{name}: analytic = {rep[name]:.8g}, empirical = {rep[f'{name}_emp']:.8g}, "
            f"deviation = {dev:.2f} se (limit {_SCALAR_SE_TOL:g}) "
            f"{'PASS' if ok else 'FAIL'}"
        )
    dev = rep["cov_max_dev_se"]
    ok = dev <= _MATRIX_SE_TOL
    if not ok:
        failures.append("residual covariance")
    print(
        f"residual covariance: max entry deviation = {dev:.2f} se "
        f"(limit {_MATRIX_SE_TOL:g}) {'PASS' if ok else 'FAIL'}"
    )
    if failures:
        print(f"error: tolerance failure in: {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


def cmd_sdof(args) -> int:
    try:
        value = sdof(args.n_A, args.n_B, args.n_E, args.m_A, args.m_B, args.delta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{value} = {float(value):.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="steepsim", description=__doc__, epilog=_EPILOG)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ensemble", help="run a Monte Carlo ensemble", epilog=_EPILOG)
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("single", help="analyze one realization", epilog=_EPILOG)
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_single)

    p = sub.add_parser(
        "verify", help="check closed-form variances against a signal-level run", epilog=_EPILOG
    )
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int, default=1)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
