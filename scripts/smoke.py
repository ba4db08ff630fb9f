#!/usr/bin/env python3
"""Run the four steepsim subcommands once each and check their exit codes.

Usage: python scripts/smoke.py WORKDIR COMMAND...

COMMAND starts steepsim: `steepsim` for an installed console script, or
`python -m steepsim`. Config files and ensemble outputs go to WORKDIR. The
checks, in order:
- `sdof --n_A 4 --n_E 2 --m_A 100` exits 0;
- `sdof` with zero antennas exits 1 with a one-line error on stderr;
- `verify` (m = 20000, seed 1) and `single --json` on a 5-line n_A=4,
  n_E=6 config exit 0;
- a 1031-trial ensemble at n_A=16, n_E=8 exits 0 on 2 workers and on 1,
  and the two runs' samples.csv, outage.csv and histogram.csv are
  byte-identical. n_E < n_A takes beta's n_E-sized route, and 2 workers
  take the process pool with its pinned workers;
- the verify and the 2-worker ensemble, rerun with MALLOC_PERTURB_=165 in
  their environment, exit 0 with the same verify stdout and the same CSV
  bytes. glibc then fills memory that malloc hands out, and memory freed,
  with a fixed non-zero byte, so an array read before it is written gives
  other numbers. The CLI keeps freed block memory in the heap, where such a
  read would otherwise see an earlier block's values rather than the zeros
  of a fresh page.
The script stops at the first check that fails, names it and exits 1; it
exits 0 when every check holds.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

N4E6 = "n_A = 4\nn_E = 6\nP_A_dB = 20\nP_B_dB = 30\npower_convention = ConsumedPB\n"
N16E8 = "n_A = 16\nn_E = 8\nP_A_dB = 20\nP_B_dB = 30\n"
CSVS = ("samples.csv", "outage.csv", "histogram.csv")
PERTURB = {"MALLOC_PERTURB_": "165"}


class SmokeFailure(Exception):
    """A check did not hold."""


def _checks(command: list[str], work: Path) -> None:
    def run(*args: str, status: int = 0, env: dict | None = None) -> tuple[str, str]:
        """Run one call, echo it and its output; return (stdout, stderr)."""
        argv = [*command, *args]
        prefix = "".join(f"{k}={v} " for k, v in (env or {}).items())
        print(f"+ {prefix}{' '.join(argv)}", flush=True)
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env={**os.environ, **env} if env else None)
        print(proc.stdout, end="", flush=True)
        print(proc.stderr, end="", flush=True)
        if proc.returncode != status:
            raise SmokeFailure(f"{prefix}{' '.join(args)} exited {proc.returncode}, not {status}")
        return proc.stdout, proc.stderr

    run("sdof", "--n_A", "4", "--n_E", "2", "--m_A", "100")
    _, err = run("sdof", "--n_A", "0", "--n_B", "0", "--n_E", "2", "--m_A", "0", "--m_B", "0",
                 status=1)
    if err.count("\n") != 1:
        raise SmokeFailure(f"sdof with zero antennas wrote {err.count(chr(10))} stderr lines, not 1")
    n4e6 = work / "n4e6.cfg"
    n4e6.write_text(N4E6, encoding="ascii")
    verify = ("verify", "--config", str(n4e6), "--m", "20000", "--seed", "1")
    verify_out, _ = run(*verify)
    run("single", "--config", str(n4e6), "--json")
    n16e8 = work / "n16e8.cfg"
    n16e8.write_text(N16E8, encoding="ascii")

    def ensemble(workers: int, out: Path, env: dict | None = None) -> Path:
        run("ensemble", "--config", str(n16e8), "--trials", "1031", "--workers", str(workers),
            "--seed", "1", "--out", str(out), env=env)
        return out

    def compare(a: Path, b: Path, what: str) -> None:
        for name in CSVS:
            if (a / name).read_bytes() != (b / name).read_bytes():
                raise SmokeFailure(f"{name} differs between {what}")

    w2 = ensemble(2, work / "n16e8")
    compare(ensemble(1, work / "n16e8-w1"), w2, "the 1- and 2-worker ensembles")
    if run(*verify, env=PERTURB)[0] != verify_out:
        raise SmokeFailure("verify stdout differs under MALLOC_PERTURB_")
    compare(ensemble(2, work / "n16e8-perturbed", PERTURB), w2,
            "the 2-worker ensembles with and without MALLOC_PERTURB_")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path, help="directory for config files and outputs")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="how to start steepsim")
    args = parser.parse_args(argv)
    if not args.command:
        parser.error("COMMAND is required, e.g. steepsim or python -m steepsim")
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        _checks(args.command, args.workdir)
    except SmokeFailure as exc:
        print(f"smoke: FAIL: {exc}", file=sys.stderr)
        return 1
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
