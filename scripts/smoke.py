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
- `ensemble --out ''`, run in WORKDIR as an unset shell variable would
  give it, exits 1 with a one-line error on stderr and writes nothing there;
- a 1031-trial ensemble at n_A=16, n_E=8 exits 0 on 2 workers, on 1 and
  on 3, and the three runs' samples.csv, outage.csv and histogram.csv are
  byte-identical. n_E < n_A takes beta's n_E-sized route. 1031 trials are
  three blocks: on 2 workers the caller runs one beside one helper
  process, which runs two, and on 3 workers the caller and two helpers run
  one each, where the affinity mask has 3 CPUs or more (helpers are capped
  at its CPUs less one, so on 2 CPUs the 3-worker run is the 2-worker one);
- the same ensemble on 2 workers through the library,
  write_outputs(run_ensemble(...)) in the Python that runs this script,
  writes the same three CSVs. The CLI streams samples.csv's rows to disk as
  the blocks finish; the library call passes no row sink, so write_outputs
  formats the rows from the result's columns;
- the verify, the 2-worker ensemble and the library run, rerun with
  MALLOC_PERTURB_=165 in their environment, exit 0 with the same verify
  stdout and the same CSV bytes. glibc then fills memory that malloc hands
  out, and memory freed, with a fixed non-zero byte, so an array read
  before it is written gives other numbers. Every caller keeps freed block
  memory in the heap, where such a read would otherwise see an earlier
  block's values rather than the zeros of a fresh page.
The script stops at the first check that fails, names it and exits 1; it
exits 0 when every check holds.
"""
import argparse
import os
import shlex
import subprocess
import sys
from pathlib import Path

N4E6 = "n_A = 4\nn_E = 6\nP_A_dB = 20\nP_B_dB = 30\npower_convention = ConsumedPB\n"
N16E8 = "n_A = 16\nn_E = 8\nP_A_dB = 20\nP_B_dB = 30\n"
CSVS = ("samples.csv", "outage.csv", "histogram.csv")
PERTURB = {"MALLOC_PERTURB_": "165"}
# the CLI's n16e8 ensemble, through the library with no row sink
LIBRARY_RUN = (
    "import sys; from steepsim import SystemConfig, run_ensemble, write_outputs; "
    "write_outputs(run_ensemble(SystemConfig(n_A=16, n_E=8, P_A_dB=20.0, P_B_dB=30.0), "
    "1031, 1, workers=2), sys.argv[1])"
)


class SmokeFailure(Exception):
    """A check did not hold."""


def _checks(command: list[str], work: Path) -> None:
    def call(argv: list[str], status: int = 0, env: dict | None = None,
             cwd: Path | None = None) -> tuple[str, str]:
        """Run one process, echo it and its output; return (stdout, stderr)."""
        prefix = "".join(f"{k}={v} " for k, v in (env or {}).items())
        print(f"+ {prefix}{shlex.join(argv)}", flush=True)
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd,
                              env={**os.environ, **env} if env else None)
        print(proc.stdout, end="", flush=True)
        print(proc.stderr, end="", flush=True)
        if proc.returncode != status:
            raise SmokeFailure(f"{prefix}{shlex.join(argv)} exited {proc.returncode}, not {status}")
        return proc.stdout, proc.stderr

    def run(*args: str, status: int = 0, env: dict | None = None,
            cwd: Path | None = None) -> tuple[str, str]:
        """One steepsim call."""
        return call([*command, *args], status, env, cwd)

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
    before = sorted(work.rglob("*"))
    _, err = run("ensemble", "--config", n16e8.name, "--trials", "1031", "--out", "", status=1,
                 cwd=work)
    if err.count("\n") != 1:
        raise SmokeFailure(f"ensemble --out '' wrote {err.count(chr(10))} stderr lines, not 1")
    if sorted(work.rglob("*")) != before:
        raise SmokeFailure("ensemble --out '' wrote into its working directory")

    def ensemble(workers: int, out: Path, env: dict | None = None) -> Path:
        run("ensemble", "--config", str(n16e8), "--trials", "1031", "--workers", str(workers),
            "--seed", "1", "--out", str(out), env=env)
        return out

    def library(out: Path, env: dict | None = None) -> Path:
        call([sys.executable, "-c", LIBRARY_RUN, str(out)], env=env)
        return out

    def compare(a: Path, b: Path, what: str) -> None:
        for name in CSVS:
            if (a / name).read_bytes() != (b / name).read_bytes():
                raise SmokeFailure(f"{name} differs between {what}")

    w2 = ensemble(2, work / "n16e8")
    compare(ensemble(1, work / "n16e8-w1"), w2, "the 1- and 2-worker ensembles")
    compare(ensemble(3, work / "n16e8-w3"), w2, "the 3- and 2-worker ensembles")
    compare(library(work / "n16e8-library"), w2, "the library run and the CLI's")
    if run(*verify, env=PERTURB)[0] != verify_out:
        raise SmokeFailure("verify stdout differs under MALLOC_PERTURB_")
    compare(ensemble(2, work / "n16e8-perturbed", PERTURB), w2,
            "the 2-worker ensembles with and without MALLOC_PERTURB_")
    compare(library(work / "n16e8-library-perturbed", PERTURB), w2,
            "the library run under MALLOC_PERTURB_ and the CLI's")


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
