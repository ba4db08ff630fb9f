"""Correctness gate for the benchmark's steepsim calls.

An ensemble call is checked against the scalar per-realization API, which is
the readable reference: a sample of trials is recomputed on child stream
(seed, t), flags must be identical and rates must agree within 1e-12
relative. The written CSVs are parsed back and checked for completeness and
self-consistency. Nothing compares bytes or hashes, so a last-digit change in
the floats of a faster engine is not a failure.

A verify call must exit 0 with every reported deviation inside its limit.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

REL_TOL = 1e-12
SAMPLES_HEADER = "trial,c_steep,c_conv,gain,natural_outage"
OUTAGE_HEADER = "Rs,O_steep,O_conv"
DEFAULT_RS_GRID = np.linspace(0.0, 1.0, 101)

# verify limits in standard errors, as README states them
VERIFY_LIMITS = {"sigma2_vA": 3.0, "sigma2_vE": 3.0, "residual covariance": 5.0}


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _read_csv(path: Path, header: str) -> np.ndarray:
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    ncols = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"{path.name}: a row does not have {ncols} fields")
    return np.array(rows, dtype=float).reshape(len(rows), ncols)


def check_ensemble(
    cfg, seed: int, trials: int, outdir, sample: list[int]
) -> tuple[int, list[str]]:
    """Check one `steepsim ensemble` output directory.

    Returns (checks attempted, failure messages). The checks are: one per
    sampled trial against the scalar API; that samples.csv has exactly one row
    per trial in order; that each natural_outage flag matches its clamped
    c_steep being 0; and that outage.csv is the empirical outage of the parsed
    samples on the default grid.
    """
    from steepsim.baseline import conventional
    from steepsim.channel import sample_realization
    from steepsim.steep import c_steep

    outdir = Path(outdir)
    try:
        samples = _read_csv(outdir / "samples.csv", SAMPLES_HEADER)
        outage = _read_csv(outdir / "outage.csv", OUTAGE_HEADER)
    except (OSError, ValueError) as exc:
        return 1, [f"seed {seed}: unreadable output: {exc}"]

    failures: list[str] = []
    attempted = 0

    attempted += 1
    if samples.shape[0] != trials or not np.array_equal(samples[:, 0], np.arange(trials)):
        failures.append(f"seed {seed}: samples.csv has {samples.shape[0]} rows, not trials 0..{trials - 1}")
        return attempted, failures
    cs, cc, gn, flag = samples[:, 1], samples[:, 2], samples[:, 3], samples[:, 4]

    for t in sample:
        attempted += 1
        ch = sample_realization(cfg, np.random.default_rng([seed, t]))
        sa = c_steep(cfg, ch)
        ba = conventional(cfg, ch, steep=sa)
        bad = []
        if bool(flag[t]) != sa.natural_outage:
            bad.append(f"natural_outage {int(flag[t])} != {int(sa.natural_outage)}")
        for name, got, want in (
            ("c_steep", cs[t], sa.c_steep_clamped),
            ("c_conv", cc[t], ba.c_conv),
            ("gain", gn[t], ba.gain),
        ):
            if not _rel_close(float(got), want):
                bad.append(f"{name} {float(got)!r} != {want!r}")
        if bad:
            failures.append(f"seed {seed} trial {t}: " + "; ".join(bad))

    attempted += 1
    mismatch = np.flatnonzero((flag != 0) != (cs == 0.0))
    if mismatch.size:
        failures.append(
            f"seed {seed}: natural_outage disagrees with c_steep == 0 at trials {mismatch[:5].tolist()}"
        )

    attempted += 1
    grid = outage[:, 0]
    want_s = np.count_nonzero(cs[:, None] <= grid[None, :], axis=0) / trials
    want_c = np.count_nonzero(cc[:, None] <= grid[None, :], axis=0) / trials
    if not (
        np.array_equal(grid, DEFAULT_RS_GRID)
        and np.array_equal(outage[:, 1], want_s)
        and np.array_equal(outage[:, 2], want_c)
    ):
        failures.append(f"seed {seed}: outage.csv is not the empirical outage of samples.csv")
    return attempted, failures


def check_verify(seed: int, rc: int, stdout: str) -> list[str]:
    """Check one `steepsim verify` call; it is one check."""
    failures = []
    if rc != 0:
        failures.append(f"exit code {rc}")
    seen = set()
    for line in stdout.splitlines():
        name, _, rest = line.partition(":")
        if name not in VERIFY_LIMITS or "deviation = " not in rest:
            continue
        seen.add(name)
        dev = float(rest.split("deviation = ", 1)[1].split()[0])
        if not dev <= VERIFY_LIMITS[name]:
            failures.append(f"{name} deviation {dev} se > {VERIFY_LIMITS[name]:g}")
    missing = sorted(set(VERIFY_LIMITS) - seen)
    if missing:
        failures.append(f"no deviation reported for {', '.join(missing)}")
    return [f"verify seed {seed}: {msg}" for msg in failures]
