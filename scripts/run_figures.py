#!/usr/bin/env python3
"""Run the bundled experiment grid and dump CSVs for plotting.

Four sweeps, one subdirectory each under --out:

  fig_outage_vs_pb/   n_A=4, n_E in {2,6}, P_B in {20,30} dB
  fig_distributions/  n_A=4, n_E in {2,4,6,8}, P_B=30 dB (capacity and gain
                      histograms plus outage curves)
  fig_siso_gap/       n_A=1, n_E in {1,2}, P_B in {30,40} dB
  summary.csv         one row per run: config, O_steep(0), O_conv(0),
                      Prob(gain>0), mean capacities

Every run writes the standard samples/outage/histogram/manifest set, so any
subdirectory can be replotted or diffed independently.
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np

from steepsim import SystemConfig, gain_distribution, outage_at, run_ensemble, write_outputs


def run_one(tag, cfg, trials, seed, workers, outdir, rows):
    t0 = time.perf_counter()
    result = run_ensemble(cfg, trials, seed, workers=workers)
    write_outputs(result, outdir / tag)
    o_s, o_c = outage_at(result, 0.0)
    dist = gain_distribution(result)
    rows.append({
        "run": tag,
        "n_A": cfg.n_A,
        "n_E": cfg.n_E,
        "P_A_dB": cfg.P_A_dB,
        "P_B_dB": cfg.P_B_dB,
        "O_steep_0": o_s,
        "O_conv_0": o_c,
        "prob_gain_positive": dist["prob_positive"],
        "mean_c_steep": float(np.mean(result.c_steep)),
        "mean_c_conv": float(np.mean(result.c_conv)),
    })
    print(f"{tag}: O_steep(0)={o_s:.5f} O_conv(0)={o_c:.5f} "
          f"[{time.perf_counter() - t0:.1f}s]")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", type=Path, default=Path("figures_data"))
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    rows = []

    base = dict(n_A=4, n_E=2, P_A_dB=20.0, P_B_dB=30.0)
    for n_e in (2, 6):
        for p_b in (20.0, 30.0):
            cfg = SystemConfig(**{**base, "n_E": n_e, "P_B_dB": p_b})
            run_one(f"fig_outage_vs_pb/ne{n_e}_pb{p_b:g}", cfg,
                    args.trials, args.seed, args.workers, args.out, rows)

    for n_e in (2, 4, 6, 8):
        cfg = SystemConfig(**{**base, "n_E": n_e})
        run_one(f"fig_distributions/ne{n_e}", cfg,
                args.trials, args.seed, args.workers, args.out, rows)

    for n_e in (1, 2):
        for p_b in (30.0, 40.0):
            cfg = SystemConfig(**{**base, "n_A": 1, "n_E": n_e, "P_B_dB": p_b})
            run_one(f"fig_siso_gap/ne{n_e}_pb{p_b:g}", cfg,
                    args.trials, args.seed, args.workers, args.out, rows)

    summary = args.out / "summary.csv"
    with open(summary, "w", encoding="ascii", newline="") as f:
        cols = list(rows[0])
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(str(row[c]) for c in cols) + "\n")
    print(f"summary: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
