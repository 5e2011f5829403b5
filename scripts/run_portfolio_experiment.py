#!/usr/bin/env python3
"""Reproduce the portfolio benchmark comparison.

Generates the benchmark instance, solves it once with each of the exact
baseline and the four inexact variants (200 sampled paths per iteration, 5%
gap rule) through ``isddp compare``, which writes the per-run CSV logs and
summaries next to the CPU-ratio comparison table.

    python scripts/run_portfolio_experiment.py --outdir results/ [--T 6 --n 4]
"""

import argparse
import json
import pathlib
import sys

from isddp.cli import PRESET_ORDER, main as cli_main


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--T", type=int, default=6)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--M", type=int, default=10)
    ap.add_argument("--gen-seed", type=int, default=2024)
    ap.add_argument("--run-seed", type=int, default=9)
    ap.add_argument("--paths", type=int, default=200)
    ap.add_argument("--gap-tol", type=float, default=0.05)
    ap.add_argument("--max-iter", type=int, default=50)
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    instance = str(outdir / f"portfolio_T{args.T}_n{args.n}.json")

    rc = cli_main([
        "gen", "--T", str(args.T), "--n", str(args.n), "--M", str(args.M),
        "--seed", str(args.gen_seed), "--out", instance,
    ])
    if rc:
        return rc

    run_flags = [
        "--paths", str(args.paths), "--gap-tol", str(args.gap_tol),
        "--max-iter", str(args.max_iter), "--seed", str(args.run_seed),
    ]
    rc = cli_main([
        "compare", "--instance", instance, "--presets", ",".join(PRESET_ORDER),
        *run_flags, "--out", str(outdir / "compare.csv"),
    ])
    if rc:
        return rc

    print("\nfinal bounds (per preset):")
    for preset in PRESET_ORDER:
        with open(outdir / f"{preset}.summary.json") as fh:
            s = json.load(fh)
        print(
            f"  {preset:>8}: it={s['iterations']:>2}  lb={s['lb']:.4f}  "
            f"ub={s['ub']:.4f}  gap={s['gap']:.4f}  cpu_ms={s['total_wall_ms']:.0f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(run())
