#!/usr/bin/env python3
"""Dump the shipped desk-scale instances as JSON files for CLI use.

Every toy is written as ``"type": "stochastic"`` JSON; a chain has one
realization per stage.

    python scripts/export_toys.py --outdir instances/
"""

import argparse
import pathlib
import sys

from isddp.models import save_model
from isddp.toys import TOYS


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="instances")
    args = ap.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, factory in TOYS.items():
        path = outdir / f"{name}.json"
        save_model(factory(), path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
