"""The benchmark's workloads: how each makes its input and runs the program.

Every workload goes through the program's command-line entry point
(``isddp.cli.main``) in-process: ``gen`` makes the instance, ``solve`` (and
``oracle`` on the chain) are the measured operations.  The settings are fixed, so a
round does the same work every time.  ``--seed`` varies only how the
instance file is written (key order and indentation, see ``serialize``):
the loader parses different text into the same model, bit for bit, so the
work cannot depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, "work")   # scratch files of running benchmarks


class CheckoutError(RuntimeError):
    """The program's sources are not next to the benchmark."""


def use_checkout_sources() -> None:
    """Import ``isddp`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "isddp", "__init__.py")):
        raise CheckoutError(f"no isddp sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import isddp

    if os.path.dirname(os.path.dirname(os.path.abspath(isddp.__file__))) != SRC:
        raise CheckoutError(f"isddp was imported from {isddp.__file__}, not {SRC}")


def serialize(d: dict, seed: int) -> str:
    """JSON text of ``d`` with seeded key order and indentation.

    Lists keep their order and floats are written with ``repr``, so parsing
    the text gives back exactly ``d`` whatever the seed.
    """
    rng = random.Random(seed)

    def shuffled(v):
        if isinstance(v, dict):
            keys = list(v)
            rng.shuffle(keys)
            return {k: shuffled(v[k]) for k in keys}
        if isinstance(v, list):
            return [shuffled(x) for x in v]
        return v

    return json.dumps(shuffled(d), indent=rng.choice([None, 0, 1, 2]))


@dataclass(frozen=True)
class Workload:
    """One instance and the fixed CLI calls of a round on it."""

    name: str
    T: int
    n: int
    M: int
    solve_flags: tuple                # flags of ``isddp solve``
    # lift the M=1 instance to a deterministic chain; each round then also
    # runs ``isddp oracle`` on it
    chain: bool = False
    gen_seed: int = 0

    def gen_argv(self, out: str) -> list[str]:
        return ["gen", "--T", str(self.T), "--n", str(self.n), "--M", str(self.M),
                "--seed", str(self.gen_seed), "--out", out]

    def round_argvs(self, instance: str, out_csv: str) -> list[list[str]]:
        """The CLI calls of one round: a solve, then the oracle on a chain."""
        argvs = [["solve", "--instance", instance, *self.solve_flags, "--out", out_csv]]
        if self.chain:
            argvs.append(["oracle", "--instance", instance])
        return argvs

    def transform(self, generated: str, final: str, seed: int) -> None:
        """Write the generated instance in its seeded form (a chain if asked)."""
        with open(generated) as fh:
            d = json.load(fh)
        if self.chain:
            stages = [d["stage1"]]
            for st in d["stages"]:
                (real,) = st["realizations"]
                real.pop("prob")
                stages.append(real)
            d = {"type": "deterministic", "x0": d["x0"], "floors": d["floors"],
                 "stages": stages}
        with open(final, "w") as fh:
            fh.write(serialize(d, seed))

    def make_instance(self, workdir: str, seed: int) -> str:
        """Generate the instance through the CLI, untimed; returns its path."""
        from isddp.cli import main

        generated = os.path.join(workdir, "generated.json")
        final = os.path.join(workdir, "instance.json")
        quiet_cli(main, self.gen_argv(generated))
        self.transform(generated, final, seed)
        return final


def quiet_cli(main, argv: list[str]) -> str:
    """Run the CLI in-process; returns its standard output, raises on exit != 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"isddp {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def read_csv(path: str) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {
    wl.name: wl
    for wl in [
        Workload(
            name="portfolio-isddp1",
            T=6, n=4, M=5,
            # --gap-tol 1e-9 is never met here, so every round runs 14 iterations
            solve_flags=("--preset", "isddp1", "--paths", "5", "--max-iter", "14",
                         "--gap-tol", "1e-9", "--seed", "9"),
        ),
        Workload(
            # gen seeds 0 and 1 make a T=48, n=10 chain that the DDP aborts on
            # with a kernel fault (see CHANGES.md); seed 2024 solves
            name="chain-ddp-oracle",
            T=40, n=6, M=1,
            solve_flags=("--algo", "ddp", "--tol", "1e-6", "--max-iter", "100"),
            chain=True,
            gen_seed=2024,
        ),
    ]
}


# The target of time_to_target_s and iters_to_target: Lb within this share
# of |v*| (at least 1) below v*.
TARGET_REL = 5e-3


def target_iteration(lbs: list[float], v_star: float) -> Optional[int]:
    """First 1-based iteration whose Lb is within TARGET_REL of v*."""
    tol = TARGET_REL * max(1.0, abs(v_star))
    for k, lb in enumerate(lbs, start=1):
        if lb >= v_star - tol:
            return k
    return None
