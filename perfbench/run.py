"""Benchmark of the isddp solver, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, untraced and traced

A run warms up, sets the instance up SETUP_REPS times, then repeats the
workload's CLI calls (``isddp solve``, and ``isddp oracle`` on the chain,
through ``isddp.cli.main``) in whole rounds for about ``--seconds``, with
SETUP_BETWEEN more set-ups and a calibration after each round.  Every round
is checked against an optimum that HiGHS computes apart from the program,
and against the first round: the work is fixed, so the outputs must repeat.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics (see ``run_untraced``); with ``--trace 1`` untraced
and traced rounds alternate, and it holds the per-layer metrics and the
tracing overhead.  Lines before it are for people.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP; set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

SETUP_REPS = 5          # set-ups before the first round ...
SETUP_BETWEEN = 3       # ... and after every round
CAL_REPS = 800          # passes of the calibration loop (~0.15 s)
CAL_NOMINAL = 0.15      # s: the calibration's time at the nominal machine speed
MIN_ROUNDS = 2
# Lb may exceed v* by this share of max(1, |v*|) (HiGHS and kernel tolerances).
LB_SLACK = 1e-7
# Rounding allowed when checking that Lb never decreases.
MONOTONE_SLACK = 1e-12


def declared_metrics(traced: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json at the checkout root declares them."""
    with open(os.path.join(W.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


@dataclass
class Round:
    seconds: float
    ops: int = 1                      # CLI calls: the solve, and the oracle
    errors: list = field(default_factory=list)   # (op index, message)
    signature: object = None          # output minus wall-clock columns
    iter_s: Optional[list] = None     # per-iteration wall time from the CSV
    target_k: Optional[int] = None
    counts: Optional[dict] = None
    times: Optional[dict] = None

    def fail(self, op: int, message: str) -> None:
        self.errors.append((op, message))

    @property
    def failed_ops(self) -> int:
        return len({op for op, _ in self.errors})


class Bench:
    def __init__(self, wl: W.Workload, seed: int, workdir: str):
        import isddp.cli
        import isddp.models

        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.cli, self.models = isddp.cli, isddp.models
        self.instance: Optional[str] = None
        self.v_star: Optional[float] = None
        self.tracer = None                # a tracing.Tracer while tracing

    # -- set-up ------------------------------------------------------------

    def setup_once(self, i: int) -> tuple[float, list]:
        """Generate, write and load the instance; returns (seconds, errors).

        The seeded rewrite of the generated file (and the chain lift) is the
        benchmark's own work and is not timed.
        """
        generated = os.path.join(self.workdir, f"generated{i}.json")
        final = os.path.join(self.workdir, f"instance{i}.json")
        t0 = time.perf_counter()
        W.quiet_cli(self.cli.main, self.wl.gen_argv(generated))
        t1 = time.perf_counter()
        self.wl.transform(generated, final, self.seed)
        t2 = time.perf_counter()
        self.models.load_model(final)
        t3 = time.perf_counter()
        errors = []
        if self.instance is None:
            self.instance = final
        elif not _same_bytes(final, self.instance):
            errors.append(f"set-up {i} produced a different instance")
        return (t1 - t0) + (t3 - t2), errors

    # -- rounds ------------------------------------------------------------

    def run_round(self, i: int) -> Round:
        """One solve (and the oracle on a chain), then the checks."""
        out_csv = os.path.join(self.workdir, f"round{i}.csv")
        argvs = self.wl.round_argvs(self.instance, out_csv)
        if self.tracer is not None:
            self.tracer.reset()
        rnd = Round(0.0, ops=len(argvs))
        stdouts = []
        t0 = time.perf_counter()
        for op, argv in enumerate(argvs):
            try:
                stdouts.append(W.quiet_cli(self.cli.main, argv))
            except Exception as exc:  # a program fault fails this operation only
                stdouts.append(None)
                rnd.fail(op, f"{type(exc).__name__}: {exc}")
        rnd.seconds = time.perf_counter() - t0
        if self.tracer is not None:
            import tracing

            rnd.times, rnd.counts = tracing.round_metrics(self.tracer)
            for msg in self.tracer.failures:
                rnd.fail(0, msg)
        if stdouts[0] is not None:
            self.check_solve(rnd, out_csv)
        if self.wl.chain and stdouts[1] is not None:
            self.check_oracle(rnd, stdouts[1])
        return rnd

    def check_oracle(self, rnd: Round, stdout: str) -> None:
        v = float(json.loads(stdout.strip().splitlines()[-1])["v_star"])
        rnd.signature = (rnd.signature, v)
        if not abs(v - self.v_star) <= LB_SLACK * max(1.0, abs(self.v_star)):
            rnd.fail(1, f"oracle v* {v!r} differs from HiGHS {self.v_star!r}")

    def check_solve(self, rnd: Round, out_csv: str) -> None:
        rows = W.read_csv(out_csv)
        with open(os.path.splitext(out_csv)[0] + ".summary.json") as fh:
            summary = json.load(fh)
        rnd.signature = [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
        v = self.v_star
        slack = LB_SLACK * max(1.0, abs(v))
        lbs = [float(r["lb"]) for r in rows]
        ubs = [float(r["ub"]) for r in rows]
        for k, lb in enumerate(lbs, start=1):
            if not lb <= v + slack:
                rnd.fail(0, f"iteration {k}: Lb {lb!r} exceeds v* {v!r}")
            if k > 1 and not lb >= lbs[k - 2] - MONOTONE_SLACK * max(1.0, abs(lb)):
                rnd.fail(0, f"iteration {k}: Lb fell from {lbs[k - 2]!r} to {lb!r}")
        if self.wl.chain:
            # deterministic: Ub is the cost of a feasible policy
            if summary["status"] != "converged":
                rnd.fail(0, f"chain run ended {summary['status']}")
            for k, ub in enumerate(ubs, start=1):
                if not ub >= v - slack:
                    rnd.fail(0, f"iteration {k}: Ub {ub!r} below v* {v!r}")
        else:
            max_iter = int(self.wl.solve_flags[self.wl.solve_flags.index("--max-iter") + 1])
            if len(rows) != max_iter:
                rnd.fail(0, f"run stopped after {len(rows)} of {max_iter} iterations")
        rnd.iter_s = [float(r["wall_ms"]) / 1e3 for r in rows]
        rnd.target_k = W.target_iteration(lbs, v)
        if rnd.target_k is None:
            rnd.fail(0, f"Lb never came within {W.TARGET_REL} of v* {v!r}")


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def warm_up(workdir: str) -> None:
    """Import and exercise the program once, untimed, on a tiny instance."""
    import isddp.cli

    inst = os.path.join(workdir, "warm.json")
    W.quiet_cli(isddp.cli.main, ["gen", "--T", "3", "--n", "2", "--M", "2", "--out", inst])
    W.quiet_cli(isddp.cli.main, ["solve", "--instance", inst, "--preset", "isddp1",
                                 "--paths", "2", "--max-iter", "2",
                                 "--out", os.path.join(workdir, "warm.csv")])
    W.quiet_cli(isddp.cli.main, ["oracle", "--instance", inst])


def repeat_rounds(seconds: float, play) -> list:
    """``play(i)`` for i = 0, 1, ..., at least MIN_ROUNDS times, while the
    next call is expected to end within ``seconds``; returns the results."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(play(len(results)))
        elapsed = time.perf_counter() - t0
        if len(results) >= MIN_ROUNDS and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def check_repeats(rounds: list[Round]) -> None:
    """Fixed work: every round repeats the first round's output and target
    iteration, and every traced round the first traced round's counts."""
    first = rounds[0]
    counts = next((r.counts for r in rounds if r.counts is not None), None)
    for i, rnd in enumerate(rounds):
        if rnd.signature is not None and rnd.signature != first.signature:
            rnd.fail(0, f"round {i}: output differs from the first round")
        if rnd.target_k != first.target_k:
            rnd.fail(0, f"round {i}: target iteration {rnd.target_k} != {first.target_k}")
        if rnd.counts is not None and rnd.counts != counts:
            rnd.fail(0, f"round {i}: traced work counts differ from the first traced round")


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def calibrate() -> float:
    """Seconds of a fixed loop of small dense simplex pivots in numpy.

    The loop is written apart from the program, so no change to the program
    moves it; its time follows the machine's speed.
    """
    rng = np.random.default_rng(0)
    tableau = rng.random((20, 60)) + 0.1
    others = np.ones(20, dtype=bool)
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        t = tableau.copy()
        for _ in range(8):
            pc = int(np.argmin(t[-1, :-1] - 0.5))
            col = t[:-1, pc]
            mask = col > 1e-9
            pr = int(np.argmin(np.where(mask, t[:-1, -1] / np.where(mask, col, 1.0), np.inf)))
            t[pr] /= t[pr, pc]
            others[:] = True
            others[pr] = False
            t -= np.outer(t[:, pc], t[pr]) * others[:, None]
    return time.perf_counter() - t0


def run_untraced(bench: Bench, seconds: float, setup: list[float],
                 setup_errors: list) -> tuple[dict, list[Round]]:
    """Rounds with SETUP_BETWEEN set-ups and a calibration after each.

    The CPU this benchmark was tuned on alternates between a fast and a
    ~1.6x slower state for seconds to minutes, often for a whole run.  So
    every time is scaled to the nominal machine speed, CAL_NOMINAL over the
    mean of the calibrations on either side of the round, and the metrics
    are medians of the scaled times.
    """
    cal = [calibrate()]
    scaled_setups = [t * CAL_NOMINAL / cal[0] for t in setup]

    def play(i: int) -> tuple[Round, list[float]]:
        rnd = bench.run_round(i)
        times = []
        for j in range(SETUP_BETWEEN):
            seconds_j, errors = bench.setup_once(len(setup) + SETUP_BETWEEN * i + j)
            times.append(seconds_j)
            setup_errors.extend(errors)
        cal.append(calibrate())
        return rnd, times

    played = repeat_rounds(seconds, play)
    rounds = [rnd for rnd, _ in played]
    scale = [2 * CAL_NOMINAL / (cal[i] + cal[i + 1]) for i in range(len(played))]
    for (_, times), f in zip(played, scale):
        scaled_setups += [t * f for t in times]
    check_repeats(rounds)
    ok = [(r, f) for r, f in zip(rounds, scale) if not r.errors]
    k = ok[0][0].target_k if ok else None
    metrics = {
        "setup_s": _median(scaled_setups),
        "solve_s": _median(r.seconds * f for r, f in ok),
        "time_to_target_s": _median(sum(r.iter_s[:k]) * f for r, f in ok) if k else float("nan"),
        "iters_to_target": float(k) if k else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, rounds


def run_traced(bench: Bench, seconds: float, setup_errors: list) -> tuple[dict, list[Round]]:
    """Traced set-ups, then untraced and traced rounds in turn.

    Alternating lets both rounds of a pair see the same machine state, so
    the tracing overhead is the median over pairs of their time ratio.
    """
    import tracing

    tracer = tracing.Tracer()
    setup_times = []
    tracing.install(tracer)
    try:
        for i in range(SETUP_REPS):
            tracer.reset()
            setup_errors.extend(bench.setup_once(SETUP_REPS + i)[1])
            setup_times.append(tracer.durations()[0])
    finally:
        tracer.unpatch()

    def play(i: int) -> tuple[Round, Round]:
        plain = bench.run_round(2 * i)
        tracing.install(tracer)
        bench.tracer = tracer
        try:
            return plain, bench.run_round(2 * i + 1)
        finally:
            bench.tracer = None
            tracer.unpatch()

    pairs = repeat_rounds(seconds, play)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    check_repeats(plain + traced)
    metrics = {name: _median(r.times[name] for r in traced) for name in traced[0].times}
    metrics.update(traced[0].counts)
    for metric, span in (("portfolio.generate_s", "portfolio.generate"),
                         ("models.load_s", "models.load"),
                         ("models.write_s", "models.write")):
        metrics[metric] = _median(t[span] for t in setup_times)
    metrics["models.write_s"] += metrics.pop("models.write_csv_s")
    metrics["trace.overhead_share"] = _median(
        t.times["cli.solve_s"] / p.seconds - 1.0 for p, t in pairs)
    return metrics, [r for pair in pairs for r in pair]


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    try:
        W.use_checkout_sources()
    except W.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[name]
    os.makedirs(W.WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=W.WORK_DIR, prefix=f"{name}-") as workdir:
        warm_up(workdir)
        bench = Bench(wl, seed, workdir)
        import reference

        setup, setup_errors = [], []
        for i in range(SETUP_REPS):
            seconds_i, errors = bench.setup_once(i)
            setup.append(seconds_i)
            setup_errors.extend(errors)
        bench.v_star = reference.cached_optimum(bench.instance)
        if traced:
            metrics, rounds = run_traced(bench, seconds, setup_errors)
        else:
            metrics, rounds = run_untraced(bench, seconds, setup, setup_errors)
    units = declared_metrics(traced)
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are not as "
              "BENCHMARK.json declares them", file=sys.stderr)
        return 2
    failed = sum(r.failed_ops for r in rounds) + (1 if setup_errors else 0)
    attempted = sum(r.ops for r in rounds) + 1       # the set-ups count as one operation
    report(wl, seed, traced, bench.v_star, rounds, setup_errors, metrics, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def report(wl, seed, traced, v_star, rounds, setup_errors, metrics, units) -> None:
    kind = "traced" if traced else "untraced"
    print(f"== {wl.name} ({kind}, seed {seed}): v* (HiGHS) = {v_star!r}")
    for err in setup_errors:
        print(f"   FAILED set-up: {err}")
    for i, rnd in enumerate(rounds):
        status = "ok" if not rnd.errors else "FAILED: " + "; ".join(m for _, m in rnd.errors[:3])
        print(f"   round {i}: {rnd.seconds:8.3f} s, target at iteration {rnd.target_k}  {status}")
    for name, unit in units.items():
        print(f"   {name:34s} {metrics[name]:14.6g} {unit}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rc = 0
    for name in W.WORKLOADS:
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.rstrip("\n").splitlines()
            if proc.returncode != 0:
                print("\n".join(lines))
                rc = 1
                continue
            print("\n".join(lines[:-1]))
            if not json.loads(lines[-1])["correct"]:
                rc = 1
    return rc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["all", *W.WORKLOADS], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
