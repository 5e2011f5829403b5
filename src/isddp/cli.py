"""Command-line entry point: instance generation, solving, oracle queries,
and variant comparison reports.

Exit codes: 0 success, 1 usage error, 2 solver fault, 3 oracle guard.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import portfolio as pf
from .ddp_engine import run_iddp
from .lp_core import LpError
from .models import RunLog, StochasticModel, load_model, save_model, write_csv
from .oracle import OracleGuardError, OracleInfeasibleError, exact_recourse, extensive_form
from .schedules import EXACT_SCHEDULE, ScheduleMode, ScheduleSpec
from .sddp_engine import run_isddp
from .stage_solver import StageSolveError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_GUARD = 3

# Shipped schedule presets, all in relative mode.
PRESETS = {
    "sddp": EXACT_SCHEDULE,
    "isddp1": ScheduleSpec(eps_bar=1e-1, eps0=1e-12),
    "isddp2": ScheduleSpec(eps_bar=1e-2, eps0=1e-12),
    "isddp3": ScheduleSpec(eps_bar=1e-4, eps0=1e-12),
    "isddp4": ScheduleSpec(eps_bar=1e-6, eps0=1e-12),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser of every command, built once per process: ``parse_args``
    keeps no state in it, so calls share it."""
    p = _Parser(prog="isddp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a portfolio benchmark instance")
    g.add_argument("--T", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--M", type=int, default=10)
    g.add_argument("--risk-free", type=float, default=0.004)
    g.add_argument("--u", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--returns-csv", default=None,
                   help="read return realizations from a CSV instead of sampling")
    g.add_argument("--out", required=True)

    def add_solve_flags(sp, with_algo=True):
        if with_algo:
            sp.add_argument("--algo", choices=("ddp", "iddp", "sddp", "isddp"),
                            default="isddp")
            sp.add_argument("--preset", choices=sorted(PRESETS), default=None)
            sp.add_argument("--schedule-mode",
                            choices=[m.value for m in ScheduleMode], default=None)
            sp.add_argument("--eps-bar", type=float, default=None,
                            help="free-form schedules only; default 0.1")
            sp.add_argument("--eps0", type=float, default=None,
                            help="free-form schedules only; default 1e-12")
            sp.add_argument("--tol", type=float, default=1e-6,
                            help="absolute bound tolerance for ddp/iddp")
        sp.add_argument("--paths", type=int, default=1)
        sp.add_argument("--gap-tol", type=float, default=0.05)
        sp.add_argument("--max-iter", type=int, default=50)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--instance", required=True, action="append")
        sp.add_argument("--out", default=None)

    s = sub.add_parser("solve", help="run one algorithm on one instance")
    add_solve_flags(s)

    c = sub.add_parser("compare", help="run several presets and report CPU ratios; "
                       "each preset's run CSV and summary go next to --out")
    c.add_argument("--presets", required=True,
                   help="comma-separated preset list; first entry is the baseline")
    add_solve_flags(c, with_algo=False)

    o = sub.add_parser("oracle", help="print the exact optimum (and cost-to-go)")
    o.add_argument("--instance", required=True)
    o.add_argument("--stage", type=int, default=None)
    o.add_argument("--state", default=None,
                   help="comma-separated state vector for the cost-to-go query")
    return p


def _schedule_from_args(args) -> ScheduleSpec:
    """The exact schedule, a preset, or a free-form schedule whose unset
    flags take ``ScheduleSpec``'s defaults; only the last takes the
    free-form flags."""
    free_form = {"--schedule-mode": args.schedule_mode, "--eps-bar": args.eps_bar,
                 "--eps0": args.eps0}
    given = [flag for flag, value in free_form.items() if value is not None]
    exact = args.algo in ("ddp", "sddp")
    if exact and args.preset not in (None, "sddp"):
        raise UsageError(f"--algo {args.algo} is incompatible with preset {args.preset}")
    if exact or args.preset is not None:
        # exact algorithms run the sddp preset
        if given:
            fixed_by = f"--preset {args.preset}" if args.preset else f"--algo {args.algo}"
            raise UsageError(f"{fixed_by} fixes the schedule, so it takes no {', '.join(given)}")
        return PRESETS[args.preset or "sddp"]
    levels = {"eps_bar": args.eps_bar, "eps0": args.eps0}
    return ScheduleSpec(
        mode=ScheduleMode(args.schedule_mode or ScheduleMode.RELATIVE.value),
        **{name: value for name, value in levels.items() if value is not None},
    )


def _single_instance(args) -> str:
    paths = args.instance
    if len(set(paths)) > 1:
        raise UsageError("all runs must target one instance")
    return paths[0]


def _check_run_flags(args, algorithm: str) -> None:
    for flag, value in (("--max-iter", args.max_iter), ("--paths", args.paths)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")
    if algorithm in ("ddp", "iddp") and args.paths != 1:
        raise UsageError(f"--algo {algorithm} follows one path, got --paths {args.paths}")


def _solve_to_files(
    args, algorithm: str, schedule: ScheduleSpec, out: str, model: StochasticModel
) -> tuple[RunLog, dict]:
    """Run one algorithm with the run flags of ``args``, then write its CSV
    to ``out`` and, next to it, its summary JSON.

    A solver fault writes the completed iterations' CSV and re-raises.
    """
    try:
        if algorithm in ("ddp", "iddp"):
            log = run_iddp(model, schedule, tol=args.tol, max_iter=args.max_iter)
        else:
            log = run_isddp(model, schedule, n_paths=args.paths, gap_tol=args.gap_tol,
                            max_iter=args.max_iter, seed=args.seed)
    except (StageSolveError, LpError) as exc:
        partial = getattr(exc, "partial_log", None)
        if partial is not None:
            partial.algorithm = algorithm
            partial.write_csv(out)
        raise
    log.algorithm = algorithm
    log.write_csv(out)
    summary = dict(log.summary(), instance=args.instance[0], csv=out)
    with open(os.path.splitext(out)[0] + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return log, summary


def cmd_gen(args) -> int:
    spec = pf.PortfolioSpec(
        T=args.T,
        n=args.n,
        M=args.M,
        risk_free_return=args.risk_free,
        u=args.u,
        seed=args.seed,
        returns_path=args.returns_csv,
    )
    model = pf.generate_instance(spec)
    save_model(model, args.out)
    print(
        json.dumps(
            {
                "instance": args.out,
                "T": spec.T,
                "n": spec.n,
                "M": spec.M,
                "floors": [float(f) for f in model.floors],
            }
        )
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = _single_instance(args)
    out = args.out or (os.path.splitext(instance)[0] + ".runlog.csv")
    schedule = _schedule_from_args(args)
    _check_run_flags(args, args.algo)
    model = load_model(instance)
    _log, summary = _solve_to_files(args, args.algo, schedule, out, model)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_compare(args) -> int:
    names = [p.strip() for p in args.presets.split(",") if p.strip()]
    if len(names) < 2:
        raise UsageError("compare needs at least two presets")
    for name in names:
        if name not in PRESETS:
            raise UsageError(f"unknown preset {name!r}")
    instance = _single_instance(args)
    model = load_model(instance)
    out_csv = args.out or (os.path.splitext(instance)[0] + ".compare.csv")
    out_dir = os.path.dirname(out_csv)
    _check_run_flags(args, "isddp")
    runs: dict[str, RunLog] = {}
    for name in names:
        if name in runs:
            continue  # identical config: reuse the run
        runs[name], _summary = _solve_to_files(
            args, "isddp", PRESETS[name], os.path.join(out_dir, f"{name}.csv"), model
        )

    base = runs[names[0]]
    base_ms = max(base.total_wall_ms(), 1e-9)
    header = ["variant", "eps_bar", "cpu_ratio", "iterations", "iterations_base"]
    rows = []
    for name in names[1:]:
        log = runs[name]
        rows.append(
            [
                name,
                repr(PRESETS[name].eps_bar),
                f"{log.total_wall_ms() / base_ms:.2f}",
                log.iterations,
                base.iterations,
            ]
        )
    write_csv(out_csv, header, rows)
    print(f"baseline {names[0]}: {base.iterations} iterations, "
          f"{base.total_wall_ms():.0f} ms")
    for row in rows:
        print(f"{row[0]:>8}  eps_bar={row[1]:>8}  cpu_ratio={row[2]:>5}  "
              f"iterations={row[3]} ({row[4]})")
    return EXIT_OK


def _state_from_arg(text: str) -> np.ndarray:
    """The ``--state`` vector: comma-separated finite numbers."""
    entries = text.split(",")
    state = np.full(len(entries), math.nan)
    for i, entry in enumerate(entries):
        try:
            state[i] = float(entry)
        except ValueError:
            pass
        if not math.isfinite(state[i]):
            raise UsageError(f"--state entry {i + 1} of {len(entries)} is {entry.strip()!r}, "
                             "not a finite number")
    return state


def cmd_oracle(args) -> int:
    model = load_model(args.instance)
    if args.state is not None or args.stage is not None:
        if args.state is None or args.stage is None:
            raise UsageError("cost-to-go queries need both --stage and --state")
        value = exact_recourse(model, args.stage, _state_from_arg(args.state))
        print(json.dumps({"stage": args.stage, "recourse": value}))
    else:
        print(json.dumps({"v_star": extensive_form(model)}))
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; every fault that leaves it maps to its exit code here."""
    commands = {"gen": cmd_gen, "solve": cmd_solve, "compare": cmd_compare,
                "oracle": cmd_oracle}
    try:
        args = _build_parser().parse_args(argv)
        return commands[args.command](args)
    except (StageSolveError, LpError, OracleInfeasibleError) as exc:
        print(f"solver fault: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OracleGuardError as exc:
        print(f"oracle guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (UsageError, ValueError, FileNotFoundError) as exc:
        # ValueError covers ModelError, ScheduleError and PortfolioSpecError
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
