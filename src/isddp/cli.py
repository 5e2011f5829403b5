"""Command-line entry point: instance generation, solving, oracle queries,
and variant comparison reports.

Exit codes: 0 success, 1 usage error, 2 solver fault, 3 oracle guard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import portfolio as pf
from .ddp_engine import run_iddp
from .lp_core import LpError
from .models import (
    AnyModel,
    ModelError,
    RunLog,
    StochasticModel,
    as_stochastic,
    load_model,
    save_model,
)
from .oracle import OracleGuardError, OracleInfeasibleError, exact_recourse, extensive_form
from .schedules import EXACT_SCHEDULE, ScheduleError, ScheduleMode, ScheduleSpec
from .sddp_engine import run_isddp
from .stage_solver import StageSolveError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_GUARD = 3

# Shipped schedule presets: (eps_bar, eps0), all in relative mode.
PRESETS = {
    "sddp": (1e-12, 1e-12),
    "isddp1": (1e-1, 1e-12),
    "isddp2": (1e-2, 1e-12),
    "isddp3": (1e-4, 1e-12),
    "isddp4": (1e-6, 1e-12),
}
PRESET_ORDER = ["sddp", "isddp1", "isddp2", "isddp3", "isddp4"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    algorithm: str
    schedule: ScheduleSpec
    n_paths: int
    gap_tol: float
    max_iter: int
    seed: int
    instance: str
    out: str            # run CSV; the summary JSON goes next to it
    tol: float


def _build_parser() -> _Parser:
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
            sp.add_argument("--eps-bar", type=float, default=0.1)
            sp.add_argument("--eps0", type=float, default=1e-12)
        sp.add_argument("--paths", type=int, default=1)
        sp.add_argument("--gap-tol", type=float, default=0.05)
        sp.add_argument("--tol", type=float, default=1e-6,
                        help="absolute bound tolerance for ddp/iddp")
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
    if args.algo in ("ddp", "sddp"):
        # exact algorithms run the sddp preset and take no other schedule flag
        if args.schedule_mode is not None:
            raise UsageError(f"--algo {args.algo} forces the exact schedule")
        if args.preset not in (None, "sddp"):
            raise UsageError(f"--algo {args.algo} is incompatible with preset {args.preset}")
        return EXACT_SCHEDULE
    if args.preset is not None:
        eps_bar, eps0 = PRESETS[args.preset]
        return ScheduleSpec(eps_bar=eps_bar, eps0=eps0, mode=ScheduleMode.RELATIVE)
    mode = ScheduleMode(args.schedule_mode or ScheduleMode.RELATIVE.value)
    if mode is ScheduleMode.CONSTANT_BOUNDED:
        # the constant noise levels reuse the --eps-bar knob
        return ScheduleSpec(
            mode=mode,
            constant_delta_bar=args.eps_bar,
            constant_eps_bar=args.eps_bar,
        )
    return ScheduleSpec(eps_bar=args.eps_bar, eps0=args.eps0, mode=mode)


def _single_instance(args) -> str:
    paths = args.instance
    if len(set(paths)) > 1:
        raise UsageError("all runs must target one instance")
    return paths[0]


def _config_from_args(args, algorithm: str, schedule: ScheduleSpec, out: str) -> RunConfig:
    if args.max_iter < 1:
        raise UsageError(f"--max-iter must be at least 1, got {args.max_iter}")
    return RunConfig(
        algorithm=algorithm, schedule=schedule, n_paths=args.paths,
        gap_tol=args.gap_tol, max_iter=args.max_iter, seed=args.seed,
        instance=_single_instance(args), out=out, tol=args.tol,
    )


def _run_config(config: RunConfig, model: AnyModel) -> RunLog:
    if config.algorithm in ("ddp", "iddp"):
        if isinstance(model, StochasticModel):
            raise UsageError(
                f"--algo {config.algorithm} needs a deterministic instance"
            )
        log = run_iddp(model, config.schedule, tol=config.tol, max_iter=config.max_iter)
    else:
        log = run_isddp(
            as_stochastic(model),
            config.schedule,
            n_paths=config.n_paths,
            gap_tol=config.gap_tol,
            max_iter=config.max_iter,
            seed=config.seed,
        )
    log.algorithm = config.algorithm
    return log


def _solve_to_files(config: RunConfig, model: AnyModel) -> tuple[RunLog, dict]:
    """Run one config, then write its CSV and, next to it, its summary JSON.

    A solver fault writes the completed iterations' CSV and re-raises.
    """
    try:
        log = _run_config(config, model)
    except (StageSolveError, LpError) as exc:
        partial = getattr(exc, "partial_log", None)
        if partial is not None:
            partial.algorithm = config.algorithm
            partial.write_csv(config.out)
        raise
    log.write_csv(config.out)
    summary = dict(log.summary(), instance=config.instance, csv=config.out)
    with open(os.path.splitext(config.out)[0] + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return log, summary


def cmd_gen(args) -> int:
    mode = pf.ReturnModel.FROM_FILE if args.returns_csv else pf.ReturnModel.SYNTHETIC
    spec = pf.PortfolioSpec(
        T=args.T,
        n=args.n,
        M=args.M,
        risk_free_return=args.risk_free,
        u=args.u,
        seed=args.seed,
        return_model=mode,
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
    config = _config_from_args(args, args.algo, _schedule_from_args(args), out)
    model = load_model(instance)
    try:
        _log, summary = _solve_to_files(config, model)
    except (StageSolveError, LpError) as exc:
        print(f"solver fault: {exc}", file=sys.stderr)
        return EXIT_SOLVER
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
    runs: dict[str, RunLog] = {}
    try:
        for name in names:
            if name in runs:
                continue  # identical config: reuse the run
            eps_bar, eps0 = PRESETS[name]
            schedule = ScheduleSpec(eps_bar=eps_bar, eps0=eps0, mode=ScheduleMode.RELATIVE)
            config = _config_from_args(
                args, "isddp", schedule, os.path.join(out_dir, f"{name}.csv")
            )
            runs[name], _summary = _solve_to_files(config, model)
    except (StageSolveError, LpError) as exc:
        print(f"solver fault: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    base = runs[names[0]]
    base_ms = max(base.total_wall_ms(), 1e-9)
    header = ["variant", "eps_bar", "cpu_ratio", "iterations", "iterations_base"]
    rows = []
    for name in names[1:]:
        log = runs[name]
        rows.append(
            [
                name,
                repr(float(PRESETS[name][0])),
                f"{log.total_wall_ms() / base_ms:.2f}",
                log.iterations,
                base.iterations,
            ]
        )
    with open(out_csv, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    print(f"baseline {names[0]}: {base.iterations} iterations, "
          f"{base.total_wall_ms():.0f} ms")
    for row in rows:
        print(f"{row[0]:>8}  eps_bar={row[1]:>8}  cpu_ratio={row[2]:>5}  "
              f"iterations={row[3]} ({row[4]})")
    return EXIT_OK


def cmd_oracle(args) -> int:
    model = load_model(args.instance)
    try:
        if args.state is not None or args.stage is not None:
            if args.state is None or args.stage is None:
                raise UsageError("cost-to-go queries need both --stage and --state")
            x = np.asarray([float(v) for v in args.state.split(",")])
            value = exact_recourse(model, args.stage, x)
            print(json.dumps({"stage": args.stage, "recourse": value}))
        else:
            print(json.dumps({"v_star": extensive_form(model)}))
    except OracleGuardError as exc:
        print(f"oracle guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OracleInfeasibleError as exc:
        print(f"solver fault: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (pf.PortfolioSpecError, ModelError, ScheduleError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
