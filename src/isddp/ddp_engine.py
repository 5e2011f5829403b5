"""Deterministic dual dynamic programming with inexact stage solves.

A deterministic chain is a ``StochasticModel`` with one realization per
stage (``model.deterministic``), and one sampled path per iteration is then
its single trajectory.  The passes and the run loop here take the model as
it is and run the SDDP engine on one path: the forward cost is the exact
upper bound, and the run stops on the absolute gap ``Ub - Lb <= tol``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .cuts import CutPool
from .models import RunLog, StochasticModel
from .schedules import ErrorBudget, ScheduleSpec
from .sddp_engine import (
    SddpBackwardResult,
    SddpForwardResult,
    backward_pass_sddp,
    forward_pass_sddp,
    iterate,
    make_pools,
    run_until,
)

# Unused here; kept importable because the per-layer tracer wraps them on this module.
from .cuts import build_middle_cut, build_terminal_cut  # noqa: F401
from .stage_solver import solve_backward_stage, solve_forward_stage, stage_value_exact  # noqa: F401


def forward_pass(
    model: StochasticModel,
    pools: dict[int, CutPool],
    deltas: Sequence[ErrorBudget],
) -> SddpForwardResult:
    """Simulate the current policy along the chain's one path.

    The result holds one trajectory; its cost is the exact upper bound.
    """
    return forward_pass_sddp(model, pools, [(0,) * (model.horizon - 1)], deltas)


def backward_pass(
    model: StochasticModel,
    pools: dict[int, CutPool],
    trajectory: Sequence[np.ndarray],
    epsilons: Sequence[ErrorBudget],
    *,
    iteration: int = 0,
) -> SddpBackwardResult:
    """Build a cut per stage T..2, append the distinct ones, and recompute Lb.

    A stage's pool gets its cut only when it does not hold a bitwise copy;
    ``new_cuts`` keeps every one.  ``epsilons`` has one budget per stage
    2..T (index t-2).
    """
    return backward_pass_sddp(
        model, pools, [trajectory], [[eps] for eps in epsilons], iteration=iteration
    )


def run_iddp(
    model: StochasticModel,
    schedule: ScheduleSpec,
    tol: float,
    max_iter: int,
    *,
    initial_pools: Optional[dict[int, CutPool]] = None,
) -> RunLog:
    """Alternate forward/backward passes until Ub - Lb <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not model.deterministic:
        raise ValueError("ddp/iddp need a deterministic model: one realization per stage")
    pools = initial_pools if initial_pools is not None else make_pools(model)
    log = RunLog(
        algorithm="iddp",
        meta={"schedule_mode": schedule.mode.value, "eps_bar": schedule.eps_bar,
              "eps0": schedule.eps0, "tol": tol},
    )
    records = iterate(model, schedule, 1, 0, pools)
    return run_until(log, records, max_iter, lambda r: r.ub - r.lb <= tol)
