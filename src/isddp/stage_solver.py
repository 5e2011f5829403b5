"""Shared stage-subproblem machinery for the forward and backward passes.

Forward (primal) solves are one kernel call on the stage LP against the
full pool, the LP the backward pass also builds.  The trail of that solve
yields certified delta-suboptimal vertices.  The exact stage value of the
lower bound is the zero-budget case.

Backward (dual) solves hand the full pool to the kernel's explicit-dual
path, which scales with the number of cuts only through matrix columns.
``sweep_duals`` solves the backward duals of one stage against its frozen
pool in kernel batches: realizations that share ``A`` and ``c`` give duals
that share their constraints, at every trial point.

A stage solve depends only on the stage, the trial point and the pool's
contents, and the kernel is deterministic, so both kinds of solve are kept
in ``pool.memo`` (keyed on the stage object, which hashes by identity, and
the trial point's bytes) and read from there, bit-identical, until the pool
gets a cut.  The memo is the only place a solve is kept between calls.  A
stage LP is built only where a kernel runs: once per forward solve and once
per dual batch, whose LP the memo keeps for the certificates to read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cuts import CutPool
from .lp_core import (
    DualCertificate,
    LinearProgram,
    LpError,
    SolveStatus,
    _KernelResult,
    solve_dual_batch,
    solve_dual_inexact,
    solve_with_primal_trail,
)

# Unused here; kept importable because the per-layer tracer wraps it on this module.
from .lp_core import solve_exact  # noqa: F401
from .models import StageModel
from .schedules import ErrorBudget


class StageSolveError(RuntimeError):
    """A stage subproblem failed to solve; carries the stage index."""

    def __init__(self, message: str, stage: Optional[int] = None, path: Optional[int] = None):
        super().__init__(message)
        self.stage = stage
        self.path = path


@dataclass
class ForwardStageResult:
    x: np.ndarray        # chosen (possibly suboptimal) basic decision
    value: float         # cost.x + pool value at x
    optimum: float       # exact optimum of the stage problem
    budget_resolved: float


def stage_lp(stage: StageModel, x_prev: np.ndarray, pool: CutPool) -> LinearProgram:
    """Assemble the stage LP against a pool (floor always included as row 0).

    The LP aliases the pool's read-only floor-first arrays.
    """
    return LinearProgram(
        cost=stage.c,
        eq_matrix=stage.A,
        eq_rhs=stage.b - stage.B @ x_prev,
        cut_beta=pool.betas_with_floor(),
        cut_theta=pool.thetas_with_floor(),
    )


def _where(t: Optional[int], path: Optional[int]) -> str:
    where = f"stage {t}" if t is not None else "stage subproblem"
    return where if path is None else f"{where} (path {path})"


def solve_forward_stage(
    stage: StageModel,
    x_prev: np.ndarray,
    pool: CutPool,
    budget: ErrorBudget,
    *,
    t: Optional[int] = None,
    path: Optional[int] = None,
) -> ForwardStageResult:
    """Budget-suboptimal basic decision for one forward stage.

    Solves the stage LP against the full pool to optimality, recording the
    vertex trail, evaluates each trail vertex against the pool, and returns
    the earliest one within budget of the optimum.  The solve and the
    evaluated trail do not depend on the budget; they are kept in
    ``pool.memo`` until the pool changes.
    """
    key = ("forward", stage, x_prev.tobytes())
    hit = pool.memo.get(key)
    if hit is None:
        try:
            sol, trail = solve_with_primal_trail(stage_lp(stage, x_prev, pool))
        except LpError as exc:  # kernel faults carry no stage context
            raise StageSolveError(
                f"{_where(t, path)} failed in the kernel: {exc}", stage=t, path=path
            ) from exc
        if sol.status is not SolveStatus.OPTIMAL:
            raise StageSolveError(f"{_where(t, path)} is {sol.status.value}", stage=t, path=path)
        cost = float(stage.c @ sol.x)
        future = pool.evaluate(sol.x)
        epigraph = sol.obj - cost
        if future > epigraph + 1e-9 * (1.0 + abs(future)):
            raise StageSolveError(
                f"{_where(t, path)}: the kernel's optimum violates one of its own cut "
                f"rows (pool value {future!r} above epigraph value {epigraph!r})",
                stage=t, path=path,
            )
        optimum = cost + future
        # the trail of an optimal solve ends at the optimum, so it is never empty
        xs = np.stack([x for _, x in trail])
        full_vals = xs @ stage.c + pool.evaluate_many(xs)
        hit = pool.memo[key] = (sol.x, optimum, xs, full_vals)
    x_star, optimum, xs, full_vals = hit
    resolved = budget.resolve(optimum)
    slack = 1e-12 * (1.0 + abs(optimum))
    for i in range(len(xs)):
        if full_vals[i] <= optimum + resolved + slack:
            return ForwardStageResult(
                x=xs[i].copy(),
                value=float(full_vals[i]),
                optimum=optimum,
                budget_resolved=resolved,
            )
    return ForwardStageResult(
        x=x_star.copy(), value=optimum, optimum=optimum, budget_resolved=resolved
    )


def sweep_duals(
    realizations: Sequence[StageModel], x_prevs: Sequence[np.ndarray], pool: CutPool
) -> None:
    """Solve the backward duals of one stage at its trial points into ``pool.memo``.

    Realizations that share ``A`` and ``c`` give explicit duals that share
    their constraints at every trial point.  Each such group is one
    ``solve_dual_batch`` over the (trial point, realization) pairs whose
    kernel result the memo does not hold yet; they differ in
    ``eq_rhs = b - B x_prev`` only.  Each result goes into the memo, trimmed
    to what the certificate scan reads, beside its batch's LP: the scan reads
    only the LP's row counts, which every member shares.  A member whose
    outcome is an ``LpError`` keeps the error there, and
    ``solve_backward_stage`` raises it with stage and path.
    """
    points = {x.tobytes(): x for x in x_prevs}
    groups: dict = {}
    for r in realizations:
        groups.setdefault((r.A.shape, r.A.tobytes(), r.c.tobytes()), []).append(r)
    for group in groups.values():
        todo = [(_dual_key(r, xb), r, x) for xb, x in points.items() for r in group]
        todo = [member for member in todo if member[0] not in pool.memo]
        if not todo:
            continue
        eq_rhs = np.array([r.b - r.B @ x for _, r, x in todo])
        lp = stage_lp(group[0], todo[0][2], pool)
        for (key, _, _), res in zip(todo, solve_dual_batch(lp, eq_rhs)):
            if not isinstance(res, LpError):
                res = _KernelResult(res.status, None, res.obj, None, None, res.pivots, res.trail)
            pool.memo[key] = (lp, res)


def _dual_key(stage: StageModel, x_bytes: bytes) -> tuple:
    return "dual", stage, x_bytes


def solve_backward_stage(
    stage: StageModel,
    x_prev: np.ndarray,
    pool: CutPool,
    budget: ErrorBudget,
    *,
    t: Optional[int] = None,
    path: Optional[int] = None,
) -> tuple[DualCertificate, float]:
    """Budget-certified dual point of one backward stage, plus its optimum.

    The certificate's ``mu`` covers the pool rows floor-first, matching
    ``pool.thetas_with_floor()``.  The kernel outcome and its batch's LP
    come from ``pool.memo``; on a miss, ``sweep_duals`` puts them there
    first, as a batch of one.
    """
    key = _dual_key(stage, x_prev.tobytes())
    if key not in pool.memo:
        sweep_duals([stage], [x_prev], pool)
    lp, result = pool.memo[key]
    try:
        cert = solve_dual_inexact(lp, budget, result=result)
    except LpError as exc:  # kernel faults carry no stage context
        raise StageSolveError(
            f"{_where(t, path)}: backward solve failed in the kernel: {exc}",
            stage=t, path=path,
        ) from exc
    # Retrospective certificates measure eps against the true optimum.
    optimum = cert.dual_obj + cert.eps_certified
    return cert, optimum


def stage_value_exact(
    stage: StageModel,
    x_prev: np.ndarray,
    pool: CutPool,
    *,
    t: Optional[int] = None,
) -> float:
    """Exact optimal value of a stage problem against the full pool.

    It is the optimum of a zero-budget forward solve, so it shares that
    solve's entry in ``pool.memo``.
    """
    return solve_forward_stage(stage, x_prev, pool, ErrorBudget(), t=t).optimum
