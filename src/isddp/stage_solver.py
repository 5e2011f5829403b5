"""Shared stage-subproblem machinery for the forward and backward passes.

Forward (primal) solves solve the stage LP against the full pool, the LP
the backward pass also builds.  The trail of that solve yields certified
delta-suboptimal vertices.  The exact stage value of the lower bound is the
zero-budget case.  ``sweep_forward`` solves the forward LPs of one stage in
kernel batches: stages that share ``A`` and ``c`` give LPs that differ only
in their right-hand side, at every trial point.

Backward (dual) solves hand the full pool to the kernel's explicit-dual
path, which scales with the number of cuts only through matrix columns.
``sweep_duals`` solves the backward duals of one stage against its frozen
pool in kernel batches: realizations that share ``A`` and ``c`` give duals
that share their constraints, at every trial point.

A stage solve depends only on the stage, the trial point and the pool's
contents, and the kernel is deterministic, so both kinds of solve are kept
in ``pool.memo`` (keyed on the stage object, which hashes by identity, and
the trial point's bytes) and read from there, bit-identical, until the pool
gets a cut.  A stage LP is built only where a kernel runs: once per forward
batch and once per dual batch, whose LP the memo keeps for the certificates
to read.

The memo also keeps optimal bases, one list per stage structure (``A``
and ``c``) and kind of solve, since the pool fixes the rest of the stage
LP and of its explicit dual.  ``solve_primal_batch`` answers a forward LP
from them when one is primal feasible there, and ``solve_dual_batch`` a
dual when its cost prices out at one; each adds the bases of the members
it solves, until ``CutPool.add`` drops the memo with the bases in it.  The
memo is the only place a solve or a basis is kept between calls.
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
    keep_bases,
    solve_dual_batch,
    solve_dual_inexact,
    solve_primal_batch,
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

    The stage LP's optimum and its trail of vertices, each evaluated against
    the pool, come from ``pool.memo``; on a miss, ``sweep_forward`` puts
    them there first, as a batch of one.  The earliest trail vertex within
    budget of the optimum is returned.  A fault kept in the memo is raised
    with stage and path.
    """
    key = _forward_key(stage, x_prev.tobytes())
    if key not in pool.memo:
        sweep_forward([stage], [x_prev], pool)
    hit = pool.memo[key]
    if isinstance(hit, StageSolveError):
        raise StageSolveError(f"{_where(t, path)}{hit}", stage=t, path=path) from hit.__cause__
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


def sweep_forward(
    stages: Sequence[StageModel], x_prevs: Sequence[np.ndarray], pool: CutPool
) -> None:
    """Solve the forward LPs of one stage into ``pool.memo``: ``stages[i]`` at ``x_prevs[i]``.

    Stages that share ``A`` and ``c`` give LPs that differ in
    ``eq_rhs = b - B x_prev`` only.  Each such group is one
    ``solve_primal_batch`` over its (stage, trial point) pairs that the memo
    does not hold yet, each pair once, against the optimal bases that the
    memo keeps for the group under ``("primal bases", *structure)``; a
    group of one with no basis to test is one ``solve_with_primal_trail``,
    the kernel's batch of one, whose basis joins the list.  Either way a
    member's outcome is a ``_KernelResult`` or an ``LpError``.  A solve and
    its trail, evaluated against the pool, do not depend on the budget: the
    memo keeps the optimal vertex, the optimum, the trail vertices and their
    values.  A member answered from a cached basis has the optimum as its
    whole trail.  A member that faults (a kernel fault, a status other than
    optimal, or an optimum that violates one of its own cut rows) keeps the
    fault there instead, and ``solve_forward_stage`` raises it with stage
    and path.
    """
    groups: dict = {}
    for stage, x in zip(stages, x_prevs):
        key = _forward_key(stage, x.tobytes())
        if key not in pool.memo:
            groups.setdefault(_structure(stage), {})[key] = stage, x
    for structure, todo in groups.items():
        members = list(todo.items())
        first, x_first = members[0][1]
        lp = stage_lp(first, x_first, pool)
        bases = pool.memo.setdefault(("primal bases", *structure), [])
        if len(members) > 1 or bases:
            eq_rhs = np.array([stage.b - stage.B @ x for _, (stage, x) in members])
            outcomes = solve_primal_batch(lp, eq_rhs, bases)
        else:
            try:
                outcomes = [solve_with_primal_trail(lp)]
            except LpError as exc:
                outcomes = [exc]
            keep_bases(bases, outcomes)
        for (key, (stage, _)), out in zip(members, outcomes):
            pool.memo[key] = _forward_entry(stage, pool, out)


def _forward_key(stage: StageModel, x_bytes: bytes) -> tuple:
    return "forward", stage, x_bytes


def _structure(stage: StageModel) -> tuple:
    """What a stage LP's batch shares: ``A`` and ``c``."""
    return stage.A.shape, stage.A.tobytes(), stage.c.tobytes()


def _fault(detail: str, cause: Optional[Exception] = None) -> StageSolveError:
    """A forward fault as the memo keeps it: ``detail`` follows the stage and path."""
    fault = StageSolveError(detail)
    fault.__cause__ = cause
    return fault


def _forward_entry(stage: StageModel, pool: CutPool, out) -> tuple | StageSolveError:
    """The memo entry of one forward outcome at ``stage``: a ``_KernelResult``
    (of the kernel or of a cached basis) or an ``LpError``."""
    if isinstance(out, LpError):  # kernel faults carry no stage context
        return _fault(f" failed in the kernel: {out}", out)
    if out.status is not SolveStatus.OPTIMAL:
        return _fault(f" is {out.status.value}")
    x = out.z[: len(stage.c)].copy()
    cost = float(stage.c @ x)
    future = pool.evaluate(x)
    epigraph = out.obj - cost
    if future > epigraph + 1e-9 * (1.0 + abs(future)):
        return _fault(
            f": the kernel's optimum violates one of its own cut rows "
            f"(pool value {future!r} above epigraph value {epigraph!r})"
        )
    # the trail of an optimal solve ends at the optimum, so it is never empty
    xs = np.stack([point for _, point in out.trail])
    full_vals = xs @ stage.c + pool.evaluate_many(xs)
    return x, cost + future, xs, full_vals


def sweep_duals(
    realizations: Sequence[StageModel], x_prevs: Sequence[np.ndarray], pool: CutPool
) -> None:
    """Solve the backward duals of one stage at its trial points into ``pool.memo``.

    Realizations that share ``A`` and ``c`` give explicit duals that share
    their constraints at every trial point.  Each such group is one
    ``solve_dual_batch`` over the (trial point, realization) pairs whose
    kernel result the memo does not hold yet; they differ in
    ``eq_rhs = b - B x_prev`` only.  Each result goes into the memo beside
    its batch's LP: the certificate scan reads only the LP's row counts,
    which every member shares.  A member whose outcome is an ``LpError``
    keeps the error there, and ``solve_backward_stage`` raises it with stage
    and path.  The group's
    optimal bases are kept in the memo too, under ``("bases", *structure)``,
    for ``solve_dual_batch`` to answer later duals of the group with.
    """
    points = {x.tobytes(): x for x in x_prevs}
    groups: dict = {}
    for r in realizations:
        groups.setdefault(_structure(r), []).append(r)
    for structure, group in groups.items():
        todo = [(_dual_key(r, xb), r, x) for xb, x in points.items() for r in group]
        todo = [member for member in todo if member[0] not in pool.memo]
        if not todo:
            continue
        eq_rhs = np.array([r.b - r.B @ x for _, r, x in todo])
        lp = stage_lp(group[0], todo[0][2], pool)
        bases = pool.memo.setdefault(("bases", *structure), [])
        for (key, _, _), res in zip(todo, solve_dual_batch(lp, eq_rhs, bases)):
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
    entry = pool.memo.get(key)
    if entry is None:
        sweep_duals([stage], [x_prev], pool)
        entry = pool.memo[key]
    lp, result = entry
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
