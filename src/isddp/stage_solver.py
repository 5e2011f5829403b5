"""Shared stage-subproblem machinery for the forward and backward passes.

Forward (primal) solves solve the stage LP against the full pool, the LP
the backward pass also builds.  The trail of that solve yields certified
delta-suboptimal vertices.  The exact stage value of the lower bound is the
zero-budget case.  Backward (dual) solves hand the full pool to the
kernel's explicit-dual path, which scales with the number of cuts only
through matrix columns.

A stage solve depends only on the stage, the trial point and the pool's
contents, and the kernel is deterministic, so both kinds of solve are kept
in ``pool.memo`` under ``(kind, stage, x.tobytes())`` (the stage object
hashes by identity) and read from there, bit-identical, until the pool gets
a cut.  ``sweep_forward`` and ``sweep_duals`` solve the forward LPs and the
backward duals of one stage into the memo.  Both take their work from one
generator, ``_misses``: the pairs the memo lacks, each once, in kernel
batches of stages that share ``StageModel.structure`` (``A`` and ``c``),
whose LPs differ in their right-hand side only.  A stage LP is built only
where a kernel runs, once per batch; the memo keeps a dual batch's LP for
the certificates to read.

The memo also keeps optimal bases, one list per kind of solve and stage
structure, under ``("forward bases", *structure)`` and ``("dual bases",
*structure)``, since the pool fixes the rest of the stage LP and of its
explicit dual.  ``solve_primal_batch`` answers a forward LP from them when
one is primal feasible there, and ``solve_dual_batch`` a dual when its cost
prices out at one; each adds the bases of the members it solves, until
``CutPool.add`` drops the memo with the bases in it.  The memo is the only
place a solve or a basis is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

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
    budget of the optimum is returned, or else the last one, the optimal
    vertex, at the optimum.  A fault kept in the memo is raised with stage
    and path.
    """
    key = "forward", stage, x_prev.tobytes()
    if key not in pool.memo:
        sweep_forward([stage], [x_prev], pool)
    hit = pool.memo[key]
    if isinstance(hit, StageSolveError):
        raise StageSolveError(f"{_where(t, path)}{hit}", stage=t, path=path) from hit.__cause__
    optimum, xs, full_vals = hit
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
        x=xs[-1].copy(), value=optimum, optimum=optimum, budget_resolved=resolved
    )


def _misses(kind: str, pairs: Iterable[tuple], pool: CutPool) -> Iterator[tuple]:
    """The ``kind`` solves of ``(stage, trial point)`` pairs that ``pool.memo`` lacks, in batches.

    Each missing pair is taken once, in first-seen order, under the memo key
    ``(kind, stage, x.tobytes())``.  The pairs are grouped by
    ``stage.structure``: their stage LPs differ in ``eq_rhs = b - B x``
    only.  Yields per group the stage LP at its first pair, the members as
    ``(memo key, stage)``, their ``eq_rhs`` rows, and the list of optimal
    bases that the memo keeps for the group under
    ``(f"{kind} bases", *structure)``.
    """
    groups: dict = {}
    for stage, x in pairs:
        key = kind, stage, x.tobytes()
        if key not in pool.memo:
            groups.setdefault(stage.structure, {}).setdefault(key, (stage, x))
    for structure, todo in groups.items():
        first, x_first = next(iter(todo.values()))
        yield (stage_lp(first, x_first, pool),
               [(key, stage) for key, (stage, _) in todo.items()],
               np.array([stage.b - stage.B @ x for stage, x in todo.values()]),
               pool.memo.setdefault((f"{kind} bases", *structure), []))


def sweep_forward(
    stages: Sequence[StageModel], x_prevs: Sequence[np.ndarray], pool: CutPool
) -> None:
    """Solve the forward LPs of one stage into ``pool.memo``: ``stages[i]`` at ``x_prevs[i]``.

    Each batch of ``_misses`` is one ``solve_primal_batch`` against the
    group's cached bases; a batch of one with no basis to test is one
    ``solve_with_primal_trail``, the kernel's batch of one, whose basis
    joins the list.  Either way a member's outcome is a ``_KernelResult``
    or an ``LpError``.  A solve and its trail, evaluated against the pool,
    do not depend on the budget: the memo keeps the optimum, the trail
    vertices and their values.  A member answered from a cached basis has
    the optimum as its whole trail.  A member that faults (a kernel fault,
    a status other than optimal, or an optimum that violates one of its
    own cut rows) keeps the fault there instead, and
    ``solve_forward_stage`` raises it with stage and path.
    """
    for lp, members, eq_rhs, bases in _misses("forward", zip(stages, x_prevs), pool):
        if len(members) > 1 or bases:
            outcomes = solve_primal_batch(lp, eq_rhs, bases)
        else:
            try:
                outcomes = [solve_with_primal_trail(lp)]
            except LpError as exc:
                outcomes = [exc]
            keep_bases(bases, outcomes)
        for (key, stage), out in zip(members, outcomes):
            pool.memo[key] = _forward_entry(stage, pool, out)


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
    x = out.z[: len(stage.c)]
    cost = float(stage.c @ x)
    future = pool.evaluate(x)
    epigraph = out.obj - cost
    if future > epigraph + 1e-9 * (1.0 + abs(future)):
        return _fault(
            f": the kernel's optimum violates one of its own cut rows "
            f"(pool value {future!r} above epigraph value {epigraph!r})"
        )
    # the trail of an optimal solve ends at its vertex x, so it is never empty
    xs = np.stack([point for _, point in out.trail])
    full_vals = xs @ stage.c + pool.evaluate_many(xs)
    return cost + future, xs, full_vals


def sweep_duals(
    realizations: Sequence[StageModel], x_prevs: Sequence[np.ndarray], pool: CutPool
) -> None:
    """Solve the backward duals of one stage at its trial points into ``pool.memo``.

    The trial points are taken once each, then crossed with the
    realizations.  Each batch of ``_misses`` is one ``solve_dual_batch``
    against the group's cached bases: LPs that differ in ``eq_rhs`` only
    have explicit duals that share their constraints.  Each result goes into
    the memo beside its batch's LP: the certificate scan reads only the
    LP's row counts, which every member shares.  A member whose outcome is
    an ``LpError`` keeps the error there, and ``solve_backward_stage``
    raises it with stage and path.
    """
    points = {x.tobytes(): x for x in x_prevs}.values()
    pairs = [(r, x) for x in points for r in realizations]
    for lp, members, eq_rhs, bases in _misses("dual", pairs, pool):
        for (key, _), res in zip(members, solve_dual_batch(lp, eq_rhs, bases)):
            pool.memo[key] = lp, res


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
    key = "dual", stage, x_prev.tobytes()
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
