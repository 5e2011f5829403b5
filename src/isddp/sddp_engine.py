"""Sampled multistage decomposition with inexact cuts.

Each iteration draws N forward scenario paths, simulates the current policy
along them stage by stage (budget-suboptimal solves), then sweeps stages
T..2 building one probability-aggregated cut per distinct (trial point,
budget) of a stage from certified dual points of all realization
subproblems; the paths that share a trial point and budget share its cut.
Pools are frozen while a stage is being processed and cuts are appended in
fixed path order, so the serial result is what any parallel schedule must
reproduce.
A pool stores each cut once: a cut that is a bitwise copy of one the pool
holds is not appended.  The solves of one stage are solved together first,
in kernel batches: the forward LPs of all paths (``sweep_forward``), which
share their constraint matrix and cost and differ in their right-hand side,
and the backward duals (``sweep_duals``), which against the frozen pool
share one feasible region and differ in their cost.  A path's stage-t LP
depends only on its own stage t-1 decision, so the paths of a forward pass
advance together, stage by stage; the kernel solves each path's LP bit for
bit as it would alone, and optimal bases that earlier batches found on an
unchanged pool answer the LPs they fit.  Forward solves and
backward kernel results are kept in the pool's memo until the pool gets a
cut, so a path, a pass or an iteration at a trial point already seen reads
them instead of solving again; the passes keep no cache of their own.  An
exact first-stage solve yields the lower bound, and shares the memo entry
of the next iteration's first forward stage; the upper bound is a one-sided
confidence bound on sampled policy costs, or the cost of the path itself
when there is one.

This is the only place where passes and iterations run: a deterministic
chain is a ``StochasticModel`` with one realization per stage, and
``ddp_engine`` runs it with one path per iteration through the same loop.

Sampling is counter-based (one block cipher stream per (seed, iteration,
path)), so runs are reproducible and paths independent across iterations.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .cuts import Cut, CutPool, build_stage_cuts, stack_certificates
from .models import IterationRecord, RunLog, RunStatus, StochasticModel
from .schedules import ErrorBudget, ScheduleSpec, backward_budgets, forward_budgets
from .stage_solver import (
    solve_backward_stage,
    solve_forward_stage,
    stage_value_exact,
    sweep_duals,
    sweep_forward,
)

# Unused here; kept importable because the per-layer tracer wraps them on this module.
from .cuts import build_middle_cut, build_terminal_cut  # noqa: F401

_EVAL_STREAM = 1  # counter word separating policy-evaluation draws from training


def make_pools(model: StochasticModel) -> dict[int, CutPool]:
    """Fresh pools for stages 2..T+1; the T+1 pool is identically zero."""
    T = model.horizon
    dims = [model.stage1.var_dim] + [s.var_dim for s in model.stages]
    pools = {
        t: CutPool(stage=t, state_dim=dims[t - 2], floor=float(model.floors[t - 2]))
        for t in range(2, T + 1)
    }
    pools[T + 1] = CutPool(stage=T + 1, state_dim=dims[T - 1], floor=0.0)
    return pools


def relative_gap(ub: float, lb: float) -> float:
    """Sign-safe relative gap (Ub - Lb) / max(|Ub|, 1e-6)."""
    return (ub - lb) / max(abs(ub), 1e-6)


def _path_rng(seed: int, iteration: int, path_id: int, stream: int = 0) -> np.random.Generator:
    bits = np.random.Philox(
        key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
        counter=[0, path_id, iteration, stream],
    )
    return np.random.Generator(bits)


def sample_paths(
    model: StochasticModel, n: int, iteration: int, seed: int, *, stream: int = 0
) -> list[tuple[int, ...]]:
    """N independent scenario paths; deterministic given (seed, iteration, stream).

    A path is its realization indices for stages 2..T; path p is drawn from
    its own counter ``(seed, iteration, p, stream)``.
    """
    if n < 1:
        raise ValueError("need at least one path")
    cum = [np.cumsum(st.probs) for st in model.stages]
    paths = []
    for p in range(n):
        rng = _path_rng(seed, iteration, p, stream)
        u = rng.random(len(model.stages))
        paths.append(tuple(
            min(int(np.searchsorted(c, ui, side="right")), len(c) - 1) for c, ui in zip(cum, u)
        ))
    return paths


@dataclass
class SddpForwardResult:
    trajectories: list[list[np.ndarray]]
    cost_samples: np.ndarray
    stage_values: np.ndarray  # (n_paths, T) forward subproblem optima
    deltas_resolved: tuple


def forward_pass_sddp(
    model: StochasticModel,
    pools: dict[int, CutPool],
    paths: Sequence[tuple[int, ...]],
    deltas: Sequence[ErrorBudget],
) -> SddpForwardResult:
    """Simulate the current policy along each sampled path.

    A path holds one realization index per stage 2..T, as ``sample_paths``
    draws it.  ``deltas`` has one budget per stage 1..T.  The pass runs
    stage-major: ``sweep_forward`` first puts the forward LPs of stage t at
    every path's state into pool t+1's memo, in kernel batches, then each
    path reads its own.  Every path of a pass uses the same budget per
    stage, so paths that meet at one (stage, state) read one solve.
    """
    T = model.horizon
    if len(deltas) != T:
        raise ValueError(f"need {T} deltas, got {len(deltas)}")
    n_paths = len(paths)
    trajectories: list[list[np.ndarray]] = [[] for _ in range(n_paths)]
    x_prevs = [model.x0] * n_paths
    costs = np.zeros(n_paths)
    values = np.zeros((n_paths, T))
    resolved = [0.0] * T
    for t in range(1, T + 1):
        # stage 1 has one realization
        stages = [model.stage(t, (0, *path)[t - 1]) for path in paths]
        sweep_forward(stages, x_prevs, pools[t + 1])
        for p, stage in enumerate(stages):
            res = solve_forward_stage(stage, x_prevs[p], pools[t + 1], deltas[t - 1], t=t, path=p)
            trajectories[p].append(res.x)
            values[p, t - 1] = res.optimum
            resolved[t - 1] = max(resolved[t - 1], res.budget_resolved)
            costs[p] += float(stage.c @ res.x)
            x_prevs[p] = res.x
    return SddpForwardResult(trajectories, costs, values, tuple(resolved))


@dataclass
class SddpBackwardResult:
    new_cuts: list[Cut]
    lb: float
    eps_resolved: tuple


def backward_pass_sddp(
    model: StochasticModel,
    pools: dict[int, CutPool],
    trajectories: Sequence[Sequence[np.ndarray]],
    epsilons: Sequence[Sequence[ErrorBudget]],
    *,
    iteration: int = 0,
) -> SddpBackwardResult:
    """Stage-major backward sweep: all paths' cuts at stage t are built
    against the frozen pool t+1 (the zero pool when t == T, see
    ``make_pools``), then appended to pool t in path order,
    each unless pool t already holds a bitwise copy of it.

    A cut depends only on the path's trial point and budget, so each
    distinct (trial point, budget) of a stage is cut once: its first path
    in path order gets one certificate per realization, and
    ``build_stage_cuts`` builds the cuts of all of them from the stacked
    certificates.  ``new_cuts`` keeps one cut per (path, stage), and paths
    that share a trial point and budget share the cut object.
    ``sweep_duals`` first puts every dual of stage t that pool t+1's memo
    lacks there, so the certificates read their kernel results from the
    memo.

    ``epsilons`` has one list per stage 2..T, one budget per path, as
    ``backward_budgets`` returns it.
    """
    T = model.horizon
    n_paths = len(trajectories)
    if n_paths < 1:
        raise ValueError("need at least one path")
    if len(epsilons) != max(0, T - 1):
        raise ValueError(f"need {T - 1} epsilon entries, got {len(epsilons)}")
    if any(len(row) != n_paths for row in epsilons):
        raise ValueError("per-path epsilons must cover every path")

    new_cuts: list[Cut] = []
    eps_resolved = [0.0] * max(0, T - 1)
    for t in range(T, 1, -1):
        st = model.stages[t - 2]
        pool_next = pools[t + 1]
        points = [traj[t - 2] for traj in trajectories]
        sweep_duals(st.realizations, points, pool_next)
        keys = [(x.tobytes(), budget) for x, budget in zip(points, epsilons[t - 2])]
        first: dict = {}  # (trial point, budget) -> its first path
        for p, key in enumerate(keys):
            first.setdefault(key, p)
        certs = [
            [solve_backward_stage(r, points[p], pool_next, budget, t=t, path=p)[0]
             for r in st.realizations]
            for (_, budget), p in first.items()
        ]
        eps_resolved[t - 2] = max(
            eps_resolved[t - 2], max(c.eps_certified for row in certs for c in row)
        )
        built = dict(zip(first, build_stage_cuts(
            st, *stack_certificates(certs), pool_next.thetas_with_floor(),
            stage=t, iteration=iteration,
        )))
        stage_cuts = [built[key] for key in keys]
        for cut in stage_cuts:
            if cut not in pools[t]:
                pools[t].add(cut)
        new_cuts.extend(stage_cuts)
    lb = stage_value_exact(model.stage1, model.x0, pools[2], t=1)
    return SddpBackwardResult(new_cuts, lb, tuple(eps_resolved))


def upper_bound_ci(cost_samples: np.ndarray, z: float = 1.96) -> float:
    """Upper end of the one-sided normal confidence interval on the mean."""
    cost_samples = np.asarray(cost_samples, dtype=float)
    n = cost_samples.shape[0]
    if n == 0:
        raise ValueError("need at least one cost sample")
    if n == 1:
        warnings.warn("single cost sample: returning it without a CI margin")
        return float(cost_samples[0])
    mean = float(cost_samples.mean())
    std = float(cost_samples.std(ddof=1))
    return mean + z * std / np.sqrt(n)


def iterate(
    model: StochasticModel,
    schedule: ScheduleSpec,
    n_paths: int,
    seed: int,
    pools: dict[int, CutPool],
) -> Iterator[IterationRecord]:
    """Forward/backward iterations k = 1, 2, ... on ``pools``; the caller stops.

    Ub is the one path's cost when ``n_paths == 1`` (exact for a
    deterministic model) and the confidence bound otherwise.
    """
    T = model.horizon
    for k in itertools.count(1):
        t_start = time.perf_counter()
        paths = sample_paths(model, n_paths, k, seed)
        fwd = forward_pass_sddp(model, pools, paths, forward_budgets(schedule, k, T))
        ub = upper_bound_ci(fwd.cost_samples) if n_paths > 1 else float(fwd.cost_samples[0])
        lb, eps_resolved = ub, ()
        if T > 1:
            eps = backward_budgets(schedule, k, fwd.stage_values)
            bwd = backward_pass_sddp(model, pools, fwd.trajectories, eps, iteration=k)
            lb, eps_resolved = bwd.lb, bwd.eps_resolved
        yield IterationRecord(
            k=k,
            lb=lb,
            ub=ub,
            gap=relative_gap(ub, lb),
            wall_ms=(time.perf_counter() - t_start) * 1e3,
            n_paths=n_paths,
            eps_used=eps_resolved,
            delta_used=fwd.deltas_resolved,
        )


def run_until(
    log: RunLog,
    records: Iterator[IterationRecord],
    max_iter: int,
    converged: Callable[[IterationRecord], bool],
) -> RunLog:
    """Append up to ``max_iter`` records to ``log``, stopping once converged.

    A fault carries the completed iterations as ``partial_log``.
    """
    try:
        for rec in itertools.islice(records, max_iter):
            log.records.append(rec)
            if converged(rec):
                log.status = RunStatus.CONVERGED
                break
    except Exception as exc:
        exc.partial_log = log
        raise
    return log


def run_isddp(
    model: StochasticModel,
    schedule: ScheduleSpec,
    n_paths: int,
    gap_tol: float,
    max_iter: int,
    seed: int,
    *,
    initial_pools: Optional[dict[int, CutPool]] = None,
) -> RunLog:
    """Iterate sampled forward/backward passes until the relative gap closes."""
    if not (0.0 < gap_tol < 1.0):
        raise ValueError("gap_tol must lie in (0, 1)")
    pools = initial_pools if initial_pools is not None else make_pools(model)
    log = RunLog(
        algorithm="isddp",
        meta={
            "schedule_mode": schedule.mode.value,
            "eps_bar": schedule.eps_bar,
            "eps0": schedule.eps0,
            "n_paths": n_paths,
            "gap_tol": gap_tol,
            "seed": seed,
        },
    )
    records = iterate(model, schedule, n_paths, seed, pools)
    return run_until(log, records, max_iter, lambda r: r.gap < gap_tol)


def evaluate_policy(
    model: StochasticModel, pools: dict[int, CutPool], n: int, seed: int
) -> np.ndarray:
    """Realized costs of the pool-induced policy on n fresh exact rollouts."""
    paths = sample_paths(model, n, 0, seed, stream=_EVAL_STREAM)
    exact = [ErrorBudget()] * model.horizon
    return forward_pass_sddp(model, pools, paths, exact).cost_samples
