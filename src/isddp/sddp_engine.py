"""Sampled multistage decomposition with inexact cuts.

Each iteration draws N forward scenario paths, simulates the current policy
along them (budget-suboptimal solves), then sweeps stages T..2 building one
probability-aggregated cut per (path, stage) from certified dual points of
all realization subproblems.  Pools are frozen while a stage is being
processed and cuts are appended in fixed path order, so the serial result
is what any parallel schedule must reproduce.  A pool stores each cut once:
a cut that is a bitwise copy of one the pool holds is not appended.  The
dual solves of one stage are solved together first (``sweep_duals``):
against the frozen pool, duals that differ only in their cost share one
feasible region, and the kernel solves them in batches.  Forward solves and
backward kernel results are kept in the pool's memo until the pool gets a
cut, so a path, a pass or an iteration at a trial point already seen reads
them instead of solving again; the passes keep no cache of their own.  An
exact first-stage solve yields the lower bound, and shares the memo entry
of the next iteration's first forward stage; the upper bound is a one-sided
confidence bound on sampled policy costs, or the cost of the path itself
when there is one.

This is the only place where passes and iterations run: a deterministic
model is the one-realization case, and ``ddp_engine`` lifts it and runs one
path per iteration through the same loop.

Sampling is counter-based (one block cipher stream per (seed, iteration,
path)), so runs are reproducible and paths independent across iterations.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .cuts import Cut, CutPool, build_middle_cut
from .models import (
    AnyModel,
    IterationRecord,
    RunLog,
    RunStatus,
    StochasticModel,
    as_stochastic,
)
from .schedules import ErrorBudget, ScheduleSpec, backward_budget, forward_budgets
from .stage_solver import (
    solve_backward_stage,
    solve_forward_stage,
    stage_value_exact,
    sweep_duals,
)

# Unused here; kept importable because the per-layer tracer wraps it on this module.
from .cuts import build_terminal_cut  # noqa: F401

_EVAL_STREAM = 1  # counter word separating policy-evaluation draws from training

BudgetLike = Union[float, ErrorBudget]


def _as_budget(b: BudgetLike) -> ErrorBudget:
    return b if isinstance(b, ErrorBudget) else ErrorBudget(absolute=float(b))


def make_pools(model: AnyModel) -> dict[int, CutPool]:
    """Fresh pools for stages 2..T+1; the T+1 pool is identically zero."""
    model = as_stochastic(model)
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


@dataclass(frozen=True)
class SamplePath:
    """Realization indices for stages 2..T plus the seed lineage that drew them."""

    indices: tuple[int, ...]
    iteration: int
    path_id: int


def _path_rng(seed: int, iteration: int, path_id: int, stream: int = 0) -> np.random.Generator:
    bits = np.random.Philox(
        key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
        counter=[0, path_id, iteration, stream],
    )
    return np.random.Generator(bits)


def sample_paths(
    model: StochasticModel, n: int, iteration: int, seed: int, *, stream: int = 0
) -> list[SamplePath]:
    """N independent scenario paths; deterministic given (seed, iteration, stream)."""
    if n < 1:
        raise ValueError("need at least one path")
    cum = [np.cumsum(st.probs) for st in model.stages]
    paths = []
    for p in range(n):
        rng = _path_rng(seed, iteration, p, stream)
        u = rng.random(len(model.stages))
        idx = tuple(
            min(int(np.searchsorted(c, ui, side="right")), len(c) - 1) for c, ui in zip(cum, u)
        )
        paths.append(SamplePath(indices=idx, iteration=iteration, path_id=p))
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
    paths: Sequence[SamplePath],
    deltas: Sequence[BudgetLike],
) -> SddpForwardResult:
    """Simulate the current policy along each sampled path.

    Every path of a pass uses the same budget per stage, so paths that meet
    at one (stage, state) read one solve from the pool memo.
    """
    T = model.horizon
    budgets = [_as_budget(d) for d in deltas]
    if len(budgets) != T:
        raise ValueError(f"need {T} deltas, got {len(budgets)}")
    trajectories: list[list[np.ndarray]] = []
    costs = np.zeros(len(paths))
    values = np.zeros((len(paths), T))
    resolved = [0.0] * T
    for p, path in enumerate(paths):
        x_prev = model.x0
        traj: list[np.ndarray] = []
        for t in range(1, T + 1):
            if t == 1:
                stage = model.stage1
            else:
                stage = model.stages[t - 2].realizations[path.indices[t - 2]]
            res = solve_forward_stage(stage, x_prev, pools[t + 1], budgets[t - 1], t=t, path=p)
            traj.append(res.x)
            values[p, t - 1] = res.optimum
            resolved[t - 1] = max(resolved[t - 1], res.budget_resolved)
            costs[p] += float(stage.c @ res.x)
            x_prev = res.x
        trajectories.append(traj)
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
    epsilons: Sequence[Union[BudgetLike, Sequence[BudgetLike]]],
    *,
    iteration: int = 0,
) -> SddpBackwardResult:
    """Stage-major backward sweep: all paths' cuts at stage t are built
    against the frozen pool t+1 (the zero pool when t == T, see
    ``make_pools``), then appended to pool t in path order,
    each unless pool t already holds a bitwise copy of it.  ``new_cuts``
    keeps one cut per (path, stage) all the same.  ``sweep_duals`` first
    puts every dual of stage t that pool t+1's memo lacks there, so each
    path's certificates read their kernel results from the memo.

    ``epsilons`` has one entry per stage 2..T; an entry may be a single
    budget or one budget per path.
    """
    T = model.horizon
    n_paths = len(trajectories)
    budgets: list[list[ErrorBudget]] = []
    if len(epsilons) != max(0, T - 1):
        raise ValueError(f"need {T - 1} epsilon entries, got {len(epsilons)}")
    for entry in epsilons:
        if isinstance(entry, (list, tuple, np.ndarray)):
            row = [_as_budget(e) for e in entry]
            if len(row) != n_paths:
                raise ValueError("per-path epsilons must cover every path")
        else:
            row = [_as_budget(entry)] * n_paths
        budgets.append(row)

    new_cuts: list[Cut] = []
    eps_resolved = [0.0] * max(0, T - 1)
    for t in range(T, 1, -1):
        st = model.stages[t - 2]
        pool_next = pools[t + 1]
        realizations = [
            (r.b, r.B, float(p)) for r, p in zip(st.realizations, st.probs)
        ]
        sweep_duals(st.realizations, [traj[t - 2] for traj in trajectories], pool_next)
        stage_cuts: list[Cut] = []
        for p in range(n_paths):
            x_prev = trajectories[p][t - 2]
            budget = budgets[t - 2][p]
            certs = [
                solve_backward_stage(r, x_prev, pool_next, budget, t=t, path=p)[0]
                for r in st.realizations
            ]
            eps_resolved[t - 2] = max(
                eps_resolved[t - 2], max(c.eps_certified for c in certs)
            )
            stage_cuts.append(build_middle_cut(
                realizations, certs, pool_next.thetas_with_floor(),
                stage=t, iteration=iteration, eps_used=budget.nominal,
            ))
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
            eps = [
                [
                    backward_budget(schedule, t, k, T, prev_value=fwd.stage_values[p, t - 1])
                    for p in range(n_paths)
                ]
                for t in range(2, T + 1)
            ]
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
