"""Brute-force ground truth for small instances.

Assembles the full scenario-tree LP (deterministic equivalent) and solves it
exactly; also evaluates exact expected cost-to-go at an arbitrary state via
the same construction restricted to a subtree.  Oracles never approximate:
trees whose dense tableau exceeds the size guard are a hard fault.
"""

from __future__ import annotations

import numpy as np

from .lp_core import LinearProgram, SolveStatus, solve_exact
from .models import AnyModel, StageModel, StochasticModel, as_stochastic

# Cap on the kernel's dense tableau, rows x (cols + rows + 1) float64 cells
# (256 MiB); the tree LP's own matrix is smaller.
TABLEAU_CELL_GUARD = 2**25


class OracleGuardError(RuntimeError):
    """Scenario-tree LP exceeds the brute-force size guard."""


class OracleInfeasibleError(RuntimeError):
    pass


def _check_guard(model: StochasticModel, from_stage: int) -> None:
    """Reject a subtree whose dense tableau would exceed the guard.

    Counted from the tree levels (every realization of a stage shares its
    dimensions), before anything is allocated.
    """
    levels = [(1, model.stage1)] if from_stage == 1 else []
    nodes = 1
    for st in model.stages[max(0, from_stage - 2) :]:
        nodes *= st.num_realizations
        levels.append((nodes, st.realizations[0]))
    rows = sum(n * s.num_eq for n, s in levels)
    cols = sum(n * s.var_dim for n, s in levels)
    cells = rows * (cols + rows + 1)
    if cells > TABLEAU_CELL_GUARD:
        raise OracleGuardError(
            f"scenario-tree LP is {rows} x {cols}: its tableau needs {cells} "
            f"dense cells, oracle guard is {TABLEAU_CELL_GUARD}"
        )


def _assemble_tree_lp(
    model: StochasticModel, from_stage: int, state: np.ndarray
) -> LinearProgram:
    """Deterministic-equivalent LP of the subtree rooted at ``from_stage``.

    ``state`` is the decision vector entering ``from_stage``.  Node costs are
    weighted by path probabilities so the optimal value is the exact expected
    cost-to-go.
    """
    T = model.horizon
    # Nodes per stage: (stage, parent_node_index, realization StageModel, prob).
    # Stage `from_stage` roots on the fixed state.
    levels: list[list[tuple[int, StageModel, float]]] = []
    if from_stage == 1:
        levels.append([(-1, model.stage1, 1.0)])
        start = 2
    else:
        st = model.stages[from_stage - 2]
        levels.append([(-1, r, float(p)) for r, p in zip(st.realizations, st.probs)])
        start = from_stage + 1
    for t in range(start, T + 1):
        st = model.stages[t - 2]
        prev = levels[-1]
        level = []
        for parent_idx, (_pp, _pm, pprob) in enumerate(prev):
            for r, p in zip(st.realizations, st.probs):
                level.append((parent_idx, r, pprob * float(p)))
        levels.append(level)

    # Column/row layout

    col_offsets: list[list[int]] = []
    row_offsets: list[list[int]] = []
    ncols = 0
    nrows = 0
    for level in levels:
        cos, ros = [], []
        for _parent, stage, _prob in level:
            cos.append(ncols)
            ros.append(nrows)
            ncols += stage.var_dim
            nrows += stage.num_eq
        col_offsets.append(cos)
        row_offsets.append(ros)

    A = np.zeros((nrows, ncols))
    rhs = np.zeros(nrows)
    cost = np.zeros(ncols)
    for li, level in enumerate(levels):
        for ni, (parent, stage, prob) in enumerate(level):
            r0 = row_offsets[li][ni]
            c0 = col_offsets[li][ni]
            A[r0 : r0 + stage.num_eq, c0 : c0 + stage.var_dim] = stage.A
            cost[c0 : c0 + stage.var_dim] = prob * stage.c
            if li == 0:
                rhs[r0 : r0 + stage.num_eq] = stage.b - stage.B @ state
            else:
                pc0 = col_offsets[li - 1][parent]
                pdim = levels[li - 1][parent][1].var_dim
                A[r0 : r0 + stage.num_eq, pc0 : pc0 + pdim] = stage.B
                rhs[r0 : r0 + stage.num_eq] = stage.b
    return LinearProgram(
        num_vars=ncols, num_eq=nrows, cost=cost, eq_matrix=A, eq_rhs=rhs
    )


def extensive_form(model: AnyModel) -> float:
    """Exact optimum of the whole problem: the cost-to-go entering stage 1 at x0."""
    return exact_recourse(model, 1, model.x0)


def exact_recourse(model: AnyModel, t: int, x: np.ndarray) -> float:
    """Exact expected cost-to-go entering stage t at state x (0 beyond T)."""
    smodel = as_stochastic(model)
    T = smodel.horizon
    if t == T + 1:
        return 0.0
    if not (1 <= t <= T):
        raise ValueError(f"stage must be in 1..{T + 1}, got {t}")
    _check_guard(smodel, t)
    x = np.asarray(x, dtype=float)
    lp = _assemble_tree_lp(smodel, t, x)
    sol = solve_exact(lp)
    if sol.status is not SolveStatus.OPTIMAL:
        raise OracleInfeasibleError(
            f"cost-to-go at stage {t} is {sol.status.value} for the given state"
        )
    return sol.obj


def sample_reachable_states(
    model: AnyModel, t: int, count: int, seed: int
) -> np.ndarray:
    """Vertices of the reachable set entering stage t, by randomized rollouts.

    Simulates forward from x0 with random stage objectives (and random
    realization draws in the stochastic case), so every returned state is a
    feasible previous-stage decision vector.
    """
    smodel = as_stochastic(model)
    if not (2 <= t <= smodel.horizon + 1):
        raise ValueError("reachable states are defined for stages 2..T+1")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x = smodel.x0
        for tau in range(1, t):
            if tau == 1:
                stage = smodel.stage1
            else:
                st = smodel.stages[tau - 2]
                j = rng.integers(st.num_realizations)
                stage = st.realizations[int(j)]
            lp = LinearProgram(
                num_vars=stage.var_dim,
                num_eq=stage.num_eq,
                cost=rng.normal(size=stage.var_dim),
                eq_matrix=stage.A,
                eq_rhs=stage.b - stage.B @ x,
            )
            sol = solve_exact(lp)
            if sol.status is not SolveStatus.OPTIMAL:
                raise OracleInfeasibleError(
                    f"state sampling hit a {sol.status.value} stage-{tau} subproblem"
                )
            x = sol.x
        out.append(x)
    return np.asarray(out)
