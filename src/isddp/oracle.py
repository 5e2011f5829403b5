"""Brute-force ground truth for small instances.

Assembles the full scenario-tree LP (deterministic equivalent) and solves it
exactly; also evaluates exact expected cost-to-go at an arbitrary state via
the same construction restricted to a subtree.  Oracles never approximate:
trees whose dense arrays exceed the size guard are a hard fault.
"""

from __future__ import annotations

import numpy as np

from .lp_core import LinearProgram, SolveStatus, solve_exact
from .models import StochasticModel

# Cap on the float64 cells (256 MiB) that a tree solve holds at once: the
# tree matrix (rows x cols), the crash's signed copy of it (rows x cols) and
# the kernel's tableau ((rows + 2) x (cols + 1)).
TABLEAU_CELL_GUARD = 2**25


class OracleGuardError(RuntimeError):
    """Scenario-tree LP exceeds the brute-force size guard."""


class OracleInfeasibleError(RuntimeError):
    pass


def _assemble_tree_lp(
    model: StochasticModel, from_stage: int, state: np.ndarray
) -> LinearProgram:
    """Deterministic-equivalent LP of the subtree rooted at ``from_stage``.

    ``state`` is the decision vector entering ``from_stage``.  Node costs are
    weighted by path probabilities so the optimal value is the exact expected
    cost-to-go.  A subtree whose dense arrays would exceed the guard is
    rejected from its level sizes (every realization of a stage shares its
    dimensions), before anything is allocated.
    """
    # (realizations, probabilities) per stage from the root on
    levels = [(st.realizations, st.probs) for st in model.stages[max(0, from_stage - 2) :]]
    if from_stage == 1:
        levels.insert(0, ([model.stage1], [1.0]))
    nodes, rows, cols = 1, 0, 0
    for reals, _probs in levels:
        nodes *= len(reals)
        rows += nodes * reals[0].num_eq
        cols += nodes * reals[0].var_dim
    cells = 2 * rows * cols + (rows + 2) * (cols + 1)
    if cells > TABLEAU_CELL_GUARD:
        raise OracleGuardError(
            f"scenario-tree LP is {rows} x {cols}: its matrix, the crash's signed copy and "
            f"the tableau need {cells} dense cells, oracle guard is {TABLEAU_CELL_GUARD}"
        )

    A = np.zeros((rows, cols))
    rhs = np.zeros(rows)
    cost = np.zeros(cols)
    r0 = c0 = 0
    # (columns, path probability) per node of the level above; the root
    # level's one parent is the fixed state
    parents = [(None, 1.0)]
    for reals, probs in levels:
        children = []
        for pcols, pprob in parents:
            for r, p in zip(reals, probs):
                prob = pprob * float(p)
                rs, cs = slice(r0, r0 + r.num_eq), slice(c0, c0 + r.var_dim)
                A[rs, cs] = r.A
                cost[cs] = prob * r.c
                if pcols is None:
                    rhs[rs] = r.rhs(state)
                else:
                    A[rs, pcols] = r.B
                    rhs[rs] = r.b
                children.append((cs, prob))
                r0, c0 = rs.stop, cs.stop
        parents = children
    return LinearProgram(cost=cost, eq_matrix=A, eq_rhs=rhs)


def extensive_form(model: StochasticModel) -> float:
    """Exact optimum of the whole problem: the cost-to-go entering stage 1 at x0."""
    return exact_recourse(model, 1, model.x0)


def exact_recourse(model: StochasticModel, t: int, x: np.ndarray) -> float:
    """Exact expected cost-to-go entering stage t at state x (0 beyond T)."""
    T = model.horizon
    if not (1 <= t <= T + 1):
        raise ValueError(f"stage must be in 1..{T + 1}, got {t}")
    x = np.asarray(x, dtype=float)
    # the state entering stage T + 1 is stage T's decision
    dim = model.stage(T).var_dim if t == T + 1 else model.stage(t).state_dim
    if x.shape != (dim,):
        raise ValueError(f"stage {t} takes a state of length {dim}, got shape {x.shape}")
    if t == T + 1:
        return 0.0
    sol = solve_exact(_assemble_tree_lp(model, t, x))
    if sol.status is not SolveStatus.OPTIMAL:
        raise OracleInfeasibleError(
            f"cost-to-go at stage {t} is {sol.status.value} for the given state"
        )
    return sol.obj


def sample_reachable_states(
    model: StochasticModel, t: int, count: int, seed: int
) -> np.ndarray:
    """Vertices of the reachable set entering stage t, by randomized rollouts.

    Simulates forward from x0 with random stage objectives (and random
    realization draws in the stochastic case), so every returned state is a
    feasible previous-stage decision vector.
    """
    if not (2 <= t <= model.horizon + 1):
        raise ValueError("reachable states are defined for stages 2..T+1")
    # a draw from one realization takes no random bits
    sizes = [1] + [st.num_realizations for st in model.stages]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x = model.x0
        for tau in range(1, t):
            stage = model.stage(tau, int(rng.integers(sizes[tau - 1])))
            lp = LinearProgram(
                cost=rng.normal(size=stage.var_dim),
                eq_matrix=stage.A,
                eq_rhs=stage.rhs(x),
            )
            sol = solve_exact(lp)
            if sol.status is not SolveStatus.OPTIMAL:
                raise OracleInfeasibleError(
                    f"state sampling hit a {sol.status.value} stage-{tau} subproblem"
                )
            x = sol.x
        out.append(x)
    return np.asarray(out)
