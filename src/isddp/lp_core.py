"""Dense simplex kernel for small stage subproblems.

Handles LPs of the form

    min  c . x  (+ f)                 x >= 0, f free (present iff a cut row is)
    s.t. eq_matrix @ x == eq_rhs
         f >= theta_i + beta_i . x    for every cut row i

Exact solves run a two-phase tableau simplex on the nonnegative standard
form (f split into f+ - f-, one surplus variable per cut row) and return a
basic (vertex) primal point together with exact row multipliers.  Every
solve starts from a crash basis (Bixby, ORSA J. Computing 4(3), 1992): a
row that holds a unit column (one nonzero entry, positive after the rows
are signed to b >= 0) starts with that column basic, so only the other rows
carry an artificial into phase 1.  Position-limit slacks, the surpluses of
cuts with a negative intercept and, in an explicit dual, the slack of every
row with c_j >= 0 are such columns.  The start also decides which of
several optimal vertices a degenerate LP returns.  One
array holds the constraint rows, then the phase-2 and phase-1 reduced-cost
rows, so a pivot is one rank-1 update; on large tableaux it touches only
the rows and columns the pivot changes.  Each changed cell gets the same
float operations either way, so results are bit-identical (see
``_simplex_standard_form``).

Certified eps-optimal dual solutions come from solving the *explicit dual*
with the same kernel: its phase-2 iterates are dual-feasible points of the
original LP whose objective increases monotonically to the optimum, so a
retrospective scan of the recorded iterate trail, once the optimum is known,
yields the earliest point within budget together with its exact
suboptimality.  A solve records a trail when it is given ``trail_len``: each
phase-2 iterate's objective and the first ``trail_len`` entries of its
vertex (the primal ``x``, or the dual's ``lam+ | lam- | mu``).

Phase 1 depends on the constraints alone.  LPs that differ only in
``eq_rhs`` have explicit duals that share ``(A, b)`` and differ only in
their cost, so ``solve_dual_batch`` solves them together: phase 1 once, on
one tableau that carries every LP's cost row, then phase 2 in groups.  The
LPs of a group share one tableau and take the same pivots; a group splits
where its LPs pivot differently.  Every result is bit-identical to a lone
solve (see ``_simplex_batch``).

Dual convention for cut rows: weights mu >= 0 with sum(mu) == 1, entering
the variable-wise constraint as  eq_matrix.T @ lam - sum_i mu_i * beta_i <= c.
(The minus sign follows from writing a cut row as  f - beta_i . x >= theta_i.)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .schedules import ErrorBudget

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
# Tableaux with at least this many cells update, at each pivot, only the
# rows and columns the pivot changes; below it one dense update costs fewer
# numpy calls.  Measured break-even on chain tree LPs: 5k-9k cells for primal
# forms, 34k-53k for their denser explicit duals.
RESTRICTED_UPDATE_CELLS = 20_000
# A phase switches from Dantzig's to Bland's rule after more than this many
# degenerate pivots in a row, per row and column of the standard form.
BLAND_STREAK = 50


class LpError(Exception):
    """Base class for kernel faults."""


class LpDimensionError(LpError):
    pass


class PivotLimitError(LpError):
    """Numerical stall: pivot budget exhausted. Carries the last iterate."""

    def __init__(self, message: str, iterate: np.ndarray, obj: float):
        super().__init__(message)
        self.iterate = iterate
        self.obj = obj


class NoFiniteOptimumError(LpError):
    """The LP handed to an inexact dual solve is infeasible or unbounded."""


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """Stage LP in equality form with optional epigraph cut rows.

    The LP is its five arrays, and its sizes are read off their shapes;
    ``eq_matrix`` must be ``(len(eq_rhs), len(cost))``.  ``eq_rhs`` is the
    already-shifted right-hand side (the caller subtracts the coupling term
    of the previous stage's decision).  Row ``i`` of ``cut_beta`` and entry
    ``i`` of ``cut_theta`` impose ``f >= cut_theta[i] + cut_beta[i].x`` on
    the free epigraph variable ``f``, which the LP has, with the objective
    ``c.x + f``, exactly when it has a cut row.  The arrays are kept as
    given, not copied or reshaped, and nothing writes to them: stage LPs
    alias their pool's read-only arrays.
    """

    cost: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    cut_beta: Optional[np.ndarray] = None
    cut_theta: Optional[np.ndarray] = None

    def __post_init__(self):
        self.cost = np.asarray(self.cost, dtype=float)
        self.eq_matrix = np.asarray(self.eq_matrix, dtype=float)
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=float)
        self.cut_beta = (np.zeros((0, self.cost.size)) if self.cut_beta is None
                         else np.asarray(self.cut_beta, dtype=float))
        self.cut_theta = (np.zeros(0) if self.cut_theta is None
                          else np.asarray(self.cut_theta, dtype=float))
        self.validate()

    def validate(self) -> None:
        if self.cost.ndim != 1 or self.eq_rhs.ndim != 1:
            raise LpDimensionError(
                f"cost and eq_rhs have shapes {self.cost.shape} and "
                f"{self.eq_rhs.shape}, expected vectors"
            )
        if self.eq_matrix.shape != (self.num_eq, self.num_vars):
            raise LpDimensionError(
                f"eq_matrix has shape {self.eq_matrix.shape}, expected "
                f"({self.num_eq}, {self.num_vars}) from eq_rhs and cost"
            )
        K = len(self.cut_theta) if self.cut_theta.ndim == 1 else -1
        if self.cut_beta.shape != (K, self.num_vars):
            raise LpDimensionError(
                f"cut_beta has shape {self.cut_beta.shape} and cut_theta "
                f"{self.cut_theta.shape}, expected (K, {self.num_vars}) and (K,)"
            )

    @property
    def num_vars(self) -> int:
        return len(self.cost)

    @property
    def num_eq(self) -> int:
        return len(self.eq_rhs)

    @property
    def num_cuts(self) -> int:
        return len(self.cut_theta)

    @property
    def has_epigraph(self) -> bool:
        return self.num_cuts > 0

    def cut_beta_matrix(self) -> np.ndarray:
        return self.cut_beta

    def cut_thetas(self) -> np.ndarray:
        return self.cut_theta


@dataclass
class PrimalDualSolution:
    """Basic optimal point plus exact multipliers, or a failure status.

    ``x`` includes only the decision variables; the epigraph value (when
    present) is ``obj - cost.x``.  ``lam`` holds the equality-row multipliers
    and ``mu`` the cut-row weights.  ``basis`` indexes standard-form columns:
    entries below ``num_vars`` are decision variables, the rest are internal
    epigraph-split / surplus columns.
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    obj: float = math.nan
    lam: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None
    basis: tuple[int, ...] = ()


@dataclass
class DualCertificate:
    """Dual-feasible point with a certified suboptimality bound.

    The point is the earliest phase-2 iterate of the explicit dual within
    budget of its optimum, so ``dual_obj + eps_certified`` is the optimum
    the kernel reached.
    """

    lam: np.ndarray
    mu: np.ndarray
    dual_obj: float
    eps_certified: float


@dataclass
class _KernelResult:
    status: SolveStatus
    z: Optional[np.ndarray]
    obj: float
    y: Optional[np.ndarray]
    basis: Optional[np.ndarray]
    pivots: int
    trail: list = field(default_factory=list)


def _simplex_standard_form(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    *,
    max_pivots: Optional[int] = None,
    trail_len: Optional[int] = None,
) -> _KernelResult:
    """Two-phase tableau simplex for  min c.z  s.t. A z = b, z >= 0 (see ``_simplex_batch``)."""
    (out,) = _simplex_batch(
        A, b, np.asarray(c)[None, :], max_pivots=max_pivots, trail_len=trail_len
    )
    if isinstance(out, LpError):
        raise out
    return out


def _simplex_batch(
    A: np.ndarray,
    b: np.ndarray,
    C: np.ndarray,
    *,
    max_pivots: Optional[int] = None,
    trail_len: Optional[int] = None,
) -> list:
    """Two-phase tableau simplex for  min C[k].z  s.t. A z = b, z >= 0,  per row k.

    Returns one outcome per cost row ``C[k]``: a ``_KernelResult``, or the
    ``LpError`` that a solve of that LP alone raises.  Dantzig pricing with
    an automatic switch to Bland's rule after a long degenerate streak.
    With a ``trail_len``, each phase-2 iterate is appended to the trail as
    an ``(obj, z[:trail_len])`` snapshot, the optimum included; a snapshot
    is a compact copy, so a kept trail does not pin the whole vertex.

    One array ``tab`` of shape ``(m + K + 1, n + m + 1)`` holds the tableau:
    rows ``0..m-1`` are the constraints, rows ``m..m+K-1`` the phase-2
    reduced-cost rows (one per LP) and the last row the phase-1 row ``r1``;
    the last column is the right-hand side (``-objective`` in the cost rows).
    The crash start, phase 1 and the artificial drive-out depend on
    ``(A, b)`` only, so they run once for all K LPs.  The crash scales its
    rows in place and prices the cost rows out against its columns; each
    phase-1 pivot is one rank-1 update of the whole array, which gives
    every cost row the update a lone solve gives its own.

    Phase 2 runs in groups.  A group is one tableau, the constraint rows and
    one cost row per member, with one basis; it starts as rows ``:m+K`` of
    ``tab`` with every LP a member.  At each step every member prices its own
    row (Dantzig, or Bland once its own degenerate streak trips), and the
    members that pivot on the same ``(pr, pc)`` share one ratio test and one
    rank-1 update.  When members pivot differently the group splits: each
    part but the last pivots a copy of the constraint rows and of its
    members' cost rows, and the parts run depth first.  A member leaves its
    group when it finishes, and a group of one (every lone solve, K == 1)
    runs the scalar loop.  Every row of every member thus gets the float
    operations of its lone solve.  A trail snapshot is taken once per group
    step, so the members of a group share its vertex arrays.  Only
    structural columns enter.

    When a lone solve's tableau (``m + 2`` rows) has at least
    ``RESTRICTED_UPDATE_CELLS`` cells, a pivot touches only the rows where
    the pivot column is nonzero and the columns where the pivot row is
    nonzero, in a batch too.  Each cell that changes gets one product
    ``colv[i] * row[j]`` and one subtraction whichever update runs, so the
    results would match with either update.  The one exception is the sign
    of an exact zero in a skipped cell, which only had a zero product to
    lose (the crash likewise skips a column whose cost is zero in every LP);
    no comparison, ratio or argmin can see that sign.
    """
    m, n = A.shape
    K = len(C)
    if max_pivots is None:
        max_pivots = 10_000 + 50 * (m + n)
    bland_after = BLAND_STREAK * (n + m)

    sign = np.where(b < 0, -1.0, 1.0)
    ncols = n + m
    tab = np.zeros((m + K + 1, ncols + 1))
    body, r1 = tab[:m], tab[m + K]
    body[:, :n] = A * sign[:, None]
    body[:, n:ncols] = np.eye(m)
    body[:, -1] = b * sign
    tab[m : m + K, :n] = C
    rhs = body[:, -1]
    restricted = (m + 2) * (ncols + 1) >= RESTRICTED_UPDATE_CELLS  # by a lone solve's size

    basis = np.arange(n, ncols)
    # Crash basis: a row whose structural part holds a unit column (one
    # nonzero entry, and that positive) starts with the lowest-indexed such
    # column basic instead of its artificial.  The crash depends on (A, b)
    # only, so every LP of a batch gets the same start.
    structural = body[:, :n]
    unit = (np.count_nonzero(structural, axis=0) == 1) & (
        structural.max(axis=0, initial=0.0) > 0.0)
    cols = unit.nonzero()[0]
    rows, first = np.unique(structural.argmax(axis=0)[cols] if m else cols, return_index=True)
    costs = tab[m : m + K]
    for pr, pc in zip(rows.tolist(), cols[first].tolist()):
        row = body[pr]
        if row[pc] != 1.0:
            row /= row[pc]
        basis[pr] = pc
        colv = costs[:, pc].copy()
        if colv.any():  # price the cost rows out against the crash column
            costs -= colv[:, None] * row
            costs[:, pc] = 0.0
    # the phase-1 row sums the rows that keep their artificial
    keep = basis >= n
    r1[:n] = -structural[keep].sum(axis=0)
    r1[-1] = -rhs[keep].sum()
    ratios = np.empty(m)

    def pivot(live: np.ndarray, basis: np.ndarray, pr: int, pc: int) -> None:
        """Pivot on (pr, pc): ``live`` holds the m constraint rows, then cost rows."""
        row = live[pr]
        row /= row[pc]
        colv = live[:, pc].copy()
        colv[pr] = 0.0
        if restricted:
            rows = colv.nonzero()[0]
            cols = row.nonzero()[0]
            live[np.ix_(rows, cols)] -= colv[rows, None] * row[cols]
        else:
            live -= colv[:, None] * row
        live[:, pc] = 0.0
        row[pc] = 1.0
        basis[pr] = pc

    def entering(r: np.ndarray, bland: bool) -> int:
        # Only structural columns enter: an artificial that left the basis
        # never re-enters, and one that is basic prices at zero.
        # Bland: the first eligible column; Dantzig: the first of the minima
        price = r[:n]
        pc = int((price < -FEAS_TOL).argmax() if bland else price.argmin())
        return pc if price[pc] < -FEAS_TOL else -1

    def leaving_row(body: np.ndarray, rhs: np.ndarray, basis: np.ndarray, pc: int,
                    bland: bool) -> int:
        if not m:
            return -1
        colv = body[:, pc]
        pos = colv > PIVOT_TOL
        ratios.fill(np.inf)
        np.divide(rhs, colv, out=ratios, where=pos)
        rmin = ratios[ratios.argmin()]
        if rmin == np.inf:  # no positive entry in the column
            return -1
        tie = (ratios <= rmin + 1e-9 * (1.0 + abs(rmin))).nonzero()[0]
        if tie.size == 1:
            return int(tie[0])
        if bland:
            return int(tie[basis[tie].argmin()])
        return int(tie[colv[tie].argmax()])

    def run_phase(
        r: np.ndarray, live: np.ndarray, basis: np.ndarray, count: int,
        trail: Optional[list], bland: bool = False, degenerate: int = 0,
    ) -> tuple[str, int]:
        """Pivot on ``live`` until cost row ``r`` prices out; the outcome and pivot count."""
        body = live[:m]
        rhs = body[:, -1]
        while True:
            if trail is not None:
                trail.append((-r[-1], _vertex(basis, rhs, n)[:trail_len].copy()))
            pc = entering(r, bland)
            if pc < 0:
                return "optimal", count
            pr = leaving_row(body, rhs, basis, pc, bland)
            if pr < 0:
                return "unbounded", count
            prev = r[-1]
            pivot(live, basis, pr, pc)
            count += 1
            if count > max_pivots:
                return "limit", count
            if abs(r[-1] - prev) <= 1e-13 * (1.0 + abs(prev)):
                degenerate += 1
                if degenerate > bland_after:
                    bland = True
            else:
                degenerate = 0

    phase, pivots = run_phase(r1, tab, basis, 0, None)
    if phase == "unbounded":
        return [LpError("phase-1 subproblem unbounded: numerical failure") for _ in range(K)]
    if phase == "limit":
        return [_pivot_limit(max_pivots, basis, rhs, n, -tab[m + k, -1]) for k in range(K)]
    if -r1[-1] > FEAS_TOL * (1.0 + np.abs(rhs).sum()):
        return [_KernelResult(SolveStatus.INFEASIBLE, None, math.nan, None, None, pivots)
                for _ in range(K)]

    # Drive leftover artificials out of the basis where a structural pivot
    # exists; rows without one are redundant and keep a zero-level artificial.
    for pr in range(m):
        if basis[pr] >= n:
            cand = (np.abs(body[pr, :n]) > PIVOT_TOL).nonzero()[0]
            if cand.size:
                pivot(tab, basis, pr, int(cand[0]))
                pivots += 1

    def outcome_of(phase: str, r: np.ndarray, basis: np.ndarray, rhs: np.ndarray,
                   count: int, trail: list):
        """The outcome of an LP whose phase 2 ended ``phase`` with cost row ``r``."""
        if phase == "optimal":
            return _optimal(r, basis, rhs, n, sign, count, trail)
        if phase == "unbounded":
            return _KernelResult(SolveStatus.UNBOUNDED, None, math.nan, None, None, count)
        return _pivot_limit(max_pivots, basis, rhs, n, -r[-1])

    if K == 1:  # the group bookkeeping would cost a small lone solve a few percent
        trail = None if trail_len is None else []
        phase, pivots = run_phase(tab[m], tab[: m + 1], basis, pivots, trail)
        return [outcome_of(phase, tab[m], basis, rhs, pivots, trail or [])]

    out: list = [None] * K
    trails: list[list] = [[] for _ in range(K)]
    # the groups still to run, depth first: (tableau without r1, basis, pivot
    # count, members, their Bland flags, their degenerate streaks)
    groups = [(tab[: m + K], basis, pivots, np.arange(K), np.zeros(K, dtype=bool),
               np.zeros(K, dtype=np.int64))]
    while groups:
        live, basis, count, ks, bland, streak = groups.pop()
        costs, rhs = live[m:], live[:m, -1]
        if len(ks) == 1:  # a group of one runs the lone loop
            k = int(ks[0])
            phase, count = run_phase(costs[0], live, basis, count,
                                     None if trail_len is None else trails[k],
                                     bool(bland[0]), int(streak[0]))
            out[k] = outcome_of(phase, costs[0], basis, rhs, count, trails[k])
            continue
        if trail_len is not None:
            point = _vertex(basis, rhs, n)[:trail_len].copy()
            objs = -costs[:, -1]
            for i, k in enumerate(ks.tolist()):
                trails[k].append((objs[i], point))
        price = costs[:, :n]
        pcs = price.argmin(axis=1)
        for i in bland.nonzero()[0]:
            pcs[i] = (price[i] < -FEAS_TOL).argmax()
        moving = price[np.arange(len(ks)), pcs] < -FEAS_TOL
        if moving.all() and not bland.any() and (pcs == pcs[0]).all():
            # the common step: every member enters one column by Dantzig's rule
            pc = int(pcs[0])
            pr = leaving_row(live[:m], rhs, basis, pc, False)
            if pr < 0:
                for i, k in enumerate(ks.tolist()):
                    out[k] = outcome_of("unbounded", costs[i], basis, rhs, count, trails[k])
                continue
            parts = [(pr, pc, slice(None))]
        else:
            leaving: dict = {}  # one ratio test per entering column and rule
            by_pivot: dict = {}
            for i, (k, pc, bl) in enumerate(zip(ks.tolist(), pcs.tolist(), bland.tolist())):
                if moving[i]:
                    if (pc, bl) not in leaving:
                        leaving[pc, bl] = leaving_row(live[:m], rhs, basis, pc, bl)
                    pr = leaving[pc, bl]
                    if pr >= 0:
                        by_pivot.setdefault((pr, pc), []).append(i)
                        continue
                out[k] = outcome_of("unbounded" if moving[i] else "optimal",
                                    costs[i], basis, rhs, count, trails[k])
            parts = [(pr, pc, np.array(sel)) for (pr, pc), sel in by_pivot.items()]
        # every part but the last pivots a copy; the last goes on in place
        for j, (pr, pc, sel) in enumerate(parts):
            members = ks[sel]
            if j < len(parts) - 1:
                part, part_basis = np.concatenate((live[:m], costs[sel])), basis.copy()
            else:
                part, part_basis = live[: m + len(members)], basis
                if len(members) < len(ks):
                    part[m:] = costs[sel]
            prev = part[m:, -1].copy()
            pivot(part, part_basis, pr, pc)
            if count + 1 > max_pivots:
                for i, k in enumerate(members.tolist()):
                    out[k] = outcome_of(
                        "limit", part[m + i], part_basis, part[:m, -1], count + 1, trails[k])
                continue
            obj = part[m:, -1]
            s = np.where(np.abs(obj - prev) <= 1e-13 * (1.0 + np.abs(prev)), streak[sel] + 1, 0)
            groups.append((part, part_basis, count + 1, members, bland[sel] | (s > bland_after), s))
    return out


def _vertex(basis: np.ndarray, rhs: np.ndarray, n: int) -> np.ndarray:
    """The basic point over the n structural and len(basis) artificial columns."""
    z = np.zeros(n + len(basis))
    z[basis] = rhs
    return z


def _optimal(
    cost_row: np.ndarray, basis: np.ndarray, rhs: np.ndarray, n: int, sign: np.ndarray,
    pivots: int, trail: list,
) -> _KernelResult:
    """The OPTIMAL outcome of a phase 2 that ended with reduced costs ``cost_row``."""
    return _KernelResult(
        SolveStatus.OPTIMAL, _vertex(basis, rhs, n)[:n], -cost_row[-1],
        -cost_row[n:-1] * sign, basis.copy(), pivots, trail=trail,
    )


def _pivot_limit(
    max_pivots: int, basis: np.ndarray, rhs: np.ndarray, n: int, obj: float
) -> PivotLimitError:
    """The fault of an LP stopped at ``basis`` with objective ``obj``."""
    return PivotLimitError(
        f"pivot limit {max_pivots} exceeded", _vertex(basis, rhs, n)[:n], obj)


# ---------------------------------------------------------------------------
# Standard-form assembly


def _standard_primal(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns: [x | f+ f- | cut surpluses] (epigraph parts only when present)."""
    if not lp.has_epigraph:  # uncopied: the kernel never writes to its inputs
        return lp.eq_matrix, lp.eq_rhs, lp.cost
    nv, m, K = lp.num_vars, lp.num_eq, lp.num_cuts
    A = np.zeros((m + K, nv + 2 + K))
    b = np.zeros(m + K)
    A[:m, :nv] = lp.eq_matrix
    b[:m] = lp.eq_rhs
    A[m:, :nv] = -lp.cut_beta
    A[m:, nv] = 1.0
    A[m:, nv + 1] = -1.0
    A[m:, nv + 2 :] = -np.eye(K)
    b[m:] = lp.cut_theta
    c = np.concatenate([lp.cost, [1.0, -1.0], np.zeros(K)])
    return A, b, c


def _explicit_duals(
    lp: LinearProgram, eq_rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit duals of ``lp`` with each row of ``eq_rhs``, in standard form.

    Returns their shared constraints ``(D, rhs)``, with columns
    ``[lam+ | lam- | mu | slacks]``, and one cost row per row of
    ``eq_rhs``: ``[-eq_rhs | eq_rhs | -thetas | 0]``.
    """
    nv, m, K = lp.num_vars, lp.num_eq, lp.num_cuts
    nrows = nv + (1 if lp.has_epigraph else 0)
    ncols = 2 * m + K + nv
    D = np.zeros((nrows, ncols))
    rhs = np.zeros(nrows)
    D[:nv, :m] = lp.eq_matrix.T
    D[:nv, m : 2 * m] = -lp.eq_matrix.T
    D[:nv, 2 * m : 2 * m + K] = -lp.cut_beta.T
    D[:nv, 2 * m + K :] = np.eye(nv)
    rhs[:nv] = lp.cost
    if lp.has_epigraph:
        D[nv, 2 * m : 2 * m + K] = 1.0
        rhs[nv] = 1.0
    costs = np.zeros((len(eq_rhs), ncols))
    costs[:, :m] = -eq_rhs
    costs[:, m : 2 * m] = eq_rhs
    costs[:, 2 * m : 2 * m + K] = -lp.cut_theta
    return D, rhs, costs


def _dual_point(lp: LinearProgram, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m, K = lp.num_eq, lp.num_cuts
    lam = z[:m] - z[m : 2 * m]
    mu = z[2 * m : 2 * m + K].copy()
    return lam, mu


# ---------------------------------------------------------------------------
# Public operations


def _solve_primal(
    lp: LinearProgram, trail_len: Optional[int], max_pivots: Optional[int] = None
) -> tuple[PrimalDualSolution, list[tuple[float, np.ndarray]]]:
    A, b, c = _standard_primal(lp)
    res = _simplex_standard_form(A, b, c, max_pivots=max_pivots, trail_len=trail_len)
    if res.status is not SolveStatus.OPTIMAL:
        return PrimalDualSolution(status=res.status), []
    sol = PrimalDualSolution(
        status=SolveStatus.OPTIMAL,
        x=res.z[: lp.num_vars].copy(),
        obj=res.obj,
        lam=res.y[: lp.num_eq].copy(),
        mu=res.y[lp.num_eq :].copy(),
        basis=tuple(int(i) for i in res.basis),
    )
    return sol, res.trail


def solve_exact(
    lp: LinearProgram, *, max_pivots: Optional[int] = None
) -> PrimalDualSolution:
    """Solve to optimality, returning a vertex solution with exact duals."""
    return _solve_primal(lp, None, max_pivots)[0]


def solve_with_primal_trail(
    lp: LinearProgram,
) -> tuple[PrimalDualSolution, list[tuple[float, np.ndarray]]]:
    """solve_exact plus the phase-2 trail of (objective, x) vertex iterates.

    Every trail point is primal feasible with a nonincreasing objective; the
    final entry is the optimum.  Used for certified delta-suboptimal forward
    solves: pick the earliest iterate whose value is within budget.
    """
    return _solve_primal(lp, lp.num_vars)


def solve_dual_batch(lp: LinearProgram, eq_rhs: np.ndarray) -> list:
    """Kernel outcomes of the explicit duals of ``lp`` with each row of ``eq_rhs``.

    LPs that differ only in ``eq_rhs`` have explicit duals that share their
    constraints ``(D, rhs)``, which depend on ``eq_matrix``, ``cost`` and the
    cut slopes, and differ only in their cost row
    ``[-eq_rhs | eq_rhs | -thetas | 0]``.  They are solved as one batch
    (``_simplex_batch``): phase 1 once, then phase 2 in groups of members
    that pivot alike.  Outcome ``i`` is a ``_KernelResult``, or the
    ``LpError`` that a lone solve of member ``i`` raises.
    """
    D, rhs, costs = _explicit_duals(lp, eq_rhs)
    return _simplex_batch(D, rhs, costs, trail_len=2 * lp.num_eq + lp.num_cuts)


def solve_dual_inexact(
    lp: LinearProgram,
    budget: ErrorBudget,
    *,
    result: Optional[_KernelResult | LpError] = None,
) -> DualCertificate:
    """Return a dual-feasible (lam, mu) with dual_obj >= optimum - budget.

    The explicit dual is solved to optimality, recording its phase-2 trail;
    the earliest trail iterate within ``budget.resolve(optimum)`` of the
    now-known optimum is returned (a retrospective certificate); with a zero
    budget the certificate is the first iterate at the optimum.  A
    ``result`` given is used as the explicit dual's kernel outcome in place
    of a solve of ``lp``'s dual alone (a ``solve_dual_batch`` of one); it
    must come from a ``solve_dual_batch`` of ``lp`` with any ``eq_rhs``,
    which is bit-identical to that member's lone solve: the scan reads only
    ``lp``'s row counts.  An ``LpError`` outcome is raised.
    """
    if result is None:
        (result,) = solve_dual_batch(lp, lp.eq_rhs[None])
    if isinstance(result, LpError):
        raise result
    _check_dual_solvable(result)
    optimum = -result.obj
    allowed = budget.resolve(optimum)
    for kernel_obj, zslice in result.trail:
        dual_obj = -kernel_obj
        if dual_obj >= optimum - allowed:
            lam, mu = _dual_point(lp, zslice)
            return DualCertificate(lam, mu, dual_obj, max(0.0, optimum - dual_obj))
    raise LpError("retrospective trail scan found no qualifying iterate")


def _check_dual_solvable(res: _KernelResult) -> None:
    if res.status is SolveStatus.INFEASIBLE:
        raise NoFiniteOptimumError(
            "dual infeasible: the primal LP is unbounded (or empty)"
        )
    if res.status is SolveStatus.UNBOUNDED:
        raise NoFiniteOptimumError("dual unbounded: the primal LP is infeasible")


def dual_feasibility_residual(
    lp: LinearProgram, lam: np.ndarray, mu: np.ndarray
) -> float:
    """Max violation of the dual constraints; 0 means dual feasible."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if lam.shape != (lp.num_eq,):
        raise LpDimensionError(f"lam has shape {lam.shape}, expected ({lp.num_eq},)")
    if mu.shape != (lp.num_cuts,):
        raise LpDimensionError(f"mu has shape {mu.shape}, expected ({lp.num_cuts},)")
    slack = lp.eq_matrix.T @ lam - lp.cost
    res = 0.0
    if lp.has_epigraph:
        slack = slack - lp.cut_beta.T @ mu
        res = max(abs(float(mu.sum()) - 1.0), float(max(0.0, -mu.min())))
    return max(res, float(max(0.0, slack.max(initial=0.0))))


def solution_residuals(
    lp: LinearProgram, sol: PrimalDualSolution
) -> tuple[float, float, float]:
    """(primal, dual, complementary-slackness) residuals of an Optimal solve."""
    if sol.status is not SolveStatus.OPTIMAL:
        raise ValueError("residuals are defined for Optimal solutions only")
    x = sol.x
    primal = float(np.abs(lp.eq_matrix @ x - lp.eq_rhs).max(initial=0.0))
    primal = max(primal, float(max(0.0, -(x.min(initial=0.0)))))
    f = sol.obj - float(lp.cost @ x)
    if lp.has_epigraph:
        cut_slack = f - (lp.cut_theta + lp.cut_beta @ x)
        primal = max(primal, float(max(0.0, -(cut_slack.min(initial=0.0)))))
    dual = dual_feasibility_residual(lp, sol.lam, sol.mu)
    rc = lp.cost - lp.eq_matrix.T @ sol.lam
    if lp.has_epigraph:
        rc = rc + lp.cut_beta.T @ sol.mu
    comp = float(np.abs(x * rc).max(initial=0.0))
    if lp.has_epigraph:
        comp = max(comp, float(np.abs(sol.mu * cut_slack).max(initial=0.0)))
    return primal, dual, comp
