"""Dense simplex kernel for small stage subproblems.

Handles LPs of the form

    min  c . x  (+ f)                 x >= 0, f free (present iff a cut row is)
    s.t. eq_matrix @ x == eq_rhs
         f >= theta_i + beta_i . x    for every cut row i

Exact solves run a two-phase tableau simplex on the nonnegative standard
form (f split into f+ - f-, one surplus variable per cut row) and return a
basic (vertex) primal point and its basis; ``solve_exact`` computes the
exact row multipliers from that basis when they are first read.  Every
solve starts from a crash basis (Bixby, ORSA J. Computing 4(3), 1992): a
row that holds a unit column (one nonzero entry, positive after the rows
are signed to b >= 0) starts with that column basic, so only the other rows
carry an artificial into phase 1, which ends once none of them is basic.
Position-limit slacks, the surpluses of cuts with a negative intercept and,
in an explicit dual, the slack of every row with c_j >= 0 are such
columns.  The start also decides which of several optimal vertices a
degenerate LP returns.  One array holds the constraint rows, then the
phase-2 and phase-1 reduced-cost rows, over the structural columns and the
right-hand sides only: no artificial has a column, since none that leaves
the basis re-enters.  So a pivot is one rank-1 update; on large tableaux
it touches only the rows and columns the pivot changes.  Each changed cell
gets the same float operations either way, so results are bit-identical
(see ``_simplex_batch``).

Certified eps-optimal dual solutions come from solving the *explicit dual*
with the same kernel: its phase-2 iterates are dual-feasible points of the
original LP whose objective increases monotonically to the optimum, so a
retrospective scan of the recorded iterate trail, once the optimum is known,
yields the earliest point within budget together with its exact
suboptimality.  A solve records a trail when it is given ``trail_len``: each
phase-2 iterate's objective and the first ``trail_len`` entries of its
vertex (the primal ``x``, or the dual's ``lam+ | lam- | mu``).

LPs that differ only in ``eq_rhs`` are solved as one batch, in two ways.
Their explicit duals share ``(A, b)`` and differ only in their cost, so
``solve_dual_batch`` runs phase 1 once, on one tableau that carries every
LP's cost row, then phase 2 in groups.  The primal LPs themselves share
``(A, c)`` and differ only in their right-hand side, so
``solve_primal_batch`` gives each LP its own rhs column on a shared tableau
(one per rhs sign pattern) and runs both phases in groups.  The LPs of a
group share one tableau and take the same pivots; a group splits where its
LPs pivot differently.  Every result is bit-identical to a lone solve (see
``_simplex_batch``).

Batches that share their constraints also share optimal bases (bunching:
Wets 1988; Gassmann, Math. Programming 47, 1990).  A primal basis's
reduced costs do not depend on the right-hand side, so a basis that is
optimal for one primal LP is optimal for every other at which it is primal
feasible; and explicit duals that share their constraints differ only in
their cost, so a basis that is optimal for one of them is optimal for
every other whose cost row prices out at it.  ``solve_primal_batch`` and
``solve_dual_batch`` each take a list of such bases, which the caller
keeps for as long as the constraints hold, and share one loop
(``_solve_with_bases``): it answers each member that one of them fits
without a kernel solve, as a ``_KernelResult`` with no pivots, solves the
rest as one batch and adds their optimal bases (``keep_bases``).  The
kernel keeps nothing itself.

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
    present) is ``obj - cost.x``.  ``basis`` indexes standard-form columns:
    entries below ``num_vars`` are decision variables, the next ones are
    internal epigraph-split / surplus columns, and ``n + i``, past the ``n``
    standard-form columns, is row ``i``'s artificial, basic at zero level
    on a redundant row.  ``lam`` holds the equality-row multipliers and
    ``mu`` the cut-row weights (None unless optimal).  They are read-only
    arrays, computed from the basis when first read: ``y`` solves
    ``B.T y = c_B``, where a basic artificial costs 0.  So a caller that
    reads only ``x`` and ``obj`` never pays for them.
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    obj: float = math.nan
    basis: tuple[int, ...] = ()
    _lp: Optional[LinearProgram] = field(default=None, repr=False, compare=False)
    _y: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    @property
    def lam(self) -> Optional[np.ndarray]:
        y = self._multipliers()
        return None if y is None else y[: self._lp.num_eq]

    @property
    def mu(self) -> Optional[np.ndarray]:
        y = self._multipliers()
        return None if y is None else y[self._lp.num_eq :]

    def _multipliers(self) -> Optional[np.ndarray]:
        if self._y is None and self.status is SolveStatus.OPTIMAL:
            A, _, c = _standard_primal(self._lp)
            basis = np.array(self.basis, dtype=np.intp)
            structural = basis < len(c)
            c_basic = np.zeros(len(basis))
            c_basic[structural] = c[basis[structural]]
            self._y = np.linalg.solve(_basis_matrix(A, basis).T, c_basic)
            self._y.flags.writeable = False
        return self._y


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
    basis: Optional[np.ndarray]
    pivots: int
    trail: list = field(default_factory=list)


def _leaving_row(colv: np.ndarray, rhs: np.ndarray, basis: np.ndarray, bland: bool,
                 ratios: np.ndarray) -> int:
    """The row that leaves when the column ``colv`` enters, by the ratio test
    on ``rhs`` (-1 if no entry of ``colv`` is positive); ``ratios`` is scratch.

    Ties within a relative 1e-9 of the least ratio go to the largest pivot
    entry (the first of them), or under Bland's rule to the lowest basic
    column.
    """
    if not len(colv):
        return -1
    pos = colv > PIVOT_TOL
    ratios.fill(np.inf)
    np.divide(rhs, colv, out=ratios, where=pos)
    least = int(ratios.argmin())
    rmin = ratios[least]
    if rmin == np.inf:  # no positive entry in the column
        return -1
    tie = ratios <= rmin + 1e-9 * (1.0 + abs(rmin))
    if np.count_nonzero(tie) == 1:
        return least
    tie = tie.nonzero()[0]
    if bland:
        return int(tie[basis[tie].argmin()])
    return int(tie[colv[tie].argmax()])


def _leaving_rows(colv: np.ndarray, rhs: np.ndarray, basis: np.ndarray,
                  bland: bool) -> np.ndarray:
    """``_leaving_row`` for each column of ``rhs`` (m, g) at once."""
    if not len(colv):
        return np.full(rhs.shape[1], -1)
    pos = (colv > PIVOT_TOL)[:, None]
    ratios = np.full(rhs.shape, np.inf)
    np.divide(rhs, colv[:, None], out=ratios, where=pos)
    rmin = ratios.min(axis=0)
    tie = ratios <= rmin + 1e-9 * (1.0 + np.abs(rmin))
    rank = -basis if bland else colv  # the tie that leaves ranks highest
    rows = np.where(tie, rank[:, None], -np.inf).argmax(axis=0)
    rows[rmin == np.inf] = -1
    return rows


def _simplex_batch(
    A: np.ndarray,
    b: np.ndarray,
    C: np.ndarray,
    *,
    max_pivots: Optional[int] = None,
    trail_len: Optional[int] = None,
) -> list:
    """Two-phase tableau simplex for  min C[k].z  s.t. A z = b[k], z >= 0,  per member k.

    Either ``C`` holds one cost row per member ``(K, n)`` and ``b`` is one
    right-hand side ``(m,)`` (or ``(1, m)``), or ``C`` holds one cost row
    ``(1, n)`` and ``b`` one right-hand side per member ``(K, m)``.
    Returns one outcome per member: a ``_KernelResult``, or the ``LpError``
    that a solve of that LP alone raises.  Dantzig pricing with an automatic
    switch to Bland's rule after a long degenerate streak.  With a
    ``trail_len``, each phase-2 iterate is appended to the trail as an
    ``(obj, z[:trail_len])`` snapshot, the optimum included; a snapshot is a
    compact copy, so a kept trail does not pin the whole vertex.

    A tableau holds ``m`` constraint rows, the reduced-cost rows and, in
    phase 1, the phase-1 row ``r1`` last.  Its columns are the ``n``
    structural ones, then the right-hand sides (``-objective`` in the cost
    rows).  It holds no artificial column, since nothing would read one:
    pricing and the ratio tests read structural columns and the rhs, an
    artificial that leaves the basis never re-enters, and a basic one prices
    at zero.  ``basis`` names row ``i``'s artificial ``n + i``, and
    ``solve_exact`` computes multipliers from the basis, not from the
    tableau.  A member is a (cost row, rhs column)
    pair: each member has a cost row of its own and all share one rhs
    column, or the other way round.  The rows are signed to ``b >= 0``
    before the crash, so members whose rhs signs differ start on separate
    tableaux.  The crash scales its rows in place and prices the cost rows
    out against its columns.

    Both phases run in groups.  A group is one tableau with one basis.  At
    each step every member prices its row (``r1`` in phase 1, its cost row
    in phase 2; Dantzig, or Bland once its own degenerate streak trips) and
    runs the ratio test on its rhs column; the members that pivot on the
    same ``(pr, pc)`` share one rank-1 update.  When members pivot
    differently the group splits: each part but the last pivots a copy of
    the constraint rows and of its members' rows or columns, and the parts
    run depth first.  A member leaves its group when it finishes.  Phase 1
    ends when ``r1`` prices out, or as soon as no artificial is basic: ``r1``
    is then 0 in exact arithmetic, and a rounding residue in it must not
    pick a column (whose ratio test may find no row).  Both tests read only
    what a group shares, so a group ends phase 1 as a whole: its infeasible
    members finish, and the others drive the leftover artificials out once
    and go on in phase 2.  A group whose members share one pricing row and
    one rhs column (every lone solve, and phase 1 of LPs that share ``b``)
    runs the scalar loop.  Every cell of every member thus gets the float
    operations of its lone solve.  A trail snapshot is taken once per group
    step and rhs column, so members that share their rhs share its vertex
    arrays.  A call keeps nothing for later calls: ``solve_primal_batch``
    and ``solve_dual_batch`` hand it only the members that no cached basis
    answers, and cache the optimal bases of the outcomes.

    When ``(m + 2) * (n + m + 1)``, a lone solve's tableau counted with one
    column per artificial as the break-even was measured, is at least
    ``RESTRICTED_UPDATE_CELLS``, a pivot touches only the columns where the
    pivot row is nonzero, in a batch too; of their rows, it takes those
    where the pivot column is nonzero, or every row when most of them are.
    Each cell that changes gets one product ``colv[i] * row[j]`` and one
    subtraction whichever update runs, so the results would match with
    either update; the pivot column gets no separate zeroing there, since
    ``row[pc]`` is exactly 1 and each of its cells subtracts itself.  The
    one exception is the sign of an exact zero, which a cell with a zero
    product may keep or lose (the crash likewise skips a column whose cost
    is zero in every LP); no comparison, ratio or argmin can see that
    sign.
    """
    m, n = A.shape
    B = b[None] if b.ndim == 1 else b
    K = max(len(B), len(C))
    own_rhs = len(B) > 1  # else every member has a cost row of its own, or K == 1
    if own_rhs and len(C) > 1:
        raise LpDimensionError(f"{len(C)} cost rows and {len(B)} right-hand sides: "
                               "the members must share one or the other")
    if max_pivots is None:
        max_pivots = 10_000 + 50 * (m + n)
    bland_after = BLAND_STREAK * (n + m)
    # by a lone solve's size, with one column per artificial, as the
    # break-even was measured
    restricted = (m + 2) * (n + m + 1) >= RESTRICTED_UPDATE_CELLS
    signs = np.where(B < 0, -1.0, 1.0)
    ratios = np.empty(m)
    out: list = [None] * K
    trails: list[list] = [[] for _ in range(K)]
    # the groups still to run, depth first: (tableau, basis, pivot count,
    # phase, members, their Bland flags, their degenerate streaks)
    groups: list = []

    def pivot(live: np.ndarray, basis: np.ndarray, pr: int, pc: int,
              colv: Optional[np.ndarray] = None) -> None:
        """Pivot on (pr, pc): ``live`` holds the m constraint rows, then cost rows.

        ``colv`` is a copy of column ``pc`` (taken here if not given), which
        the pivot overwrites.
        """
        if colv is None:
            colv = live[:, pc].copy()
        row = live[pr]
        row /= colv[pr]
        colv[pr] = 0.0
        if restricted:
            # row[pc] is now exactly 1, so column pc ends at an exact 0
            # wherever it changes
            rows = (colv != 0.0).nonzero()[0]
            cols = (row != 0.0).nonzero()[0]
            if 2 * len(rows) > len(colv):  # most rows change: take every row
                live[:, cols] -= colv[:, None] * row[cols]
            else:
                live[rows[:, None], cols] -= colv[rows, None] * row[cols]
        else:
            live -= colv[:, None] * row
            live[:, pc] = 0.0
            row[pc] = 1.0
        basis[pr] = pc

    def entering(r: np.ndarray, bland: bool) -> int:
        # Bland: the first eligible column; Dantzig: the first of the minima
        price = r[:n]
        pc = int((price < -FEAS_TOL).argmax() if bland else price.argmin())
        return pc if price[pc] < -FEAS_TOL else -1

    def phase1_over(basis: np.ndarray) -> bool:
        """Whether no artificial is basic, which ends phase 1."""
        return basis.max(initial=-1) < n

    def run_phase(
        r: np.ndarray, live: np.ndarray, basis: np.ndarray, count: int, phase: int,
        trail: Optional[list], bland: bool = False, degenerate: int = 0,
    ) -> tuple[str, int]:
        """Pivot on ``live`` (one rhs column) until row ``r`` prices out, or
        in phase 1 until ``phase1_over``.

        Returns the outcome and the pivot count.
        """
        rhs = live[:m, -1]
        while True:
            if trail is not None:
                trail.append((-r[-1], _vertex(basis, rhs, n)[:trail_len].copy()))
            if phase == 1 and phase1_over(basis):
                return "optimal", count
            pc = entering(r, bland)
            if pc < 0:
                return "optimal", count
            colv = live[:, pc].copy()
            pr = _leaving_row(colv[:m], rhs, basis, bland, ratios)
            if pr < 0:
                return "unbounded", count
            prev = r[-1]
            pivot(live, basis, pr, pc, colv)
            count += 1
            if count > max_pivots:
                return "limit", count
            if abs(r[-1] - prev) <= 1e-13 * (1.0 + abs(prev)):
                degenerate += 1
                if degenerate > bland_after:
                    bland = True
            else:
                degenerate = 0

    def objective(live: np.ndarray, phase: int) -> np.ndarray:
        """Each member's objective: its pricing row (r1 in phase 1, its cost
        row in phase 2) at its rhs column, where one of the two is shared."""
        return live[-1 if phase == 1 else m, n:] if own_rhs else live[m:, n]

    def settle(how: str, live: np.ndarray, basis: np.ndarray, count: int, ks: np.ndarray,
               idx: Optional[list] = None) -> None:
        """Record outcome ``how`` of the members ``ks[i]``, i in ``idx`` (all by default)."""
        for i in range(len(ks)) if idx is None else idx:
            k = int(ks[i])
            c, j = (m, n + i) if own_rhs else (m + i, n)
            rhs, obj = live[:m, j], float(-live[c, j])
            if how == "optimal":
                out[k] = _KernelResult(SolveStatus.OPTIMAL, _vertex(basis, rhs, n)[:n], obj,
                                       basis.copy(), count, trails[k])
            elif how == "limit":
                out[k] = _pivot_limit(max_pivots, basis, rhs, n, obj)
            elif how == "phase-1 unbounded":
                out[k] = LpError("phase-1 subproblem unbounded: numerical failure")
            else:  # "unbounded" or "infeasible"
                out[k] = _KernelResult(SolveStatus(how), None, math.nan, None, count)

    def narrow(live: np.ndarray, sel: np.ndarray, in_place: bool) -> np.ndarray:
        """``live`` with the rhs columns (or, in phase 2, the cost rows) of members ``sel`` only.

        Members with cost rows of their own share one rhs column, so they
        share phase 1 and its end too, and their group narrows in phase 2
        only.
        """
        if own_rhs:
            cols = n + sel
            if not in_place:
                return np.concatenate((live[:, :n], live[:, cols]), axis=1)
            live[:, n : n + len(cols)] = live[:, cols]
            return live[:, : n + len(cols)]
        rows = m + sel
        if not in_place:
            return np.concatenate((live[:m], live[rows]))
        live[m : m + len(rows)] = live[rows]
        return live[: m + len(rows)]

    def go_on(live: np.ndarray, basis: np.ndarray, count: int, phase: int, ks: np.ndarray,
              bland: Optional[np.ndarray] = None, streak: Optional[np.ndarray] = None) -> None:
        """Go on with a group (with fresh pricing rules if no ``bland`` is given).

        A group whose members share one pricing row and one rhs column (one
        member in phase 2) runs the scalar loop at once; any other waits in
        ``groups``.
        """
        if live.shape[1] > n + 1 or (phase == 2 and len(live) > m + 1):
            if bland is None:
                bland, streak = np.zeros(len(ks), dtype=bool), np.zeros(len(ks), dtype=np.int64)
            groups.append((live, basis, count, phase, ks, bland, streak))
            return
        trail = trails[ks[0]] if phase == 2 and trail_len is not None else None
        fresh = bland is None
        how, count = run_phase(live[-1] if phase == 1 else live[m], live, basis, count, phase,
                               trail, False if fresh else bool(bland[0]),
                               0 if fresh else int(streak[0]))
        if phase == 1 and how == "optimal":
            to_phase2(live, basis, count, ks)
        else:
            settle("phase-1 unbounded" if phase == 1 and how == "unbounded" else how,
                   live, basis, count, ks)

    def go_on_step(live: np.ndarray, basis: np.ndarray, count: int, phase: int,
                   ks: np.ndarray, bland: np.ndarray, streak: np.ndarray,
                   pr: int, pc: int, colv: Optional[np.ndarray] = None) -> None:
        """Pivot a group on (pr, pc), update its members' streaks and go on."""
        prev = objective(live, phase).copy()
        pivot(live, basis, pr, pc, colv)
        if count + 1 > max_pivots:
            settle("limit", live, basis, count + 1, ks)
            return
        obj = objective(live, phase)
        s = np.where(np.abs(obj - prev) <= 1e-13 * (1.0 + np.abs(prev)), streak + 1, 0)
        go_on(live, basis, count + 1, phase, ks, bland | (s > bland_after), s)

    def to_phase2(live: np.ndarray, basis: np.ndarray, count: int, ks: np.ndarray) -> None:
        """Finish the infeasible members of a group at the end of phase 1; go on in phase 2.

        A member is infeasible when phase 1 ended with its artificials above
        zero, read off the phase-1 row at its rhs column.
        """
        r1, rhs = live[-1, n:], live[:m, n:]
        bad = np.array([-r1[j] > FEAS_TOL * (1.0 + np.abs(rhs[:, j]).sum())
                        for j in range(len(r1))], dtype=bool)
        if bad.any():
            if not own_rhs:  # one rhs column for every member
                bad = bad.repeat(len(ks))
            settle("infeasible", live, basis, count, ks, bad.nonzero()[0].tolist())
            if bad.all():
                return
            live = narrow(live, (~bad).nonzero()[0], True)
            ks = ks[~bad]
        live = live[:-1]
        # Drive leftover artificials out of the basis where a structural pivot
        # exists; rows without one are redundant and keep a zero-level artificial.
        for pr in range(m):
            if basis[pr] >= n:
                cand = (np.abs(live[pr, :n]) > PIVOT_TOL).nonzero()[0]
                if cand.size:
                    pivot(live, basis, pr, int(cand[0]))
                    count += 1
        go_on(live, basis, count, 2, ks)

    # One tableau per rhs sign pattern, whose LPs all get the same crash
    # start, since the crash depends on the signed A only.
    classes: dict = {}
    for k in range(len(B)):
        classes.setdefault(signs[k].tobytes(), []).append(k)
    for members in classes.values():
        ks = np.array(members) if own_rhs else np.arange(K)
        tab = np.zeros((m + len(C) + 1, n + len(members)))
        body, costs, r1 = tab[:m], tab[m:-1], tab[-1]
        sign = signs[members[0]]
        body[:, :n] = A * sign[:, None]
        body[:, n:] = B[members].T * sign[:, None]
        costs[:, :n] = C
        basis = np.arange(n, n + m)
        # Crash basis: a row whose structural part holds a unit column (one
        # nonzero entry, and that positive) starts with the lowest-indexed
        # such column basic instead of its artificial.
        structural = body[:, :n]
        unit = ((structural != 0.0).sum(axis=0) == 1) & (
            structural.max(axis=0, initial=0.0) > 0.0)
        cols = unit.nonzero()[0]
        crash: dict = {}  # row -> its lowest unit column
        unit_rows = structural.argmax(axis=0)[cols] if m else cols
        for pr, pc in zip(unit_rows.tolist(), cols.tolist()):
            crash.setdefault(pr, pc)
        rows = sorted(crash)
        cols = [crash[pr] for pr in rows]
        # A crash column is zero outside its row, so scaling or pricing out
        # one row changes neither another row's entry nor another column's
        # cost: both tests can be read before the loop.
        scaled = (body[rows, cols] != 1.0).tolist()
        priced = costs[:, cols].any(axis=0).tolist()
        for pr, pc, scale, price in zip(rows, cols, scaled, priced):
            row = body[pr]
            if scale:
                row /= row[pc]
            basis[pr] = pc
            if price:  # price the cost rows out against the crash column
                colv = costs[:, pc].copy()
                costs -= colv[:, None] * row
                costs[:, pc] = 0.0
        # the phase-1 row sums the rows that keep their artificial
        keep = basis >= n
        r1[:n] = -structural[keep].sum(axis=0)
        for j in range(n, tab.shape[1]):
            r1[j] = -body[:, j][keep].sum()
        go_on(tab, basis, 0, 1, ks)

    while groups:
        live, basis, count, phase, ks, bland, streak = groups.pop()
        g = len(ks)
        body, rhs = live[:m], live[:m, n:]
        price = live[-1:, :n] if phase == 1 else live[m:, :n]  # r1, or one cost row per member
        if phase == 2 and trail_len is not None:
            if own_rhs:
                z = np.zeros((g, n + m))
                z[:, basis] = rhs.T
                points = list(z[:, :trail_len].copy())
            else:
                points = [_vertex(basis, rhs[:, 0], n)[:trail_len].copy()] * g
            for k, obj, point in zip(ks.tolist(), -objective(live, 2), points):
                trails[k].append((obj, point))
        pcs = price.argmin(axis=1)  # Dantzig, per pricing row
        # r1 is one row that every member prices: under either rule a column
        # enters if and only if its least price is below -FEAS_TOL
        if phase == 1 and (phase1_over(basis) or price[0, pcs[0]] >= -FEAS_TOL):
            to_phase2(live, basis, count, ks)
            continue
        if not np.count_nonzero(bland) and (len(pcs) == 1 or (pcs == pcs[0]).all()):
            # the common step: one entering column
            pc = int(pcs[0])
            moving = price[:, pc] < -FEAS_TOL  # per pricing row
            colv = live[:, pc].copy()
            prs = (_leaving_rows(colv[:m], rhs, basis, False).tolist() if rhs.shape[1] > 1
                   else [_leaving_row(colv[:m], rhs[:, 0], basis, False, ratios)])
            pr = prs[0]
            if pr >= 0 and moving.all() and prs.count(pr) == len(prs):
                go_on_step(live, basis, count, phase, ks, bland, streak, pr, pc, colv)
                continue
            moves = np.broadcast_to(moving, g).tolist()
            prs, pcs = np.where(moving, prs, -1).tolist(), [pc] * g
        else:  # a ratio test per entering column, rule and rhs column
            if len(pcs) < g:
                pcs = pcs.repeat(g)
            for i in bland.nonzero()[0]:
                pcs[i] = (price[i if len(price) > 1 else 0] < -FEAS_TOL).argmax()
            moving = price[np.arange(g) if len(price) > 1 else 0, pcs] < -FEAS_TOL
            pcs, moves, leaving, prs = pcs.tolist(), moving.tolist(), {}, []
            for i, (move, pc, bl) in enumerate(zip(moves, pcs, bland.tolist())):
                test = pc, bl, n + (i if own_rhs else 0)
                if move and test not in leaving:
                    leaving[test] = _leaving_row(body[:, pc], live[:m, test[2]], basis, bl,
                                                 ratios)
                prs.append(leaving[test] if move else -1)
        # members that pivot alike go on together; the others are done
        by_step: dict = {}
        done = []
        for i, (pr, pc) in enumerate(zip(prs, pcs)):
            if pr >= 0:
                by_step.setdefault((pr, pc), []).append(i)
            else:
                done.append(i)
        if phase == 1:
            settle("phase-1 unbounded", live, basis, count, ks, done)
        else:
            settle("optimal", live, basis, count, ks, [i for i in done if not moves[i]])
            settle("unbounded", live, basis, count, ks, [i for i in done if moves[i]])
        # every part but the last pivots a copy; the last goes on in place
        for j, ((pr, pc), sel) in enumerate(by_step.items()):
            last = j == len(by_step) - 1
            if len(sel) == g:
                go_on_step(live, basis, count, phase, ks, bland, streak, pr, pc)
            else:
                sel = np.array(sel)
                go_on_step(narrow(live, sel, last), basis if last else basis.copy(), count,
                           phase, ks[sel], bland[sel], streak[sel], pr, pc)
    return out


def _vertex(basis: np.ndarray, rhs: np.ndarray, n: int) -> np.ndarray:
    """The basic point over the n structural and len(basis) artificial columns."""
    z = np.zeros(n + len(basis))
    z[basis] = rhs
    return z


def _pivot_limit(
    max_pivots: int, basis: np.ndarray, rhs: np.ndarray, n: int, obj: float
) -> PivotLimitError:
    """The fault of an LP stopped at ``basis`` with objective ``obj``."""
    return PivotLimitError(
        f"pivot limit {max_pivots} exceeded", _vertex(basis, rhs, n)[:n], obj)


# ---------------------------------------------------------------------------
# Standard-form assembly


def _standard_primal(
    lp: LinearProgram, eq_rhs: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns: [x | f+ f- | cut surpluses] (epigraph parts only when present).

    The right-hand side is ``lp``'s own, or one row per row of ``eq_rhs``.
    """
    rhs = lp.eq_rhs if eq_rhs is None else eq_rhs
    if not lp.has_epigraph:  # uncopied: the kernel never writes to its inputs
        return lp.eq_matrix, rhs, lp.cost
    nv, m, K = lp.num_vars, lp.num_eq, lp.num_cuts
    A = np.zeros((m + K, nv + 2 + K))
    A[:m, :nv] = lp.eq_matrix
    A[m:, :nv] = -lp.cut_beta
    A[m:, nv] = 1.0
    A[m:, nv + 1] = -1.0
    A[m:, nv + 2 :] = -np.eye(K)
    b = np.empty(rhs.shape[:-1] + (m + K,))
    b[..., :m] = rhs
    b[..., m:] = lp.cut_theta
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


def _lone(outcomes: list):
    """The one outcome of a batch of one, raising it if it is an ``LpError``."""
    (out,) = outcomes
    if isinstance(out, LpError):
        raise out
    return out


def solve_exact(
    lp: LinearProgram, *, max_pivots: Optional[int] = None
) -> PrimalDualSolution:
    """Solve to optimality, returning a vertex solution whose exact
    multipliers come from its basis when first read."""
    A, b, c = _standard_primal(lp)
    res = _lone(_simplex_batch(A, b, c[None], max_pivots=max_pivots))
    if res.status is not SolveStatus.OPTIMAL:
        return PrimalDualSolution(status=res.status)
    return PrimalDualSolution(SolveStatus.OPTIMAL, res.z[: lp.num_vars].copy(), res.obj,
                              tuple(res.basis.tolist()), _lp=lp)


def solve_with_primal_trail(lp: LinearProgram) -> _KernelResult:
    """The kernel outcome of ``lp``, with the phase-2 trail of (objective, x) vertex iterates.

    Every trail point is primal feasible with a nonincreasing objective; the
    final entry is the optimum, whose ``x`` is ``z[:num_vars]``.  Used for
    certified delta-suboptimal forward solves: pick the earliest iterate
    whose value is within budget.  A kernel fault is raised.
    """
    A, b, c = _standard_primal(lp)
    return _lone(_simplex_batch(A, b, c[None], trail_len=lp.num_vars))


def keep_bases(bases: list, outcomes: list) -> None:
    """Add the basis of each optimal kernel outcome in ``outcomes`` to the cache ``bases``, once.

    ``bases`` holds optimal bases of LPs that share their standard form but
    their right-hand side, or of explicit duals that share their
    constraints, as ``[key, basis, vertex, factor]`` entries.  ``key`` is
    the sorted basis, which keeps each basis once; ``vertex`` is the ``z``
    the kernel returned where it found the basis, which a dual hit returns
    (a primal entry keeps its vertex too, but a primal hit reads only the
    basis); ``factor`` is what a test of the basis reads, computed when the
    basis is first tested.
    """
    seen = {entry[0] for entry in bases}
    for res in outcomes:
        if isinstance(res, LpError) or res.status is not SolveStatus.OPTIMAL:
            continue
        key = np.sort(res.basis).tobytes()
        if key not in seen:
            seen.add(key)
            bases.append([key, res.basis, res.z, None])


def _cache_hit(z: np.ndarray, obj: float, basis: np.ndarray, trail_len: int) -> _KernelResult:
    """The outcome of a member that a cached ``basis`` answers at ``z``: an
    optimum with no pivots, whose ``basis`` is the cached array itself and
    whose one-entry trail is ``z``."""
    return _KernelResult(SolveStatus.OPTIMAL, z, obj, basis, 0, [(obj, z[:trail_len])])


def _solve_with_bases(count: int, bases: list, factor, fit, solve) -> list:
    """The outcomes of a batch of ``count`` members: cached bases first, then the kernel.

    The entries of ``bases`` (``keep_bases``) are tested in their order, each
    against the members that no earlier entry answered; an entry's factor is
    ``factor(basis)``, computed when the entry is first tested.
    ``fit(basis, vertex, factor, todo)`` returns which members of ``todo``
    the entry fits, as a mask, and their outcomes.  ``solve(todo)`` solves
    the members that no entry fits as one ``_simplex_batch``, and the
    optimal bases of its outcomes join ``bases``.
    """
    out: list = [None] * count
    todo = np.arange(count)
    for entry in bases:
        if not len(todo):
            break
        if entry[3] is None:
            entry[3] = factor(entry[1])
        hit, answers = fit(*entry[1:], todo)
        for k, res in zip(todo[hit].tolist(), answers):
            out[k] = res
        todo = todo[~hit]
    if len(todo):
        solved = solve(todo)
        for k, res in zip(todo.tolist(), solved):
            out[k] = res
        keep_bases(bases, solved)
    return out


def solve_primal_batch(lp: LinearProgram, eq_rhs: np.ndarray, bases: list) -> list:
    """``solve_with_primal_trail`` of ``lp`` with each row of ``eq_rhs``, as one batch.

    LPs that differ only in ``eq_rhs`` share their standard form but its
    right-hand side.  Outcome ``i`` is a ``_KernelResult``, or the
    ``LpError`` that a lone solve of member ``i`` raises.

    ``bases`` holds optimal bases of earlier LPs with this standard form
    (``keep_bases``).  A basis's reduced costs do not depend on the
    right-hand side, so it is optimal for every member at which it is
    primal feasible: each basic value of ``B^-1 b`` is at least
    ``-FEAS_TOL``, each basic artificial (a redundant row) is within
    ``FEAS_TOL`` of 0, and the point leaves a primal residual
    ``|A z - b|_inf`` of at most ``FEAS_TOL * (1 + |b|_inf)``.  ``B^-1`` is
    computed when the basis is first tested, with a unit column for each
    basic artificial; a singular basis gets NaN and answers nothing.  A
    member that one of the bases fits, tested in their order, is answered
    without a kernel solve by that basis's point ``z``, with ``obj = c.z``,
    the cached basis array, no pivots and the one-entry trail
    ``[(obj, x)]``.  The other
    members are solved as one batch (``_simplex_batch``) from the crash
    start: on shared tableaux, one rhs column each, in groups of members
    that pivot alike.  Each equals its lone solve bit for bit, and their
    optimal bases join ``bases``.  With no bases nothing is tested.
    """
    A, b, c = _standard_primal(lp, eq_rhs)
    nv, n = lp.num_vars, A.shape[1]

    def fit(basis, _z, inverse, todo):
        rhs = b[todo]
        xb = rhs @ inverse.T
        structural = basis < n
        z = np.zeros((len(todo), n))
        z[:, basis[structural]] = xb[:, structural]
        hit = ((xb >= -FEAS_TOL).all(axis=1)
               & (np.abs(xb[:, ~structural]) <= FEAS_TOL).all(axis=1)
               & (np.abs(z @ A.T - rhs).max(axis=1, initial=0.0)
                  <= FEAS_TOL * (1.0 + np.abs(rhs).max(axis=1, initial=0.0))))
        return hit, [_cache_hit(point, float(c @ point), basis, nv) for point in z[hit]]

    return _solve_with_bases(
        len(b), bases, lambda basis: _basis_inverse(A, basis), fit,
        lambda todo: _simplex_batch(A, b[todo], c[None], trail_len=nv))


def solve_dual_batch(lp: LinearProgram, eq_rhs: np.ndarray, bases: list) -> list:
    """Kernel outcomes of the explicit duals of ``lp`` with each row of ``eq_rhs``.

    LPs that differ only in ``eq_rhs`` have explicit duals that share their
    constraints ``(D, rhs)``, which depend on ``eq_matrix``, ``cost`` and the
    cut slopes, and differ only in their cost row
    ``[-eq_rhs | eq_rhs | -thetas | 0]``.  Outcome ``i`` is a
    ``_KernelResult``, or the ``LpError`` that a lone solve of member ``i``
    raises.

    ``bases`` holds optimal bases of earlier duals with these constraints
    (``keep_bases``), each with the vertex the kernel returned there.  A
    basis is optimal for every member whose cost row prices out at it: each
    structural reduced cost is at least ``-FEAS_TOL``, the kernel's own
    test, read off the basis's tableau rows, which are computed when the
    basis is first tested.  Such a member, tested against the bases in
    their order, is answered without a kernel solve by that vertex's bits,
    as a one-entry trail: its certificate is exact.  A hit carries the
    cached basis array and no pivots.  The other members are solved as one
    batch (``_simplex_batch``) from the crash start, so each equals its
    lone solve bit for bit, and their optimal bases join ``bases``.
    """
    D, rhs, costs = _explicit_duals(lp, eq_rhs)
    trail_len = 2 * lp.num_eq + lp.num_cuts

    def fit(basis, z, factor, todo):
        cols, rows = factor
        C = costs[todo]
        hit = ((C - C[:, cols] @ rows) >= -FEAS_TOL).all(axis=1)
        return hit, [_cache_hit(z, float(c @ z), basis, trail_len) for c in C[hit]]

    return _solve_with_bases(
        len(costs), bases,
        lambda basis: (basis[basis < D.shape[1]], _tableau_rows(D, basis)), fit,
        lambda todo: _simplex_batch(D, rhs, costs[todo], trail_len=trail_len))


def _basis_matrix(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The columns ``basis`` of ``[A | I]``: an artificial that stays basic
    at zero level is a unit column."""
    return np.concatenate((A, np.eye(len(A))), axis=1)[:, basis]


def _basis_inverse(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The inverse of the matrix of ``basis`` in ``[A | I]``, or NaN if it is singular.

    The sign that an artificial's row takes in the kernel would scale only
    that artificial's own basic value, which a test reads only as being
    near zero.
    """
    try:
        return np.linalg.inv(_basis_matrix(A, basis))
    except np.linalg.LinAlgError:
        return np.full((len(A), len(A)), np.nan)


def _tableau_rows(D: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The rows of ``B^-1 D`` at the structural columns of ``basis``.

    An artificial that stays basic at zero level is a unit column of ``B``.
    The sign its row takes in the kernel would scale only that artificial's
    own row of ``B^-1 D``, which is not returned.  A singular basis gets
    rows of NaN, at which no cost row prices out.
    """
    structural = basis < D.shape[1]
    try:
        return np.linalg.solve(_basis_matrix(D, basis), D)[structural]
    except np.linalg.LinAlgError:
        return np.full((np.count_nonzero(structural), D.shape[1]), np.nan)


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
        (result,) = solve_dual_batch(lp, lp.eq_rhs[None], [])
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
