"""Dense simplex kernel for small stage subproblems.

Handles LPs of the form

    min  c . x  (+ f)                 x >= 0, f free (present iff has_epigraph)
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
one tableau that carries every LP's cost row, then phase 2 for all of them
in lockstep, each LP with its own basis.  Every result is bit-identical to
a lone solve (see ``_simplex_batch``).

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
# LPs whose phase 2 runs in lockstep, at most; a larger stack of small
# tableaux no longer fits the cache (per LP, a step costs about twice as
# much at 1,000 LPs as at 125).
BATCH_CHUNK = 128


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

    ``eq_rhs`` is the already-shifted right-hand side (the caller subtracts
    the coupling term of the previous stage's decision).  Row ``i`` of
    ``cut_beta`` (shape ``(K, num_vars)``) and entry ``i`` of ``cut_theta``
    (shape ``(K,)``) impose ``f >= cut_theta[i] + cut_beta[i].x`` on the free
    epigraph variable ``f``; the objective is ``c.x + f`` when
    ``has_epigraph`` is set and ``c.x`` otherwise.  The cut arrays are kept
    as given, not copied, and nothing writes to them: stage LPs alias their
    pool's read-only arrays.
    """

    num_vars: int
    num_eq: int
    cost: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    cut_beta: Optional[np.ndarray] = None
    cut_theta: Optional[np.ndarray] = None
    has_epigraph: bool = False

    def __post_init__(self):
        self.cost = np.asarray(self.cost, dtype=float)
        self.eq_matrix = np.asarray(self.eq_matrix, dtype=float).reshape(
            self.num_eq, -1 if self.num_eq else self.num_vars
        )
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=float)
        if self.eq_matrix.size == 0:
            self.eq_matrix = self.eq_matrix.reshape(self.num_eq, self.num_vars)
        self.cut_beta = (np.zeros((0, self.num_vars)) if self.cut_beta is None
                         else np.asarray(self.cut_beta, dtype=float))
        self.cut_theta = (np.zeros(0) if self.cut_theta is None
                          else np.asarray(self.cut_theta, dtype=float))
        self.validate()

    def validate(self) -> None:
        if self.cost.shape != (self.num_vars,):
            raise LpDimensionError(
                f"cost has shape {self.cost.shape}, expected ({self.num_vars},)"
            )
        if self.eq_matrix.shape != (self.num_eq, self.num_vars):
            raise LpDimensionError(
                f"eq_matrix has shape {self.eq_matrix.shape}, expected "
                f"({self.num_eq}, {self.num_vars})"
            )
        if self.eq_rhs.shape != (self.num_eq,):
            raise LpDimensionError(
                f"eq_rhs has shape {self.eq_rhs.shape}, expected ({self.num_eq},)"
            )
        K = len(self.cut_theta) if self.cut_theta.ndim == 1 else -1
        if self.cut_beta.shape != (K, self.num_vars):
            raise LpDimensionError(
                f"cut_beta has shape {self.cut_beta.shape} and cut_theta "
                f"{self.cut_theta.shape}, expected (K, {self.num_vars}) and (K,)"
            )
        if K and not self.has_epigraph:
            raise LpDimensionError("cut rows require has_epigraph")

    @property
    def num_cuts(self) -> int:
        return len(self.cut_theta)

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
    every cost row the update a lone solve gives its own.  Phase 2 runs in
    place on rows ``:m+1`` when K == 1, and otherwise in lockstep on a copy
    per LP (``_lockstep_phase2``).  Only structural columns enter.

    On tableaux of at least ``RESTRICTED_UPDATE_CELLS`` cells a pivot touches
    only the rows where the pivot column is nonzero and the columns where
    the pivot row is nonzero.  Each cell that changes gets one product
    ``colv[i] * row[j]`` and one subtraction whichever update runs, so each
    LP's result is bit-identical to a lone solve with either update.  The
    one exception is the sign of an exact zero in a skipped cell, which only
    had a zero product to lose (the crash likewise skips a column whose cost
    is zero in every LP); no comparison, ratio or argmin can see that sign.
    """
    m, n = A.shape
    K = len(C)
    if max_pivots is None:
        max_pivots = 10_000 + 50 * (m + n)
    bland_after = BLAND_STREAK * (n + m)

    sign = np.where(b < 0, -1.0, 1.0)
    ncols = n + m
    tab = np.zeros((m + K + 1, ncols + 1))
    body, r2, r1 = tab[:m], tab[m], tab[m + K]
    body[:, :n] = A * sign[:, None]
    body[:, n:ncols] = np.eye(m)
    body[:, -1] = b * sign
    tab[m : m + K, :n] = C
    rhs = body[:, -1]
    restricted = tab.size >= RESTRICTED_UPDATE_CELLS

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

    pivots = 0

    def pivot(pr: int, pc: int, live: np.ndarray) -> None:
        """Pivot on (pr, pc), updating the rows of ``live`` (a top slice of tab)."""
        nonlocal pivots
        row = tab[pr]
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
        pivots += 1

    def entering(r: np.ndarray, bland: bool) -> int:
        # Only structural columns enter: an artificial that left the basis
        # never re-enters, and one that is basic prices at zero.
        # Bland: the first eligible column; Dantzig: the first of the minima
        price = r[:n]
        pc = int((price < -FEAS_TOL).argmax() if bland else price.argmin())
        return pc if price[pc] < -FEAS_TOL else -1

    def leaving_row(pc: int, bland: bool) -> int:
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

    def run_phase(r: np.ndarray, live: np.ndarray, trail: Optional[list]) -> str:
        """Pivot on ``live`` until cost row ``r`` prices out; the outcome."""
        bland = False
        degenerate = 0
        while True:
            if trail is not None:
                trail.append((-r[-1], _vertex(basis, rhs, n)[:trail_len].copy()))
            pc = entering(r, bland)
            if pc < 0:
                return "optimal"
            pr = leaving_row(pc, bland)
            if pr < 0:
                return "unbounded"
            prev = r[-1]
            pivot(pr, pc, live)
            if pivots > max_pivots:
                return "limit"
            if abs(r[-1] - prev) <= 1e-13 * (1.0 + abs(prev)):
                degenerate += 1
                if degenerate > bland_after:
                    bland = True
            else:
                degenerate = 0

    def pivot_limit() -> list:
        return [_pivot_limit(max_pivots, basis, rhs, n, -tab[m + k, -1]) for k in range(K)]

    outcome = run_phase(r1, tab, None)
    if outcome == "unbounded":
        return [LpError("phase-1 subproblem unbounded: numerical failure") for _ in range(K)]
    if outcome == "limit":
        return pivot_limit()
    if -r1[-1] > FEAS_TOL * (1.0 + np.abs(rhs).sum()):
        return [_KernelResult(SolveStatus.INFEASIBLE, None, math.nan, None, None, pivots)
                for _ in range(K)]

    # Drive leftover artificials out of the basis where a structural pivot
    # exists; rows without one are redundant and keep a zero-level artificial.
    for pr in range(m):
        if basis[pr] >= n:
            cand = (np.abs(body[pr, :n]) > PIVOT_TOL).nonzero()[0]
            if cand.size:
                pivot(pr, int(cand[0]), tab)

    if K > 1:
        return _lockstep_phase2(
            tab[: m + K], n, basis, pivots, sign, max_pivots=max_pivots,
            bland_after=bland_after, trail_len=trail_len,
        )
    # r1 is dead in phase 2: its pivots update the rows up to r2 only
    trail: Optional[list] = None if trail_len is None else []
    outcome = run_phase(r2, tab[: m + 1], trail)
    if outcome == "limit":
        return pivot_limit()
    if outcome == "unbounded":
        return [_KernelResult(SolveStatus.UNBOUNDED, None, math.nan, None, None, pivots)]
    return [_optimal(r2, basis, rhs, n, sign, pivots, trail or [])]


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


def _lockstep_phase2(
    tab: np.ndarray,
    n: int,
    basis: np.ndarray,
    pivots: int,
    sign: np.ndarray,
    *,
    max_pivots: int,
    bland_after: int,
    trail_len: Optional[int],
) -> list:
    """Phase 2 of K LPs that share the constraint rows and basis phase 1 left.

    ``tab`` holds the m constraint rows, then one reduced-cost row per LP.
    Each LP gets its own copy of the constraint rows, in one ``(K, m + 1,
    n + m + 1)`` stack, and every unfinished LP takes its next pivot at each
    step, with its own basis, Bland flag, degenerate streak, pivot count and
    trail.  An LP leaves the stack when it finishes.  Pricing, the ratio
    test, the tie-breaks and the rank-1 update are the lone solve's,
    elementwise.
    """
    K = len(tab) - len(basis)
    m, width = len(basis), tab.shape[1]
    ncols = width - 1
    stack = np.empty((K, m + 1, width))
    stack[:, :m] = tab[:m]
    stack[:, m] = tab[m:]
    bases = np.tile(basis, (K, 1))
    count = np.full(K, pivots)
    bland = np.zeros(K, dtype=bool)
    streak = np.zeros(K, dtype=np.int64)
    lps = np.arange(K)  # the LP in each layer of the stack
    out: list = [None] * K
    trails: list[list] = [[] for _ in range(K)]
    scratch = np.empty_like(stack)  # the rank-1 products of a step

    def drop_layers(keep: np.ndarray, *arrays):
        """Keep the layers of ``keep`` in the stack and in its per-LP state."""
        nonlocal stack, bases, count, bland, streak, lps
        kept = keep.nonzero()[0]
        for i, j in enumerate(kept.tolist()):  # pack the stack in place
            if i != j:
                stack[i] = stack[j]
        stack = stack[: len(kept)]
        bases, count, bland, streak, lps = (
            a[kept] for a in (bases, count, bland, streak, lps))
        return [a[kept] for a in arrays]

    while len(lps):
        layers = np.arange(len(lps))
        costs = stack[:, m]
        if trail_len is not None:
            z = np.zeros((len(lps), ncols))
            z[layers[:, None], bases] = stack[:, :m, -1]
            points = z[:, :trail_len].copy()
            objs = -costs[:, -1]
            for i, k in enumerate(lps.tolist()):
                trails[k].append((objs[i], points[i]))
        # every artificial is blocked in phase 2: only structural columns enter
        price = costs[:, :n]
        pc = price.argmin(axis=1)
        for i in bland.nonzero()[0]:
            pc[i] = (price[i] < -FEAS_TOL).argmax()
        optimal = ~(price[layers, pc] < -FEAS_TOL)
        colv = stack[layers, :, pc]
        ratios = np.full((len(lps), m), np.inf)
        np.divide(stack[:, :m, -1], colv[:, :m], out=ratios, where=colv[:, :m] > PIVOT_TOL)
        rmin = ratios.min(axis=1, initial=np.inf)
        done = optimal | (rmin == np.inf)
        if done.any():
            for i in done.nonzero()[0]:
                k = lps[i]
                if optimal[i]:
                    out[k] = _optimal(stack[i, m], bases[i], stack[i, :m, -1], n, sign,
                                      int(count[i]), trails[k])
                else:
                    out[k] = _KernelResult(
                        SolveStatus.UNBOUNDED, None, math.nan, None, None, int(count[i]))
            pc, colv, ratios, rmin = drop_layers(~done, pc, colv, ratios, rmin)
            if not len(lps):
                break
            layers = np.arange(len(lps))

        # leaving rows: ties within 1e-9 of the minimum ratio go to the
        # largest pivot entry (Dantzig) or the smallest basic index (Bland)
        tie = ratios <= (rmin + 1e-9 * (1.0 + np.abs(rmin)))[:, None]
        pr = np.where(tie, colv[:, :m], -np.inf).argmax(axis=1)
        if bland.any():
            pr = np.where(bland, np.where(tie, bases, ncols).argmin(axis=1), pr)

        prev = stack[:, m, -1].copy()
        row = stack[layers, pr] / stack[layers, pr, pc][:, None]
        colv[layers, pr] = 0.0
        stack[layers, pr] = row
        products = scratch[: len(lps)]
        np.multiply(colv[:, :, None], row[:, None, :], out=products)
        stack -= products
        stack[layers, :, pc] = 0.0
        stack[layers, pr, pc] = 1.0
        bases[layers, pr] = pc
        count += 1
        over = count > max_pivots
        if over.any():
            for i in over.nonzero()[0]:
                out[lps[i]] = _pivot_limit(
                    max_pivots, bases[i], stack[i, :m, -1], n, -stack[i, m, -1])
            (prev,) = drop_layers(~over, prev)
        obj = stack[:, m, -1]
        streak = np.where(np.abs(obj - prev) <= 1e-13 * (1.0 + np.abs(prev)), streak + 1, 0)
        bland |= streak > bland_after
    return out


# ---------------------------------------------------------------------------
# Standard-form assembly


def _standard_primal(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns: [x | f+ f- | cut surpluses] (epigraph parts only when present)."""
    nv, m, K = lp.num_vars, lp.num_eq, lp.num_cuts
    if not lp.has_epigraph:
        return lp.eq_matrix.copy(), lp.eq_rhs.copy(), lp.cost.copy()
    ncols = nv + 2 + K
    A = np.zeros((m + K, ncols))
    b = np.zeros(m + K)
    A[:m, :nv] = lp.eq_matrix
    b[:m] = lp.eq_rhs
    if K:
        A[m:, :nv] = -lp.cut_beta_matrix()
        A[m:, nv] = 1.0
        A[m:, nv + 1] = -1.0
        A[m:, nv + 2 :] = -np.eye(K)
        b[m:] = lp.cut_thetas()
    else:
        # Epigraph without any cut row would be unbounded below; callers
        # always include at least a floor row.
        raise LpDimensionError("epigraph LP needs at least one cut row")
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
    if K:
        D[:nv, 2 * m : 2 * m + K] = -lp.cut_beta_matrix().T
    D[:nv, 2 * m + K :] = np.eye(nv)
    rhs[:nv] = lp.cost
    if lp.has_epigraph:
        D[nv, 2 * m : 2 * m + K] = 1.0
        rhs[nv] = 1.0
    costs = np.zeros((len(eq_rhs), ncols))
    costs[:, :m] = -eq_rhs
    costs[:, m : 2 * m] = eq_rhs
    costs[:, 2 * m : 2 * m + K] = -lp.cut_thetas()
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
    ``[-eq_rhs | eq_rhs | -thetas | 0]``.  They are solved ``BATCH_CHUNK`` at
    a time (``_simplex_batch``): phase 1 once per chunk, phase 2 in lockstep.
    Outcome ``i`` is a ``_KernelResult``, or the ``LpError`` that a lone
    solve of member ``i`` raises.
    """
    D, rhs, costs = _explicit_duals(lp, eq_rhs)
    trail_len = 2 * lp.num_eq + lp.num_cuts
    return [
        out
        for lo in range(0, len(costs), BATCH_CHUNK)
        for out in _simplex_batch(D, rhs, costs[lo : lo + BATCH_CHUNK], trail_len=trail_len)
    ]


def solve_dual_inexact(
    lp: LinearProgram,
    eps: float,
    *,
    rel_eps: float = 0.0,
    result: Optional[_KernelResult] = None,
) -> DualCertificate:
    """Return a dual-feasible (lam, mu) with dual_obj >= optimum - budget.

    The explicit dual is solved to optimality, recording its phase-2 trail;
    the earliest trail iterate within budget of the now-known optimum is
    returned (a retrospective certificate).  The budget is
    ``eps + rel_eps * max(1, |optimum|)``; with a zero budget the certificate
    is the first iterate at the optimum.  A ``result`` given is used as the
    explicit dual's kernel result in place of a solve of ``lp``'s dual alone
    (a ``solve_dual_batch`` of one); it must be ``lp``'s, as from a larger
    ``solve_dual_batch``, which is bit-identical to it.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if result is None:
        (result,) = solve_dual_batch(lp, lp.eq_rhs[None])
        if isinstance(result, LpError):
            raise result
    _check_dual_solvable(result)
    optimum = -result.obj
    budget = eps + rel_eps * max(1.0, abs(optimum))
    for kernel_obj, zslice in result.trail:
        dual_obj = -kernel_obj
        if dual_obj >= optimum - budget:
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
    if lp.num_cuts:
        slack = slack - lp.cut_beta_matrix().T @ mu
    res = float(max(0.0, slack.max(initial=0.0)))
    if lp.has_epigraph:
        res = max(res, abs(float(mu.sum()) - 1.0))
        if lp.num_cuts:
            res = max(res, float(max(0.0, -mu.min())))
    return res


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
        cut_slack = f - (lp.cut_thetas() + lp.cut_beta_matrix() @ x)
        primal = max(primal, float(max(0.0, -(cut_slack.min(initial=0.0)))))
    dual = dual_feasibility_residual(lp, sol.lam, sol.mu)
    rc = lp.cost - lp.eq_matrix.T @ sol.lam
    if lp.num_cuts:
        rc = rc + lp.cut_beta_matrix().T @ sol.mu
    comp = float(np.abs(x * rc).max(initial=0.0))
    if lp.has_epigraph:
        comp = max(comp, float(np.abs(sol.mu * cut_slack).max(initial=0.0)))
    return primal, dual, comp
