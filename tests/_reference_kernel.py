"""The dense simplex kernel as it was before its single-tableau rewrite.

Test-only reference: ``_simplex_standard_form`` below is the kernel that
kept the constraint rows and the two reduced-cost rows in separate arrays
and updated the whole tableau with ``np.outer`` at every pivot, with the
crash start of unit columns written here on its own.  The tests
check that ``isddp.lp_core._simplex_standard_form`` returns the same result
bit for bit (up to the sign of an exact zero).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from isddp.lp_core import (
    FEAS_TOL,
    PIVOT_TOL,
    LpError,
    PivotLimitError,
    SolveStatus,
    _KernelResult,
)


def _simplex_standard_form(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    *,
    max_pivots: Optional[int] = None,
    trail_len: Optional[int] = None,
) -> _KernelResult:
    """Two-phase tableau simplex for  min c.z  s.t. A z = b, z >= 0.

    Dantzig pricing with an automatic switch to Bland's rule after a long
    degenerate streak.  With a ``trail_len``, phase-2 iterates are appended
    to the trail as ``(obj, z[:trail_len])`` snapshots, the optimum included.
    """
    m, n = A.shape
    if max_pivots is None:
        max_pivots = 10_000 + 50 * (m + n)
    bland_after = 50 * (n + m)

    sign = np.where(b < 0, -1.0, 1.0)
    ncols = n + m
    body = np.empty((m, ncols + 1))
    body[:, :n] = A * sign[:, None]
    body[:, n:ncols] = np.eye(m)
    body[:, -1] = b * sign

    basis = np.arange(n, ncols)
    allowed = np.ones(ncols, dtype=bool)

    # Reduced-cost rows; last entry is -objective.
    r1 = np.zeros(ncols + 1)
    r2 = np.zeros(ncols + 1)
    r2[:n] = c

    pivots = 0
    trail: list = []

    def pivot(pr: int, pc: int, phase: int) -> None:
        nonlocal pivots
        piv = body[pr, pc]
        body[pr] /= piv
        colv = body[:, pc].copy()
        colv[pr] = 0.0
        body[:, :] -= np.outer(colv, body[pr])
        if phase == 1:
            r1_pc = r1[pc]
            if r1_pc != 0.0:
                r1[:-1] -= r1_pc * body[pr, :-1]
                r1[-1] -= r1_pc * body[pr, -1]
                r1[pc] = 0.0
        update_r2(pc, body[pr])
        body[:, pc] = 0.0
        body[pr, pc] = 1.0
        leaving = basis[pr]
        if leaving >= n:
            allowed[leaving] = False  # artificial never re-enters
        basis[pr] = pc
        pivots += 1

    def update_r2(pc: int, row: np.ndarray) -> None:
        r2_pc = r2[pc]
        if r2_pc != 0.0:
            r2[:-1] -= r2_pc * row[:-1]
            r2[-1] -= r2_pc * row[-1]
            r2[pc] = 0.0

    def entering(r: np.ndarray, bland: bool) -> int:
        cand = np.flatnonzero(allowed & (r[:ncols] < -FEAS_TOL))
        if cand.size == 0:
            return -1
        if bland:
            return int(cand[0])
        return int(cand[np.argmin(r[cand])])

    def leaving_row(pc: int, bland: bool) -> int:
        colv = body[:, pc]
        pos = np.flatnonzero(colv > PIVOT_TOL)
        if pos.size == 0:
            return -1
        ratios = body[pos, -1] / colv[pos]
        rmin = ratios.min()
        tie = pos[ratios <= rmin + 1e-9 * (1.0 + abs(rmin))]
        if bland:
            return int(tie[np.argmin(basis[tie])])
        return int(tie[np.argmax(colv[tie])])

    def snapshot() -> np.ndarray:
        z = np.zeros(ncols)
        z[basis] = body[:, -1]
        return z[:trail_len]

    def run_phase(phase: int) -> str:
        nonlocal pivots
        r = r1 if phase == 1 else r2
        bland = False
        degenerate = 0
        while True:
            obj = -r2[-1]
            if phase == 2:
                if trail_len is not None:
                    trail.append((obj, snapshot()))
            pc = entering(r, bland)
            if pc < 0:
                return "optimal"
            pr = leaving_row(pc, bland)
            if pr < 0:
                if phase == 1:
                    raise LpError("phase-1 subproblem unbounded: numerical failure")
                return "unbounded"
            prev = r[-1]
            pivot(pr, pc, phase)
            if pivots > max_pivots:
                z = np.zeros(ncols)
                z[basis] = body[:, -1]
                raise PivotLimitError(
                    f"pivot limit {max_pivots} exceeded", z[:n], -r2[-1]
                )
            if abs(r[-1] - prev) <= 1e-13 * (1.0 + abs(prev)):
                degenerate += 1
                if degenerate > bland_after:
                    bland = True
            else:
                degenerate = 0

    # Crash start: row i begins with its lowest-indexed unit column basic (a
    # column of A whose one nonzero entry lies in row i and is positive after
    # the sign flip); its artificial never enters.  r1 prices the rows that
    # keep their artificial.
    nonzeros = np.count_nonzero(body[:, :n], axis=0)
    for i in range(m):
        units = np.flatnonzero((nonzeros == 1) & (body[i, :n] > 0))
        if units.size:
            j = int(units[0])
            body[i] /= body[i, j]
            basis[i] = j
            allowed[n + i] = False
            update_r2(j, body[i])
    keep = basis >= n
    r1[:n] = -body[keep, :n].sum(axis=0)
    r1[-1] = -body[keep, -1].sum()

    run_phase(1)
    if -r1[-1] > FEAS_TOL * (1.0 + np.abs(body[:, -1]).sum()):
        return _KernelResult(SolveStatus.INFEASIBLE, None, math.nan, None, None, pivots)

    # Drive leftover artificials out of the basis where a structural pivot
    # exists; rows without one are redundant and keep a zero-level artificial.
    for pr in range(m):
        if basis[pr] >= n:
            row = body[pr, :n]
            cand = np.flatnonzero(allowed[:n] & (np.abs(row) > PIVOT_TOL))
            if cand.size:
                pivot(pr, int(cand[0]), phase=1)
    allowed[n:] = False

    outcome = run_phase(2)
    if outcome == "unbounded":
        return _KernelResult(SolveStatus.UNBOUNDED, None, math.nan, None, None, pivots)

    z = np.zeros(ncols)
    z[basis] = body[:, -1]
    y = -r2[n:ncols] * sign
    return _KernelResult(
        SolveStatus.OPTIMAL,
        z[:n],
        -r2[-1],
        y,
        basis.copy(),
        pivots,
        trail=trail,
    )
