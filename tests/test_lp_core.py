import dataclasses
import importlib.util
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_kernel
from isddp import lp_core, stage_solver
from isddp.lp_core import (
    LinearProgram,
    LpDimensionError,
    LpError,
    NoFiniteOptimumError,
    PivotLimitError,
    SolveStatus,
    dual_feasibility_residual,
    solution_residuals,
    solve_dual_batch,
    solve_dual_inexact,
    solve_exact,
    solve_primal_batch,
    solve_with_primal_trail,
    _explicit_duals,
    _simplex_batch,
    _standard_primal,
)
from isddp.oracle import _assemble_tree_lp
from isddp.schedules import ErrorBudget
from isddp.portfolio import PortfolioSpec, generate_instance
from isddp.schedules import EXACT_SCHEDULE, ScheduleMode, ScheduleSpec
from isddp.sddp_engine import run_isddp

from conftest import cache_hit, enumerate_vertices, random_feasible_bounded_lp


def single_var_lp():
    # min y  s.t. y = 2, y >= 0
    return LinearProgram(cost=[1.0], eq_matrix=[[1.0]], eq_rhs=[2.0])


def no_rows_lp(cost):
    n = len(cost)
    return LinearProgram(cost=cost, eq_matrix=np.zeros((0, n)), eq_rhs=[])


class TestSolveExact:
    def test_single_equality_identity(self):
        sol = solve_exact(single_var_lp())
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x == pytest.approx([2.0])
        assert sol.obj == pytest.approx(2.0)
        assert sol.lam == pytest.approx([1.0])

    def test_unbounded_ray(self):
        lp = LinearProgram(cost=[-1.0], eq_matrix=np.zeros((0, 1)), eq_rhs=[])
        assert solve_exact(lp).status is SolveStatus.UNBOUNDED

    def test_no_rows_nonnegative_cost_optimal_at_origin(self):
        sol = solve_exact(no_rows_lp([1.0, 0.0]))
        assert sol.status is SolveStatus.OPTIMAL
        assert np.array_equal(sol.x, [0.0, 0.0])
        assert sol.obj == 0.0

    def test_segment_vertex(self):
        lp = LinearProgram(cost=[1.0, 1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0])
        sol = solve_exact(lp)
        assert sol.obj == pytest.approx(1.0)
        assert np.count_nonzero(sol.x) == 1

    def test_infeasible(self):
        lp = LinearProgram(cost=[1.0], eq_matrix=[[1.0], [1.0]], eq_rhs=[1.0, 2.0])
        assert solve_exact(lp).status is SolveStatus.INFEASIBLE

    def test_pivot_limit_fault_carries_iterate(self):
        # no column is a unit column, so phase 1 must pivot
        lp = LinearProgram(
            cost=[1.0, 1.0], eq_matrix=[[1.0, 1.0], [1.0, -1.0]],
            eq_rhs=[1.0, 0.0],
        )
        with pytest.raises(PivotLimitError) as err:
            solve_exact(lp, max_pivots=0)
        assert err.value.iterate is not None

    def test_epigraph_lp(self):
        # min x + f  s.t. x = 2, f >= 3 + 5x: optimum 15 with lam=6, mu=1.
        lp = LinearProgram(
            cost=[1.0],
            eq_matrix=[[1.0]],
            eq_rhs=[2.0],
            cut_beta=[[5.0]],
            cut_theta=[3.0],
        )
        sol = solve_exact(lp)
        assert sol.obj == pytest.approx(15.0)
        assert sol.lam == pytest.approx([6.0])
        assert sol.mu == pytest.approx([1.0])
        assert max(solution_residuals(lp, sol)) < 1e-9

    def test_fuzz_against_vertex_enumeration(self, rng):
        for _ in range(150):
            lp = random_feasible_bounded_lp(rng)
            ref, verts = enumerate_vertices(lp)
            sol = solve_exact(lp)
            assert sol.status is SolveStatus.OPTIMAL
            scale = 1.0 + abs(ref)
            assert abs(sol.obj - ref) <= 1e-7 * scale
            assert min(np.abs(v - sol.x).max() for v in verts) <= 1e-7
            primal, dual, comp = solution_residuals(lp, sol)
            assert max(primal, dual, comp) <= 1e-9 * scale
            # basic solution: no more nonzeros than rows
            assert np.count_nonzero(sol.x) <= lp.num_eq

    def test_epigraph_matches_explicit_rows(self, rng):
        # Cut rows folded into the epigraph must match solving the same LP
        # with f discretized away by enumeration over cuts.
        for _ in range(30):
            lp0 = random_feasible_bounded_lp(rng)
            cuts = [
                (rng.normal(size=lp0.num_vars).round(2), round(rng.normal(), 2))
                for _ in range(3)
            ]
            betas = np.array([b for b, _ in cuts])
            thetas = np.array([t for _, t in cuts])
            lp = LinearProgram(
                cost=lp0.cost,
                eq_matrix=lp0.eq_matrix,
                eq_rhs=lp0.eq_rhs,
                cut_beta=betas,
                cut_theta=thetas,
            )
            sol = solve_exact(lp)
            assert sol.status is SolveStatus.OPTIMAL
            # reference: min over x of c.x + max_i(theta_i + beta_i.x) via
            # vertex enumeration of the lifted standard form is overkill;
            # check optimality conditions instead.
            assert max(solution_residuals(lp, sol)) <= 1e-8 * (1 + abs(sol.obj))
            f = sol.obj - lp.cost @ sol.x
            pool_val = max(thetas + betas @ sol.x)
            assert f == pytest.approx(pool_val, abs=1e-8)
            # vertex solution: nonzeros bounded by the row count
            assert np.count_nonzero(np.abs(sol.x) > 1e-9) <= lp.num_eq + lp.num_cuts


class TestRankDeficientSystems:
    def test_dependent_rows_and_duplicate_columns(self):
        # rank-2 equality system (3 rows) with identical columns 2 and 3;
        # feasible set reduces to x1 = 0, x2 + x3 = 2, so min -2x2 - x3 = -4
        lp = LinearProgram(
            cost=[-1.0, -2.0, -1.0],
            eq_matrix=[[2.0, 2.0, 2.0], [-2.0, 0.0, 0.0], [-2.0, 1.0, 1.0]],
            eq_rhs=[4.0, 0.0, 2.0],
        )
        sol = solve_exact(lp)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.obj == pytest.approx(-4.0)
        assert max(solution_residuals(lp, sol)) <= 1e-9
        cert = solve_dual_inexact(lp, ErrorBudget())
        assert cert.dual_obj == pytest.approx(-4.0)
        assert dual_feasibility_residual(lp, cert.lam, cert.mu) <= 1e-9

    def test_exactly_duplicated_row(self):
        lp = LinearProgram(
            cost=[1.0, 2.0],
            eq_matrix=[[1.0, 1.0], [1.0, 1.0]],
            eq_rhs=[1.0, 1.0],
        )
        sol = solve_exact(lp)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.obj == pytest.approx(1.0)


class TestDualInexact:
    def test_exact_reduction(self):
        cert = solve_dual_inexact(single_var_lp(), ErrorBudget())
        assert cert.dual_obj == pytest.approx(2.0)
        assert cert.eps_certified == 0.0

    def test_eps_band(self):
        # any dual-feasible lam with dual_obj in [1.5, 2]
        cert = solve_dual_inexact(single_var_lp(), ErrorBudget(absolute=0.5))
        assert 1.5 - 1e-12 <= cert.dual_obj <= 2.0 + 1e-12
        assert dual_feasibility_residual(single_var_lp(), cert.lam, cert.mu) <= 1e-9

    def test_certificate_against_exact(self, rng):
        for _ in range(60):
            lp = random_feasible_bounded_lp(rng)
            ref = solve_exact(lp).obj
            for eps in (0.0, 0.01, 0.1):
                cert = solve_dual_inexact(lp, ErrorBudget(absolute=eps))
                scale = 1.0 + abs(ref)
                assert dual_feasibility_residual(lp, cert.lam, cert.mu) <= 1e-9
                assert cert.dual_obj >= ref - eps - 1e-9 * scale
                assert cert.dual_obj <= ref + 1e-9 * scale
                assert cert.eps_certified <= eps + 1e-12

    def test_faults_on_unbounded(self):
        lp = LinearProgram(cost=[-1.0], eq_matrix=np.zeros((0, 1)), eq_rhs=[])
        with pytest.raises(NoFiniteOptimumError):
            solve_dual_inexact(lp, ErrorBudget(absolute=0.1))

    def test_faults_on_infeasible(self):
        lp = LinearProgram(cost=[1.0], eq_matrix=[[1.0], [1.0]], eq_rhs=[1.0, 2.0])
        with pytest.raises(NoFiniteOptimumError):
            solve_dual_inexact(lp, ErrorBudget(absolute=0.1))

    def test_negative_budgets_are_usage_errors(self):
        for eps, rel_eps in ((-0.5, 0.0), (0.0, -0.5)):
            with pytest.raises(ValueError, match="must be nonnegative"):
                solve_dual_inexact(single_var_lp(), ErrorBudget(eps, rel_eps))

    def test_retrospective_deterministic(self, rng):
        lp = random_feasible_bounded_lp(rng)
        c1 = solve_dual_inexact(lp, ErrorBudget(absolute=0.05))
        c2 = solve_dual_inexact(lp, ErrorBudget(absolute=0.05))
        assert c1.dual_obj == c2.dual_obj
        assert np.array_equal(c1.lam, c2.lam)


class TestDualResidual:
    def test_exact_dual_has_zero_residual(self):
        lp = single_var_lp()
        sol = solve_exact(lp)
        assert dual_feasibility_residual(lp, sol.lam, sol.mu) <= 1e-9

    def test_perturbed_tight_constraint(self):
        lp = single_var_lp()
        # lam = 1 is tight (lam <= c = 1); +1 violates by 1
        assert dual_feasibility_residual(lp, np.array([2.0]), np.array([])) == pytest.approx(1.0)

    def test_convexity_row_violation(self):
        lp = LinearProgram(
            cost=[1.0],
            eq_matrix=[[1.0]],
            eq_rhs=[2.0],
            cut_beta=[[0.0]],
            cut_theta=[0.0],
        )
        res = dual_feasibility_residual(lp, np.array([0.0]), np.array([0.5]))
        assert res >= 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(LpDimensionError):
            dual_feasibility_residual(single_var_lp(), np.array([1.0, 2.0]), np.array([]))


class TestPrimalTrail:
    def test_trail_monotone_and_feasible(self, rng):
        for _ in range(25):
            lp = random_feasible_bounded_lp(rng)
            res = solve_with_primal_trail(lp)
            assert res.status is SolveStatus.OPTIMAL
            objs = [o for o, _ in res.trail]
            assert all(objs[i] >= objs[i + 1] - 1e-9 for i in range(len(objs) - 1))
            assert objs[-1] == pytest.approx(res.obj)
            for _, x in res.trail:
                assert np.abs(lp.eq_matrix @ x - lp.eq_rhs).max(initial=0.0) <= 1e-8
                assert x.min(initial=0.0) >= -1e-9


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_duality_gap_property(seed):
    lp = random_feasible_bounded_lp(np.random.default_rng(seed))
    sol = solve_exact(lp)
    if sol.status is not SolveStatus.OPTIMAL:
        return
    dual_obj = float(lp.eq_rhs @ sol.lam)
    assert abs(sol.obj - dual_obj) <= 1e-7 * (1.0 + abs(sol.obj))


def _floor_and_cuts_lp(base, cost, xhat, betas, rng):
    """``base`` with rhs ``A @ xhat``, a floor row at -5 and the cuts ``betas``."""
    n = base.num_vars
    return LinearProgram(
        cost=cost, eq_matrix=base.eq_matrix,
        eq_rhs=base.eq_matrix @ xhat,
        cut_beta=np.vstack([np.zeros(n), betas]),
        cut_theta=[-5.0] + [round(rng.normal(), 2) for _ in betas],
    )


def _bits(cert):
    return (cert.lam.tobytes(), cert.mu.tobytes(), cert.dual_obj.hex(),
            float(cert.eps_certified).hex())


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_dual_batch_certificates_match_lone_solves(seed):
    # LPs that differ only in eq_rhs share their dual's (A, b); a batch
    # solves them together, and every certificate must equal the lone one
    rng = np.random.default_rng(seed)
    base = random_feasible_bounded_lp(rng)
    n = base.num_vars
    betas = rng.normal(size=(3, n)).round(2)
    lp = _floor_and_cuts_lp(base, base.cost, rng.uniform(0.0, 2.0, size=n).round(3), betas, rng)
    lps = [lp] + [
        dataclasses.replace(lp, eq_rhs=base.eq_matrix @ rng.uniform(0.0, 2.0, size=n).round(3))
        for _ in range(3)
    ]
    batch = solve_dual_batch(lp, np.array([member.eq_rhs for member in lps]), [])
    budgets = [ErrorBudget(), ErrorBudget(absolute=0.05), ErrorBudget(relative=0.01)]
    for i, lp in enumerate(lps):
        for budget in budgets:
            cold = solve_dual_inexact(lp, budget)
            assert _bits(solve_dual_inexact(lp, budget, result=batch[i])) == _bits(cold)


# ---------------------------------------------------------------------------
# Crash start: a row that holds a unit column (one nonzero entry, positive
# after the sign flip) starts with that column basic.


def test_crash_start_with_a_unit_column_in_every_row_takes_no_phase1_pivot():
    # row 0 holds columns 0 (entry 2) and 2 (entry 1): the lower index wins;
    # row 1 (b < 0) holds column 3 once its sign is flipped
    A = np.array([[2.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
    b = np.array([4.0, -2.0])
    (res,) = _simplex_batch(A, b, np.zeros((1, 4)))
    assert res.pivots == 0
    assert res.basis.tolist() == [0, 3]
    assert res.z.tolist() == [2.0, 0.0, 0.0, 2.0]


@pytest.mark.parametrize("entry, pivots", [(-1.0, 1), (1.0, 0)])
def test_crash_start_skips_a_unit_column_with_a_negative_entry(entry, pivots):
    # column 2 is row 1's only unit column; negative, it leaves row 1 its
    # artificial, which phase 1 pivots out
    A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, entry]])
    (res,) = _simplex_batch(A, np.array([2.0, 1.0]), np.zeros((1, 3)))
    assert res.status is SolveStatus.OPTIMAL
    assert res.pivots == pivots
    assert res.basis.tolist() == [1, 0 if entry < 0 else 2]


# ---------------------------------------------------------------------------
# The kernel against HiGHS (scipy, optional) on conftest LPs and variants that
# add cut rows, make the LP infeasible or drop its bounding row.

HIGHS_STATUS = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="needs scipy")
@given(st.integers(min_value=0, max_value=2**31 - 1))
@example(151883216)  # without row 0: an optimum near x = (16531, 7306)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_highs_on_conftest_lps(seed):
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    base = random_feasible_bounded_lp(rng)
    n = base.num_vars
    betas = rng.normal(size=(3, n)).round(2)
    lps = [
        base,
        _floor_and_cuts_lp(base, base.cost, rng.uniform(0.0, 2.0, size=n).round(3), betas, rng),
        # row 0 has positive coefficients: a negative rhs there is infeasible
        dataclasses.replace(base, eq_rhs=np.r_[-base.eq_rhs[0], base.eq_rhs[1:]]),
        # without row 0 the LP may be unbounded
        dataclasses.replace(base, eq_matrix=base.eq_matrix[1:],
                            eq_rhs=base.eq_rhs[1:]),
    ]
    for lp in lps:
        A, b, c = _standard_primal(lp)
        ref = linprog(c, A_eq=A if len(b) else None, b_eq=b if len(b) else None,
                      bounds=(0, None), method="highs")
        sol = solve_exact(lp)
        assert sol.status is HIGHS_STATUS[ref.status]
        if sol.status is SolveStatus.OPTIMAL:
            assert abs(sol.obj - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
            primal, dual, comp = solution_residuals(lp, sol)
            assert max(primal, dual) <= 1e-9
            # x_j times its reduced cost: the reduced costs' rounding scales with x
            assert comp <= 1e-9 * max(1.0, float(np.abs(sol.x).max(initial=0.0)))


# ---------------------------------------------------------------------------
# The kernel against its pre-rewrite reference (tests/_reference_kernel.py):
# every _KernelResult field must match bit for bit.  The one tolerated
# difference is the sign of an exact zero, which the restricted update can
# leave where a dense update would have subtracted a zero product.


def _result_bits(res):
    def bits(a):
        return None if a is None else (np.asarray(a, dtype=float) + 0.0).tobytes()

    basis = None if res.basis is None else res.basis.tobytes()
    return (res.status, bits(res.z), bits(res.obj), basis, res.pivots,
            [(bits(obj), bits(point)) for obj, point in res.trail])


def _kernel_calls(ncols):
    """Keyword sets of the kernel calls compared on one standard form."""
    return [{}, dict(trail_len=ncols), dict(trail_len=ncols // 2)]


def _explicit_dual(lp):
    """(D, rhs, cost) of the explicit dual of ``lp`` alone."""
    D, rhs, C = _explicit_duals(lp, lp.eq_rhs[None])
    return D, rhs, C[0]


def _assert_matches_reference(A, b, c):
    for kwargs in _kernel_calls(A.shape[1]):
        ref = _reference_kernel._simplex_standard_form(A, b, c, **kwargs)
        (got,) = _simplex_batch(A, b, c[None], **kwargs)
        assert _result_bits(got) == _result_bits(ref)


def _assert_batch_matches_reference(A, b, C):
    for kwargs in _kernel_calls(A.shape[1]):
        got = _simplex_batch(A, b, C, **kwargs)
        assert len(got) == len(C)
        for c, res in zip(C, got):
            ref = _reference_kernel._simplex_standard_form(A, b, c, **kwargs)
            assert _result_bits(res) == _result_bits(ref)


def _chain_tree_lp(T=14):
    """Tree LP of a T-stage, n=3 chain: a tableau above the restricted-update size."""
    model = generate_instance(PortfolioSpec(T=T, n=3, M=1, seed=0))
    return _assemble_tree_lp(model, 1, model.x0)


# Both update paths on every input: the real size threshold, and 0 (every
# pivot takes the restricted update).
UPDATE_THRESHOLDS = [lp_core.RESTRICTED_UPDATE_CELLS, 0]


@pytest.mark.parametrize("threshold", UPDATE_THRESHOLDS)
@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_kernel_matches_reference_on_random_lps(threshold, seed):
    rng = np.random.default_rng(seed)
    base = random_feasible_bounded_lp(rng)
    n = base.num_vars
    betas = rng.normal(size=(3, n)).round(2)
    duals = []  # the explicit duals below share (A, b)
    with mock.patch.object(lp_core, "RESTRICTED_UPDATE_CELLS", threshold):
        _assert_matches_reference(*_standard_primal(base))
        for _ in range(3):
            xhat = rng.uniform(0.0, 2.0, size=n).round(3)
            lp = _floor_and_cuts_lp(base, base.cost, xhat, betas, rng)
            _assert_matches_reference(*_standard_primal(lp))
            _assert_matches_reference(*_explicit_dual(lp))
            duals.append(_explicit_dual(lp))
        D, rhs, _ = duals[0]
        _assert_batch_matches_reference(D, rhs, np.array([c for _, _, c in duals]))


EDGE_LPS = {
    "no_rows_optimal": lambda: no_rows_lp([1.0, 0.0]),
    "no_rows_unbounded": lambda: no_rows_lp([-1.0]),
    "infeasible": lambda: LinearProgram(cost=[1.0], eq_matrix=[[1.0], [1.0]], eq_rhs=[1.0, 2.0]),
    "dependent_rows": lambda: LinearProgram(
        cost=[-1.0, -2.0, -1.0],
        eq_matrix=[[2.0, 2.0, 2.0], [-2.0, 0.0, 0.0], [-2.0, 1.0, 1.0]],
        eq_rhs=[4.0, 0.0, 2.0],
    ),
    "duplicated_row": lambda: LinearProgram(
        cost=[1.0, 2.0],
        eq_matrix=[[1.0, 1.0], [1.0, 1.0]], eq_rhs=[1.0, 1.0],
    ),
    "chain_tree": _chain_tree_lp,
    "chain_tree_t20": lambda: _chain_tree_lp(20),
}


@pytest.mark.parametrize("threshold", UPDATE_THRESHOLDS)
@pytest.mark.parametrize("name", list(EDGE_LPS))
def test_kernel_matches_reference_on_edge_lps(name, threshold):
    lp = EDGE_LPS[name]()
    with mock.patch.object(lp_core, "RESTRICTED_UPDATE_CELLS", threshold):
        _assert_matches_reference(*_standard_primal(lp))
        _assert_matches_reference(*_explicit_dual(lp))


def test_chain_tree_lp_takes_the_restricted_update():
    for T in (14, 20):
        A, _, _ = _standard_primal(_chain_tree_lp(T))
        m, n = A.shape
        assert (m + 2) * (n + m + 1) >= lp_core.RESTRICTED_UPDATE_CELLS


# solve_exact's multipliers come from its optimal basis; the reference
# kernel reads them off its tableau's artificial columns.


def _assert_multipliers_match_reference(lp):
    sol = solve_exact(lp)
    ref = _reference_kernel._simplex_standard_form(*_standard_primal(lp))
    assert sol.status is ref.status
    if sol.status is not SolveStatus.OPTIMAL:
        assert sol.lam is None and sol.mu is None
        return
    y = np.concatenate((sol.lam, sol.mu))
    assert y.shape == ref.y.shape
    assert np.abs(y - ref.y).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(ref.y).max(initial=0.0))
    assert max(solution_residuals(lp, sol)) <= 1e-9


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_multipliers_match_the_reference_tableau_on_random_lps(seed):
    rng = np.random.default_rng(seed)
    base = random_feasible_bounded_lp(rng)
    n = base.num_vars
    betas = rng.normal(size=(3, n)).round(2)
    _assert_multipliers_match_reference(base)
    for _ in range(3):
        xhat = rng.uniform(0.0, 2.0, size=n).round(3)
        _assert_multipliers_match_reference(_floor_and_cuts_lp(base, base.cost, xhat, betas, rng))


@pytest.mark.parametrize("name", list(EDGE_LPS))
def test_multipliers_match_the_reference_tableau_on_edge_lps(name):
    _assert_multipliers_match_reference(EDGE_LPS[name]())


def test_multipliers_are_read_only():
    sol = solve_exact(single_var_lp())
    with pytest.raises(ValueError):
        sol.lam[0] = 0.0
    with pytest.raises(AttributeError):
        sol.lam = np.zeros(1)


# ---------------------------------------------------------------------------
# Batched solves: each LP of a batch against its lone solve, bit for bit.


def _outcome_bits(out):
    if isinstance(out, PivotLimitError):
        return ("limit", out.iterate.tobytes(), float(out.obj).hex())
    if isinstance(out, LpError):
        return (type(out), str(out))
    return _result_bits(out)


def _lone(A, b, c, **kwargs):
    """The outcome of the LP ``min c.z  s.t. A z = b, z >= 0`` solved alone."""
    (out,) = _simplex_batch(A, b, c[None], **kwargs)
    return out


def _assert_batch_matches_lone(A, b, C, **extra):
    """Every member of the batch, with and without a trail, equals its lone solve."""
    outs = []
    for kwargs in _kernel_calls(A.shape[1]):
        got = _simplex_batch(A, b, C, **kwargs, **extra)
        assert len(got) == len(C)
        for k, (c, out) in enumerate(zip(C, got)):
            want = _lone(A, b, c, **kwargs, **extra)
            assert _outcome_bits(out) == _outcome_bits(want), f"member {k}"
        outs.append(got)
    return outs[0]


def _dual_members(rng, K):
    """A conftest LP and K eq_rhs rows: K LPs whose explicit duals share (A, b)."""
    base = random_feasible_bounded_lp(rng)
    n = base.num_vars
    betas = rng.normal(size=(3, n)).round(2)
    lp = _floor_and_cuts_lp(base, base.cost, rng.uniform(0.0, 2.0, size=n).round(3), betas, rng)
    eq_rhs = [base.eq_matrix @ rng.uniform(0.0, 2.0, size=n).round(3) for _ in range(K)]
    return lp, np.array(eq_rhs)


def _dual_group(rng, K):
    """(A, b, C) of ``_dual_members``' explicit duals: one (A, b), K costs."""
    return _explicit_duals(*_dual_members(rng, K))


@pytest.mark.parametrize("K", [2, 5, 25, 130])
@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_batch_matches_lone_solves(K, seed):
    rng = np.random.default_rng(seed)
    # explicit duals that share (A, b), as in a backward sweep
    _assert_batch_matches_lone(*_dual_group(rng, K))
    # a conftest LP in standard form under K random costs
    A, b, _ = _standard_primal(random_feasible_bounded_lp(rng))
    _assert_batch_matches_lone(A, b, rng.normal(size=(K, A.shape[1])).round(3))


def test_batch_member_unbounded_while_others_optimal(rng):
    # column n repeats column 0 negated: x0 and x_n may grow together, so a
    # cost with c0 + c_n < 0 is unbounded and one with c >= 0 is optimal
    A, b, _ = _standard_primal(random_feasible_bounded_lp(rng))
    A = np.hstack([A, -A[:, :1]])
    C = rng.normal(size=(6, A.shape[1])).round(3)
    C[0] = np.abs(C[0])
    C[1, -1] = -C[1, 0] - 1.0
    got = _assert_batch_matches_lone(A, b, C)
    statuses = {res.status for res in got}
    assert statuses == {SolveStatus.OPTIMAL, SolveStatus.UNBOUNDED}


def test_batch_of_an_infeasible_group(rng):
    A, b = np.array([[1.0], [1.0]]), np.array([1.0, 2.0])
    got = _assert_batch_matches_lone(A, b, rng.normal(size=(5, 1)))
    assert all(res.status is SolveStatus.INFEASIBLE for res in got)


def test_batch_members_that_switch_to_blands_rule(rng):
    # a zero streak switches every phase to Bland's rule at its first
    # degenerate pivot; primal vertices with few positive entries are
    # degenerate, so phase 2 takes such pivots
    groups = []
    for _ in range(20):
        lp = random_feasible_bounded_lp(rng)
        xhat = np.where(rng.random(lp.num_vars) < 0.7, 0.0, 1.0)
        A, b = lp.eq_matrix, lp.eq_matrix @ xhat
        groups.append((A, b, rng.normal(size=(8, lp.num_vars)).round(3)))
    switched = 0
    with mock.patch.object(lp_core, "BLAND_STREAK", 0):
        for A, b, C in groups:
            _assert_batch_matches_lone(A, b, C)
            bland = [_result_bits(_lone(A, b, c)) for c in C]
            with mock.patch.object(lp_core, "BLAND_STREAK", 50):
                dantzig = [_result_bits(_lone(A, b, c)) for c in C]
            switched += sum(x != y for x, y in zip(bland, dantzig))
    assert switched  # some member's path did change under Bland's rule


@pytest.mark.parametrize("max_pivots", range(8))
def test_batch_pivot_limit_matches_lone_solves(max_pivots):
    # the limit falls in phase 1 for the smallest values, in phase 2 after
    rng = np.random.default_rng(max_pivots)
    _assert_batch_matches_lone(*_dual_group(rng, 6), max_pivots=max_pivots)


def test_dual_batch_is_one_kernel_call(monkeypatch):
    calls = []
    orig = lp_core._simplex_batch

    def counting(A, b, C, **kwargs):
        calls.append(len(C))
        return orig(A, b, C, **kwargs)

    lp, eq_rhs = _dual_members(np.random.default_rng(3), 130)
    monkeypatch.setattr(lp_core, "_simplex_batch", counting)
    outcomes = solve_dual_batch(lp, eq_rhs, [])
    assert calls == [130]
    monkeypatch.undo()
    assert [_outcome_bits(out) for out in outcomes] == [
        _outcome_bits(solve_dual_batch(lp, row[None], [])[0]) for row in eq_rhs]


def test_batch_whose_members_split_matches_lone_solves():
    # random costs on a 6 x 8 conftest LP end at different vertices
    rng = np.random.default_rng(13)
    A, b, _ = _standard_primal(random_feasible_bounded_lp(rng))
    got = _assert_batch_matches_lone(A, b, rng.normal(size=(40, A.shape[1])).round(3))
    assert len({res.basis.tobytes() for res in got}) >= 2


def test_members_on_one_path_share_their_trail_points():
    # doubling a cost row is exact, so c and 2c take the same pivots
    A, b, C = _dual_group(np.random.default_rng(5), 1)
    c = C[0]
    got = _simplex_batch(A, b, np.array([c, 2.0 * c, c]), trail_len=A.shape[1])
    trails = [res.trail for res in got]
    assert len(trails[0]) > 1 and len({len(trail) for trail in trails}) == 1
    for (obj, point), (obj2, point2), (_, point3) in zip(*trails):
        assert point2 is point and point3 is point
        assert obj2 == 2.0 * obj


def test_captured_backward_batches_match_lone_solves(monkeypatch):
    # the backward duals of a real run that the kernel solves: the isddp1
    # preset on the u=0.2 family
    calls = []
    orig = lp_core._simplex_batch

    def capture(A, b, C, **kwargs):
        if len(C) > 1:
            calls.append((A.copy(), b.copy(), C.copy(), kwargs))
        return orig(A, b, C, **kwargs)

    monkeypatch.setattr(lp_core, "_simplex_batch", capture)
    model = generate_instance(PortfolioSpec(T=4, n=8, M=10, u=0.2, seed=0))
    schedule = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
    run_isddp(model, schedule, n_paths=10, gap_tol=1e-9, max_iter=2, seed=9)
    monkeypatch.undo()
    assert sum(len(C) for _, _, C, _ in calls) > 100
    for A, b, C, kwargs in calls:
        got = _simplex_batch(A, b, C, **kwargs)
        for k, (c, out) in enumerate(zip(C, got)):
            assert _outcome_bits(out) == _outcome_bits(_lone(A, b, c, **kwargs)), f"member {k}"


# ---------------------------------------------------------------------------
# Batched primal solves: LPs that share (A, c) and differ in eq_rhs, each
# member against its lone solve, bit for bit.


def _lone_primal(lp, row):
    """``solve_with_primal_trail`` of ``lp`` with ``row``, or the ``LpError`` it raises."""
    try:
        return solve_with_primal_trail(dataclasses.replace(lp, eq_rhs=row))
    except LpError as exc:
        return exc


def _assert_primal_batch_matches_lone(lp, eq_rhs):
    """Every member of ``lp``'s batch over ``eq_rhs``, in the kernel (x, obj,
    duals, basis, pivots and trail) and through ``solve_primal_batch``,
    equals its lone solve; returns the kernel outcomes."""
    A, B, c = _standard_primal(lp, eq_rhs)
    got = _simplex_batch(A, B, c[None], trail_len=lp.num_vars)
    assert len(got) == len(eq_rhs)
    for k, (b, out) in enumerate(zip(B, got)):
        want = _lone(A, b, c, trail_len=lp.num_vars)
        assert _outcome_bits(out) == _outcome_bits(want), f"member {k}"
    outs = solve_primal_batch(lp, eq_rhs, [])
    assert [_outcome_bits(out) for out in outs] == [
        _outcome_bits(_lone_primal(lp, row)) for row in eq_rhs]
    return got


def _captured_forward_batches(monkeypatch, model, schedule, n_paths, max_iter):
    """The forward batches (LP, eq_rhs) that a run hands ``solve_primal_batch``."""
    calls = []
    batch = stage_solver.solve_primal_batch

    def capture(lp, eq_rhs, bases):
        calls.append((lp, eq_rhs.copy()))
        return batch(lp, eq_rhs, bases)

    monkeypatch.setattr(stage_solver, "solve_primal_batch", capture)
    run_isddp(model, schedule, n_paths=n_paths, gap_tol=1e-9, max_iter=max_iter, seed=9)
    monkeypatch.undo()
    return calls


def test_forward_batches_whose_members_diverge_match_lone_solves(monkeypatch):
    # the u=0.2 family: members of one forward batch take different pivots
    model = generate_instance(PortfolioSpec(T=4, n=8, M=10, u=0.2, seed=0))
    calls = _captured_forward_batches(monkeypatch, model, EXACT_SCHEDULE, 10, 4)
    diverged = 0
    for lp, eq_rhs in calls:
        got = _assert_primal_batch_matches_lone(lp, eq_rhs)
        diverged += len({(res.basis.tobytes(), res.pivots) for res in got}) > 1
    assert sum(len(eq_rhs) for _, eq_rhs in calls) > 50 and diverged


def test_forward_batches_whose_members_pivot_alike_match_lone_solves(monkeypatch):
    # the T=6 u=1 benchmark instance: members of a batch share one pivot path
    model = generate_instance(PortfolioSpec(T=6, n=4, M=5, seed=0))
    schedule = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
    calls = _captured_forward_batches(monkeypatch, model, schedule, 5, 4)
    assert sum(len(eq_rhs) for _, eq_rhs in calls) > 50
    for lp, eq_rhs in calls:
        got = _assert_primal_batch_matches_lone(lp, eq_rhs)
        assert len({(res.basis.tobytes(), res.pivots) for res in got}) == 1


def test_primal_batch_members_with_different_rhs_signs(rng):
    # rows are signed to b >= 0 before the crash, so each sign pattern
    # starts on a tableau of its own
    lp = random_feasible_bounded_lp(rng)
    n = lp.num_vars
    eq_rhs = np.array([lp.eq_matrix @ rng.uniform(0.0, 2.0, size=n).round(3)
                       for _ in range(12)])
    signs = {tuple(row < 0) for row in eq_rhs}
    assert len(signs) > 1
    _assert_primal_batch_matches_lone(lp, eq_rhs)


def test_primal_batch_with_an_infeasible_member(rng):
    # x0 - x1 = b0, x0 + x1 = b1 with x >= 0 needs b1 >= |b0|: the second
    # member's rhs has the signs of the others but no feasible point
    lp = LinearProgram(cost=[1.0, 2.0, 0.5], eq_matrix=[[1.0, -1.0, 0.0], [1.0, 1.0, 1.0]],
                       eq_rhs=[1.0, 3.0], cut_beta=[[0.0, 0.0, 0.0], [0.5, -1.0, 0.2]],
                       cut_theta=[-5.0, 0.3])
    eq_rhs = np.array([[1.0, 3.0], [1.0, 0.5], [0.5, 2.0], [2.0, 2.5]])
    got = _assert_primal_batch_matches_lone(lp, eq_rhs)
    assert [res.status for res in got] == [SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE,
                                           SolveStatus.OPTIMAL, SolveStatus.OPTIMAL]


def _assert_rhs_batch_matches_lone(A, B, c, **extra):
    """Every member of a batch over the rows of ``B``, with and without a
    trail, equals its lone solve."""
    for kwargs in _kernel_calls(A.shape[1]):
        got = _simplex_batch(A, B, c[None], **kwargs, **extra)
        assert len(got) == len(B)
        for k, (b, out) in enumerate(zip(B, got)):
            want = _lone(A, b, c, **kwargs, **extra)
            assert _outcome_bits(out) == _outcome_bits(want), f"member {k}"


def _rhs_members(rng, K):
    """A conftest LP in standard form and K right-hand sides A @ x, x >= 0
    with some zero entries (degenerate vertices)."""
    A, _, c = _standard_primal(random_feasible_bounded_lp(rng))
    X = np.where(rng.random((K, A.shape[1])) < 0.5, 0.0, rng.uniform(0.0, 2.0, (K, A.shape[1])))
    return A, (X @ A.T).round(3), c


@pytest.mark.parametrize("K", [2, 7, 40])
@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_rhs_batch_matches_lone_solves(K, seed):
    _assert_rhs_batch_matches_lone(*_rhs_members(np.random.default_rng(seed), K))


def test_rhs_batch_members_that_switch_to_blands_rule(rng):
    # a zero streak switches each member to Bland's rule at its first
    # degenerate pivot, in phase 1 as in phase 2
    with mock.patch.object(lp_core, "BLAND_STREAK", 0):
        for _ in range(10):
            _assert_rhs_batch_matches_lone(*_rhs_members(rng, 8))


@pytest.mark.parametrize("max_pivots", range(8))
def test_rhs_batch_pivot_limit_matches_lone_solves(max_pivots):
    # the limit falls in phase 1 for the smallest values, in phase 2 after
    rng = np.random.default_rng(max_pivots)
    _assert_rhs_batch_matches_lone(*_rhs_members(rng, 6), max_pivots=max_pivots)


@pytest.mark.parametrize("threshold", UPDATE_THRESHOLDS)
def test_rhs_batch_on_both_update_paths(threshold):
    rng = np.random.default_rng(11)
    with mock.patch.object(lp_core, "RESTRICTED_UPDATE_CELLS", threshold):
        _assert_rhs_batch_matches_lone(*_rhs_members(rng, 12))


def test_a_batch_shares_its_cost_rows_or_its_right_hand_sides():
    A, b, c = np.eye(2), np.ones((3, 2)), np.ones((3, 2))
    with pytest.raises(LpDimensionError, match="share one or the other"):
        _simplex_batch(A, b, c)


@pytest.mark.parametrize("name", list(EDGE_LPS))
def test_rhs_batch_matches_lone_solves_on_edge_lps(name):
    # each edge LP beside copies of it with scaled and sign-flipped rows
    A, b, c = _standard_primal(EDGE_LPS[name]())
    B = np.array([b, 2.0 * b, -b, b + (np.arange(len(b)) % 2)])
    _assert_rhs_batch_matches_lone(A, B, c)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_leaving_rows_is_leaving_row_per_column(seed, bland):
    # entries drawn from a few values, so ratios tie exactly and within 1e-9
    rng = np.random.default_rng(seed)
    m, g = int(rng.integers(0, 7)), int(rng.integers(1, 6))
    colv = rng.choice([-1.0, 0.0, 1e-12, 0.5, 1.0, 2.0, 2.0 + 1e-10], size=m)
    rhs = rng.choice([0.0, 1.0, 2.0, 4.0, 4.0 + 1e-9], size=(m, g))
    basis = rng.permutation(2 * m + 1)[:m]
    got = lp_core._leaving_rows(colv, rhs, basis, bland)
    want = [lp_core._leaving_row(colv, rhs[:, j], basis, bland, np.empty(m)) for j in range(g)]
    assert got.tolist() == want


def test_rhs_batch_members_of_another_sign_class_start_afresh(rng):
    # each rhs sign pattern starts on a tableau and crash of its own
    for _ in range(10):
        A, B, c = _rhs_members(rng, 8)
        B = np.abs(B)
        B[::2, 0] = -1.0 - B[::2, 0]  # half the members flip the sign of row 0
        _assert_rhs_batch_matches_lone(A, B, c)


def _assert_rhs_replay_matches_lone(A, b0, B, c):
    """Solve two copies of ``b0``, then ``B``, then ``B`` again, all of one
    standard form: the kernel carries nothing from one batch to the next, so
    every member of ``B`` equals its lone solve both times."""
    _simplex_batch(A, np.array([b0, b0]), c[None], trail_len=A.shape[1])
    got = _simplex_batch(A, B, c[None], trail_len=A.shape[1])
    again = _simplex_batch(A, B, c[None], trail_len=A.shape[1])
    for k, (b, out, rerun) in enumerate(zip(B, got, again)):
        want = _outcome_bits(_lone(A, b, c, trail_len=A.shape[1]))
        assert _outcome_bits(out) == want and _outcome_bits(rerun) == want, f"member {k}"


@pytest.mark.parametrize("name", list(EDGE_LPS))
def test_rhs_batch_replays_on_edge_lps(name):
    A, b, c = _standard_primal(EDGE_LPS[name]())
    B = np.array([b, 2.0 * b, -b, b + (np.arange(len(b)) % 2)])
    _assert_rhs_replay_matches_lone(A, b, B, c)


@pytest.mark.parametrize("K", [2, 7])
@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_rhs_batch_replays_match_lone_solves(K, seed):
    A, B, c = _rhs_members(np.random.default_rng(seed), K + 1)
    _assert_rhs_replay_matches_lone(A, B[0], B[1:], c)


def test_captured_forward_batches_replay_and_match_lone_solves(monkeypatch):
    # the forward batches of the T=6 benchmark instance with the outcomes the
    # run got: each batch, solved again outside the run, gets them again, and
    # each member equals its lone solve
    calls = []
    batch = stage_solver.solve_primal_batch

    def capture(lp, eq_rhs, bases):
        outs = batch(lp, eq_rhs, [])
        calls.append((lp, eq_rhs.copy(), [_outcome_bits(out) for out in outs]))
        return outs

    monkeypatch.setattr(stage_solver, "solve_primal_batch", capture)
    model = generate_instance(PortfolioSpec(T=6, n=4, M=5, seed=0))
    schedule = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
    run_isddp(model, schedule, n_paths=5, gap_tol=1e-9, max_iter=6, seed=9)
    monkeypatch.undo()
    assert sum(len(eq_rhs) for _, eq_rhs, _ in calls) > 50
    for lp, eq_rhs, seen in calls:
        assert [_outcome_bits(out) for out in solve_primal_batch(lp, eq_rhs, [])] == seen
        _assert_primal_batch_matches_lone(lp, eq_rhs)


# ---------------------------------------------------------------------------
# Cached bases: a dual batch answers a member whose cost prices out at the
# optimal basis of an earlier dual with the same constraints by that basis's
# vertex; every other member equals its lone solve, bit for bit.


def _assert_hits_exact_and_misses_lone(lp, eq_rhs, bases):
    """``solve_dual_batch`` of ``lp`` with ``eq_rhs`` against ``bases``.

    A member answered from a cached basis gets that basis's vertex, bit for
    bit, and an exact certificate: dual feasible within 1e-9 and worth its
    lone kernel solve within 1e-9 relative.  Every other member is its lone
    kernel solve, bit for bit.  Returns the counts of hits and misses.
    """
    cached = list(bases)
    got = solve_dual_batch(lp, eq_rhs, bases)
    D, rhs, costs = _explicit_duals(lp, eq_rhs)
    trail_len = 2 * lp.num_eq + lp.num_cuts
    hits = 0
    for k, (row, c, out) in enumerate(zip(eq_rhs, costs, got)):
        want = _lone(D, rhs, c, trail_len=trail_len)
        if cache_hit(out, cached):
            hits += 1
            assert any(out.z is entry[2] for entry in cached), f"member {k}"
            member = dataclasses.replace(lp, eq_rhs=row)
            cert = solve_dual_inexact(member, ErrorBudget(), result=out)
            assert cert.eps_certified == 0.0 and cert.dual_obj == -out.obj
            assert dual_feasibility_residual(member, cert.lam, cert.mu) <= 1e-9, f"member {k}"
            assert abs(out.obj - want.obj) <= 1e-9 * max(1.0, abs(want.obj)), f"member {k}"
        else:
            assert _outcome_bits(out) == _outcome_bits(want), f"member {k}"
    return hits, len(got) - hits


@pytest.mark.parametrize("K", [2, 5, 25])
@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_dual_batch_answers_from_the_bases_of_an_earlier_batch(K, seed):
    lp, eq_rhs = _dual_members(np.random.default_rng(seed), 2 * K)
    bases = []
    assert _assert_hits_exact_and_misses_lone(lp, eq_rhs[:K], bases)[0] == 0
    kept = list(bases)
    _assert_hits_exact_and_misses_lone(lp, eq_rhs[K:], bases)
    assert all(a is b for a, b in zip(bases, kept)) and len(bases) >= len(kept)


def test_dual_batch_answers_some_members_from_cache_and_solves_the_rest():
    # of 35 members, some price out at one of the bases that 5 others found
    # and some at none of them
    lp, eq_rhs = _dual_members(np.random.default_rng(0), 40)
    bases = []
    _assert_hits_exact_and_misses_lone(lp, eq_rhs[:5], bases)
    hits, misses = _assert_hits_exact_and_misses_lone(lp, eq_rhs[5:], bases)
    assert hits and misses


@pytest.mark.parametrize("name", ["dependent_rows", "duplicated_row"])
@pytest.mark.parametrize("flip", [1.0, -1.0])
def test_tableau_rows_of_a_basis_that_keeps_an_artificial(name, flip):
    # a redundant row keeps a zero-level artificial basic, whichever sign the
    # row takes; the basis's tableau rows still price the kernel's optimum
    # out and give its basic values
    A, b, c = _standard_primal(EDGE_LPS[name]())
    A, b = A.copy(), b.copy()
    A[-1] *= flip
    b[-1] *= flip
    res = _lone(A, b, c)
    n = A.shape[1]
    assert (res.basis >= n).any()
    cols = res.basis[res.basis < n]
    rows = lp_core._tableau_rows(A, res.basis)
    assert np.allclose(rows[:, cols], np.eye(len(cols)))
    assert ((c - c[cols] @ rows) >= -lp_core.FEAS_TOL).all()
    assert np.allclose(rows @ res.z, res.z[cols])


def test_dual_batch_answers_no_member_from_a_singular_basis(monkeypatch):
    # the members that the bases of 5 others answer above, with every
    # basis matrix singular
    lp, eq_rhs = _dual_members(np.random.default_rng(0), 40)
    bases = []
    solve_dual_batch(lp, eq_rhs[:5], bases)

    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert _assert_hits_exact_and_misses_lone(lp, eq_rhs[5:], bases)[0] == 0


# ---------------------------------------------------------------------------
# Cached primal bases: a forward batch answers a member at which the optimal
# basis of an earlier LP with the same standard form is primal feasible by
# that basis's point; every other member equals its lone solve, bit for bit.


def _assert_primal_hits_exact_and_misses_lone(lp, eq_rhs, bases):
    """``solve_primal_batch`` of ``lp`` with ``eq_rhs`` against ``bases``.

    A member answered from a cached basis gets a point of that basis that
    is primal feasible within 1e-9 and worth its lone kernel solve within
    1e-9 relative, as its whole trail.  Every other member is its lone
    kernel solve, bit for bit.  Returns the counts of hits and misses.
    """
    cached = list(bases)
    got = solve_primal_batch(lp, eq_rhs, bases)
    hits = 0
    for k, (row, out) in enumerate(zip(eq_rhs, got)):
        want = _lone_primal(lp, row)
        if not cache_hit(out, cached):
            assert _outcome_bits(out) == _outcome_bits(want), f"member {k}"
            continue
        hits += 1
        x, tol = out.z[: lp.num_vars], 1e-9 * (1.0 + np.abs(row).max(initial=0.0))
        trail = out.trail
        assert len(trail) == 1 and trail[0][0] == out.obj and trail[0][1].tobytes() == x.tobytes()
        assert x.min(initial=0.0) >= -1e-9, f"member {k}"
        assert np.abs(lp.eq_matrix @ x - row).max(initial=0.0) <= tol, f"member {k}"
        if lp.has_epigraph:
            f = out.obj - lp.cost @ x
            assert (f - (lp.cut_theta + lp.cut_beta @ x)).min() >= -tol, f"member {k}"
        assert want.status is SolveStatus.OPTIMAL, f"member {k}"
        assert abs(out.obj - want.obj) <= 1e-9 * max(1.0, abs(want.obj)), f"member {k}"
    return hits, len(got) - hits


@pytest.mark.parametrize("K", [2, 5, 25])
@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_primal_batch_answers_from_the_bases_of_an_earlier_batch(K, seed):
    lp, eq_rhs = _dual_members(np.random.default_rng(seed), 2 * K)
    bases = []
    assert _assert_primal_hits_exact_and_misses_lone(lp, eq_rhs[:K], bases)[0] == 0
    assert bases
    kept = list(bases)
    _assert_primal_hits_exact_and_misses_lone(lp, eq_rhs[K:], bases)
    assert all(a is b for a, b in zip(bases, kept)) and len(bases) >= len(kept)


def test_primal_batch_answers_some_members_from_cache_and_solves_the_rest():
    # of 35 members, the bases that 5 others found fit some and not others
    lp, eq_rhs = _dual_members(np.random.default_rng(0), 40)
    bases = []
    _assert_primal_hits_exact_and_misses_lone(lp, eq_rhs[:5], bases)
    hits, misses = _assert_primal_hits_exact_and_misses_lone(lp, eq_rhs[5:], bases)
    assert hits and misses


def test_primal_batch_answered_by_hits_makes_no_kernel_call(monkeypatch):
    # each member's own optimal basis fits it again
    lp, eq_rhs = _dual_members(np.random.default_rng(0), 20)
    bases = []
    solve_primal_batch(lp, eq_rhs, bases)
    calls = []
    batch = lp_core._simplex_batch
    monkeypatch.setattr(lp_core, "_simplex_batch", lambda *args, **kwargs: (
        calls.append(args) or batch(*args, **kwargs)))
    cached = list(bases)
    got = solve_primal_batch(lp, eq_rhs, bases)
    assert calls == [] and all(cache_hit(out, cached) for out in got)
    monkeypatch.undo()
    assert _assert_primal_hits_exact_and_misses_lone(lp, eq_rhs, bases) == (20, 0)


def test_primal_batch_answers_no_member_from_a_singular_basis(monkeypatch):
    # the members that the bases of 5 others answer above, with every
    # basis matrix singular
    lp, eq_rhs = _dual_members(np.random.default_rng(0), 40)
    bases = []
    solve_primal_batch(lp, eq_rhs[:5], bases)
    cached = list(bases)

    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    assert _assert_primal_hits_exact_and_misses_lone(lp, eq_rhs[5:], bases)[0] == 0
    assert all(np.isnan(entry[3]).all() for entry in cached)


def test_primal_batch_turns_away_a_point_that_misses_its_right_hand_side():
    # an inverse off by a relative 1e-6, as that of an ill-conditioned basis
    # may be, keeps every basic value nonnegative but misses b: the primal
    # residual check sends each member to the kernel
    lp, eq_rhs = _dual_members(np.random.default_rng(0), 20)
    bases = []
    solve_primal_batch(lp, eq_rhs, bases)
    A, _, _ = _standard_primal(lp)
    for entry in bases:
        entry[3] = lp_core._basis_inverse(A, entry[1]) * (1.0 + 1e-6)
    assert _assert_primal_hits_exact_and_misses_lone(lp, eq_rhs, bases)[0] == 0


@pytest.mark.parametrize("name", ["dependent_rows", "duplicated_row"])
@pytest.mark.parametrize("flip", [1.0, -1.0])
def test_primal_basis_that_keeps_an_artificial(name, flip):
    # a redundant row keeps a zero-level artificial basic, whichever sign the
    # row takes; the basis answers the scaled right-hand sides, and not one
    # that breaks the redundancy, where the LP is infeasible
    base = EDGE_LPS[name]()
    A, b = base.eq_matrix.copy(), base.eq_rhs.copy()
    A[-1] *= flip
    b[-1] *= flip
    lp = dataclasses.replace(base, eq_matrix=A, eq_rhs=b)
    bases = []
    solve_primal_batch(lp, b[None], bases)
    ((_, basis, _, _),) = bases
    assert (basis >= A.shape[1]).any()
    broken = b + np.eye(len(b))[-1]
    hits, _ = _assert_primal_hits_exact_and_misses_lone(lp, np.array([b, 2.0 * b, 0.5 * b,
                                                                      broken]), bases)
    assert hits == 3
    assert _lone_primal(lp, broken).status is SolveStatus.INFEASIBLE


def test_member_infeasible_at_every_cached_basis_goes_to_the_kernel(monkeypatch):
    # x0 - x1 = b0, x0 + x1 + x2 = b1: the optimal basis at b0 > 0 holds x0
    # and is infeasible at b0 < 0, where x1 must be positive
    lp = LinearProgram(cost=[1.0, 2.0, 0.5], eq_matrix=[[1.0, -1.0, 0.0], [1.0, 1.0, 1.0]],
                       eq_rhs=[1.0, 3.0], cut_beta=[[0.0, 0.0, 0.0], [0.5, -1.0, 0.2]],
                       cut_theta=[-5.0, 0.3])
    bases = []
    solve_primal_batch(lp, np.array([[1.0, 3.0], [2.0, 2.5]]), bases)
    assert bases
    handed = []
    batch = lp_core._simplex_batch
    monkeypatch.setattr(lp_core, "_simplex_batch", lambda A, b, C, **kwargs: (
        handed.append(b.copy()) or batch(A, b, C, **kwargs)))
    eq_rhs = np.array([[1.0, 3.0], [-1.0, 3.0], [0.5, 2.0]])
    cached = list(bases)
    got = solve_primal_batch(lp, eq_rhs, bases)
    assert [cache_hit(out, cached) for out in got] == [True, False, True]
    A, b, _ = _standard_primal(lp, eq_rhs[1:2])
    assert len(handed) == 1 and handed[0].tobytes() == b.tobytes()
    for entry in bases[:1]:
        assert (np.linalg.inv(lp_core._basis_matrix(A, entry[1])) @ b[0]).min() < -1e-3
    assert _outcome_bits(got[1]) == _outcome_bits(_lone_primal(lp, eq_rhs[1]))


# ---------------------------------------------------------------------------
# The trail of an optimal outcome ends at its vertex, bit for bit: the
# forward memo keeps the trail and reads the optimal vertex off its end.


def _assert_trails_end_at_their_vertex(outs, trail_len):
    """Every optimal outcome in ``outs`` has ``trail[-1][1] == z[:trail_len]``
    bit for bit; returns the optimal outcomes."""
    optimal = [out for out in outs
               if not isinstance(out, LpError) and out.status is SolveStatus.OPTIMAL]
    for k, out in enumerate(optimal):
        assert out.trail[-1][1].tobytes() == out.z[:trail_len].tobytes(), f"member {k}"
    return optimal


def test_optimal_trails_of_captured_forward_batches_end_at_their_vertex(monkeypatch):
    # the run's own outcomes (kernel solves and cache hits), then each batch
    # again without bases, where every member is a kernel solve in a group
    calls = []
    batch = stage_solver.solve_primal_batch

    def capture(lp, eq_rhs, bases):
        cached = list(bases)
        outs = batch(lp, eq_rhs, bases)
        calls.append((lp, eq_rhs.copy(), outs, cached))
        return outs

    monkeypatch.setattr(stage_solver, "solve_primal_batch", capture)
    model = generate_instance(PortfolioSpec(T=6, n=4, M=5, seed=0))
    schedule = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
    run_isddp(model, schedule, n_paths=5, gap_tol=1e-9, max_iter=6, seed=9)
    monkeypatch.undo()
    hits = grouped = 0
    for lp, eq_rhs, outs, cached in calls:
        optimal = _assert_trails_end_at_their_vertex(outs, lp.num_vars)
        hits += sum(cache_hit(out, cached) for out in optimal)
        again = _assert_trails_end_at_their_vertex(solve_primal_batch(lp, eq_rhs, []),
                                                   lp.num_vars)
        grouped += len(again) if len(eq_rhs) > 1 else 0
    assert hits and grouped


@pytest.mark.parametrize("K", [1, 5, 25])
@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=4, deadline=None)
def test_optimal_trails_of_random_groups_end_at_their_vertex(K, seed):
    # a first batch of kernel solves, then a second one against its bases,
    # of the forward LPs and of their explicit duals
    lp, eq_rhs = _dual_members(np.random.default_rng(seed), 2 * K)
    for solve, trail_len in ((solve_primal_batch, lp.num_vars),
                             (solve_dual_batch, 2 * lp.num_eq + lp.num_cuts)):
        bases = []
        for rows in (eq_rhs[:K], eq_rhs[K:]):
            _assert_trails_end_at_their_vertex(solve(lp, rows, bases), trail_len)
