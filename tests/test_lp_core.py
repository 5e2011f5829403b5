import dataclasses
import importlib.util
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_kernel
from isddp import lp_core
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
    solve_with_primal_trail,
    _explicit_duals,
    _simplex_batch,
    _simplex_standard_form,
    _standard_primal,
)
from isddp.oracle import _assemble_tree_lp
from isddp.portfolio import PortfolioSpec, generate_instance

from conftest import enumerate_vertices, random_feasible_bounded_lp


def single_var_lp():
    # min y  s.t. y = 2, y >= 0
    return LinearProgram(
        num_vars=1, num_eq=1, cost=[1.0], eq_matrix=[[1.0]], eq_rhs=[2.0]
    )


def no_rows_lp(cost):
    n = len(cost)
    return LinearProgram(
        num_vars=n, num_eq=0, cost=cost, eq_matrix=np.zeros((0, n)), eq_rhs=[]
    )


class TestSolveExact:
    def test_single_equality_identity(self):
        sol = solve_exact(single_var_lp())
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x == pytest.approx([2.0])
        assert sol.obj == pytest.approx(2.0)
        assert sol.lam == pytest.approx([1.0])

    def test_unbounded_ray(self):
        lp = LinearProgram(
            num_vars=1, num_eq=0, cost=[-1.0], eq_matrix=np.zeros((0, 1)), eq_rhs=[]
        )
        assert solve_exact(lp).status is SolveStatus.UNBOUNDED

    def test_no_rows_nonnegative_cost_optimal_at_origin(self):
        sol = solve_exact(no_rows_lp([1.0, 0.0]))
        assert sol.status is SolveStatus.OPTIMAL
        assert np.array_equal(sol.x, [0.0, 0.0])
        assert sol.obj == 0.0

    def test_segment_vertex(self):
        lp = LinearProgram(
            num_vars=2, num_eq=1, cost=[1.0, 1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0]
        )
        sol = solve_exact(lp)
        assert sol.obj == pytest.approx(1.0)
        assert np.count_nonzero(sol.x) == 1

    def test_infeasible(self):
        lp = LinearProgram(
            num_vars=1, num_eq=2, cost=[1.0], eq_matrix=[[1.0], [1.0]], eq_rhs=[1.0, 2.0]
        )
        assert solve_exact(lp).status is SolveStatus.INFEASIBLE

    def test_pivot_limit_fault_carries_iterate(self):
        # no column is a unit column, so phase 1 must pivot
        lp = LinearProgram(
            num_vars=2, num_eq=2, cost=[1.0, 1.0], eq_matrix=[[1.0, 1.0], [1.0, -1.0]],
            eq_rhs=[1.0, 0.0],
        )
        with pytest.raises(PivotLimitError) as err:
            solve_exact(lp, max_pivots=0)
        assert err.value.iterate is not None

    def test_epigraph_lp(self):
        # min x + f  s.t. x = 2, f >= 3 + 5x: optimum 15 with lam=6, mu=1.
        lp = LinearProgram(
            num_vars=1,
            num_eq=1,
            cost=[1.0],
            eq_matrix=[[1.0]],
            eq_rhs=[2.0],
            cut_beta=[[5.0]],
            cut_theta=[3.0],
            has_epigraph=True,
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
                num_vars=lp0.num_vars,
                num_eq=lp0.num_eq,
                cost=lp0.cost,
                eq_matrix=lp0.eq_matrix,
                eq_rhs=lp0.eq_rhs,
                cut_beta=betas,
                cut_theta=thetas,
                has_epigraph=True,
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
            num_vars=3,
            num_eq=3,
            cost=[-1.0, -2.0, -1.0],
            eq_matrix=[[2.0, 2.0, 2.0], [-2.0, 0.0, 0.0], [-2.0, 1.0, 1.0]],
            eq_rhs=[4.0, 0.0, 2.0],
        )
        sol = solve_exact(lp)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.obj == pytest.approx(-4.0)
        assert max(solution_residuals(lp, sol)) <= 1e-9
        cert = solve_dual_inexact(lp, 0.0)
        assert cert.dual_obj == pytest.approx(-4.0)
        assert dual_feasibility_residual(lp, cert.lam, cert.mu) <= 1e-9

    def test_exactly_duplicated_row(self):
        lp = LinearProgram(
            num_vars=2,
            num_eq=2,
            cost=[1.0, 2.0],
            eq_matrix=[[1.0, 1.0], [1.0, 1.0]],
            eq_rhs=[1.0, 1.0],
        )
        sol = solve_exact(lp)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.obj == pytest.approx(1.0)


class TestDualInexact:
    def test_exact_reduction(self):
        cert = solve_dual_inexact(single_var_lp(), eps=0.0)
        assert cert.dual_obj == pytest.approx(2.0)
        assert cert.eps_certified == 0.0

    def test_eps_band(self):
        # any dual-feasible lam with dual_obj in [1.5, 2]
        cert = solve_dual_inexact(single_var_lp(), eps=0.5)
        assert 1.5 - 1e-12 <= cert.dual_obj <= 2.0 + 1e-12
        assert dual_feasibility_residual(single_var_lp(), cert.lam, cert.mu) <= 1e-9

    def test_certificate_against_exact(self, rng):
        for _ in range(60):
            lp = random_feasible_bounded_lp(rng)
            ref = solve_exact(lp).obj
            for eps in (0.0, 0.01, 0.1):
                cert = solve_dual_inexact(lp, eps)
                scale = 1.0 + abs(ref)
                assert dual_feasibility_residual(lp, cert.lam, cert.mu) <= 1e-9
                assert cert.dual_obj >= ref - eps - 1e-9 * scale
                assert cert.dual_obj <= ref + 1e-9 * scale
                assert cert.eps_certified <= eps + 1e-12

    def test_faults_on_unbounded(self):
        lp = LinearProgram(
            num_vars=1, num_eq=0, cost=[-1.0], eq_matrix=np.zeros((0, 1)), eq_rhs=[]
        )
        with pytest.raises(NoFiniteOptimumError):
            solve_dual_inexact(lp, eps=0.1)

    def test_faults_on_infeasible(self):
        lp = LinearProgram(
            num_vars=1, num_eq=2, cost=[1.0], eq_matrix=[[1.0], [1.0]], eq_rhs=[1.0, 2.0]
        )
        with pytest.raises(NoFiniteOptimumError):
            solve_dual_inexact(lp, eps=0.1)

    def test_retrospective_deterministic(self, rng):
        lp = random_feasible_bounded_lp(rng)
        c1 = solve_dual_inexact(lp, eps=0.05)
        c2 = solve_dual_inexact(lp, eps=0.05)
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
            num_vars=1,
            num_eq=1,
            cost=[1.0],
            eq_matrix=[[1.0]],
            eq_rhs=[2.0],
            cut_beta=[[0.0]],
            cut_theta=[0.0],
            has_epigraph=True,
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
            sol, trail = solve_with_primal_trail(lp)
            assert sol.status is SolveStatus.OPTIMAL
            objs = [o for o, _ in trail]
            assert all(objs[i] >= objs[i + 1] - 1e-9 for i in range(len(objs) - 1))
            assert objs[-1] == pytest.approx(sol.obj)
            for _, x in trail:
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
        num_vars=n, num_eq=base.num_eq, cost=cost, eq_matrix=base.eq_matrix,
        eq_rhs=base.eq_matrix @ xhat,
        cut_beta=np.vstack([np.zeros(n), betas]),
        cut_theta=[-5.0] + [round(rng.normal(), 2) for _ in betas],
        has_epigraph=True,
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
    batch = solve_dual_batch(lp, np.array([member.eq_rhs for member in lps]))
    budgets = [dict(eps=0.0), dict(eps=0.05), dict(eps=0.0, rel_eps=0.01)]
    for i, lp in enumerate(lps):
        for budget in budgets:
            cold = solve_dual_inexact(lp, **budget)
            assert _bits(solve_dual_inexact(lp, **budget, result=batch[i])) == _bits(cold)


# ---------------------------------------------------------------------------
# Crash start: a row that holds a unit column (one nonzero entry, positive
# after the sign flip) starts with that column basic.


def test_crash_start_with_a_unit_column_in_every_row_takes_no_phase1_pivot():
    # row 0 holds columns 0 (entry 2) and 2 (entry 1): the lower index wins;
    # row 1 (b < 0) holds column 3 once its sign is flipped
    A = np.array([[2.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
    b = np.array([4.0, -2.0])
    res = _simplex_standard_form(A, b, np.zeros(4))
    assert res.pivots == 0
    assert res.basis.tolist() == [0, 3]
    assert res.z.tolist() == [2.0, 0.0, 0.0, 2.0]


@pytest.mark.parametrize("entry, pivots", [(-1.0, 1), (1.0, 0)])
def test_crash_start_skips_a_unit_column_with_a_negative_entry(entry, pivots):
    # column 2 is row 1's only unit column; negative, it leaves row 1 its
    # artificial, which phase 1 pivots out
    A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, entry]])
    res = _simplex_standard_form(A, np.array([2.0, 1.0]), np.zeros(3))
    assert res.status is SolveStatus.OPTIMAL
    assert res.pivots == pivots
    assert res.basis.tolist() == [1, 0 if entry < 0 else 2]


# ---------------------------------------------------------------------------
# The kernel against HiGHS (scipy, optional) on conftest LPs and variants that
# add cut rows, make the LP infeasible or drop its bounding row.

HIGHS_STATUS = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="needs scipy")
@given(st.integers(min_value=0, max_value=2**31 - 1))
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
        dataclasses.replace(base, num_eq=base.num_eq - 1, eq_matrix=base.eq_matrix[1:],
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
            assert max(solution_residuals(lp, sol)) <= 1e-9


# ---------------------------------------------------------------------------
# The kernel against its pre-rewrite reference (tests/_reference_kernel.py):
# every _KernelResult field must match bit for bit.  The one tolerated
# difference is the sign of an exact zero, which the restricted update can
# leave where a dense update would have subtracted a zero product.


def _result_bits(res):
    def bits(a):
        return None if a is None else (np.asarray(a, dtype=float) + 0.0).tobytes()

    basis = None if res.basis is None else res.basis.tobytes()
    return (res.status, bits(res.z), bits(res.obj), bits(res.y), basis,
            res.pivots,
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
        got = _simplex_standard_form(A, b, c, **kwargs)
        assert _result_bits(got) == _result_bits(ref)


def _assert_batch_matches_reference(A, b, C):
    for kwargs in _kernel_calls(A.shape[1]):
        got = _simplex_batch(A, b, C, **kwargs)
        assert len(got) == len(C)
        for c, res in zip(C, got):
            ref = _reference_kernel._simplex_standard_form(A, b, c, **kwargs)
            assert _result_bits(res) == _result_bits(ref)


def _chain_tree_lp():
    """Tree LP of a T=14, n=3 chain: a tableau above the restricted-update size."""
    model = generate_instance(PortfolioSpec(T=14, n=3, M=1, seed=0))
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
    "infeasible": lambda: LinearProgram(
        num_vars=1, num_eq=2, cost=[1.0], eq_matrix=[[1.0], [1.0]], eq_rhs=[1.0, 2.0]
    ),
    "dependent_rows": lambda: LinearProgram(
        num_vars=3, num_eq=3, cost=[-1.0, -2.0, -1.0],
        eq_matrix=[[2.0, 2.0, 2.0], [-2.0, 0.0, 0.0], [-2.0, 1.0, 1.0]],
        eq_rhs=[4.0, 0.0, 2.0],
    ),
    "duplicated_row": lambda: LinearProgram(
        num_vars=2, num_eq=2, cost=[1.0, 2.0],
        eq_matrix=[[1.0, 1.0], [1.0, 1.0]], eq_rhs=[1.0, 1.0],
    ),
    "chain_tree": _chain_tree_lp,
}


@pytest.mark.parametrize("threshold", UPDATE_THRESHOLDS)
@pytest.mark.parametrize("name", list(EDGE_LPS))
def test_kernel_matches_reference_on_edge_lps(name, threshold):
    lp = EDGE_LPS[name]()
    with mock.patch.object(lp_core, "RESTRICTED_UPDATE_CELLS", threshold):
        _assert_matches_reference(*_standard_primal(lp))
        _assert_matches_reference(*_explicit_dual(lp))


def test_chain_tree_lp_takes_the_restricted_update():
    A, _, _ = _standard_primal(_chain_tree_lp())
    m, n = A.shape
    assert (m + 2) * (n + m + 1) >= lp_core.RESTRICTED_UPDATE_CELLS


# ---------------------------------------------------------------------------
# Batched solves: each LP of a batch against its lone solve, bit for bit.


def _outcome_bits(out):
    if isinstance(out, PivotLimitError):
        return ("limit", out.iterate.tobytes(), float(out.obj).hex())
    if isinstance(out, LpError):
        return (type(out), str(out))
    return _result_bits(out)


def _lone(A, b, c, **kwargs):
    try:
        return _simplex_standard_form(A, b, c, **kwargs)
    except LpError as exc:
        return exc


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
            bland = [_result_bits(_simplex_standard_form(A, b, c)) for c in C]
            with mock.patch.object(lp_core, "BLAND_STREAK", 50):
                dantzig = [_result_bits(_simplex_standard_form(A, b, c)) for c in C]
            switched += sum(x != y for x, y in zip(bland, dantzig))
    assert switched  # some member's path did change under Bland's rule


@pytest.mark.parametrize("max_pivots", range(8))
def test_batch_pivot_limit_matches_lone_solves(max_pivots):
    # the limit falls in phase 1 for the smallest values, in phase 2 after
    rng = np.random.default_rng(max_pivots)
    _assert_batch_matches_lone(*_dual_group(rng, 6), max_pivots=max_pivots)


def test_dual_batch_solves_in_chunks(monkeypatch):
    calls = []
    orig = lp_core._simplex_batch

    def counting(A, b, C, **kwargs):
        calls.append(len(C))
        return orig(A, b, C, **kwargs)

    monkeypatch.setattr(lp_core, "_simplex_batch", counting)
    lp, eq_rhs = _dual_members(np.random.default_rng(3), lp_core.BATCH_CHUNK + 2)
    outcomes = solve_dual_batch(lp, eq_rhs)
    assert len(outcomes) == lp_core.BATCH_CHUNK + 2
    assert outcomes[lp_core.BATCH_CHUNK + 1].status is SolveStatus.OPTIMAL
    assert calls == [lp_core.BATCH_CHUNK, 2]
