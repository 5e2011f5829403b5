"""Stage LPs and duals answered from cached optimal bases, checked against HiGHS.

Once a pool holds still, ``solve_dual_batch`` answers a dual whose cost
prices out at the optimal basis of an earlier dual with that basis's vertex,
as an exact certificate, and ``solve_primal_batch`` answers a forward LP at
which the optimal basis of an earlier one is primal feasible with that
basis's point.  Over iterations where such hits occur, every dual hit must
be dual feasible and every forward hit primal feasible, each worth the
stage LP's HiGHS optimum, and every cut must lie below the stage value
within its eps, as in ``test_highs_portfolio.py``.
"""

import dataclasses
import itertools
import os

import pytest

from isddp import sddp_engine, stage_solver
from isddp.cli import PRESETS
from isddp.lp_core import dual_feasibility_residual, solve_dual_inexact
from isddp.portfolio import PortfolioSpec, generate_instance
from isddp.schedules import ErrorBudget
from isddp.sddp_engine import iterate, make_pools
from isddp.stage_solver import stage_lp

from conftest import cache_hit

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
PATHS, SEED, ITERATIONS = 5, 9, 4


@pytest.fixture
def reference(monkeypatch):
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(PERFBENCH)
    import reference

    return reference


def _rel(v: float) -> float:
    return 1e-9 * max(1.0, abs(v))


@pytest.mark.parametrize("u", [1.0, 0.3])
@pytest.mark.parametrize("preset", ["sddp", "isddp1"])
def test_every_cache_hit_is_exact_and_every_cut_below_the_stage_value(reference, monkeypatch,
                                                                      preset, u):
    model = generate_instance(PortfolioSpec(T=4, n=3, M=5, u=u, seed=0))
    T = model.horizon
    hits = []  # (the member's LP, its outcome) per dual answered from a cached basis
    forward_hits = []  # and per forward LP
    batch, backward = stage_solver.solve_dual_batch, sddp_engine.backward_pass_sddp
    primal = stage_solver.solve_primal_batch

    def recording_batch(lp, eq_rhs, bases):
        cached = list(bases)
        outcomes = batch(lp, eq_rhs, bases)
        for row, out in zip(eq_rhs, outcomes):
            if cache_hit(out, cached):
                hits.append((dataclasses.replace(lp, eq_rhs=row), out))
        return outcomes

    def recording_primal(lp, eq_rhs, bases):
        cached = list(bases)
        outcomes = primal(lp, eq_rhs, bases)
        for row, out in zip(eq_rhs, outcomes):
            if cache_hit(out, cached):
                forward_hits.append((dataclasses.replace(lp, eq_rhs=row), out))
        return outcomes

    def check_cuts(model, pools, trajectories, epsilons, **kw):
        # pool t+1 does not change between the end of a backward pass and
        # the next one, so each cut is checked against the pool it was built on
        result = backward(model, pools, trajectories, epsilons, **kw)
        where = [(t, p) for t in range(T, 1, -1) for p in range(len(trajectories))]
        for (t, p), cut in zip(where, result.new_cuts):
            x = trajectories[p][t - 2]
            st = model.stages[t - 2]
            value = sum(
                float(prob) * reference.stage_lp_optimum(stage_lp(r, x, pools[t + 1]))
                for r, prob in zip(st.realizations, st.probs)
            )
            gap = value - cut.value(x)
            assert -_rel(value) <= gap <= cut.eps_used + _rel(value), (t, p)
        return result

    monkeypatch.setattr(stage_solver, "solve_dual_batch", recording_batch)
    monkeypatch.setattr(stage_solver, "solve_primal_batch", recording_primal)
    monkeypatch.setattr(sddp_engine, "backward_pass_sddp", check_cuts)
    list(itertools.islice(iterate(model, PRESETS[preset], PATHS, SEED, make_pools(model)),
                          ITERATIONS))
    assert hits and forward_hits
    for lp, out in forward_hits:
        tol = 1e-9 * (1.0 + abs(lp.eq_rhs).max())
        x = out.z[: lp.num_vars]
        assert x.min() >= -1e-9
        assert abs(lp.eq_matrix @ x - lp.eq_rhs).max() <= tol
        epigraph = out.obj - lp.cost @ x
        assert (epigraph - lp.cut_theta - lp.cut_beta @ x).min() >= -tol
        v_star = reference.stage_lp_optimum(lp)
        assert abs(out.obj - v_star) <= _rel(v_star)
    for lp, out in hits:
        cert = solve_dual_inexact(lp, ErrorBudget(), result=out)
        assert cert.eps_certified == 0.0
        assert dual_feasibility_residual(lp, cert.lam, cert.mu) <= 1e-9
        v_star = reference.stage_lp_optimum(lp)
        assert abs(cert.dual_obj - v_star) <= _rel(v_star)
