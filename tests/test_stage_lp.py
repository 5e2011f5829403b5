"""Stage-LP assembly against a cut pool, and the benchmark's hold on it.

``perfbench/`` wraps program functions by module attribute and reads LP and
certificate fields by name; the first tests fail here, in the suite, when
one of those names goes away.
"""

import os

import numpy as np
import pytest

from isddp import sddp_engine
from isddp.cuts import Cut, CutPool
from isddp.ddp_engine import run_iddp
from isddp.lp_core import (
    LinearProgram,
    LpDimensionError,
    SolveStatus,
    solve_dual_batch,
    solve_dual_inexact,
    solve_exact,
)
from isddp.portfolio import PortfolioSpec, generate_instance
from isddp.schedules import EXACT_SCHEDULE, ErrorBudget, ScheduleMode, ScheduleSpec
from isddp.sddp_engine import make_pools, run_isddp
from isddp.stage_solver import solve_forward_stage, stage_lp, stage_value_exact
from isddp.toys import toy_det_t3, toy_sto_t3_m2

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_tracer_installs_and_unpatches(tracing):
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, orig in patched:
            assert getattr(owner, attr) is not orig
    finally:
        tracer.unpatch()
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig


def test_traced_run_passes_the_certificate_check(tracing):
    # the hooks read LP, stage and certificate fields by parameter name
    pytest.importorskip("scipy")
    tracer = tracing.Tracer()
    spec = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
    try:
        tracing.install(tracer)
        run_isddp(toy_sto_t3_m2(), spec, n_paths=2, gap_tol=1e-12, max_iter=3, seed=4)
    finally:
        tracer.unpatch()
    assert tracer.failures == []
    counts = tracer.counts
    assert counts["backward_solves"] == counts["dual_solves"] > 0
    assert counts["primal_solves"] > 0 and counts["lp_cut_rows"] > 0


def test_traced_cli_solve_passes_the_certificate_check(tracing, tmp_path, capsys):
    # the benchmark's run: every wrapped name resolves, and a solve through
    # the command line does work in every traced layer
    pytest.importorskip("scipy")
    from isddp import cli

    instance, out = str(tmp_path / "p.json"), str(tmp_path / "p.csv")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.main(["gen", "--T", "3", "--n", "2", "--M", "2", "--out", instance]) == 0
        assert cli.main(["solve", "--instance", instance, "--preset", "isddp1", "--paths", "2",
                         "--max-iter", "3", "--out", out]) == 0
    finally:
        tracer.unpatch()
    capsys.readouterr()
    assert tracer.failures == []
    assert tracer.counts["dual_solves"] > 0 and tracer.counts["backward_solves"] > 0


def _pooled_det_t3():
    model = toy_det_t3()
    pools = make_pools(model)
    run_iddp(model, EXACT_SCHEDULE, tol=1e-9, max_iter=4, initial_pools=pools)
    return model, pools


def test_reference_stage_optimum_matches_kernel(tracing):
    pytest.importorskip("scipy")
    import reference

    model, pools = _pooled_det_t3()
    x = model.x0
    for t in range(1, model.horizon + 1):
        lp = stage_lp(model.stage(t), x, pools[t + 1])
        if t < model.horizon:  # the floor and at least one cut
            assert lp.num_cuts > 1
        sol = solve_exact(lp)
        assert sol.status is SolveStatus.OPTIMAL
        ref = reference.stage_lp_optimum(lp)
        assert abs(ref - sol.obj) <= 1e-9 * max(1.0, abs(ref))
        x = sol.x


def test_large_pools_match_highs(tracing, monkeypatch):
    # the forward LP carries every cut of the pool: check stage values and
    # budgeted picks against HiGHS on pools of dozens of cuts
    pytest.importorskip("scipy")
    import reference

    model = generate_instance(PortfolioSpec(T=4, n=8, M=10, u=0.2, seed=0))
    pools = make_pools(model)
    passes = []
    forward = sddp_engine.forward_pass_sddp
    monkeypatch.setattr(sddp_engine, "forward_pass_sddp",
                        lambda *args: passes.append(forward(*args)) or passes[-1])
    for record in sddp_engine.iterate(model, EXACT_SCHEDULE, 10, 9, pools):
        if record.k == 8:
            break
    assert len(pools[3]) > 40
    points = {traj[0].tobytes(): traj[0] for traj in passes[-1].trajectories}
    budget = ErrorBudget(relative=1e-2)
    for x in points.values():
        for j in range(model.stages[0].num_realizations):
            stage = model.stage(2, j)
            ref = reference.stage_lp_optimum(stage_lp(stage, x, pools[3]))
            assert abs(stage_value_exact(stage, x, pools[3]) - ref) <= 1e-7 * max(1.0, abs(ref))
            res = solve_forward_stage(stage, x, pools[3], budget)
            assert res.value <= res.optimum + res.budget_resolved


def test_one_budget_resolves_alike_forward_and_backward():
    # a budget with both parts allows budget.resolve(optimum) to a forward
    # pick and to a backward certificate
    model = generate_instance(PortfolioSpec(T=3, n=2, M=3, seed=4))
    pools = make_pools(model)
    for record in sddp_engine.iterate(model, EXACT_SCHEDULE, 3, 9, pools):
        if record.k == 4:
            break
    x = solve_forward_stage(model.stage1, model.x0, pools[2], ErrorBudget()).x
    budget = ErrorBudget(absolute=3.0, relative=0.3)
    picked = set()
    for j in range(model.stages[0].num_realizations):
        stage = model.stage(2, j)
        fwd = solve_forward_stage(stage, x, pools[3], budget)
        assert fwd.budget_resolved == budget.resolve(fwd.optimum)
        lp = stage_lp(stage, x, pools[3])
        (kernel,) = solve_dual_batch(lp, lp.eq_rhs[None], [])
        allowed = budget.resolve(-kernel.obj)
        cert = solve_dual_inexact(lp, budget)
        same = solve_dual_inexact(lp, ErrorBudget(absolute=allowed))
        assert (cert.lam.tobytes(), cert.mu.tobytes(), cert.dual_obj, cert.eps_certified) == (
            same.lam.tobytes(), same.mu.tobytes(), same.dual_obj, same.eps_certified)
        # neither part alone admits this certificate: the parts add up
        for part in (ErrorBudget(absolute=budget.absolute), ErrorBudget(relative=budget.relative)):
            picked.add(cert.dual_obj < solve_dual_inexact(lp, part).dual_obj)
    assert picked == {True}


def _lp(cut_beta, cut_theta):
    return LinearProgram(cost=[1.0, 1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0],
                         cut_beta=cut_beta, cut_theta=cut_theta)


@pytest.mark.parametrize("cut_beta, cut_theta", [
    (np.zeros((2, 2)), np.zeros(3)),   # row counts differ
    (np.zeros((2, 3)), np.zeros(2)),   # wrong width
    (np.zeros(2), np.zeros(1)),        # beta not a matrix
    (np.zeros((1, 2)), np.zeros((1, 1))),  # theta not a vector
])
def test_mismatched_cut_arrays_raise(cut_beta, cut_theta):
    with pytest.raises(LpDimensionError):
        _lp(cut_beta, cut_theta)


def test_transposed_eq_matrix_raises():
    # sizes come from cost and eq_rhs: a 3 x 2 eq_matrix for 2 rows and 3
    # variables is an error, not reshaped to fit
    with pytest.raises(LpDimensionError, match="eq_matrix"):
        LinearProgram(cost=[1.0, 1.0, 1.0], eq_matrix=[[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]],
                      eq_rhs=[1.0, 1.0])


def test_cut_rows_need_the_epigraph():
    # the epigraph is there exactly when a cut row is
    lp = _lp(None, None)
    assert (lp.num_vars, lp.num_eq, lp.num_cuts) == (2, 1, 0)
    assert not lp.has_epigraph and lp.cut_beta_matrix().shape == (0, 2)
    assert _lp(np.zeros((1, 2)), np.zeros(1)).has_epigraph


def _pool_of_three():
    cuts = [Cut(theta=float(10 + i), beta=np.full(3, float(i + 1)), stage=2, iteration=i)
            for i in range(3)]
    return CutPool(stage=2, state_dim=3, floor=-7.0, cuts=cuts)


def test_stage_lp_aliases_the_pools_read_only_rows():
    model = toy_det_t3()
    pool = _pool_of_three()
    lp = stage_lp(model.stage(1), model.x0, pool)
    assert lp.cut_beta_matrix() is pool.betas_with_floor()
    assert lp.cut_thetas() is pool.thetas_with_floor()
    assert not lp.cut_beta_matrix().flags.writeable
    assert not lp.cut_thetas().flags.writeable
    assert np.array_equal(pool.beta_matrix(), pool.betas_with_floor()[1:])
    # an add rebuilds the pool's arrays and leaves the LP's rows as they were
    pool.add(Cut(theta=20.0, beta=np.zeros(3), stage=2, iteration=3))
    assert pool.thetas().tolist() == [10.0, 11.0, 12.0, 20.0]
    assert lp.cut_thetas().tolist() == [-7.0, 10.0, 11.0, 12.0]
