import numpy as np
import pytest

from isddp import oracle
from isddp.ddp_engine import (
    backward_pass,
    forward_pass,
    run_iddp,
)
from isddp.models import RunStatus, StageModel, StochasticModel
from isddp.schedules import EXACT_SCHEDULE, ErrorBudget, ScheduleMode, ScheduleSpec
from isddp.sddp_engine import make_pools
from isddp.lp_core import LpError
from isddp.stage_solver import StageSolveError, solve_forward_stage
from isddp.toys import toy_det_t2, toy_det_t3, toy_det_t5

DET_TOYS = (toy_det_t2, toy_det_t3, toy_det_t5)


def single_stage_model(c=2.5):
    stage = StageModel(A=[[1.0]], B=[[0.0]], b=[1.0], c=[c])
    return StochasticModel.chain([stage], x0=np.array([0.0]), floors=np.zeros(0))


class TestForwardPass:
    def test_single_forced_stage(self):
        m = single_stage_model(c=2.5)
        res = forward_pass(m, make_pools(m), deltas=[ErrorBudget()])
        assert res.trajectories[0][0] == pytest.approx([1.0])
        assert res.cost_samples[0] == pytest.approx(2.5)

    def test_converged_pools_reach_optimum(self):
        m = toy_det_t3()
        pools = make_pools(m)
        run_iddp(m, EXACT_SCHEDULE, tol=1e-9, max_iter=50, initial_pools=pools)
        res = forward_pass(m, pools, deltas=[ErrorBudget()] * m.horizon)
        assert res.cost_samples[0] == pytest.approx(oracle.extensive_form(m), abs=1e-7)

    def test_ub_never_below_optimum(self):
        m = toy_det_t3()
        v = oracle.extensive_form(m)
        pools = make_pools(m)
        for delta in (0.0, 0.1):
            res = forward_pass(m, pools, deltas=[ErrorBudget(absolute=delta)] * m.horizon)
            assert res.cost_samples[0] >= v - 1e-7

    def test_suboptimal_ub_within_accumulated_slack(self):
        # with converged pools, the forward cost exceeds the optimum by at
        # most the sum of per-stage slack actually granted
        m = toy_det_t3()
        v = oracle.extensive_form(m)
        pools = make_pools(m)
        run_iddp(m, EXACT_SCHEDULE, tol=1e-9, max_iter=50, initial_pools=pools)
        res = forward_pass(m, pools, deltas=[ErrorBudget(absolute=0.1)] * m.horizon)
        assert v - 1e-7 <= res.cost_samples[0] <= v + sum(res.deltas_resolved) + 1e-7

    def test_stage_values_match_pool_evaluation(self):
        # recorded forward optima replay as stage cost plus pool value
        m = toy_det_t3()
        pools = make_pools(m)
        run_iddp(m, EXACT_SCHEDULE, tol=1e-9, max_iter=50, initial_pools=pools)
        res = forward_pass(m, pools, deltas=[ErrorBudget()] * m.horizon)
        for t in range(1, m.horizon + 1):
            x = res.trajectories[0][t - 1]
            replay = float(m.stage(t).c @ x) + pools[t + 1].evaluate(x)
            assert replay == pytest.approx(res.stage_values[0, t - 1], abs=1e-8)

    def test_infeasible_names_stage(self):
        stage1 = StageModel(A=[[1.0]], B=[[0.0]], b=[1.0], c=[0.0])
        bad2 = StageModel(A=[[0.0]], B=[[0.0]], b=[1.0], c=[0.0])  # 0 == 1
        m = StochasticModel.chain([stage1, bad2], x0=np.array([0.0]), floors=np.array([0.0]))
        with pytest.raises(StageSolveError) as err:
            forward_pass(m, make_pools(m), deltas=[ErrorBudget()] * 2)
        assert err.value.stage == 2

    def test_kernel_fault_names_stage_and_path(self, monkeypatch):
        def broken(lp):
            raise LpError("phase-1 subproblem unbounded: numerical failure")

        monkeypatch.setattr("isddp.stage_solver.solve_with_primal_trail", broken)
        m = toy_det_t3()
        with pytest.raises(StageSolveError) as err:
            solve_forward_stage(m.stage(2), np.zeros(m.stage(2).state_dim),
                                make_pools(m)[3], ErrorBudget(), t=2, path=7)
        assert (err.value.stage, err.value.path) == (2, 7)
        assert isinstance(err.value.__cause__, LpError)


class TestBackwardPass:
    def test_exact_cut_tight_at_trial_point(self):
        m = toy_det_t2()
        pools = make_pools(m)
        fwd = forward_pass(m, pools, deltas=[ErrorBudget()] * 2)
        bwd = backward_pass(m, pools, fwd.trajectories[0], epsilons=[ErrorBudget()], iteration=1)
        cut = bwd.new_cuts[0]
        x1 = fwd.trajectories[0][0]
        # exact backward subproblem value at the trial point
        from isddp.stage_solver import stage_value_exact

        ref = stage_value_exact(m.stage(2), x1, pools[3])
        assert cut.value(x1) == pytest.approx(ref, abs=1e-8)

    def test_inexact_terminal_cut_gap_within_eps(self):
        m = toy_det_t2()
        eps = 0.2
        pools = make_pools(m)
        fwd = forward_pass(m, pools, deltas=[ErrorBudget()] * 2)
        bwd = backward_pass(m, pools, fwd.trajectories[0], epsilons=[ErrorBudget(absolute=eps)],
                            iteration=1)
        cut = bwd.new_cuts[0]
        x1 = fwd.trajectories[0][0]
        exact = oracle.exact_recourse(m, 2, x1)
        gap = exact - cut.value(x1)
        assert -1e-8 <= gap <= eps + 1e-8

    def test_lb_reaches_optimum_after_convergence(self):
        m = toy_det_t3()
        v = oracle.extensive_form(m)
        log = run_iddp(m, EXACT_SCHEDULE, tol=1e-9, max_iter=50)
        assert log.final_lb == pytest.approx(v, abs=1e-6 * (1 + abs(v)))


class TestRunIddp:
    @pytest.mark.parametrize("factory", DET_TOYS)
    def test_exact_convergence(self, factory):
        m = factory()
        v = oracle.extensive_form(m)
        log = run_iddp(m, EXACT_SCHEDULE, tol=1e-7, max_iter=100)
        assert log.status is RunStatus.CONVERGED
        assert abs(log.final_lb - v) <= 1e-6 * (1 + abs(v))
        lbs = [r.lb for r in log.records]
        assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:]))
        assert all(r.lb <= v + 1e-7 for r in log.records)
        assert all(r.ub >= v - 1e-7 for r in log.records)

    def test_bounded_noise_floor_on_lb(self):
        m = toy_det_t3()
        v = oracle.extensive_form(m)
        T = m.horizon
        bar = 0.05
        sched = ScheduleSpec(mode=ScheduleMode.CONSTANT_BOUNDED, eps_bar=bar)
        log = run_iddp(m, sched, tol=1e-12, max_iter=200)
        bound = v - (bar * T + bar * (T - 1)) - 1e-6
        assert log.final_lb >= bound
        assert all(r.lb <= v + 1e-7 for r in log.records)

    def test_vanishing_noise_converges(self):
        m = toy_det_t5()
        sched = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
        log = run_iddp(m, sched, tol=1e-7, max_iter=200)
        assert log.status is RunStatus.CONVERGED
        v = oracle.extensive_form(m)
        assert abs(log.final_lb - v) <= 1e-6 * (1 + abs(v))

    def test_absolute_schedule_converges(self):
        m = toy_det_t3()
        sched = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.ABSOLUTE)
        log = run_iddp(m, sched, tol=1e-7, max_iter=200)
        assert log.status is RunStatus.CONVERGED

    def test_degenerate_single_stage(self):
        m = single_stage_model()
        log = run_iddp(m, EXACT_SCHEDULE, tol=1e-9, max_iter=5)
        assert log.status is RunStatus.CONVERGED
        assert log.iterations == 1
        assert log.final_lb == pytest.approx(log.final_ub)

    def test_budget_objects_accepted(self):
        m = toy_det_t2()
        pools = make_pools(m)
        res = forward_pass(m, pools, deltas=[ErrorBudget(absolute=1e-12), ErrorBudget(relative=0.05)])
        assert len(res.trajectories[0]) == 2
