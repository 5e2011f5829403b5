import dataclasses
from collections import Counter

import numpy as np
import pytest

from isddp import lp_core, oracle
from isddp import sddp_engine
from isddp import stage_solver
from isddp.cuts import CutPool, build_middle_cut, build_terminal_cut
from isddp.ddp_engine import run_iddp
from isddp.models import StochasticModel
from isddp.portfolio import PortfolioSpec, generate_instance
from isddp.schedules import (
    EXACT_SCHEDULE,
    ErrorBudget,
    ScheduleMode,
    ScheduleSpec,
    backward_budget,
    forward_budgets,
)
from isddp.sddp_engine import (
    SamplePath,
    backward_pass_sddp,
    evaluate_policy,
    forward_pass_sddp,
    make_pools,
    run_isddp,
    sample_paths,
    upper_bound_ci,
)
from isddp.stage_solver import stage_value_exact
from isddp.toys import toy_det_t3, toy_sto_t3_m2, toy_sto_t4_m3

from conftest import chain_model


class TestSamplePaths:
    def test_degenerate_distribution(self):
        det = StochasticModel.from_deterministic(toy_det_t3())
        paths = sample_paths(det, 7, iteration=2, seed=0)
        assert all(p.indices == (0, 0) for p in paths)

    def test_marginal_frequencies(self):
        m = toy_sto_t3_m2()  # stage-2 probs (0.6, 0.4)
        paths = sample_paths(m, 10000, iteration=1, seed=7)
        freq = np.mean([p.indices[0] == 0 for p in paths])
        assert abs(freq - 0.6) < 0.02

    def test_determinism(self):
        m = toy_sto_t4_m3()
        a = sample_paths(m, 20, iteration=5, seed=31)
        b = sample_paths(m, 20, iteration=5, seed=31)
        assert [p.indices for p in a] == [p.indices for p in b]

    def test_iterations_differ(self):
        m = toy_sto_t4_m3()
        a = sample_paths(m, 20, iteration=1, seed=31)
        b = sample_paths(m, 20, iteration=2, seed=31)
        assert [p.indices for p in a] != [p.indices for p in b]


class TestForwardPassSddp:
    def test_deterministic_reduction(self):
        det = toy_det_t3()
        sto = StochasticModel.from_deterministic(det)
        pools_d = make_pools(det)
        pools_s = make_pools(sto)
        from isddp.ddp_engine import forward_pass

        fd = forward_pass(det, pools_d, deltas=[0.0] * 3)
        paths = sample_paths(sto, 1, iteration=1, seed=0)
        fs = forward_pass_sddp(sto, pools_s, paths, deltas=[0.0] * 3)
        assert fs.cost_samples[0] == pytest.approx(fd.ub)
        for a, b in zip(fd.trajectory, fs.trajectories[0]):
            assert np.allclose(a, b)

    def test_mean_cost_at_convergence(self):
        m = toy_sto_t3_m2()
        pools = make_pools(m)
        run_isddp(m, EXACT_SCHEDULE, n_paths=8, gap_tol=1e-9, max_iter=80,
                  seed=3, initial_pools=pools)
        # enumerate all 4 scenarios by hand through forced paths
        from isddp.sddp_engine import SamplePath

        total = 0.0
        for i, pi in enumerate(m.stages[0].probs):
            for j, pj in enumerate(m.stages[1].probs):
                path = SamplePath(indices=(i, j), iteration=0, path_id=0)
                res = forward_pass_sddp(m, pools, [path], deltas=[0.0] * 3)
                total += float(pi * pj) * res.cost_samples[0]
        assert total == pytest.approx(oracle.extensive_form(m), abs=1e-6)

    def test_resolved_delta_is_the_max_over_paths(self):
        # stage 3's optimum is -11.943 on path 0 and -6.46 on path 1, so a
        # relative budget resolves to a larger delta on the first path
        m = toy_sto_t3_m2()
        paths = [SamplePath(indices=idx, iteration=0, path_id=p)
                 for p, idx in enumerate([(1, 0), (0, 0)])]
        budget = ErrorBudget(relative=0.1)
        res = forward_pass_sddp(m, make_pools(m), paths, [budget] * 3)
        per_path = [[budget.resolve(v) for v in row] for row in res.stage_values]
        assert per_path[0][2] > per_path[1][2]
        assert res.deltas_resolved == tuple(map(max, zip(*per_path)))

    def test_cost_never_below_lower_bound(self):
        m = toy_sto_t3_m2()
        v = oracle.extensive_form(m)
        pools = make_pools(m)
        paths = sample_paths(m, 16, iteration=1, seed=5)
        res = forward_pass_sddp(m, pools, paths, deltas=[0.0] * 3)
        # every realized cost is the cost of a feasible policy on its path;
        # the expectation over all paths bounds v* from above, and each
        # path cost is bounded below by the pool-based path relaxation.
        assert res.cost_samples.shape == (16,)
        assert np.isfinite(res.cost_samples).all()


class TestBackwardPassSddp:
    def test_deterministic_reduction_cuts(self):
        det = toy_det_t3()
        sto = StochasticModel.from_deterministic(det)
        pools_d = make_pools(det)
        pools_s = make_pools(sto)
        from isddp.ddp_engine import backward_pass, forward_pass

        fd = forward_pass(det, pools_d, deltas=[0.0] * 3)
        bd = backward_pass(det, pools_d, fd.trajectory, epsilons=[0.0, 0.0], iteration=1)
        paths = sample_paths(sto, 1, iteration=1, seed=0)
        fs = forward_pass_sddp(sto, pools_s, paths, deltas=[0.0] * 3)
        bs = backward_pass_sddp(sto, pools_s, fs.trajectories, epsilons=[0.0, 0.0], iteration=1)
        assert bs.lb == pytest.approx(bd.lb)
        for ca, cb in zip(bd.new_cuts, bs.new_cuts):
            assert ca.theta == pytest.approx(cb.theta)
            assert np.allclose(ca.beta, cb.beta)

    def test_exact_cut_tight_at_trial_point(self):
        m = toy_sto_t3_m2()
        pools = make_pools(m)
        paths = sample_paths(m, 2, iteration=1, seed=1)
        fwd = forward_pass_sddp(m, pools, paths, deltas=[0.0] * 3)
        bwd = backward_pass_sddp(m, pools, fwd.trajectories, epsilons=[0.0, 0.0], iteration=1)
        # terminal-stage cut of the first path: tight at its trial point
        cut = bwd.new_cuts[0]
        x2 = fwd.trajectories[0][1]
        st = m.stages[1]
        ref = sum(
            float(p) * stage_value_exact(r, x2, pools[4])
            for r, p in zip(st.realizations, st.probs)
        )
        assert cut.value(x2) == pytest.approx(ref, abs=1e-8)

    def test_inexact_aggregated_gap_bounded(self):
        m = toy_sto_t3_m2()
        eps = 0.05
        pools = make_pools(m)
        paths = sample_paths(m, 1, iteration=1, seed=2)
        fwd = forward_pass_sddp(m, pools, paths, deltas=[0.0] * 3)
        bwd = backward_pass_sddp(m, pools, fwd.trajectories, epsilons=[eps, eps], iteration=1)
        cut = bwd.new_cuts[0]
        x2 = fwd.trajectories[0][1]
        st = m.stages[1]
        ref = sum(
            float(p) * stage_value_exact(r, x2, pools[4])
            for r, p in zip(st.realizations, st.probs)
        )
        gap = ref - cut.value(x2)
        assert -1e-8 <= gap <= eps + 1e-8

    @pytest.mark.parametrize(
        "factory",
        [toy_sto_t3_m2, lambda: generate_instance(PortfolioSpec(T=3, n=2, M=3, seed=4))],
        ids=["toy", "portfolio"],
    )
    def test_last_stage_cut_is_the_terminal_cut(self, factory, monkeypatch):
        # pool T+1 is the zero pool, so the cut the engine builds at stage T
        # against it is bitwise the terminal cut of the same certificates
        m = factory()
        T, n_paths = m.horizon, 3
        pools = make_pools(m)
        assert pools[T + 1].thetas_with_floor().tobytes() == np.zeros(1).tobytes()
        built = []

        def spy(realizations, certs, next_thetas, **tags):
            cut = build_middle_cut(realizations, certs, next_thetas, **tags)
            if tags["stage"] == T:
                built.append((realizations, certs, tags, cut))
            return cut

        monkeypatch.setattr(sddp_engine, "build_middle_cut", spy)
        paths = sample_paths(m, n_paths, iteration=1, seed=9)
        fwd = forward_pass_sddp(m, pools, paths, deltas=[0.0] * T)
        backward_pass_sddp(m, pools, fwd.trajectories, epsilons=[0.05] * (T - 1), iteration=1)
        assert len(built) == n_paths
        for realizations, certs, tags, cut in built:
            assert all(cert.mu.shape == (1,) for cert in certs)
            ref = build_terminal_cut(realizations, certs, **tags)
            assert cut.theta.hex() == ref.theta.hex()
            assert cut.beta.tobytes() == ref.beta.tobytes()
            assert (cut.stage, cut.iteration, cut.eps_used) == (T, 1, 0.05)
            assert (ref.stage, ref.iteration, ref.eps_used) == (T, 1, 0.05)

    def test_dual_sweep_leaves_cuts_bit_identical(self, monkeypatch):
        # the batched solves of one stage sweep must not change a bit of any
        # cut: compare against unbatched solves over the same trajectories
        # and the same pools, iteration by iteration
        m = generate_instance(PortfolioSpec(T=3, n=2, M=3, seed=4))
        # every path starts stage 2 from the same x1; a realization with its
        # own cost there makes a group of one dual
        r0 = m.stages[0].realizations[0]
        m.stages[0].realizations[0] = dataclasses.replace(r0, c=r0.c + 0.01)
        spec = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
        T, n_paths = m.horizon, 3
        sizes = []
        batch = stage_solver.solve_dual_batch

        def counting_batch(lp, eq_rhs):
            sizes.append(len(eq_rhs))
            return batch(lp, eq_rhs)

        asked = set()

        def solver(certs, batched):
            # records every certificate, and the duals the batched pass asks for
            def solve(stage, x_prev, *args, **kwargs):
                if batched:
                    asked.add((kwargs["t"], id(stage), x_prev.tobytes()))
                cert, optimum = stage_solver.solve_backward_stage(stage, x_prev, *args, **kwargs)
                certs.append((cert.lam.tobytes(), cert.mu.tobytes(), cert.dual_obj.hex(),
                              float(cert.eps_certified).hex(), optimum.hex()))
                return cert, optimum
            return solve

        monkeypatch.setattr(stage_solver, "solve_dual_batch", counting_batch)
        pools = make_pools(m)
        served = []  # per iteration: duals the pool memo gave the sweep
        for k in range(1, 5):
            paths = sample_paths(m, n_paths, k, seed=9)
            fwd = forward_pass_sddp(m, pools, paths, forward_budgets(spec, k, T))
            eps = [
                [backward_budget(spec, t, k, T, prev_value=fwd.stage_values[p, t - 1])
                 for p in range(n_paths)]
                for t in range(2, T + 1)
            ]
            # the reference solves every dual alone: its pools start without a
            # memo, and no sweep fills one
            ref_pools = {t: CutPool.from_dict(p.to_dict()) for t, p in pools.items()}
            ref_certs, got_certs = [], []
            monkeypatch.setattr(sddp_engine, "solve_backward_stage", solver(ref_certs, False))
            monkeypatch.setattr(sddp_engine, "sweep_duals", lambda *args: None)
            ref = backward_pass_sddp(m, ref_pools, fwd.trajectories, eps, iteration=k)
            monkeypatch.setattr(sddp_engine, "solve_backward_stage", solver(got_certs, True))
            monkeypatch.setattr(sddp_engine, "sweep_duals", stage_solver.sweep_duals)
            asked.clear()
            batched_before = sum(sizes)
            got = backward_pass_sddp(m, pools, fwd.trajectories, eps, iteration=k)
            served.append(len(asked) - (sum(sizes) - batched_before))
            assert got_certs == ref_certs
            assert len(got.new_cuts) == len(ref.new_cuts) == n_paths * (T - 1)
            for a, b in zip(got.new_cuts, ref.new_cuts):
                assert a.theta.hex() == b.theta.hex()
                assert a.beta.tobytes() == b.beta.tobytes()
            assert got.lb.hex() == ref.lb.hex()
            assert got.eps_resolved == ref.eps_resolved
        assert 1 in sizes and max(sizes) > 1
        assert served[0] == 0 and max(served[1:]) > 0


class TestStoreEachCutOnce:
    def test_duplicate_cuts_are_skipped_before_add(self, monkeypatch):
        m = generate_instance(PortfolioSpec(T=3, n=2, M=3, seed=4))
        pools = make_pools(m)
        added, batched, row_generations, lone = [], [], [], []
        add = CutPool.add
        monkeypatch.setattr(CutPool, "add", lambda pool, cut: added.append(cut) or add(pool, cut))
        batch, row_generation = stage_solver.solve_dual_batch, stage_solver._row_generation
        dual = stage_solver.solve_dual_inexact

        def counting_dual(lp, eps, **kwargs):
            if kwargs["result"] is None:
                lone.append(lp)
            return dual(lp, eps, **kwargs)

        monkeypatch.setattr(stage_solver, "solve_dual_batch",
                            lambda lp, eq_rhs: batched.append(len(eq_rhs)) or batch(lp, eq_rhs))
        monkeypatch.setattr(stage_solver, "solve_dual_inexact", counting_dual)
        monkeypatch.setattr(stage_solver, "_row_generation", lambda *args, **kwargs: (
            row_generations.append(kwargs["t"]) or row_generation(*args, **kwargs)))
        paths = sample_paths(m, 1, 1, seed=9)
        # two paths at one (stage, state): one row generation per stage
        traj, twin = forward_pass_sddp(m, pools, paths * 2, [0.0] * 3).trajectories
        assert row_generations == [1, 2, 3]
        assert [x.tobytes() for x in traj] == [x.tobytes() for x in twin]
        # two paths at one trial point: the second path's cuts are copies
        bwd = backward_pass_sddp(m, pools, [traj, traj], [0.0, 0.0], iteration=1)
        assert len(bwd.new_cuts) == 4
        assert bwd.new_cuts[0].theta == bwd.new_cuts[1].theta
        assert len(added) == 2 and len(pools[3]) == len(pools[2]) == 1
        # the same sweep again: every cut is a copy, so no pool changes
        forward_pass_sddp(m, pools, paths, [0.0] * 3)  # fills pools[3].memo
        rows = pools[3].betas_with_floor(), pools[3].thetas_with_floor()
        memo = dict(pools[3].memo)
        assert any(key[0] == "forward" for key in memo)
        del batched[:]
        bwd = backward_pass_sddp(m, pools, [traj], [0.0, 0.0], iteration=2)
        assert len(bwd.new_cuts) == 2 and len(added) == 2
        assert pools[3].betas_with_floor() is rows[0]
        assert pools[3].thetas_with_floor() is rows[1]
        assert memo.items() <= pools[3].memo.items()
        assert batched == []  # every dual came from the memos of pools 3 and 4
        assert lone == []  # and in the first sweep from its batches

    def test_memo_results_match_fresh_solves(self, monkeypatch):
        # a solve read from a pool's memo is bit for bit the solve against a
        # copy of the pool without one
        m = generate_instance(PortfolioSpec(T=3, n=2, M=3, seed=4))
        spec = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
        T, n_paths = m.horizon, 3
        solved = Counter()
        in_lb = []  # the lower bound's kernel calls count apart
        primal, batch, lower_bound = (stage_solver.solve_with_primal_trail,
                                      stage_solver.solve_dual_batch, sddp_engine.stage_value_exact)

        def counting_primal(lp):
            solved["lb" if in_lb else "forward"] += 1
            return primal(lp)

        def counting_batch(lp, eq_rhs):
            solved["dual"] += len(eq_rhs)
            return batch(lp, eq_rhs)

        def flagged_lower_bound(*args, **kwargs):
            in_lb.append(True)
            try:
                return lower_bound(*args, **kwargs)
            finally:
                in_lb.pop()

        monkeypatch.setattr(stage_solver, "solve_with_primal_trail", counting_primal)
        monkeypatch.setattr(stage_solver, "solve_dual_batch", counting_batch)
        monkeypatch.setattr(sddp_engine, "stage_value_exact", flagged_lower_bound)
        pools = make_pools(m)
        saved = Counter()
        lb_from_memo = 0  # iterations whose lower bound read the memo
        for k in range(1, 5):
            fresh = {t: CutPool.from_dict(p.to_dict()) for t, p in pools.items()}
            paths = sample_paths(m, n_paths, k, seed=9)
            deltas = forward_budgets(spec, k, T)
            runs = []
            for run_pools in (pools, fresh):
                before = solved.copy()
                fwd = forward_pass_sddp(m, run_pools, paths, deltas)
                eps = [
                    [backward_budget(spec, t, k, T, prev_value=fwd.stage_values[p, t - 1])
                     for p in range(n_paths)]
                    for t in range(2, T + 1)
                ]
                pool2 = len(run_pools[2])
                bwd = backward_pass_sddp(m, run_pools, fwd.trajectories, eps, iteration=k)
                runs.append((fwd, bwd, solved - before, len(run_pools[2]) == pool2))
            (got_f, got_b, got_n, pool2_kept), (ref_f, ref_b, ref_n, _) = runs
            if pool2_kept:
                # stage 1 was solved against this pool in the forward pass, so
                # the lower bound is a memo read, bit for bit a solve without it
                assert got_n["lb"] == 0
                alone = stage_value_exact(m.stage1, m.x0, CutPool.from_dict(pools[2].to_dict()))
                assert got_b.lb.hex() == alone.hex()
                lb_from_memo += 1
            for a, b in zip(got_f.trajectories, ref_f.trajectories):
                assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
            assert got_f.cost_samples.tobytes() == ref_f.cost_samples.tobytes()
            assert got_f.stage_values.tobytes() == ref_f.stage_values.tobytes()
            assert got_f.deltas_resolved == ref_f.deltas_resolved
            for a, b in zip(got_b.new_cuts, ref_b.new_cuts):
                assert (a.theta.hex(), a.beta.tobytes()) == (b.theta.hex(), b.beta.tobytes())
            assert got_b.lb.hex() == ref_b.lb.hex()
            assert got_b.eps_resolved == ref_b.eps_resolved
            assert {t: p.to_dict() for t, p in pools.items()} == {
                t: p.to_dict() for t, p in fresh.items()}
            saved += ref_n - got_n
        assert saved["forward"] > 0 and saved["dual"] > 0 and lb_from_memo > 0

    @pytest.mark.parametrize("case", ["chain-iddp", "u0.2-isddp1"])
    def test_bounds_match_a_run_that_keeps_every_copy(self, case, monkeypatch):
        # skipping copies shortens the LPs, which may change the bounds in
        # their last bits only
        sched = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
        if case == "chain-iddp":
            model = chain_model(20, 6, 2024)

            def run(pools):
                return run_iddp(model, sched, tol=1e-6, max_iter=30, initial_pools=pools)
        else:
            model = generate_instance(PortfolioSpec(T=4, n=4, M=4, u=0.2, seed=0))

            def run(pools):
                return run_isddp(model, sched, n_paths=5, gap_tol=1e-9, max_iter=10,
                                 seed=9, initial_pools=pools)
        pools = make_pools(model)
        got = [(r.lb, r.ub) for r in run(pools).records]
        monkeypatch.setattr(CutPool, "__contains__", lambda pool, cut: False)
        all_pools = make_pools(model)
        want = [(r.lb, r.ub) for r in run(all_pools).records]
        assert sum(map(len, pools.values())) < sum(map(len, all_pools.values()))
        assert len(got) == len(want)
        for k, (a, b) in enumerate(zip(got, want), start=1):
            for x, y in zip(a, b):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(y)), f"iteration {k}"


class TestBackwardStageFaults:
    def _solve(self):
        m = toy_sto_t3_m2()
        pools = make_pools(m)
        r = m.stages[0].realizations[0]
        x1 = np.zeros(m.stage1.var_dim)
        return stage_solver.solve_backward_stage(r, x1, pools[3], ErrorBudget(), t=2, path=4)

    def test_kernel_fault_names_stage_and_path(self, monkeypatch):
        fault = lp_core.LpError("phase-1 subproblem unbounded")

        def failing(*args, **kwargs):
            raise fault

        monkeypatch.setattr(stage_solver, "solve_dual_inexact", failing)
        with pytest.raises(stage_solver.StageSolveError) as err:
            self._solve()
        assert (err.value.stage, err.value.path) == (2, 4)
        assert "stage 2 (path 4)" in str(err.value)
        assert err.value.__cause__ is fault

    def test_batch_fault_is_raised_by_the_lone_solve(self, monkeypatch):
        # a dual whose batch outcome is a kernel fault is not memoized; its
        # lone solve raises the fault with stage and path
        m = toy_sto_t3_m2()
        pools = make_pools(m)
        fwd = forward_pass_sddp(m, pools, sample_paths(m, 2, 1, seed=1), [0.0] * 3)
        fault = lp_core.LpError("phase-1 subproblem unbounded: numerical failure")
        monkeypatch.setattr(lp_core, "_simplex_batch", lambda A, b, C, **kwargs: [fault] * len(C))
        with pytest.raises(stage_solver.StageSolveError) as err:
            backward_pass_sddp(m, pools, fwd.trajectories, [0.0, 0.0], iteration=1)
        assert (err.value.stage, err.value.path) == (3, 0)
        assert "stage 3 (path 0): backward solve failed in the kernel: phase-1" in str(err.value)
        assert err.value.__cause__ is fault
        assert not [key for key in pools[4].memo if key[0] == "dual"]

    def test_programming_error_propagates_unwrapped(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a kernel fault")

        monkeypatch.setattr(stage_solver, "solve_dual_inexact", broken)
        with pytest.raises(TypeError, match="not a kernel fault"):
            self._solve()


class TestUpperBoundCi:
    def test_zero_variance(self):
        assert upper_bound_ci(np.array([4.0, 4.0, 4.0])) == pytest.approx(4.0)

    def test_hand_computed(self):
        assert upper_bound_ci(np.array([1.0, 1.0, 3.0, 3.0])) == pytest.approx(
            2.0 + 1.96 * np.std([1, 1, 3, 3], ddof=1) / 2.0
        )
        assert upper_bound_ci(np.array([1.0, 1.0, 3.0, 3.0])) == pytest.approx(
            3.131607, abs=1e-5
        )

    def test_single_sample_warns(self):
        with pytest.warns(UserWarning):
            assert upper_bound_ci(np.array([5.0])) == 5.0

    def test_coverage(self, rng):
        # Ub >= true mean with about 97.5% coverage
        hits = 0
        trials = 400
        for _ in range(trials):
            samples = rng.normal(loc=1.0, size=40)
            if upper_bound_ci(samples) >= 1.0:
                hits += 1
        assert hits / trials > 0.93


class TestRunIsddp:
    @pytest.mark.parametrize("factory", (toy_sto_t3_m2, toy_sto_t4_m3))
    def test_exact_convergence_to_oracle(self, factory):
        m = factory()
        v = oracle.extensive_form(m)
        log = run_isddp(m, EXACT_SCHEDULE, n_paths=8, gap_tol=1e-9, max_iter=100, seed=3)
        assert abs(log.final_lb - v) <= 1e-6 * (1 + abs(v))
        lbs = [r.lb for r in log.records]
        assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:]))
        assert all(r.lb <= v + 1e-7 for r in log.records)

    def test_deterministic_reduction_matches_iddp(self):
        det = toy_det_t3()
        sto = StochasticModel.from_deterministic(det)
        log_d = run_iddp(det, EXACT_SCHEDULE, tol=1e-9, max_iter=30)
        log_s = run_isddp(sto, EXACT_SCHEDULE, n_paths=1, gap_tol=1e-12, max_iter=30, seed=0)
        assert [(r.lb, r.ub) for r in log_d.records] == [
            (r.lb, r.ub) for r in log_s.records
        ]

    def test_bit_identical_runs(self):
        m = toy_sto_t4_m3()
        sched = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
        a = run_isddp(m, sched, n_paths=4, gap_tol=0.05, max_iter=10, seed=11)
        b = run_isddp(m, sched, n_paths=4, gap_tol=0.05, max_iter=10, seed=11)
        assert [(r.lb, r.ub, r.gap) for r in a.records] == [
            (r.lb, r.ub, r.gap) for r in b.records
        ]

    def test_bounded_noise_floor_on_lb(self):
        m = toy_sto_t3_m2()
        v = oracle.extensive_form(m)
        T = m.horizon
        bar = 0.05
        sched = ScheduleSpec(
            mode=ScheduleMode.CONSTANT_BOUNDED,
            constant_delta_bar=bar,
            constant_eps_bar=bar,
        )
        log = run_isddp(m, sched, n_paths=2, gap_tol=1e-12, max_iter=120, seed=5)
        assert log.final_lb >= v - (bar * T + bar * (T - 1)) - 1e-6
        assert all(r.lb <= v + 1e-7 for r in log.records)


class TestEvaluatePolicy:
    def test_degenerate_identical_costs(self):
        det = StochasticModel.from_deterministic(toy_det_t3())
        pools = make_pools(det)
        costs = evaluate_policy(det, pools, 5, seed=1)
        assert np.allclose(costs, costs[0])

    def test_sampled_mean_matches_enumeration(self):
        m = toy_sto_t3_m2()
        pools = make_pools(m)
        run_isddp(m, EXACT_SCHEDULE, n_paths=8, gap_tol=1e-9, max_iter=80,
                  seed=3, initial_pools=pools)
        costs = evaluate_policy(m, pools, 400, seed=21)
        v = oracle.extensive_form(m)
        se = costs.std(ddof=1) / np.sqrt(len(costs))
        assert abs(costs.mean() - v) <= 3 * se + 1e-9

    def test_mean_close_to_lb_at_convergence(self):
        m = toy_sto_t4_m3()
        pools = make_pools(m)
        log = run_isddp(m, EXACT_SCHEDULE, n_paths=8, gap_tol=1e-9, max_iter=80,
                        seed=3, initial_pools=pools)
        costs = evaluate_policy(m, pools, 300, seed=2)
        se = costs.std(ddof=1) / np.sqrt(len(costs))
        assert abs(costs.mean() - log.final_lb) <= 3 * se + 1e-6
