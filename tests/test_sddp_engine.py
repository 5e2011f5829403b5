import dataclasses
import math
from collections import Counter, defaultdict

import numpy as np
import pytest

from isddp import lp_core, oracle
from isddp import sddp_engine
from isddp import stage_solver
from isddp.cuts import Cut, CutPool, build_middle_cut, build_terminal_cut
from isddp.ddp_engine import run_iddp
from isddp.portfolio import PortfolioSpec, generate_instance
from isddp.schedules import (
    EXACT_SCHEDULE,
    ErrorBudget,
    ScheduleMode,
    ScheduleSpec,
    backward_budgets,
    forward_budgets,
)
from isddp.sddp_engine import (
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
        det = toy_det_t3()
        paths = sample_paths(det, 7, iteration=2, seed=0)
        assert paths == [(0, 0)] * 7

    def test_marginal_frequencies(self):
        m = toy_sto_t3_m2()  # stage-2 probs (0.6, 0.4)
        paths = sample_paths(m, 10000, iteration=1, seed=7)
        freq = np.mean([p[0] == 0 for p in paths])
        assert abs(freq - 0.6) < 0.02

    def test_determinism(self):
        m = toy_sto_t4_m3()
        a = sample_paths(m, 20, iteration=5, seed=31)
        b = sample_paths(m, 20, iteration=5, seed=31)
        assert a == b

    def test_iterations_differ(self):
        m = toy_sto_t4_m3()
        a = sample_paths(m, 20, iteration=1, seed=31)
        b = sample_paths(m, 20, iteration=2, seed=31)
        assert a != b

    def test_draws_are_pinned(self):
        # the counter-based streams, and how a draw maps to an index, are
        # part of every recorded run
        assert sample_paths(toy_sto_t4_m3(), 3, iteration=2, seed=5) == [
            (2, 2, 1), (1, 1, 0), (1, 0, 1)
        ]


class TestForwardPassSddp:
    def test_deterministic_reduction(self):
        det = toy_det_t3()
        pools_d = make_pools(det)
        pools_s = make_pools(det)
        from isddp.ddp_engine import forward_pass

        fd = forward_pass(det, pools_d, deltas=[ErrorBudget()] * 3)
        paths = sample_paths(det, 1, iteration=1, seed=0)
        fs = forward_pass_sddp(det, pools_s, paths, deltas=[ErrorBudget()] * 3)
        assert fs.cost_samples[0] == pytest.approx(fd.cost_samples[0])
        for a, b in zip(fd.trajectories[0], fs.trajectories[0]):
            assert np.allclose(a, b)

    def test_mean_cost_at_convergence(self):
        m = toy_sto_t3_m2()
        pools = make_pools(m)
        run_isddp(m, EXACT_SCHEDULE, n_paths=8, gap_tol=1e-9, max_iter=80,
                  seed=3, initial_pools=pools)
        # enumerate all 4 scenarios by hand through forced paths
        total = 0.0
        for i, pi in enumerate(m.stages[0].probs):
            for j, pj in enumerate(m.stages[1].probs):
                res = forward_pass_sddp(m, pools, [(i, j)], deltas=[ErrorBudget()] * 3)
                total += float(pi * pj) * res.cost_samples[0]
        assert total == pytest.approx(oracle.extensive_form(m), abs=1e-6)

    def test_resolved_delta_is_the_max_over_paths(self):
        # stage 3's optimum is -11.943 on path 0 and -6.46 on path 1, so a
        # relative budget resolves to a larger delta on the first path
        m = toy_sto_t3_m2()
        paths = [(1, 0), (0, 0)]
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
        res = forward_pass_sddp(m, pools, paths, deltas=[ErrorBudget()] * 3)
        # every realized cost is the cost of a feasible policy on its path;
        # the expectation over all paths bounds v* from above, and each
        # path cost is bounded below by the pool-based path relaxation.
        assert res.cost_samples.shape == (16,)
        assert np.isfinite(res.cost_samples).all()


def _spy_cut_builds(monkeypatch):
    """Record what the backward pass asks of ``solve_backward_stage`` and
    ``build_stage_cuts`` through the engine's bindings.

    Returns two dicts keyed by stage: the certificates, one list per path
    that was certified (its realizations in order), and one
    ``(realizations, tags, cut)`` per cut built.
    """
    solved, built = defaultdict(dict), defaultdict(list)
    solve, build = sddp_engine.solve_backward_stage, sddp_engine.build_stage_cuts

    def solve_spy(stage, x_prev, pool, budget, **kwargs):
        cert, optimum = solve(stage, x_prev, pool, budget, **kwargs)
        solved[kwargs["t"]].setdefault(kwargs["path"], []).append(cert)
        return cert, optimum

    def build_spy(realizations, lam, mu, eps, next_thetas, **tags):
        cuts = build(realizations, lam, mu, eps, next_thetas, **tags)
        built[tags["stage"]].extend((realizations, tags, cut) for cut in cuts)
        return cuts

    monkeypatch.setattr(sddp_engine, "solve_backward_stage", solve_spy)
    monkeypatch.setattr(sddp_engine, "build_stage_cuts", build_spy)
    return solved, built


class TestBackwardPassSddp:
    def test_deterministic_reduction_cuts(self):
        det = toy_det_t3()
        pools_d = make_pools(det)
        pools_s = make_pools(det)
        from isddp.ddp_engine import backward_pass, forward_pass

        fd = forward_pass(det, pools_d, deltas=[ErrorBudget()] * 3)
        bd = backward_pass(det, pools_d, fd.trajectories[0], epsilons=[ErrorBudget()] * 2, iteration=1)
        paths = sample_paths(det, 1, iteration=1, seed=0)
        fs = forward_pass_sddp(det, pools_s, paths, deltas=[ErrorBudget()] * 3)
        bs = backward_pass_sddp(det, pools_s, fs.trajectories, epsilons=[[ErrorBudget()]] * 2,
                                iteration=1)
        assert bs.lb == pytest.approx(bd.lb)
        for ca, cb in zip(bd.new_cuts, bs.new_cuts):
            assert ca.theta == pytest.approx(cb.theta)
            assert np.allclose(ca.beta, cb.beta)

    def test_exact_cut_tight_at_trial_point(self):
        m = toy_sto_t3_m2()
        pools = make_pools(m)
        paths = sample_paths(m, 2, iteration=1, seed=1)
        fwd = forward_pass_sddp(m, pools, paths, deltas=[ErrorBudget()] * 3)
        bwd = backward_pass_sddp(m, pools, fwd.trajectories, epsilons=[[ErrorBudget()] * 2] * 2,
                                 iteration=1)
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
        fwd = forward_pass_sddp(m, pools, paths, deltas=[ErrorBudget()] * 3)
        bwd = backward_pass_sddp(m, pools, fwd.trajectories,
                                 epsilons=[[ErrorBudget(absolute=eps)]] * 2, iteration=1)
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
        certs, built = _spy_cut_builds(monkeypatch)
        paths = sample_paths(m, n_paths, iteration=1, seed=9)
        fwd = forward_pass_sddp(m, pools, paths, deltas=[ErrorBudget()] * T)
        backward_pass_sddp(m, pools, fwd.trajectories,
                           epsilons=[[ErrorBudget(absolute=0.05)] * n_paths] * (T - 1), iteration=1)
        points = {traj[T - 2].tobytes() for traj in fwd.trajectories}
        assert len(built[T]) == len(points)
        for (realizations, tags, cut), point_certs in zip(built[T], certs[T].values()):
            assert all(cert.mu.shape == (1,) for cert in point_certs)
            ref = build_terminal_cut(realizations, point_certs, **tags)
            assert cut.theta.hex() == ref.theta.hex()
            assert cut.beta.tobytes() == ref.beta.tobytes()
            gap = sum(p * cert.eps_certified
                      for p, cert in zip(realizations.probs.tolist(), point_certs))
            assert (cut.stage, cut.iteration, cut.eps_used) == (T, 1, gap)
            assert (ref.stage, ref.iteration, ref.eps_used) == (T, 1, gap)
            assert 0.0 <= gap <= 0.05

    def test_cut_logs_its_certified_gap(self, monkeypatch):
        # a cut's eps_used is what its certificates certify at the trial
        # point, sum_j p_j eps_j, not a part of a two-part budget
        m = generate_instance(PortfolioSpec(T=3, n=2, M=3, seed=4))
        T, n_paths = m.horizon, 3
        pools = make_pools(m)
        for record in sddp_engine.iterate(m, EXACT_SCHEDULE, n_paths, 9, pools):
            if record.k == 4:
                break
        # copies without a memo hold no cached basis, which would answer a
        # dual with an exact certificate: these certificates are retrospective
        pools = {t: CutPool.from_dict(p.to_dict()) for t, p in pools.items()}
        certs, built = _spy_cut_builds(monkeypatch)
        budget = ErrorBudget(absolute=3.0, relative=0.3)
        fwd = forward_pass_sddp(m, pools, sample_paths(m, n_paths, 5, seed=9), [ErrorBudget()] * T)
        backward_pass_sddp(m, pools, fwd.trajectories, [[budget] * n_paths] * (T - 1))
        assert sum(map(len, built.values())) == sum(
            len({traj[t - 2].tobytes() for traj in fwd.trajectories}) for t in range(2, T + 1))
        gaps = []
        for t in built:
            for (realizations, _, cut), point_certs in zip(built[t], certs[t].values()):
                gaps.append(sum(p * c.eps_certified
                                for p, c in zip(realizations.probs.tolist(), point_certs)))
                assert cut.eps_used == gaps[-1]
                optima = [c.dual_obj + c.eps_certified for c in point_certs]
                assert cut.eps_used <= max(budget.resolve(v) for v in optima)
        assert max(gaps) > 0.0

    def test_dual_sweep_leaves_cuts_bit_identical(self, monkeypatch):
        # the batched solves of one stage sweep must not change a bit of any
        # cut: compare against unbatched solves over the same trajectories
        # and the same pools, iteration by iteration.  Bit identity holds for
        # kernel solves; a cached basis answers a dual with its own vertex and
        # objective, so both sides solve every dual without cached bases.
        m = generate_instance(PortfolioSpec(T=3, n=2, M=3, seed=4))
        # every path starts stage 2 from the same x1; a realization with its
        # own cost there makes a group of one dual
        r0 = m.stages[0].realizations[0]
        m.stages[0].realizations[0] = dataclasses.replace(r0, c=r0.c + 0.01)
        spec = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
        T, n_paths = m.horizon, 3
        sizes = []
        batch = stage_solver.solve_dual_batch

        def counting_batch(lp, eq_rhs, bases):
            sizes.append(len(eq_rhs))
            return batch(lp, eq_rhs, [])

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
            eps = backward_budgets(spec, k, fwd.stage_values)
            # the reference solves every dual alone: its pools start without a
            # memo, and only the certificates' batches of one fill it
            ref_pools = {t: CutPool.from_dict(p.to_dict()) for t, p in pools.items()}
            ref_certs, got_certs = [], []
            monkeypatch.setattr(sddp_engine, "solve_backward_stage", solver(ref_certs, False))
            monkeypatch.setattr(sddp_engine, "sweep_duals", lambda *args: None)
            n_sizes = len(sizes)
            ref = backward_pass_sddp(m, ref_pools, fwd.trajectories, eps, iteration=k)
            del sizes[n_sizes:]  # the reference's batches of one
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


class TestOneCutPerTrialPoint:
    """The backward pass certifies and cuts each distinct (trial point,
    budget) of a stage once, and the paths there share that cut."""

    @staticmethod
    def _count_certificates(monkeypatch):
        calls = Counter()
        solve = sddp_engine.solve_backward_stage

        def counting(stage, x_prev, pool, budget, **kwargs):
            calls[kwargs["t"], id(stage), x_prev.tobytes(), budget] += 1
            return solve(stage, x_prev, pool, budget, **kwargs)

        monkeypatch.setattr(sddp_engine, "solve_backward_stage", counting)
        return calls

    @staticmethod
    def _check_pass(model, pools, trajectories, eps, k, calls):
        """Run one backward pass; returns the number of its distinct keys."""
        T, n_paths = model.horizon, len(trajectories)
        calls.clear()
        bwd = backward_pass_sddp(model, pools, trajectories, eps, iteration=k)
        assert len(bwd.new_cuts) == n_paths * (T - 1)
        n_keys = 0
        for i, t in enumerate(range(T, 1, -1)):
            st, pool_next = model.stages[t - 2], pools[t + 1]
            keys = [(traj[t - 2].tobytes(), budget)
                    for traj, budget in zip(trajectories, eps[t - 2])]
            n_keys += len(set(keys))
            assert {key: n for key, n in calls.items() if key[0] == t} == {
                (t, id(r), xb, budget): 1 for xb, budget in keys for r in st.realizations}
            cuts = bwd.new_cuts[i * n_paths:(i + 1) * n_paths]
            shared: dict = {}
            for cut, traj, budget, key in zip(cuts, trajectories, eps[t - 2], keys):
                assert shared.setdefault(key, cut) is cut
                # pool t+1 has not changed since stage t was cut
                certs = [stage_solver.solve_backward_stage(r, traj[t - 2], pool_next, budget)[0]
                         for r in st.realizations]
                ref = build_middle_cut(st, certs, pool_next.thetas_with_floor(),
                                       stage=t, iteration=k)
                assert (cut.theta.hex(), cut.beta.tobytes(), cut.eps_used.hex()) == (
                    ref.theta.hex(), ref.beta.tobytes(), ref.eps_used.hex())
                assert (cut.stage, cut.iteration) == (t, k)
            assert len({id(cut) for cut in cuts}) == len(shared)
        return n_keys

    def test_paths_at_one_point_share_one_cut(self, monkeypatch):
        model = generate_instance(PortfolioSpec(T=4, n=4, M=4, u=0.2, seed=0))
        spec = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
        T, n_paths = model.horizon, 8
        pools = make_pools(model)
        calls = self._count_certificates(monkeypatch)
        for k in range(1, 5):
            fwd = forward_pass_sddp(model, pools, sample_paths(model, n_paths, k, seed=9),
                                    forward_budgets(spec, k, T))
            eps = backward_budgets(spec, k, fwd.stage_values)
            n_keys = self._check_pass(model, pools, fwd.trajectories, eps, k, calls)
            # every path leaves stage 1 at the same point
            assert n_keys < n_paths * (T - 1)

    def test_absolute_budgets_keep_paths_at_one_point_apart(self, monkeypatch):
        # in the absolute mode a path's budget at stage t scales with its
        # stage-t value, so paths that leave stage 1 at one point but draw
        # different stage-2 realizations get different stage-2 budgets
        model = generate_instance(PortfolioSpec(T=3, n=2, M=3, seed=4))
        spec = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.ABSOLUTE)
        T = model.horizon
        pools = make_pools(model)
        # with cuts in pool 3 the stage-2 values of the two realizations differ
        run_isddp(model, spec, n_paths=2, gap_tol=1e-9, max_iter=2, seed=9, initial_pools=pools)
        calls = self._count_certificates(monkeypatch)
        fwd = forward_pass_sddp(model, pools, [(0, 0), (1, 0)], forward_budgets(spec, 3, T))
        eps = backward_budgets(spec, 3, fwd.stage_values)
        x1, y1 = (traj[0] for traj in fwd.trajectories)
        assert x1.tobytes() == y1.tobytes() and eps[0][0] != eps[0][1]
        assert self._check_pass(model, pools, fwd.trajectories, eps, 3, calls) == 4
        assert sum(calls.values()) == 4 * model.stages[0].num_realizations


class TestStoreEachCutOnce:
    def test_duplicate_cuts_are_skipped_before_add(self, monkeypatch):
        m = generate_instance(PortfolioSpec(T=3, n=2, M=3, seed=4))
        pools = make_pools(m)
        added, batched, primal_stages, lone = [], [], [], []
        add = CutPool.add
        monkeypatch.setattr(CutPool, "add", lambda pool, cut: added.append(cut) or add(pool, cut))
        batch, sweep = stage_solver.solve_dual_batch, stage_solver.sweep_duals
        real_lp, primal = stage_solver.stage_lp, stage_solver.solve_primal_batch
        lone_primal = stage_solver.solve_with_primal_trail
        lp_stage = {}  # id of each stage LP -> its stage
        lp_stage_calls = []  # the stage of each stage LP built

        def recording_lp(stage, x_prev, pool):
            lp = real_lp(stage, x_prev, pool)
            lp_stage[id(lp)] = pool.stage - 1
            lp_stage_calls.append(pool.stage - 1)
            return lp

        monkeypatch.setattr(stage_solver, "solve_dual_batch", lambda lp, eq_rhs, bases: (
            batched.append(len(eq_rhs)) or batch(lp, eq_rhs, bases)))
        # the engine sweeps through its own binding; this one is the
        # certificate's own batch of one on a memo miss
        monkeypatch.setattr(stage_solver, "sweep_duals",
                            lambda *args: lone.append(args) or sweep(*args))
        monkeypatch.setattr(stage_solver, "stage_lp", recording_lp)
        monkeypatch.setattr(stage_solver, "solve_primal_batch", lambda lp, eq_rhs, bases: (
            primal_stages.append(lp_stage[id(lp)]) or primal(lp, eq_rhs, bases)))
        monkeypatch.setattr(stage_solver, "solve_with_primal_trail", lambda lp: (
            primal_stages.append(lp_stage[id(lp)]) or lone_primal(lp)))
        paths = sample_paths(m, 1, 1, seed=9)
        # two paths at one (stage, state): one kernel solve per stage
        traj, twin = forward_pass_sddp(m, pools, paths * 2, [ErrorBudget()] * 3).trajectories
        assert primal_stages == [1, 2, 3]
        assert [x.tobytes() for x in traj] == [x.tobytes() for x in twin]
        # two paths at one trial point: the second path's cuts are copies
        del lp_stage_calls[:]
        bwd = backward_pass_sddp(m, pools, [traj, traj], [[ErrorBudget()] * 2] * 2, iteration=1)
        # a stage LP is built once per dual batch, then once for the lower bound
        assert len(lp_stage_calls) == len(batched) + 1 and lp_stage_calls[-1] == 1
        assert len(bwd.new_cuts) == 4
        assert bwd.new_cuts[0].theta == bwd.new_cuts[1].theta
        assert len(added) == 2 and len(pools[3]) == len(pools[2]) == 1
        # the same sweep again: every cut is a copy, so no pool changes
        forward_pass_sddp(m, pools, paths, [ErrorBudget()] * 3)  # fills pools[3].memo
        rows = pools[3].betas_with_floor(), pools[3].thetas_with_floor()
        memo = dict(pools[3].memo)
        assert any(key[0] == "forward" for key in memo)
        del batched[:]
        bwd = backward_pass_sddp(m, pools, [traj], [[ErrorBudget()]] * 2, iteration=2)
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
        primal, batch, lower_bound = (stage_solver.solve_primal_batch,
                                      stage_solver.solve_dual_batch, sddp_engine.stage_value_exact)
        lone_primal = stage_solver.solve_with_primal_trail

        def counting_primal(lp, eq_rhs, bases):
            solved["lb" if in_lb else "forward"] += len(eq_rhs)
            return primal(lp, eq_rhs, [])

        def counting_lone_primal(lp):
            solved["lb" if in_lb else "forward"] += 1
            return lone_primal(lp)

        def counting_batch(lp, eq_rhs, bases):
            solved["dual"] += len(eq_rhs)
            return batch(lp, eq_rhs, bases)

        def flagged_lower_bound(*args, **kwargs):
            in_lb.append(True)
            try:
                return lower_bound(*args, **kwargs)
            finally:
                in_lb.pop()

        monkeypatch.setattr(stage_solver, "solve_primal_batch", counting_primal)
        monkeypatch.setattr(stage_solver, "solve_with_primal_trail", counting_lone_primal)
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
                eps = backward_budgets(spec, k, fwd.stage_values)
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

    @pytest.mark.parametrize("case", ["chain-iddp", "u0.2-isddp1", "chain-ddp", "u0.2-sddp"])
    def test_bounds_match_a_run_that_keeps_every_copy(self, case, monkeypatch):
        # a copy in a pool is a duplicate row of the stage LPs, which may
        # change the bounds in their last bits.  Under an inexact schedule it
        # may also change which delta-suboptimal trail vertex the forward
        # pass picks, so there only Lb is compared.  There a cached basis
        # also answers a dual exactly where a kernel solve gives a
        # retrospective certificate, and a forward LP by its optimum where a
        # kernel solve gives an earlier trail vertex, and only pools that
        # hold still keep their bases, which a pool that takes every copy
        # never does: so the inexact runs solve every stage LP without
        # cached bases.
        exact = case in ("chain-ddp", "u0.2-sddp")
        sched = EXACT_SCHEDULE if exact else ScheduleSpec(
            eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
        if not exact:
            for name in ("solve_primal_batch", "solve_dual_batch"):
                batch = getattr(stage_solver, name)
                monkeypatch.setattr(stage_solver, name,
                                    lambda lp, eq_rhs, bases, batch=batch: batch(lp, eq_rhs, []))
        if case.startswith("chain"):
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
            for x, y in zip(a if exact else a[:1], b):
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

    def test_batch_fault_is_memoized_and_solved_once(self, monkeypatch):
        # a dual whose batch outcome is a kernel fault keeps the fault in the
        # memo, and the certificate raises it with stage and path without
        # solving that dual again
        m = toy_sto_t3_m2()
        pools = make_pools(m)
        fwd = forward_pass_sddp(m, pools, sample_paths(m, 2, 1, seed=1), [ErrorBudget()] * 3)
        fault = lp_core.LpError("phase-1 subproblem unbounded: numerical failure")
        batches = []

        def failing_batch(A, b, C, **kwargs):
            batches.append(len(C))
            return [fault] * len(C)

        monkeypatch.setattr(lp_core, "_simplex_batch", failing_batch)
        with pytest.raises(stage_solver.StageSolveError) as err:
            backward_pass_sddp(m, pools, fwd.trajectories, [[ErrorBudget()] * 2] * 2, iteration=1)
        assert (err.value.stage, err.value.path) == (3, 0)
        assert "stage 3 (path 0): backward solve failed in the kernel: phase-1" in str(err.value)
        assert err.value.__cause__ is fault
        memoized = [entry[1] for key, entry in pools[4].memo.items() if key[0] == "dual"]
        assert memoized and all(res is fault for res in memoized)
        assert sum(batches) == len(memoized)  # each dual was in one batch

    def test_programming_error_propagates_unwrapped(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a kernel fault")

        monkeypatch.setattr(stage_solver, "solve_dual_inexact", broken)
        with pytest.raises(TypeError, match="not a kernel fault"):
            self._solve()


class TestBudgetShapes:
    def test_forward_pass_needs_one_budget_per_stage(self):
        m = toy_sto_t3_m2()
        paths = sample_paths(m, 2, 1, seed=1)
        with pytest.raises(ValueError, match="need 3 deltas, got 2"):
            forward_pass_sddp(m, make_pools(m), paths, [ErrorBudget()] * 2)

    def test_backward_pass_needs_one_budget_per_stage_and_path(self):
        m = toy_sto_t3_m2()
        pools = make_pools(m)
        fwd = forward_pass_sddp(m, pools, sample_paths(m, 2, 1, seed=1), [ErrorBudget()] * 3)
        with pytest.raises(ValueError, match="need 2 epsilon entries, got 1"):
            backward_pass_sddp(m, pools, fwd.trajectories, [[ErrorBudget()] * 2], iteration=1)
        with pytest.raises(ValueError, match="must cover every path"):
            backward_pass_sddp(m, pools, fwd.trajectories, [[ErrorBudget()] * 2, [ErrorBudget()]],
                               iteration=1)
        with pytest.raises(ValueError, match="need at least one path"):
            backward_pass_sddp(m, pools, [], [[], []], iteration=1)
        # rejected before any backward solve
        assert not [key for t in (3, 4) for key in pools[t].memo if key[0] == "dual"]


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
        log_d = run_iddp(det, EXACT_SCHEDULE, tol=1e-9, max_iter=30)
        log_s = run_isddp(det, EXACT_SCHEDULE, n_paths=1, gap_tol=1e-12, max_iter=30, seed=0)
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
        sched = ScheduleSpec(mode=ScheduleMode.CONSTANT_BOUNDED, eps_bar=bar)
        log = run_isddp(m, sched, n_paths=2, gap_tol=1e-12, max_iter=120, seed=5)
        assert log.final_lb >= v - (bar * T + bar * (T - 1)) - 1e-6
        assert all(r.lb <= v + 1e-7 for r in log.records)


class TestEvaluatePolicy:
    def test_degenerate_identical_costs(self):
        det = toy_det_t3()
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


class TestStageMajorForwardPass:
    """The forward pass solves the LPs of one stage, all paths, as kernel
    batches; every path must read exactly what it reads when it runs alone.
    Bit identity holds for kernel solves; a cached basis answers a forward
    LP with a point of its own, so both sides solve without cached bases."""

    @pytest.fixture(autouse=True)
    def _no_cached_bases(self, monkeypatch):
        batch = stage_solver.solve_primal_batch
        monkeypatch.setattr(stage_solver, "solve_primal_batch",
                            lambda lp, eq_rhs, bases: batch(lp, eq_rhs, []))

    @staticmethod
    def _trained():
        model = generate_instance(PortfolioSpec(T=4, n=8, M=10, u=0.2, seed=0))
        pools = make_pools(model)
        run_isddp(model, EXACT_SCHEDULE, n_paths=10, gap_tol=1e-9, max_iter=3, seed=9,
                  initial_pools=pools)
        return model, pools

    @staticmethod
    def _copies(pools):
        return {t: CutPool.from_dict(p.to_dict()) for t, p in pools.items()}

    def test_paths_match_one_path_passes(self):
        model, pools = self._trained()
        spec = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
        paths = sample_paths(model, 10, 4, seed=9)
        deltas = forward_budgets(spec, 4, model.horizon)
        got = forward_pass_sddp(model, pools, paths, deltas)
        alone = [forward_pass_sddp(model, self._copies(pools), [path], deltas) for path in paths]
        for traj, one in zip(got.trajectories, alone):
            assert [x.tobytes() for x in traj] == [x.tobytes() for x in one.trajectories[0]]
        assert got.cost_samples.tobytes() == np.concatenate(
            [one.cost_samples for one in alone]).tobytes()
        assert got.stage_values.tobytes() == np.vstack(
            [one.stage_values for one in alone]).tobytes()
        assert got.deltas_resolved == tuple(
            max([0.0, *column]) for column in zip(*(one.deltas_resolved for one in alone)))

    def test_policy_evaluation_matches_one_path_passes(self):
        model, pools = self._trained()
        exact = [ErrorBudget()] * model.horizon
        paths = sample_paths(model, 200, 0, 5, stream=sddp_engine._EVAL_STREAM)
        alone = [forward_pass_sddp(model, self._copies(pools), [path], exact).cost_samples
                 for path in paths]
        assert evaluate_policy(model, pools, 200, 5).tobytes() == np.concatenate(alone).tobytes()


class TestForwardBatchFaults:
    """A fault in one member of a forward batch names that member's stage and
    path: here the last member of the first stage-3 batch with pool cuts."""

    @pytest.mark.parametrize("kind, message", [
        ("kernel", " failed in the kernel: injected"),
        ("status", " is infeasible"),
        ("cut row", ": the kernel's optimum violates one of its own cut rows"),
    ])
    def test_fault_names_the_faulty_member(self, kind, message, monkeypatch):
        model = generate_instance(PortfolioSpec(T=4, n=8, M=10, u=0.2, seed=0))
        pools = make_pools(model)
        sweeps, faulty = [], []
        sweep, batch = sddp_engine.sweep_forward, stage_solver.solve_primal_batch

        def recording_sweep(stages, x_prevs, pool):
            sweeps.append((stages, x_prevs))
            return sweep(stages, x_prevs, pool)

        def faulty_batch(lp, eq_rhs, bases):
            outcomes = batch(lp, eq_rhs, bases)
            if faulty or lp.cut_theta is not pools[4].thetas_with_floor() or lp.num_cuts < 2:
                return outcomes
            faulty.append(eq_rhs[-1].tobytes())
            if kind == "kernel":
                outcomes[-1] = lp_core.LpError("injected")
            elif kind == "status":
                outcomes[-1] = lp_core._KernelResult(lp_core.SolveStatus.INFEASIBLE, None,
                                                     math.nan, None, 0)
            else:
                outcomes[-1].obj -= 1.0
            return outcomes

        monkeypatch.setattr(sddp_engine, "sweep_forward", recording_sweep)
        monkeypatch.setattr(stage_solver, "solve_primal_batch", faulty_batch)
        with pytest.raises(stage_solver.StageSolveError) as err:
            run_isddp(model, EXACT_SCHEDULE, n_paths=10, gap_tol=1e-9, max_iter=5, seed=9,
                      initial_pools=pools)
        stages, x_prevs = sweeps[-1]
        path = next(p for p, (stage, x) in enumerate(zip(stages, x_prevs))
                    if (stage.b - stage.B @ x).tobytes() == faulty[0])
        assert path > 0
        assert (err.value.stage, err.value.path) == (3, path)
        assert f"stage 3 (path {path}){message}" in str(err.value)
        assert [r.k for r in err.value.partial_log.records] == [1]


def _memo_bits(entry):
    """A forward memo entry, or a ``("forward bases", ...)`` list, as bytes."""
    if isinstance(entry, stage_solver.StageSolveError):
        return type(entry), str(entry)
    if isinstance(entry, list):  # [key, basis, vertex, factor] per cached basis
        return [(key, basis.tobytes(), vertex.tobytes(), factor)
                for key, basis, vertex, factor in entry]
    optimum, xs, values = entry
    return optimum.hex(), xs.tobytes(), values.tobytes()


@pytest.mark.parametrize("trained", [False, True])
def test_a_lone_forward_lp_is_a_batch_of_one(trained, monkeypatch):
    # with no cached basis to test, sweep_forward solves a lone member with
    # solve_with_primal_trail; it leaves the memo entry and the cached bases
    # that the member's batch of one leaves, bit for bit
    model = generate_instance(PortfolioSpec(T=4, n=4, M=4, u=0.2, seed=0))
    pools = make_pools(model)
    if trained:
        run_isddp(model, EXACT_SCHEDULE, n_paths=5, gap_tol=1e-9, max_iter=3, seed=9,
                  initial_pools=pools)
    lone = []
    trail = stage_solver.solve_with_primal_trail
    monkeypatch.setattr(stage_solver, "solve_with_primal_trail",
                        lambda lp: lone.append(lp) or trail(lp))
    members = [(1, model.stage1, model.x0)] + [
        (t, model.stage(t, j), x) for t in range(2, model.horizon + 1)
        for x in oracle.sample_reachable_states(model, t, 2, seed=t) for j in (0, 3)]
    for t, stage, x in members:
        pool, fresh = (CutPool.from_dict(pools[t + 1].to_dict()) for _ in range(2))
        stage_solver.sweep_forward([stage], [x], pool)
        lp = stage_solver.stage_lp(stage, x, fresh)
        bases = []
        (out,) = stage_solver.solve_primal_batch(lp, lp.eq_rhs[None], bases)
        (key,) = (key for key in pool.memo if key[0] == "forward")
        (cached,) = (key for key in pool.memo if key[0] == "forward bases")
        assert _memo_bits(pool.memo[key]) == _memo_bits(stage_solver._forward_entry(
            stage, fresh, out)), (t, x)
        assert bases and _memo_bits(pool.memo[cached]) == _memo_bits(bases), (t, x)
    assert len(lone) == len(members)


def test_a_cut_drops_the_cached_bases_of_its_pool():
    # cached bases live in the pool's memo, under the stage structure; a cut
    # changes the stage LPs and their explicit duals and empties the memo,
    # so no basis cached before it answers a forward LP or a dual after it
    m = generate_instance(PortfolioSpec(T=3, n=2, M=3, seed=4))
    pools = make_pools(m)
    fwd = forward_pass_sddp(m, pools, sample_paths(m, 1, 1, seed=9), [ErrorBudget()] * 3)
    x1 = fwd.trajectories[0][0]
    xs = [x1, 0.5 * x1, 1.5 * x1]
    realizations, pool = m.stages[0].realizations, pools[3]
    stages = [r for _ in xs for r in realizations]
    x_prevs = [x for x in xs for _ in realizations]

    def cached(kind):
        return [bases for key, bases in pool.memo.items() if key[0] == kind]

    def sweep():
        stage_solver.sweep_forward(stages, x_prevs, pool)
        stage_solver.sweep_duals(realizations, xs, pool)
        for kind in ("forward bases", "dual bases"):
            assert len(cached(kind)) == 1 and cached(kind)[0], kind

    sweep()
    pool.add(Cut(theta=-20.0, beta=np.full(len(x1), -0.2), stage=3, iteration=1))
    assert pool.memo == {}
    sweep()
    for x in xs:
        for r in realizations:
            # a copy of the pool without a memo solves each LP alone
            got, want = (stage_solver.solve_backward_stage(r, x, p, ErrorBudget())
                         for p in (pool, CutPool.from_dict(pool.to_dict())))
            assert got[0].lam.tobytes() == want[0].lam.tobytes()
            assert got[0].mu.tobytes() == want[0].mu.tobytes()
            assert got[1].hex() == want[1].hex()
            got, want = (stage_solver.solve_forward_stage(r, x, p, ErrorBudget())
                         for p in (pool, CutPool.from_dict(pool.to_dict())))
            assert got.x.tobytes() == want.x.tobytes()
            assert got.optimum.hex() == want.optimum.hex()


def test_realizations_that_share_a_and_c_are_one_dual_batch(monkeypatch):
    # a sweep hands solve_dual_batch one batch per stage structure, with
    # each (realization, distinct trial point) once, in point-major order
    m = generate_instance(PortfolioSpec(T=3, n=2, M=3, seed=4))
    pools = make_pools(m)
    fwd = forward_pass_sddp(m, pools, sample_paths(m, 1, 1, seed=9), [ErrorBudget()] * 3)
    x1 = fwd.trajectories[0][0]
    shared = m.stages[0].realizations
    other = [dataclasses.replace(r, c=r.c + 1.0) for r in shared]
    realizations = [r for pair in zip(shared, other) for r in pair]
    assert len({r.structure for r in shared}) == len({r.structure for r in other}) == 1
    pool, calls = pools[3], []
    batch = stage_solver.solve_dual_batch
    monkeypatch.setattr(stage_solver, "solve_dual_batch", lambda lp, eq_rhs, bases: (
        calls.append(eq_rhs.copy()) or batch(lp, eq_rhs, bases)))
    points = [x1, 0.5 * x1]
    stage_solver.sweep_duals(realizations, [x1, 0.5 * x1, x1.copy(), 0.5 * x1], pool)
    assert [rows.tobytes() for rows in calls] == [
        np.array([r.b - r.B @ x for x in points for r in group]).tobytes()
        for group in (shared, other)]
    assert sum(key[0] == "dual" for key in pool.memo) == len(points) * len(realizations)
    # a later sweep batches only the duals that the memo lacks
    del calls[:]
    stage_solver.sweep_duals(realizations, [x1, 1.5 * x1, 1.5 * x1], pool)
    assert [rows.tobytes() for rows in calls] == [
        np.array([r.b - r.B @ (1.5 * x1) for r in group]).tobytes() for group in (shared, other)]
