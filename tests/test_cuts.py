import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isddp.cuts import (
    Cut,
    CutDimensionError,
    CutPool,
    build_middle_cut,
    build_stage_cuts,
    build_terminal_cut,
    stack_certificates,
)
from isddp.lp_core import DualCertificate, LinearProgram, solve_exact
from isddp.models import StageModel, StochasticStageModel
from isddp import oracle
from isddp.ddp_engine import run_iddp
from isddp.schedules import EXACT_SCHEDULE
from isddp.sddp_engine import make_pools
from isddp.toys import toy_det_t3


def cert(lam, mu=(), dual_obj=0.0, eps=0.0):
    return DualCertificate(
        lam=np.asarray(lam, dtype=float),
        mu=np.asarray(mu, dtype=float),
        dual_obj=dual_obj,
        eps_certified=eps,
    )


def support(*pairs, probs=(1.0,)):
    """A stage with one realization per (b, B) pair; its A and c are zeros."""
    reals = [
        StageModel(A=np.zeros((len(b), 1)), B=B, b=b, c=np.zeros(1)) for b, B in pairs
    ]
    return StochasticStageModel(reals, probs)


class TestBuildTerminalCut:
    def test_identity_coupling(self):
        c = build_terminal_cut(
            support(([1.0, 2.0], np.eye(2))), [cert([1.0, 0.0])]
        )
        assert c.theta == pytest.approx(1.0)
        assert c.beta == pytest.approx([-1.0, 0.0])

    def test_probability_averaging(self):
        reals = support(([2.0], np.zeros((1, 1))), ([4.0], np.zeros((1, 1))),
                        probs=[0.5, 0.5])
        c = build_terminal_cut(reals, [cert([1.0]), cert([1.0])])
        assert c.theta == pytest.approx(3.0)

    def test_exact_on_ramp_recourse(self):
        # last-stage value max(x, 0): min y s.t. y - s = x, both >= 0.
        # at x=2 the exact dual multiplier is 1, so the cut is C(z) = z.
        x_bar = 2.0
        lp = LinearProgram(
            cost=[1.0, 0.0],
            eq_matrix=[[1.0, -1.0]],
            eq_rhs=[x_bar],
        )
        sol = solve_exact(lp)
        B = np.array([[-1.0]])  # rhs = b - B x_prev with b = 0
        c = build_terminal_cut(support(([0.0], B)), [cert(sol.lam)])
        assert c.value(np.array([x_bar])) == pytest.approx(sol.obj)
        assert c.theta == pytest.approx(0.0)
        assert c.beta == pytest.approx([1.0])

    def test_fewer_certificates_than_realizations(self):
        # zip would drop the second realization's term without this check
        reals = support(([2.0], np.zeros((1, 1))), ([4.0], np.zeros((1, 1))),
                        probs=[0.5, 0.5])
        with pytest.raises(CutDimensionError, match="2 realizations but 1"):
            build_terminal_cut(reals, [cert([1.0])])


class TestBuildMiddleCut:
    def test_intercept_passthrough(self):
        # mu selects the next-stage cut with theta 5; lam = 0 contributes nothing.
        c = build_middle_cut(
            support(([0.0], np.zeros((1, 2)))),
            [cert([0.0], mu=[0.0, 1.0])],
            next_pool_thetas=np.array([-10.0, 5.0]),
        )
        assert c.theta == pytest.approx(5.0)
        assert c.beta == pytest.approx([0.0, 0.0])

    def test_mu_length_mismatch(self):
        with pytest.raises(CutDimensionError):
            build_middle_cut(
                support(([0.0], np.zeros((1, 2)))),
                [cert([0.0], mu=[1.0])],
                next_pool_thetas=np.array([0.0, 5.0]),
            )


class TestBuildStageCuts:
    def test_points_built_together_match_one_point_builds(self, rng):
        # each point's products are taken on their own, so building D points
        # at once gives every cut bit for bit as building it alone does
        D, m, n, K = 7, 12, 9, 6
        reals = support(*[(rng.normal(size=m), rng.normal(size=(m, n))) for _ in range(3)],
                        probs=[0.2, 0.3, 0.5])
        lam, mu = rng.normal(size=(D, 3, m)), rng.random((D, 3, K))
        eps, thetas = rng.random((D, 3)), rng.normal(size=K)
        cuts = build_stage_cuts(reals, lam, mu, eps, thetas, stage=4, iteration=2)
        assert len(cuts) == D
        assert [c.theta for c in build_stage_cuts(reals, lam[:3], mu[:3], eps[:3], thetas)] == [
            c.theta for c in cuts[:3]]
        for d, cut in enumerate(cuts):
            one = build_middle_cut(
                reals, [cert(lam[d, j], mu[d, j], eps=eps[d, j]) for j in range(3)], thetas,
                stage=4, iteration=2,
            )
            assert (cut.theta.hex(), cut.beta.tobytes(), cut.eps_used.hex()) == (
                one.theta.hex(), one.beta.tobytes(), one.eps_used.hex())
            assert (cut.stage, cut.iteration) == (one.stage, one.iteration) == (4, 2)

    def test_matches_the_loop_formula(self, rng):
        # the stacked products may add in another order than one dot product
        # per realization, so the loop agrees to rounding, not bit for bit
        D, m, n, K = 5, 12, 9, 6
        probs = [0.2, 0.3, 0.5]
        reals = support(*[(rng.normal(size=m), rng.normal(size=(m, n))) for _ in probs],
                        probs=probs)
        lam, mu = rng.normal(size=(D, 3, m)), rng.random((D, 3, K))
        eps, thetas = rng.random((D, 3)), rng.normal(size=K)
        for d, cut in enumerate(build_stage_cuts(reals, lam, mu, eps, thetas)):
            theta, beta, gap = 0.0, np.zeros(n), 0.0
            for j, (r, p) in enumerate(zip(reals.realizations, probs)):
                theta += p * (r.b @ lam[d, j] + mu[d, j] @ thetas)
                beta -= p * (r.B.T @ lam[d, j])
                gap += p * eps[d, j]
            assert cut.theta == pytest.approx(theta, rel=1e-12, abs=1e-12)
            assert np.allclose(cut.beta, beta, rtol=1e-12, atol=1e-12)
            assert cut.eps_used == pytest.approx(gap, rel=1e-15)

    def test_certificates_of_different_shapes(self):
        with pytest.raises(CutDimensionError, match="differ in shape"):
            stack_certificates([[cert([1.0]), cert([1.0, 2.0])]])

    def test_eps_shape_mismatch(self):
        reals = support(([2.0], np.zeros((1, 1))))
        with pytest.raises(CutDimensionError, match="eps_certified"):
            build_stage_cuts(reals, np.ones((2, 1, 1)), np.ones((2, 1, 1)), np.zeros((1, 1)),
                             np.zeros(1))


class TestCutPool:
    def test_floor_only(self):
        pool = CutPool(stage=2, state_dim=2, floor=-10.0)
        assert pool.evaluate(np.array([3.0, -1.0])) == -10.0

    def test_max_of_two_lines(self):
        pool = CutPool(stage=2, state_dim=1, floor=-100.0)
        pool.add(Cut(theta=0.0, beta=np.array([1.0]), stage=2, iteration=1))
        pool.add(Cut(theta=2.0, beta=np.array([-1.0]), stage=2, iteration=2))
        assert pool.evaluate(np.array([0.5])) == pytest.approx(1.5)

    def test_monotone_in_cuts(self, rng):
        pool = CutPool(stage=2, state_dim=3, floor=-5.0)
        states = rng.normal(size=(100, 3))
        prev = pool.evaluate_many(states)
        for k in range(10):
            pool.add(
                Cut(
                    theta=float(rng.normal()),
                    beta=rng.normal(size=3),
                    stage=2,
                    iteration=k,
                )
            )
            cur = pool.evaluate_many(states)
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_dimension_guard(self):
        pool = CutPool(stage=2, state_dim=2, floor=0.0)
        with pytest.raises(CutDimensionError):
            pool.add(Cut(theta=0.0, beta=np.array([1.0]), stage=2, iteration=1))

    def test_contains_bitwise_copies_only(self):
        pool = CutPool(stage=2, state_dim=2, floor=-5.0)
        pool.add(Cut(theta=0.0, beta=np.array([0.5, -2.0]), stage=2, iteration=1))

        def cut(theta, beta):
            return Cut(theta=theta, beta=np.array(beta), stage=2, iteration=7, eps_used=0.3)

        assert cut(0.0, [0.5, -2.0]) in pool  # stage, iteration and eps are no part of it
        assert cut(0.0, [0.5, np.nextafter(-2.0, 0.0)]) not in pool
        assert cut(np.nextafter(0.0, 1.0), [0.5, -2.0]) not in pool
        assert cut(-0.0, [0.5, -2.0]) not in pool  # the sign bit differs

    def test_add_clears_the_memo(self):
        pool = CutPool(stage=2, state_dim=1, floor=-5.0)
        pool.memo["solve"] = "result"
        pool.add(Cut(theta=1.0, beta=np.array([1.0]), stage=2, iteration=1))
        assert pool.memo == {}

    def test_json_round_trip(self):
        pool = CutPool(stage=3, state_dim=2, floor=-7.5)
        pool.add(Cut(theta=1.5, beta=np.array([0.5, -2.0]), stage=3, iteration=4, eps_used=0.01))
        d = pool.to_dict()
        assert set(d["cuts"][0]) == {"theta", "beta", "stage", "iter", "eps"}
        back = CutPool.from_dict(d)
        assert back.floor == pool.floor
        assert back.cuts[0].theta == pool.cuts[0].theta
        assert np.array_equal(back.cuts[0].beta, pool.cuts[0].beta)


class TestCutValidityOnToy:
    def test_cuts_below_recourse_and_tight_at_trial_points(self, rng):
        model = toy_det_t3()
        pools = make_pools(model)
        run_iddp(model, EXACT_SCHEDULE, tol=1e-9, max_iter=30, initial_pools=pools)
        for t in (2, 3):
            states = oracle.sample_reachable_states(model, t, 40, seed=5)
            exact_vals = np.array([oracle.exact_recourse(model, t, s) for s in states])
            pool = pools[t]
            cut_vals = states @ pool.beta_matrix().T + pool.thetas()
            assert np.all(cut_vals.max(axis=1) <= exact_vals + 1e-7)
            assert np.all(pool.floor <= exact_vals + 1e-7)

    def test_internal_consistency_replay(self):
        # pool value at the last trial point equals the engine's lower bound
        # recomputed through the stage-1 problem
        from isddp.stage_solver import stage_value_exact

        model = toy_det_t3()
        pools = make_pools(model)
        log = run_iddp(model, EXACT_SCHEDULE, tol=1e-9, max_iter=30, initial_pools=pools)
        lb = stage_value_exact(model.stage(1), model.x0, pools[2])
        assert lb == pytest.approx(log.final_lb)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6), st.floats(-50, 50))
@settings(max_examples=60, deadline=None)
def test_pool_evaluate_is_max(thetas, x):
    pool = CutPool(stage=2, state_dim=1, floor=-1000.0)
    for i, th in enumerate(thetas):
        pool.add(Cut(theta=th, beta=np.array([float(i)]), stage=2, iteration=i))
    val = pool.evaluate(np.array([x]))
    ref = max(th + i * x for i, th in enumerate(thetas))
    assert val == pytest.approx(max(ref, -1000.0), rel=1e-12, abs=1e-9)
