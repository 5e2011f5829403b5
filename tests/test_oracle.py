import hashlib

import numpy as np
import pytest

from isddp import oracle
from isddp.cli import EXIT_GUARD, main
from isddp.models import StageModel, StochasticModel, StochasticStageModel, save_model
from isddp.oracle import (
    OracleGuardError,
    _assemble_tree_lp,
    exact_recourse,
    extensive_form,
    sample_reachable_states,
)
from isddp.toys import TOYS, toy_det_t3, toy_sto_t3_m2, toy_sto_t4_m3


def big_tree():
    # 120 realizations at each of stages 2 and 3: past the guard from stage 1 or 2
    base = toy_sto_t3_m2()
    st = base.stages[0]
    many = StochasticStageModel(
        realizations=st.realizations * 60, probs=np.full(120, 1.0 / 120)
    )
    return StochasticModel(
        stage1=base.stage1,
        stages=[many, many],
        x0=base.x0,
        floors=base.floors,
    )


def single_stage_model(c=3.0):
    # T=1: min c*x s.t. x = 1
    stage = StageModel(A=[[1.0]], B=[[0.0]], b=[1.0], c=[c])
    return StochasticModel.chain([stage], x0=np.array([0.0]), floors=np.zeros(0))


class TestExtensiveForm:
    def test_single_stage(self):
        assert extensive_form(single_stage_model(c=3.0)) == pytest.approx(3.0)

    def test_two_scenario_hand_enumeration(self):
        # stage1: pass x through (x = 2); stage2: y >= x scaled by random cost
        stage1 = StageModel(A=[[1.0, 0.0], [0.0, 1.0]], B=np.zeros((2, 1)), b=[2.0, 0.0], c=[0.0, 0.0])
        # realization j: min c_j*y s.t. y - s = x  (y >= x), cost 1 or 3
        def real(cj):
            return StageModel(A=[[1.0, -1.0]], B=[[-1.0, 0.0]], b=[0.0], c=[cj, 0.0])
        st2 = StochasticStageModel(realizations=[real(1.0), real(3.0)], probs=[0.25, 0.75])
        m = StochasticModel(stage1=stage1, stages=[st2], x0=np.array([0.0]), floors=np.array([0.0]))
        # by hand: y = x = 2 in both scenarios; E[cost] = 2*(0.25*1 + 0.75*3) = 5
        assert extensive_form(m) == pytest.approx(5.0)

    def test_matches_recourse_through_stage_one(self):
        for name in ("det_t3", "sto_t3_m2"):
            m = TOYS[name]()
            assert extensive_form(m) == pytest.approx(
                exact_recourse(m, 1, m.x0), abs=1e-7
            )

    def test_size_guard(self):
        with pytest.raises(OracleGuardError):
            extensive_form(big_tree())

    def test_size_guard_below_stage_one(self, tmp_path, capsys):
        # the subtree rooted at stage 2 is counted from that stage's level
        big = big_tree()
        x = np.ones(big.stage1.var_dim)
        with pytest.raises(OracleGuardError, match="scenario-tree LP is"):
            exact_recourse(big, 2, x)
        path = str(tmp_path / "big.json")
        save_model(big, path)
        rc = main(["oracle", "--instance", path, "--stage", "2",
                   "--state", ",".join(str(v) for v in x)])
        assert rc == EXIT_GUARD
        assert "oracle guard: scenario-tree LP is" in capsys.readouterr().err

    def test_size_guard_counts_the_matrix_its_signed_copy_and_the_tableau(self, monkeypatch):
        # the sto_t3_m2 tree is 14 x 21: a solve holds its matrix, the crash's
        # signed copy and the (14 + 2) x (21 + 1) tableau, 940 cells, more
        # than the 504 of a tableau with one artificial column per row
        m = toy_sto_t3_m2()
        monkeypatch.setattr(oracle, "TABLEAU_CELL_GUARD", 504)
        with pytest.raises(OracleGuardError, match="need 940 dense cells"):
            extensive_form(m)
        monkeypatch.setattr(oracle, "TABLEAU_CELL_GUARD", 940)
        assert extensive_form(m) == pytest.approx(exact_recourse(m, 1, m.x0))

    @pytest.mark.parametrize("t, digest", [
        (1, "c5ed8ce61b51c002fba940a7839fa0846553b87f38ff5d09e8fc04b8b67926b1"),
        (2, "3ab62c4b0ee073849a9bfa61d1ffeec67d30c3b8b5e31a924ca77662448dc860"),
    ])
    def test_tree_lp_bytes_are_pinned(self, t, digest):
        # node order, offsets, path probabilities and the root's b - B x
        # fix every byte of the tree LP
        m = toy_sto_t4_m3()
        x = m.x0 if t == 1 else np.ones(m.stage1.var_dim)
        lp = _assemble_tree_lp(m, t, x)
        h = hashlib.sha256()
        for a in (lp.cost, lp.eq_matrix, lp.eq_rhs):
            h.update(a.tobytes())
        assert h.hexdigest() == digest


class TestExactRecourse:
    def test_beyond_horizon_is_zero(self):
        m = toy_det_t3()
        assert exact_recourse(m, 4, np.zeros(3)) == 0.0

    def test_beyond_horizon_checks_the_state_length(self):
        # the state entering stage T + 1 is stage T's decision, of length 3
        m = toy_det_t3()
        for x in (np.zeros(1), np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(ValueError, match=r"stage 4 takes a state of length 3"):
                exact_recourse(m, 4, x)

    def test_ramp_value(self):
        # terminal value max(x, 0) evaluated at 2
        stage1 = StageModel(A=[[1.0, 0.0], [0.0, 1.0]], B=np.zeros((2, 1)), b=[2.0, 0.0], c=[0.0, 0.0])
        st2 = StochasticStageModel(
            realizations=[StageModel(A=[[1.0, -1.0]], B=[[-1.0, 0.0]], b=[0.0], c=[1.0, 0.0])],
            probs=[1.0],
        )
        m = StochasticModel(stage1=stage1, stages=[st2], x0=np.array([0.0]), floors=np.array([0.0]))
        assert exact_recourse(m, 2, np.array([2.0, 0.0])) == pytest.approx(2.0)

    def test_expectation_unrolled_above_leaves(self):
        m = toy_sto_t3_m2()
        states = sample_reachable_states(m, 3, 5, seed=3)
        st = m.stages[1]
        for x in states:
            parts = []
            for r, p in zip(st.realizations, st.probs):
                single = StochasticModel(
                    stage1=StageModel(A=r.A, B=r.B, b=r.b, c=r.c),
                    stages=[],
                    x0=x,
                    floors=np.zeros(0),
                )
                parts.append(p * extensive_form(single))
            assert exact_recourse(m, 3, x) == pytest.approx(sum(parts), abs=1e-7)

    def test_convex_along_segments(self, rng):
        m = toy_sto_t3_m2()
        states = sample_reachable_states(m, 2, 12, seed=9)
        for _ in range(20):
            i, j = rng.integers(len(states), size=2)
            a, b = states[i], states[j]
            qa = exact_recourse(m, 2, a)
            qb = exact_recourse(m, 2, b)
            qm = exact_recourse(m, 2, 0.5 * (a + b))
            assert qm <= 0.5 * (qa + qb) + 1e-7


class TestReachableStates:
    def test_states_are_feasible_and_varied(self):
        m = toy_det_t3()
        states = sample_reachable_states(m, 3, 25, seed=1)
        assert states.shape == (25, 3)
        assert np.all(states >= -1e-9)
        assert len(np.unique(states.round(6), axis=0)) > 1
