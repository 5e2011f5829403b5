"""The oracle, lower bounds and cuts, checked against HiGHS.

The reference optima come from ``perfbench/reference.py``: a sparse
extensive form and single stage LPs solved by HiGHS, sharing no code with
the program's simplex kernel or its tree assembly.  The trees are small
enough (at most 625 leaves) to solve in well under a second each.
"""

import functools
import itertools
import os

import pytest

from isddp import sddp_engine
from isddp.cli import PRESETS
from isddp.oracle import extensive_form
from isddp.portfolio import PortfolioSpec, generate_instance
from isddp.sddp_engine import iterate, make_pools
from isddp.stage_solver import stage_lp
from isddp.toys import TOYS

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
PATHS, SEED = 5, 9


@pytest.fixture
def reference(monkeypatch):
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(PERFBENCH)
    import reference

    return reference


def _rel(v: float) -> float:
    return 1e-9 * max(1.0, abs(v))


def _portfolio(u: float):
    return generate_instance(PortfolioSpec(T=4, n=3, M=3, u=u, seed=0))


ORACLE_CASES = {**TOYS, **{f"portfolio-u{u}": functools.partial(_portfolio, u)
                           for u in (1.0, 0.3)}}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_oracle_matches_the_highs_optimum(reference, name):
    model = ORACLE_CASES[name]()
    v_star = reference.highs_optimum(model.to_dict())
    assert abs(extensive_form(model) - v_star) <= _rel(v_star)


@pytest.mark.parametrize("u", [1.0, 0.3])
@pytest.mark.parametrize("T, M", [(4, 5), (5, 4)])
def test_lb_is_monotone_and_below_the_highs_optimum(reference, T, M, u):
    model = generate_instance(PortfolioSpec(T=T, n=3, M=M, u=u, seed=0))
    v_star = reference.highs_optimum(model.to_dict())
    for preset in ("sddp", "isddp1", "isddp3"):
        records = iterate(model, PRESETS[preset], PATHS, SEED, make_pools(model))
        lbs = [r.lb for r in itertools.islice(records, 10)]
        assert max(lbs) <= v_star + _rel(v_star), preset
        assert all(a <= b for a, b in zip(lbs, lbs[1:])), preset


@pytest.mark.parametrize("u", [1.0, 0.3])
@pytest.mark.parametrize("preset", ["sddp", "isddp1"])
def test_every_new_cut_is_below_the_stage_value_within_its_eps(reference, monkeypatch,
                                                               preset, u):
    # pool t+1 does not change between the end of a backward pass and the
    # next one, so each cut is checked against the pool it was built on
    model = generate_instance(PortfolioSpec(T=4, n=3, M=5, u=u, seed=0))
    T = model.horizon
    backward = sddp_engine.backward_pass_sddp
    checked = []

    def check_cuts(model, pools, trajectories, epsilons, **kw):
        result = backward(model, pools, trajectories, epsilons, **kw)
        where = [(t, p) for t in range(T, 1, -1) for p in range(len(trajectories))]
        assert len(result.new_cuts) == len(where)
        for (t, p), cut in zip(where, result.new_cuts):
            x = trajectories[p][t - 2]
            st = model.stages[t - 2]
            value = sum(
                float(prob) * reference.stage_lp_optimum(stage_lp(r, x, pools[t + 1]))
                for r, prob in zip(st.realizations, st.probs)
            )
            gap = value - cut.value(x)
            assert -_rel(value) <= gap <= cut.eps_used + _rel(value), (t, p)
            checked.append(cut)
        return result

    monkeypatch.setattr(sddp_engine, "backward_pass_sddp", check_cuts)
    list(itertools.islice(iterate(model, PRESETS[preset], PATHS, SEED, make_pools(model)), 2))
    assert len(checked) == 2 * PATHS * (T - 1)
