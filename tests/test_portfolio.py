import csv
import hashlib
import json

import numpy as np
import pytest

from isddp import oracle, portfolio
from isddp.lp_core import LinearProgram, SolveStatus, solve_exact
from isddp.models import model_from_json, model_to_json
from isddp.portfolio import (
    PortfolioSpec,
    PortfolioSpecError,
    TransactionCosts,
    generate_instance,
    load_returns_csv,
    sample_synthetic_returns,
    sample_transaction_costs,
)
from isddp.schedules import EXACT_SCHEDULE
from isddp.sddp_engine import run_isddp


def write_returns(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in rows:
            w.writerow(row)


class TestSpecValidation:
    def test_rejects_bad_horizon(self):
        with pytest.raises(PortfolioSpecError):
            PortfolioSpec(T=1, n=2)

    def test_rejects_bad_limit(self):
        with pytest.raises(PortfolioSpecError):
            PortfolioSpec(T=3, n=2, u=0.0)


class TestTransactionCosts:
    def test_range(self, rng):
        spec = PortfolioSpec(T=12, n=50, seed=4)
        costs = sample_transaction_costs(spec, rng)
        assert np.all(costs.nu >= 0.02 - 1e-12)
        assert np.all(costs.nu <= 0.14 + 1e-12)
        assert np.array_equal(costs.nu, costs.mu_cost)


class TestSyntheticReturns:
    def test_positive_gross_returns(self):
        spec = PortfolioSpec(T=6, n=4, M=10, seed=1)
        rets = sample_synthetic_returns(spec)
        assert rets.shape == (1 + 5 * 10, 5)
        assert np.all(rets > 0)
        assert np.all(rets[:, -1] == 1.004)

    def test_mean_matches_configured_drift(self):
        # replicate the generator's parameterization for one asset and check
        # the sample mean against the configured drift
        rng = np.random.default_rng(77)
        drift, vol = 0.008, 0.05
        loc = np.log1p(drift) - 0.5 * vol**2
        draws = np.exp(loc + vol * rng.standard_normal(100_000))
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - (1.0 + drift)) <= 3 * se


class TestFromFile:
    def test_passthrough(self, tmp_path):
        path = tmp_path / "rets.csv"
        rows = [[1.01, 0.99]] + [[1.0 + 0.01 * j, 1.0 - 0.005 * j] for j in range(4)]
        write_returns(path, rows)
        spec = PortfolioSpec(T=3, n=2, M=2, seed=0, returns_path=str(path))
        rets = load_returns_csv(spec)
        assert np.array_equal(rets[:, :2], rows)
        assert np.all(rets[:, 2] == 1.004)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "rets.csv"
        write_returns(path, [[1.0, 1.0]] * 3)
        spec = PortfolioSpec(T=4, n=2, M=3, seed=0, returns_path=str(path))
        with pytest.raises(PortfolioSpecError):
            load_returns_csv(spec)

    def test_path_alone_builds_the_stages_from_the_file(self, tmp_path):
        # stage 1 takes row 0, stage t realization j row 1 + (t-2)*M + j;
        # the coupling matrix carries minus the gross returns, cash last
        path = tmp_path / "rets.csv"
        rows = [[1.01, 0.99]] + [[1.0 + 0.01 * j, 1.0 - 0.005 * j] for j in range(4)]
        write_returns(path, rows)
        m = generate_instance(PortfolioSpec(T=3, n=2, M=2, seed=0, returns_path=str(path)))
        assert np.array_equal(-np.diag(m.stage1.B), rows[0] + [1.004])
        for t in (2, 3):
            for j in range(2):
                B = m.stage(t, j).B
                assert np.array_equal(-np.diag(B[:3, :3]), rows[1 + (t - 2) * 2 + j] + [1.004])

    def test_rows_beyond_the_horizon_are_ignored(self, tmp_path):
        # rows 5 and 6 hold the largest returns; they reach neither a stage
        # nor the floors.  The digest pins the generated model byte for byte,
        # in one fixed layout whatever layout the instance files use; the
        # floors in it are -sum(x0) * rho_max**T, compounded once.
        rows = [[1.0 + 0.01 * j, 1.0 - 0.005 * j] for j in range(7)]
        long_path, short_path = tmp_path / "long.csv", tmp_path / "short.csv"
        write_returns(long_path, rows)
        write_returns(short_path, rows[:5])
        text = model_to_json(generate_instance(
            PortfolioSpec(T=3, n=2, M=2, seed=0, returns_path=str(long_path))))
        assert text == model_to_json(generate_instance(
            PortfolioSpec(T=3, n=2, M=2, seed=0, returns_path=str(short_path))))
        fixed = json.dumps(json.loads(text), sort_keys=True, indent=1)
        assert hashlib.sha256(fixed.encode()).hexdigest() == (
            "c07f80aaf53b24f44676e70f6c0a07dcfbe039584d13bf82a171beeba24d8c75"
        )


def _zero_trading_costs(monkeypatch):
    """``generate_instance`` builds its stages with zero transaction costs;
    the sampled costs are still drawn, so the rest of the instance keeps its
    draws."""
    sample = portfolio.sample_transaction_costs

    def zero(spec, rng):
        sample(spec, rng)
        return TransactionCosts(nu=np.zeros(spec.n), mu_cost=np.zeros(spec.n))

    monkeypatch.setattr(portfolio, "sample_transaction_costs", zero)


class TestGenerateInstance:
    def test_deterministic_given_seed(self):
        spec = PortfolioSpec(T=6, n=4, M=10, seed=9)
        a = generate_instance(spec)
        b = generate_instance(spec)
        assert model_to_json(a) == model_to_json(b)
        c = model_from_json(model_to_json(a))
        assert model_to_json(c) == model_to_json(a)

    def test_wealth_conserved_degenerate(self, tmp_path, monkeypatch):
        path = tmp_path / "ones.csv"
        write_returns(path, [[1.0]] * 3)
        spec = PortfolioSpec(
            T=3, n=1, M=1, seed=2, risk_free_return=0.0,
            returns_path=str(path),
        )
        _zero_trading_costs(monkeypatch)
        m = generate_instance(spec)
        assert oracle.extensive_form(m) == pytest.approx(-float(m.x0.sum()), abs=1e-7)

    def test_full_risky_allocation_when_dominant(self, tmp_path, monkeypatch):
        path = tmp_path / "growth.csv"
        write_returns(path, [[1.1]] * 3)
        spec = PortfolioSpec(
            T=3, n=1, M=1, seed=2,
            returns_path=str(path),
        )
        _zero_trading_costs(monkeypatch)
        m = generate_instance(spec)
        x0 = m.x0
        # stage-1 returns apply to the initial split, then everything rides
        # the risky asset at zero cost
        expected = -(1.1 * x0[0] + 1.004 * x0[1]) * 1.1**2
        assert oracle.extensive_form(m) == pytest.approx(expected, rel=1e-9)

    def test_feasibility_probes_at_reachable_states(self):
        # structural recourse: from any reachable state, zero trading and the
        # return-driven holdings are feasible, and the feasible set is bounded
        spec = PortfolioSpec(T=3, n=2, M=2, seed=13)
        m = generate_instance(spec)
        for t in (2, 3):
            states = oracle.sample_reachable_states(m, t, 100, seed=t)
            st = m.stages[t - 2]
            for x in states:
                for r in st.realizations:
                    lp = LinearProgram(
                        cost=r.c,
                        eq_matrix=r.A,
                        eq_rhs=r.b - r.B @ x,
                    )
                    assert solve_exact(lp).status is SolveStatus.OPTIMAL

    def test_floors_below_recourse(self):
        spec = PortfolioSpec(T=3, n=2, M=2, seed=21)
        m = generate_instance(spec)
        for t in (2, 3):
            states = oracle.sample_reachable_states(m, t, 100, seed=100 + t)
            for x in states:
                q = oracle.exact_recourse(m, t, x)
                assert q >= m.floors[t - 2] - 1e-9

    def test_lower_bound_stays_below_the_optimum_when_wealth_shrinks(self, tmp_path):
        # every gross return, cash included, is 0.95, so wealth shrinks at
        # each stage; a floor that compounds rho_max twice lies above v*,
        # and so did the first Lb of an exact run
        path = tmp_path / "shrink.csv"
        write_returns(path, [[0.95]] * 5)
        m = generate_instance(PortfolioSpec(T=3, n=1, M=2, risk_free_return=-0.05,
                                            returns_path=str(path)))
        v_star = oracle.extensive_form(m)
        log = run_isddp(m, EXACT_SCHEDULE, n_paths=2, gap_tol=1e-9, max_iter=10, seed=0)
        assert all(r.lb <= v_star + 1e-9 * max(1.0, abs(v_star)) for r in log.records)
