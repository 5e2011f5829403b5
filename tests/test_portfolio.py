import csv

import numpy as np
import pytest

from isddp import oracle
from isddp.lp_core import LinearProgram, SolveStatus, solve_exact
from isddp.models import model_from_json, model_to_json
from isddp.portfolio import (
    PortfolioSpec,
    PortfolioSpecError,
    ReturnModel,
    TransactionCosts,
    generate_instance,
    load_returns_csv,
    sample_synthetic_returns,
    sample_transaction_costs,
)


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

    def test_from_file_needs_path(self):
        with pytest.raises(PortfolioSpecError):
            PortfolioSpec(T=3, n=2, return_model=ReturnModel.FROM_FILE)


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
        assert np.all(rets.stage1 > 0)
        for stage in rets.stages:
            assert stage.shape == (10, 5)
            assert np.all(stage > 0)
            assert np.all(stage[:, -1] == 1.004)

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
        spec = PortfolioSpec(
            T=3, n=2, M=2, seed=0, return_model=ReturnModel.FROM_FILE, returns_path=str(path)
        )
        rets = load_returns_csv(spec)
        assert rets.stage1[:2] == pytest.approx(rows[0])
        assert np.allclose(rets.stages[0][:, :2], rows[1:3])
        assert np.allclose(rets.stages[1][:, :2], rows[3:5])

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "rets.csv"
        write_returns(path, [[1.0, 1.0]] * 3)
        spec = PortfolioSpec(
            T=4, n=2, M=3, seed=0, return_model=ReturnModel.FROM_FILE, returns_path=str(path)
        )
        with pytest.raises(PortfolioSpecError):
            load_returns_csv(spec)


class TestGenerateInstance:
    def test_deterministic_given_seed(self):
        spec = PortfolioSpec(T=6, n=4, M=10, seed=9)
        a = generate_instance(spec)
        b = generate_instance(spec)
        assert model_to_json(a) == model_to_json(b)
        c = model_from_json(model_to_json(a))
        assert model_to_json(c) == model_to_json(a)

    def test_wealth_conserved_degenerate(self, tmp_path):
        path = tmp_path / "ones.csv"
        write_returns(path, [[1.0]] * 3)
        spec = PortfolioSpec(
            T=3, n=1, M=1, seed=2, risk_free_return=0.0,
            return_model=ReturnModel.FROM_FILE, returns_path=str(path),
        )
        zero = TransactionCosts(nu=np.zeros(1), mu_cost=np.zeros(1))
        m = generate_instance(spec, costs=zero)
        assert oracle.extensive_form(m) == pytest.approx(-float(m.x0.sum()), abs=1e-7)

    def test_full_risky_allocation_when_dominant(self, tmp_path):
        path = tmp_path / "growth.csv"
        write_returns(path, [[1.1]] * 3)
        spec = PortfolioSpec(
            T=3, n=1, M=1, seed=2,
            return_model=ReturnModel.FROM_FILE, returns_path=str(path),
        )
        zero = TransactionCosts(nu=np.zeros(1), mu_cost=np.zeros(1))
        m = generate_instance(spec, costs=zero)
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
