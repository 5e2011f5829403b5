"""Benchmark generator: multistage portfolio rebalancing with direct
transaction costs, cast into the coupled stage-LP form.

Stage variables are holdings x(1..n+1) (assets then cash), buys b(1..n),
sells s(1..n), and one slack per position limit.  Dynamics apply gross
returns to the previous holdings, buys/sells move wealth between assets and
cash at proportional cost, and each asset is capped at a fraction u of
current total wealth.  The objective minimizes the mean loss, i.e. the
negative expected final wealth.

Returns are synthetic seeded lognormal draws by default (drift and
volatility per asset), or read from a CSV of realizations.  Either way they
are one ``(1 + (T-1)*M, n+1)`` array of gross returns laid out as the CSV:
row 0 is stage 1's, then M rows per stage 2..T, with the cash column last.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import StageModel, StochasticModel, StochasticStageModel


class PortfolioSpecError(ValueError):
    pass


@dataclass(frozen=True)
class PortfolioSpec:
    """One benchmark instance: T stages, n risky assets plus cash, M return
    realizations per stage 2..T and a position limit u.

    ``returns_path`` names a CSV of return realizations (``load_returns_csv``);
    without one the returns are synthetic draws from ``seed``.  The seed
    draws the transaction costs and the initial holdings in both cases.
    """

    T: int
    n: int
    M: int = 10
    risk_free_return: float = 0.004
    u: float = 1.0
    seed: int = 0
    returns_path: Optional[str] = None

    def __post_init__(self):
        if self.T < 2 or self.n < 1 or self.M < 1:
            raise PortfolioSpecError("need T >= 2, n >= 1, M >= 1")
        if not (0.0 < self.u <= 1.0):
            raise PortfolioSpecError("position limit u must lie in (0, 1]")
        # the cash column is a gross return 1 + r, held to the rule of
        # load_returns_csv: finite and >= 0
        if not (-1.0 <= self.risk_free_return < math.inf):
            raise PortfolioSpecError(
                f"--risk-free {self.risk_free_return!r}: the gross cash return 1 + r "
                "must be finite and >= 0, so r must be finite and >= -1"
            )


@dataclass(frozen=True)
class TransactionCosts:
    """Proportional buy (nu) and sell (mu_cost) costs per asset; equal here."""

    nu: np.ndarray
    mu_cost: np.ndarray


def sample_transaction_costs(spec: PortfolioSpec, rng: np.random.Generator) -> TransactionCosts:
    # 0.08 + 0.06 cos(2 pi U / T), U uniform on {1..T}: entries in [0.02, 0.14].
    u_draw = rng.integers(1, spec.T + 1, size=spec.n)
    costs = 0.08 + 0.06 * np.cos(2.0 * np.pi * u_draw / spec.T)
    return TransactionCosts(nu=costs.copy(), mu_cost=costs.copy())


def sample_synthetic_returns(spec: PortfolioSpec, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Seeded lognormal gross returns with per-asset drift and volatility.

    Drifts are uniform in [0.2%, 1.2%] monthly, volatilities in [3%, 8%];
    the lognormal location is set so the mean gross return is exactly
    1 + drift.  The cash return is fixed.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    drift = rng.uniform(0.002, 0.012, size=spec.n)
    vol = rng.uniform(0.03, 0.08, size=spec.n)
    loc = np.log1p(drift) - 0.5 * vol**2
    z = rng.standard_normal(size=(1 + (spec.T - 1) * spec.M, spec.n))
    gross = np.exp(loc + vol * z)
    return np.column_stack([gross, np.full(len(gross), 1.0 + spec.risk_free_return)])


def load_returns_csv(spec: PortfolioSpec) -> np.ndarray:
    """CSV rows are realizations (columns = risky assets, no header).

    Row 0 is the deterministic stage-1 return vector; rows 1..M cover stage
    2, the next M rows stage 3, and so on; rows beyond those are ignored.
    Every row holds n finite gross returns >= 0: a negative one leaves the
    instance without complete recourse, and the floors compound the largest.
    The cash return column is appended from ``spec.risk_free_return``.
    """
    path = spec.returns_path
    rows = []
    with open(path) as fh:
        for i, row in enumerate(csv.reader(fh), start=1):
            if not any(row):
                continue
            if len(row) != spec.n:
                raise PortfolioSpecError(
                    f"{path}, row {i}: {len(row)} entries, expected n={spec.n}"
                )
            for j, v in enumerate(row, start=1):
                try:
                    if 0.0 <= float(v) < math.inf:
                        continue
                except ValueError:
                    pass
                raise PortfolioSpecError(
                    f"{path}, row {i}, column {j}: {v!r} is not a finite gross return >= 0"
                )
            rows.append([float(v) for v in row])
    need = 1 + (spec.T - 1) * spec.M
    if len(rows) < need:
        raise PortfolioSpecError(
            f"returns file has {len(rows)} rows, need {need} for T={spec.T}, M={spec.M}"
        )
    mat = np.asarray(rows[:need], dtype=float)
    return np.column_stack([mat, np.full(need, 1.0 + spec.risk_free_return)])


def _stage_matrices(
    returns: np.ndarray,
    costs: TransactionCosts,
    u: float,
    state_dim: int,
    terminal: bool,
) -> StageModel:
    """One stage LP block for a single return realization.

    Variable order: holdings (n+1), buys (n), sells (n), limit slacks (n).
    Rows: n risky dynamics, 1 cash dynamics, n position limits.
    ``state_dim`` is n+1 (stage 1: holdings only) or the full previous
    variable count; coupling always hits the leading n+1 state components.
    """
    n = costs.nu.shape[0]
    var_dim = (n + 1) + n + n + n
    num_eq = (n + 1) + n
    A = np.zeros((num_eq, var_dim))
    B = np.zeros((num_eq, state_dim))
    b = np.zeros(num_eq)
    ih, ibuy, isell, iw = 0, n + 1, 2 * n + 1, 3 * n + 1
    # risky dynamics: x_i - buy_i + sell_i = xi_i * prev_i
    for i in range(n):
        A[i, ih + i] = 1.0
        A[i, ibuy + i] = -1.0
        A[i, isell + i] = 1.0
        B[i, i] = -returns[i]
    # cash: x_cash + sum (1+nu) buy - sum (1-mu) sell = xi_cash * prev_cash
    r = n
    A[r, ih + n] = 1.0
    A[r, ibuy : ibuy + n] = 1.0 + costs.nu
    A[r, isell : isell + n] = -(1.0 - costs.mu_cost)
    B[r, n] = -returns[n]
    # position limits: x_i - u * sum_j x_j + w_i = 0
    for i in range(n):
        r = n + 1 + i
        A[r, ih : ih + n + 1] = -u
        A[r, ih + i] += 1.0
        A[r, iw + i] = 1.0
    c = np.zeros(var_dim)
    if terminal:
        c[ih : ih + n + 1] = -1.0
    return StageModel(A=A, B=B, b=b, c=c)


def generate_instance(spec: PortfolioSpec) -> StochasticModel:
    """Deterministic construction of the benchmark instance from its spec."""
    rng = np.random.default_rng(spec.seed)
    costs = sample_transaction_costs(spec, rng)
    x0 = rng.uniform(0.0, 10.0, size=spec.n + 1)
    if spec.returns_path is None:
        returns = sample_synthetic_returns(spec, rng)
    else:
        returns = load_returns_csv(spec)

    n, T, M = spec.n, spec.T, spec.M
    var_dim = 4 * n + 1
    stage1 = _stage_matrices(returns[0], costs, spec.u, state_dim=n + 1, terminal=(T == 1))
    stages = []
    for t in range(2, T + 1):
        mats = [
            _stage_matrices(
                returns[1 + (t - 2) * M + j], costs, spec.u,
                state_dim=var_dim, terminal=(t == T),
            )
            for j in range(M)
        ]
        stages.append(
            StochasticStageModel(realizations=mats, probs=np.full(M, 1.0 / M))
        )

    # Floors: the cost-to-go entering stage t is at least the negative of the
    # largest wealth reachable anywhere in the horizon, compounded to T.
    rho_max = float(returns.max())
    w_max = float(x0.sum()) * rho_max**T
    floors = np.array([-(rho_max ** (T - t + 1)) * w_max for t in range(2, T + 1)])
    return StochasticModel(stage1=stage1, stages=stages, x0=x0, floors=floors)
