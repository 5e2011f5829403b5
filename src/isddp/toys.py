"""Desk-scale benchmark instances with hand-checkable structure.

All toys are stock-allocation chains: each stage splits the carried stock
(grown by a factor) plus fresh supply between holding and using, with a cap
on use.  Holding costs money, using earns stage-dependent rewards, so the
cost-to-go functions are piecewise linear with genuine kinks and the
feasible sets are nonempty and bounded for every reachable state.

Stage variables are (hold, use, cap_slack); the state entering stage t is
the full previous decision vector, of which only `hold` couples.
"""

from __future__ import annotations

import numpy as np

from .models import StageModel, StochasticModel, StochasticStageModel


def _stage(growth: float, supply: float, cap: float, hold_cost: float, use_cost: float) -> StageModel:
    # hold + use = growth * hold_prev + supply;  use + slack = cap
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    B = np.array([[-growth, 0.0, 0.0], [0.0, 0.0, 0.0]])
    b = np.array([supply, cap])
    c = np.array([hold_cost, use_cost, 0.0])
    return StageModel(A=A, B=B, b=b, c=c)


def _floors(stages_data: list[tuple[float, float, float, float, float]], h0: float) -> np.ndarray:
    """Certified constant lower bounds on the cost-to-go entering stages 2..T."""
    T = len(stages_data)
    hmax = h0
    hmaxes = []
    for growth, supply, _cap, _hc, _uc in stages_data:
        hmax = growth * hmax + supply
        hmaxes.append(hmax)
    floors = []
    for t in range(2, T + 1):
        worst = 0.0
        for tau in range(t, T + 1):
            _g, _s, cap, hc, uc = stages_data[tau - 1]
            worst += min(0.0, hc) * hmaxes[tau - 1] + min(0.0, uc) * min(cap, hmaxes[tau - 1])
        floors.append(worst - 1.0)
    return np.asarray(floors)


def _chain(stages_data, h0: float) -> StochasticModel:
    stages = [_stage(*d) for d in stages_data]
    # x0 is a full previous decision vector; only its first component couples.
    return StochasticModel.chain(stages, np.array([h0, 0.0, 0.0]), _floors(stages_data, h0))


def toy_det_t2() -> StochasticModel:
    data = [
        (1.0, 2.0, 4.0, 0.05, -0.3),
        (1.1, 1.0, 5.0, 0.2, -1.5),
    ]
    return _chain(data, h0=3.0)


def toy_det_t3() -> StochasticModel:
    data = [
        (1.0, 2.0, 3.0, 0.05, -0.2),
        (1.1, 0.5, 2.0, 0.1, -0.6),
        (1.05, 1.0, 6.0, 0.15, -1.8),
    ]
    return _chain(data, h0=2.0)


def toy_det_t5() -> StochasticModel:
    data = [
        (1.0, 1.0, 2.0, 0.05, -0.2),
        (1.05, 0.8, 1.5, 0.08, -0.4),
        (0.95, 1.2, 1.8, 0.06, -0.9),
        (1.1, 0.5, 2.0, 0.1, -0.5),
        (1.0, 0.7, 5.0, 0.12, -1.6),
    ]
    return _chain(data, h0=1.5)


def toy_sto_t3_m2() -> StochasticModel:
    """T=3 with two supply/reward outcomes per stage (4 scenarios)."""
    stage1 = _stage(1.0, 2.0, 3.0, 0.05, -0.2)
    s2 = StochasticStageModel(
        realizations=[
            _stage(1.1, 0.2, 2.0, 0.1, -0.7),
            _stage(1.1, 1.2, 2.0, 0.1, -0.4),
        ],
        probs=[0.6, 0.4],
    )
    s3 = StochasticStageModel(
        realizations=[
            _stage(1.05, 0.5, 6.0, 0.15, -2.0),
            _stage(1.05, 1.5, 6.0, 0.15, -1.2),
        ],
        probs=[0.5, 0.5],
    )
    # Floors from the worst-case (largest supply/reward) envelope.
    worst = [
        (1.0, 2.0, 3.0, 0.05, -0.2),
        (1.1, 1.2, 2.0, 0.1, -0.7),
        (1.05, 1.5, 6.0, 0.15, -2.0),
    ]
    return StochasticModel(
        stage1=stage1,
        stages=[s2, s3],
        x0=np.array([2.0, 0.0, 0.0]),
        floors=_floors(worst, h0=2.0),
    )


def toy_sto_t4_m3() -> StochasticModel:
    """T=4 with three supply outcomes per stage (27 scenarios), skewed probabilities.

    Randomness enters through the supply only and the data is kept on a
    coarse grid: the stage duals then have well-separated vertex values, so
    shrinking error budgets settle on exact cuts after moderately many
    iterations.
    """
    stage1 = _stage(1.0, 1.5, 2.0, 0.05, -0.2)

    def tri(growth, supplies, cap, hc, uc, probs):
        return StochasticStageModel(
            realizations=[_stage(growth, s, cap, hc, uc) for s in supplies],
            probs=probs,
        )

    s2 = tri(1.25, (0.25, 1.0, 1.75), 1.5, 0.1, -0.5, (0.5, 0.3, 0.2))
    s3 = tri(0.75, (0.5, 1.0, 1.5), 2.0, 0.1, -1.0, (0.25, 0.5, 0.25))
    s4 = tri(1.0, (0.5, 1.0, 1.5), 6.0, 0.1, -2.0, (0.3, 0.4, 0.3))
    worst = [
        (1.0, 1.5, 2.0, 0.05, -0.2),
        (1.25, 1.75, 1.5, 0.1, -0.5),
        (0.75, 1.5, 2.0, 0.1, -1.0),
        (1.0, 1.5, 6.0, 0.1, -2.0),
    ]
    return StochasticModel(
        stage1=stage1,
        stages=[s2, s3, s4],
        x0=np.array([1.5, 0.0, 0.0]),
        floors=_floors(worst, h0=1.5),
    )


TOYS = {
    "det_t2": toy_det_t2,
    "det_t3": toy_det_t3,
    "det_t5": toy_det_t5,
    "sto_t3_m2": toy_sto_t3_m2,
    "sto_t4_m3": toy_sto_t4_m3,
}
