"""Affine minorants of cost-to-go functions and their pools.

A cut is an affine lower bound ``theta + beta . x`` on a stage's expected
cost-to-go, built from one dual certificate per realization of the stage;
``build_stage_cuts`` builds the cuts of many trial points of a stage at
once from their stacked certificates.  A pool is the running outer
approximation: the max of all cuts collected so far and a constant floor.
When a pool enters a stage LP the floor is encoded as cut row 0 (beta = 0,
theta = floor) so that the dual weight vector covers it uniformly; the pool
keeps its rows in that floor-first layout as read-only arrays, which stage
LPs alias.

A pool answers ``cut in pool`` for a bitwise copy of a cut it holds, so that
callers store each cut once.  It also carries ``memo``, the one cache of
stage solves: a dict in which the stage solver keeps solves against the
pool's current contents; ``add`` clears it, and nothing else does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .lp_core import DualCertificate
from .models import StochasticStageModel


class CutDimensionError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Cut:
    """Immutable affine minorant created at one (stage, iteration)."""

    theta: float
    beta: np.ndarray
    stage: int
    iteration: int
    eps_used: float = 0.0  # the gap certified at its trial point

    def value(self, x: np.ndarray) -> float:
        return float(self.theta + self.beta @ x)

    def to_dict(self) -> dict:
        return {
            "theta": float(self.theta),
            "beta": [float(v) for v in self.beta],
            "stage": int(self.stage),
            "iter": int(self.iteration),
            "eps": float(self.eps_used),
        }

    @staticmethod
    def from_dict(d: dict) -> "Cut":
        return Cut(
            theta=float(d["theta"]),
            beta=np.asarray(d["beta"], dtype=float),
            stage=int(d["stage"]),
            iteration=int(d["iter"]),
            eps_used=float(d["eps"]),
        )


def _cut_key(cut: Cut) -> tuple[bytes, bytes]:
    return np.float64(cut.theta).tobytes(), cut.beta.tobytes()


class CutPool:
    """Ordered cut collection with a constant floor; evaluates as their max.

    ``memo`` holds results of stage solves against this pool, which depend
    only on the stage, the trial point and the pool's contents: each forward
    solve with its evaluated vertex trail (the lower bound is one of them),
    each backward dual's trimmed kernel result, and the optimal bases of the
    stage LPs and of the explicit duals solved against it; ``add`` replaces
    it with an empty dict.
    """

    def __init__(
        self,
        stage: int,
        state_dim: int,
        floor: float,
        cuts: Iterable[Cut] = (),
    ):
        self.stage = stage
        self.state_dim = state_dim
        self.floor = float(floor)
        self._cuts: list[Cut] = []
        self._keys: set[tuple[bytes, bytes]] = set()
        self._rows: Optional[tuple[np.ndarray, np.ndarray]] = None
        self.memo: dict = {}
        for cut in cuts:
            self.add(cut)

    def __len__(self) -> int:
        return len(self._cuts)

    def __contains__(self, cut: Cut) -> bool:
        """Whether the pool holds a cut with bitwise the same theta and beta."""
        return _cut_key(cut) in self._keys

    @property
    def cuts(self) -> tuple[Cut, ...]:
        return tuple(self._cuts)

    def add(self, cut: Cut) -> None:
        if cut.beta.shape != (self.state_dim,):
            raise CutDimensionError(
                f"cut beta has shape {cut.beta.shape}, pool expects "
                f"({self.state_dim},)"
            )
        self._cuts.append(cut)
        self._keys.add(_cut_key(cut))
        self._rows = None
        self.memo = {}

    def _floor_first(self) -> tuple[np.ndarray, np.ndarray]:
        """(betas, thetas) with the floor as row 0, rebuilt after an ``add``."""
        if self._rows is None:
            betas = np.vstack([np.zeros(self.state_dim)] + [c.beta for c in self._cuts])
            thetas = np.array([self.floor] + [c.theta for c in self._cuts], dtype=float)
            betas.flags.writeable = False
            thetas.flags.writeable = False
            self._rows = betas, thetas
        return self._rows

    def betas_with_floor(self) -> np.ndarray:
        """Cut slopes, floor first: shape (K + 1, state_dim), read-only."""
        return self._floor_first()[0]

    def thetas_with_floor(self) -> np.ndarray:
        """Cut intercepts, floor first: shape (K + 1,), read-only."""
        return self._floor_first()[1]

    def beta_matrix(self) -> np.ndarray:
        return self.betas_with_floor()[1:]

    def thetas(self) -> np.ndarray:
        return self.thetas_with_floor()[1:]

    def evaluate(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.state_dim,):
            raise CutDimensionError(
                f"state has shape {x.shape}, pool expects ({self.state_dim},)"
            )
        if not self._cuts:
            return self.floor
        return float(max(self.floor, np.max(self.thetas() + self.beta_matrix() @ x)))

    def evaluate_many(self, states: np.ndarray) -> np.ndarray:
        """Pool value at each row of ``states``; shape (P, state_dim) -> (P,)."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if not self._cuts:
            return np.full(states.shape[0], self.floor)
        vals = states @ self.beta_matrix().T + self.thetas()
        return np.maximum(self.floor, vals.max(axis=1))

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "state_dim": self.state_dim,
            "floor": self.floor,
            "cuts": [c.to_dict() for c in self._cuts],
        }

    @staticmethod
    def from_dict(d: dict) -> "CutPool":
        return CutPool(
            stage=int(d["stage"]),
            state_dim=int(d["state_dim"]),
            floor=float(d["floor"]),
            cuts=[Cut.from_dict(c) for c in d["cuts"]],
        )


def stack_certificates(
    rows: Sequence[Sequence[DualCertificate]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``lam`` (D, R, m), ``mu`` (D, R, K + 1) and ``eps_certified`` (D, R)
    of D rows of R certificates each, as ``build_stage_cuts`` reads them."""
    try:
        lam = np.array([[c.lam for c in row] for row in rows], dtype=float)
        mu = np.array([[c.mu for c in row] for row in rows], dtype=float)
    except ValueError as exc:  # ragged: certificates of different shapes
        raise CutDimensionError(f"dual certificates differ in shape: {exc}") from None
    eps = np.array([[c.eps_certified for c in row] for row in rows], dtype=float)
    return lam, mu, eps


def build_stage_cuts(
    realizations: StochasticStageModel,
    lam: np.ndarray,
    mu: np.ndarray,
    eps_certified: np.ndarray,
    next_pool_thetas: np.ndarray,
    *,
    stage: int = 0,
    iteration: int = 0,
) -> list[Cut]:
    """Probability-weighted cuts of a stage at D trial points, one per point.

    ``realizations`` is the stage being cut.  Row d of ``lam`` (D, R, m),
    ``mu`` (D, R, K + 1) and ``eps_certified`` (D, R) holds the certificates
    at point d, one per realization in its order (``stack_certificates``);
    ``mu`` carries one weight per entry of ``next_pool_thetas`` (the next
    pool's intercepts, floor first), in the same order.  The cut at point d
    has intercept ``sum_j p_j (<b_j, lam_dj> + <mu_dj, next_pool_thetas>)``,
    slope ``-sum_j p_j B_j.T lam_dj`` and ``eps_used`` its certified gap at
    the point, ``sum_j p_j eps_dj``.  The sums over j run in realization
    order and every inner product is taken within its own point, so a
    point's cut is bit for bit the same whatever points it is built with.
    The last stage's next pool is the zero pool T+1 (``build_terminal_cut``).
    """
    next_pool_thetas = np.asarray(next_pool_thetas, dtype=float)
    coefficients = realizations.rhs_and_coupling  # (R, m, 1 + n): [b_j, -B_j]
    R, m = coefficients.shape[:2]
    if lam.shape[1:2] != (R,):
        raise CutDimensionError(
            f"{R} realizations but {lam.shape[1] if lam.ndim > 1 else 0} "
            f"dual certificates"
        )
    if lam.shape[2:] != (m,):
        raise CutDimensionError("dual lam does not match realization rows")
    if mu.shape != lam.shape[:2] + next_pool_thetas.shape:
        raise CutDimensionError(
            f"dual mu has shape {mu.shape[2:]}, next pool has "
            f"{next_pool_thetas.shape} intercepts"
        )
    if eps_certified.shape != lam.shape[:2]:
        raise CutDimensionError(
            f"eps_certified has shape {eps_certified.shape}, expected {lam.shape[:2]}"
        )
    # per point and realization: [<b_j, lam> + <mu, thetas>, -B_j' lam, eps];
    # each product is one matmul per point (and realization) whose shape does
    # not depend on D, so no point's bits depend on the others
    terms = (lam[:, :, None, :] @ coefficients)[:, :, 0]
    terms[..., 0] += mu @ next_pool_thetas
    terms = np.concatenate([terms, eps_certified[..., None]], axis=2)
    # a reduction over a middle axis adds its rows in order, from the initial zero
    total = np.add.reduce(realizations.probs[:, None] * terms, axis=1, initial=0.0)
    return [
        Cut(theta=row[0], beta=beta, stage=stage, iteration=iteration, eps_used=row[-1])
        for row, beta in zip(total.tolist(), total[:, 1:-1])
    ]


def build_middle_cut(
    realizations: StochasticStageModel,
    duals: Sequence[DualCertificate],
    next_pool_thetas: np.ndarray,
    *,
    stage: int = 0,
    iteration: int = 0,
) -> Cut:
    """The cut of ``build_stage_cuts`` at one trial point.

    ``duals`` holds one certificate per realization, in its order.
    """
    return build_stage_cuts(
        realizations, *stack_certificates([duals]), next_pool_thetas,
        stage=stage, iteration=iteration,
    )[0]


def build_terminal_cut(
    realizations: StochasticStageModel,
    duals: Sequence[DualCertificate],
    **tags,
) -> Cut:
    """Cut of the last stage: ``build_middle_cut`` against a zero next pool.

    The cost-to-go after the horizon is zero, so every intercept of that
    pool is zero; it has as many rows as the certificates' ``mu`` (one, the
    floor, for a stage LP; none for an LP without epigraph).  ``tags`` are
    ``build_middle_cut``'s ``stage`` and ``iteration``.
    """
    zero_pool = np.zeros(len(duals[0].mu) if duals else 0)
    return build_middle_cut(realizations, duals, zero_pool, **tags)
