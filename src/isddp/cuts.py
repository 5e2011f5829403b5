"""Affine minorants of cost-to-go functions and their pools.

A cut is an affine lower bound ``theta + beta . x`` on a stage's expected
cost-to-go.  A pool is the running outer approximation: the max of all cuts
collected so far and a constant floor.  When a pool enters a stage LP the
floor is encoded as cut row 0 (beta = 0, theta = floor) so that the dual
weight vector covers it uniformly; the pool keeps its rows in that
floor-first layout as read-only arrays, which stage LPs alias.

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


class CutDimensionError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Cut:
    """Immutable affine minorant created at one (stage, iteration)."""

    theta: float
    beta: np.ndarray
    stage: int
    iteration: int
    eps_used: float = 0.0

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
    solve with its evaluated vertex trail (the lower bound is one of them)
    and each backward dual's trimmed kernel result; ``add`` replaces it
    with an empty dict.
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


def _check_realizations(
    realizations: Sequence[tuple[np.ndarray, np.ndarray, float]],
    duals: Sequence[DualCertificate],
) -> None:
    if len(realizations) != len(duals):
        raise CutDimensionError(
            f"{len(realizations)} realizations but {len(duals)} dual certificates"
        )
    total = sum(p for _, _, p in realizations)
    if abs(total - 1.0) > 1e-9:
        raise CutDimensionError(f"realization probabilities sum to {total}, not 1")


def build_middle_cut(
    realizations: Sequence[tuple[np.ndarray, np.ndarray, float]],
    duals: Sequence[DualCertificate],
    next_pool_thetas: np.ndarray,
    *,
    stage: int = 0,
    iteration: int = 0,
    eps_used: float = 0.0,
) -> Cut:
    """Probability-weighted cut of a stage from its realizations' certificates.

    Each realization is a ``(b, B, prob)`` triple paired with a dual
    certificate of the corresponding subproblem, whose ``mu`` carries one
    weight per entry of ``next_pool_thetas`` (the next pool's intercepts,
    floor first), in the same order.  The aggregated intercept is
    ``sum_j p_j (<b_j, lam_j> + <mu_j, next_pool_thetas>)`` and the slope
    ``-sum_j p_j B_j.T lam_j``.  The last stage's next pool is the zero pool
    T+1 (``build_terminal_cut``).
    """
    _check_realizations(realizations, duals)
    next_pool_thetas = np.asarray(next_pool_thetas, dtype=float)
    state_dim = np.asarray(realizations[0][1]).shape[1]
    theta = 0.0
    beta = np.zeros(state_dim)
    for (b, B, prob), cert in zip(realizations, duals):
        b = np.asarray(b, dtype=float)
        B = np.asarray(B, dtype=float)
        if B.shape[1] != state_dim or b.shape[0] != B.shape[0]:
            raise CutDimensionError("inconsistent realization dimensions")
        if cert.lam.shape != (b.shape[0],):
            raise CutDimensionError("dual lam does not match realization rows")
        if cert.mu.shape != next_pool_thetas.shape:
            raise CutDimensionError(
                f"dual mu has shape {cert.mu.shape}, next pool has "
                f"{next_pool_thetas.shape} intercepts"
            )
        theta += prob * (float(b @ cert.lam) + float(cert.mu @ next_pool_thetas))
        beta -= prob * (B.T @ cert.lam)
    return Cut(theta=theta, beta=beta, stage=stage, iteration=iteration, eps_used=eps_used)


def build_terminal_cut(
    realizations: Sequence[tuple[np.ndarray, np.ndarray, float]],
    duals: Sequence[DualCertificate],
    **tags,
) -> Cut:
    """Cut of the last stage: ``build_middle_cut`` against a zero next pool.

    The cost-to-go after the horizon is zero, so every intercept of that
    pool is zero; it has as many rows as the certificates' ``mu`` (one, the
    floor, for a stage LP; none for an LP without epigraph).  ``tags`` are
    ``build_middle_cut``'s ``stage``, ``iteration`` and ``eps_used``.
    """
    zero_pool = np.zeros(len(duals[0].mu) if duals else 0)
    return build_middle_cut(realizations, duals, zero_pool, **tags)
