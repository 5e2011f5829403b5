"""Stage data of multistage LPs, their JSON files, and run logs.

A stage couples to its predecessor through ``A @ x_t + B @ x_prev == b`` with
``x_t >= 0``; states are the full previous decision vectors.  Stages 2..T
carry a finite realization list with probabilities (stagewise independent:
no cross-stage coupling is stored anywhere).  There is one model type,
``StochasticModel``: a deterministic chain is the case of one realization
per stage (``StochasticModel.chain``, ``StochasticModel.deterministic``).
Files of ``"type": "deterministic"`` (a plain list of stages) are read into
that case; every model is written as ``"type": "stochastic"``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class ModelError(ValueError):
    pass


def _arr(v, dtype=float) -> np.ndarray:
    return np.asarray(v, dtype=dtype)


@dataclass(eq=False)
class StageModel:
    """One stage's data, hashed by identity: solve memos key on the stage.

    Its LP at a state is ``A x = rhs(state)``, ``x >= 0``, with cost ``c``.
    """

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(_arr(self.A))
        self.B = np.atleast_2d(_arr(self.B))
        self.b = _arr(self.b)
        self.c = _arr(self.c)
        if self.A.shape[0] != self.B.shape[0]:
            raise ModelError(
                f"A has {self.A.shape[0]} rows but B has {self.B.shape[0]}"
            )
        if self.b.shape != (self.A.shape[0],):
            raise ModelError(f"b has shape {self.b.shape}, expected ({self.A.shape[0]},)")
        if self.c.shape != (self.A.shape[1],):
            raise ModelError(f"c has shape {self.c.shape}, expected ({self.A.shape[1]},)")

    @property
    def num_eq(self) -> int:
        return self.A.shape[0]

    @property
    def var_dim(self) -> int:
        return self.A.shape[1]

    @property
    def state_dim(self) -> int:
        return self.B.shape[1]

    def rhs(self, x_prev: np.ndarray) -> np.ndarray:
        """``b - B @ x_prev``: the one part of the stage's LP that the state sets."""
        return self.b - self.B @ x_prev

    @cached_property
    def structure(self) -> tuple:
        """What the stage LPs of a kernel batch share: ``(A.shape,
        A.tobytes(), c.tobytes())``, serialized on first use."""
        return self.A.shape, self.A.tobytes(), self.c.tobytes()

    def to_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "b": self.b.tolist(),
            "c": self.c.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "StageModel":
        return StageModel(A=d["A"], B=d["B"], b=d["b"], c=d["c"])


@dataclass
class StochasticStageModel:
    """Finite support of one stage's data: parallel realization/probability lists."""

    realizations: list[StageModel]
    probs: np.ndarray

    def __post_init__(self):
        self.probs = _arr(self.probs).reshape(-1)
        if len(self.realizations) != self.probs.shape[0]:
            raise ModelError("realizations and probs length mismatch")
        if not len(self.realizations):
            raise ModelError("stage needs at least one realization")
        if np.any(self.probs <= 0):
            raise ModelError("all realization probabilities must be positive")
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise ModelError(f"probabilities sum to {self.probs.sum()}, not 1")
        r0 = self.realizations[0]
        for r in self.realizations[1:]:
            if (r.var_dim, r.state_dim, r.num_eq) != (r0.var_dim, r0.state_dim, r0.num_eq):
                raise ModelError("realizations must share dimensions")

    @property
    def num_realizations(self) -> int:
        return len(self.realizations)

    @cached_property
    def rhs_and_coupling(self) -> np.ndarray:
        """``[b_j, -B_j]`` of each realization j, in their order: shape
        (R, m, 1 + n), read-only, stacked on first use.

        Reducing a certificate's ``lam`` against it gives ``b_j . lam`` and
        ``-B_j' lam`` in one pass, as the cut formula needs them.
        """
        b = np.array([r.b for r in self.realizations])
        B = np.array([r.B for r in self.realizations])
        stacked = np.concatenate([b[..., None], -B], axis=2)
        stacked.flags.writeable = False
        return stacked

    @property
    def var_dim(self) -> int:
        return self.realizations[0].var_dim

    @property
    def state_dim(self) -> int:
        return self.realizations[0].state_dim

    def to_dict(self) -> dict:
        return {
            "realizations": [
                dict(r.to_dict(), prob=float(p))
                for r, p in zip(self.realizations, self.probs)
            ]
        }

    @staticmethod
    def from_dict(d: dict) -> "StochasticStageModel":
        reals = [StageModel.from_dict(r) for r in d["realizations"]]
        probs = [r["prob"] for r in d["realizations"]]
        return StochasticStageModel(realizations=reals, probs=probs)


@dataclass
class StochasticModel:
    """Deterministic first stage plus stochastic stages 2..T.

    ``floors[i]`` is a certified constant lower bound on the cost-to-go
    entering stage ``i + 2`` (one floor per stage 2..T; empty when T == 1).
    """

    stage1: StageModel
    stages: list[StochasticStageModel]
    x0: np.ndarray
    floors: np.ndarray

    def __post_init__(self):
        self.x0 = _arr(self.x0)
        self.floors = _arr(self.floors).reshape(-1)
        if self.stage1.state_dim != self.x0.shape[0]:
            raise ModelError(
                f"stage 1 expects state dim {self.stage1.state_dim}, "
                f"x0 has {self.x0.shape[0]}"
            )
        prev_dim = self.stage1.var_dim
        for t, st in enumerate(self.stages, start=2):
            if st.state_dim != prev_dim:
                raise ModelError(
                    f"stage {t} expects state dim {st.state_dim}, previous "
                    f"stage produces {prev_dim}"
                )
            prev_dim = st.var_dim
        if self.floors.shape != (len(self.stages),):
            raise ModelError(
                f"need {len(self.stages)} floors, got {self.floors.shape[0]}"
            )

    @property
    def horizon(self) -> int:
        return 1 + len(self.stages)

    @property
    def deterministic(self) -> bool:
        """Every stage has one realization: the model is a chain."""
        return all(st.num_realizations == 1 for st in self.stages)

    def stage(self, t: int, j: int = 0) -> StageModel:
        """Realization ``j`` of stage ``t`` (1-based); stage 1 has only ``j == 0``."""
        if t == 1:
            return self.stage1
        return self.stages[t - 2].realizations[j]

    def num_scenarios(self) -> int:
        n = 1
        for st in self.stages:
            n *= st.num_realizations
        return n

    def to_dict(self) -> dict:
        return {
            "type": "stochastic",
            "x0": self.x0.tolist(),
            "floors": self.floors.tolist(),
            "stage1": self.stage1.to_dict(),
            "stages": [s.to_dict() for s in self.stages],
        }

    @staticmethod
    def from_dict(d: dict) -> "StochasticModel":
        return StochasticModel(
            stage1=StageModel.from_dict(d["stage1"]),
            stages=[StochasticStageModel.from_dict(s) for s in d["stages"]],
            x0=d["x0"],
            floors=d["floors"],
        )

    @staticmethod
    def chain(stages: list[StageModel], x0, floors) -> "StochasticModel":
        """A deterministic chain: ``stages`` for 1..T, one realization each."""
        if not stages:
            raise ModelError("model needs at least one stage")
        return StochasticModel(
            stage1=stages[0],
            stages=[StochasticStageModel(realizations=[s], probs=[1.0]) for s in stages[1:]],
            x0=x0,
            floors=floors,
        )


def model_to_json(model: StochasticModel) -> str:
    return json.dumps(model.to_dict(), sort_keys=True)


def model_from_json(text: str) -> StochasticModel:
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ModelError(f"a model file holds a JSON object, not {type(d).__name__}")
    kind = d.get("type")
    try:
        if kind == "deterministic":
            return StochasticModel.chain(
                [StageModel.from_dict(s) for s in d["stages"]], d["x0"], d["floors"]
            )
        if kind == "stochastic":
            return StochasticModel.from_dict(d)
    except KeyError as exc:
        raise ModelError(f"model file lacks the key {exc}") from None
    except TypeError as exc:  # a list or number where an object belongs
        raise ModelError(f"malformed model file: {exc}") from None
    raise ModelError(f"unknown model type {kind!r}")


def save_model(model: StochasticModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def load_model(path) -> StochasticModel:
    with open(path) as fh:
        return model_from_json(fh.read())


# ---------------------------------------------------------------------------
# Run logs


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """Write ``header`` and ``rows`` to ``path`` as CSV lines, each value by ``str``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class RunStatus(str, enum.Enum):
    CONVERGED = "converged"
    ITER_LIMIT = "iter_limit"


@dataclass
class IterationRecord:
    k: int
    lb: float
    ub: float
    gap: float
    wall_ms: float
    n_paths: int
    eps_used: tuple = ()
    delta_used: tuple = ()


@dataclass
class RunLog:
    """Per-iteration bound history of one solver run."""

    algorithm: str
    records: list[IterationRecord] = field(default_factory=list)
    status: RunStatus = RunStatus.ITER_LIMIT
    meta: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final_lb(self) -> float:
        return self.records[-1].lb

    @property
    def final_ub(self) -> float:
        return self.records[-1].ub

    @property
    def final_gap(self) -> float:
        return self.records[-1].gap

    def total_wall_ms(self) -> float:
        return sum(r.wall_ms for r in self.records)

    def csv_header(self) -> list[str]:
        return ["iter", "lb", "ub", "gap", "n_paths", "wall_ms", "eps_bar", "eps0"]

    def csv_rows(self) -> list[list]:
        eps_bar = repr(float(self.meta.get("eps_bar", 0.0)))
        eps0 = repr(float(self.meta.get("eps0", 0.0)))
        return [[r.k, repr(float(r.lb)), repr(float(r.ub)), repr(float(r.gap)), r.n_paths,
                 repr(float(r.wall_ms)), eps_bar, eps0] for r in self.records]

    def write_csv(self, path) -> None:
        write_csv(path, self.csv_header(), self.csv_rows())

    def summary(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "iterations": self.iterations,
            "lb": self.final_lb,
            "ub": self.final_ub,
            "gap": self.final_gap,
            "status": self.status.value,
            "total_wall_ms": self.total_wall_ms(),
            **self.meta,
        }
