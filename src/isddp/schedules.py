"""Error schedules mapping (stage, iteration) to inexactness targets.

The relative target shrinks like 1/k across iterations and interpolates
linearly from ``eps_bar`` at stage 2 down to ``eps0`` at the horizon for a
fixed iteration.  Absolute targets rescale the relative one by a magnitude
estimate of the subproblem value recorded in the current forward pass.  The
constant-bounded mode holds every forward and backward budget at the
absolute level ``eps_bar``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


# Fixed, negligible budget of stage 1, and of every forward stage in the
# absolute mode.
DELTA1 = 1e-12


class ScheduleError(ValueError):
    pass


class ScheduleMode(str, enum.Enum):
    RELATIVE = "relative"
    ABSOLUTE = "absolute"
    CONSTANT_BOUNDED = "constant_bounded"


@dataclass(frozen=True)
class ScheduleSpec:
    """Knobs for one run's error schedule.

    ``eps_bar``/``eps0`` drive the relative formula; the CONSTANT_BOUNDED
    mode, used to exercise the bounded-noise guarantees, takes ``eps_bar``
    as its single absolute level.
    """

    eps_bar: float = 0.1
    eps0: float = 1e-12
    mode: ScheduleMode = ScheduleMode.RELATIVE

    def __post_init__(self):
        if not (0.0 < self.eps0 <= self.eps_bar < 1.0):
            raise ScheduleError(
                f"need 0 < eps0 <= eps_bar < 1, got eps0={self.eps0}, "
                f"eps_bar={self.eps_bar}"
            )


# Exact DDP/SDDP are the zero-error case: the relative schedule at its floor,
# the ``sddp`` preset.
EXACT_SCHEDULE = ScheduleSpec(eps_bar=1e-12, eps0=1e-12)


def rel_err(t: int, k: int, T: int, spec: ScheduleSpec) -> float:
    """Relative inexactness target at stage t >= 2, iteration k >= 1.

    For a two-stage horizon the interpolation degenerates to its single
    interior stage, so the value is eps_bar / k.
    """
    if t < 2 or t > T:
        raise ScheduleError(f"rel_err needs 2 <= t <= T, got t={t}, T={T}")
    if k < 1:
        raise ScheduleError(f"rel_err needs k >= 1, got {k}")
    if T == 2:
        return spec.eps_bar / k
    return (spec.eps_bar - (spec.eps_bar - spec.eps0) / (T - 2) * (t - 2)) / k


@dataclass(frozen=True)
class ErrorBudget:
    """Per-solve inexactness allowance: absolute part + relative part.

    The effective budget of one solve is ``absolute + relative * max(1, |v|)``
    where ``v`` is the solve's reference value (its exact optimum, known to
    the retrospective trail pickers).
    """

    absolute: float = 0.0
    relative: float = 0.0

    def __post_init__(self):
        if not (self.absolute >= 0.0 and self.relative >= 0.0):
            raise ScheduleError(
                f"budget parts must be nonnegative, got absolute={self.absolute}, "
                f"relative={self.relative}"
            )

    def resolve(self, reference: float) -> float:
        return self.absolute + self.relative * max(1.0, abs(reference))


def forward_budgets(spec: ScheduleSpec, k: int, T: int) -> list[ErrorBudget]:
    """Stage-wise forward budgets for iteration k (stage 1 first)."""
    out = [ErrorBudget(absolute=DELTA1)]
    for t in range(2, T + 1):
        if spec.mode is ScheduleMode.RELATIVE:
            out.append(ErrorBudget(relative=rel_err(t, k, T, spec)))
        elif spec.mode is ScheduleMode.ABSOLUTE:
            out.append(ErrorBudget(absolute=DELTA1))
        else:
            out.append(ErrorBudget(absolute=spec.eps_bar))
    return out


def backward_budgets(spec: ScheduleSpec, k: int, stage_values) -> list[list[ErrorBudget]]:
    """Backward budgets of iteration k: one list per stage 2..T, one budget per path.

    ``stage_values`` is the forward pass's ``(n_paths, T)`` array of stage
    optima.  In the absolute mode, path p's budget at stage t is the relative
    target resolved at its value there, ``rel * max(1, |v|)``, held fixed.
    """
    n_paths, T = stage_values.shape
    out = []
    for t in range(2, T + 1):
        if spec.mode is ScheduleMode.RELATIVE:
            row = [ErrorBudget(relative=rel_err(t, k, T, spec))] * n_paths
        elif spec.mode is ScheduleMode.ABSOLUTE:
            rel = ErrorBudget(relative=rel_err(t, k, T, spec))
            row = [ErrorBudget(absolute=rel.resolve(v)) for v in stage_values[:, t - 1]]
        else:
            row = [ErrorBudget(absolute=spec.eps_bar)] * n_paths
        out.append(row)
    return out
