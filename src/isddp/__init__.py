"""Multistage (stochastic) linear programming with inexact cutting planes.

Cost-to-go functions are approximated by pools of affine cuts built from
certified eps-optimal dual-feasible solutions of the stage subproblems; the
forward passes may likewise accept delta-suboptimal basic decisions.  Exact
runs are the special case of zero error budgets.
"""

from .cuts import Cut, CutPool, build_middle_cut, build_terminal_cut
from .ddp_engine import backward_pass, forward_pass, run_iddp
from .lp_core import (
    DualCertificate,
    LinearProgram,
    PrimalDualSolution,
    SolveStatus,
    dual_feasibility_residual,
    solve_dual_inexact,
    solve_exact,
)
from .models import (
    RunLog,
    StageModel,
    StochasticModel,
    StochasticStageModel,
    load_model,
    save_model,
)
from .oracle import exact_recourse, extensive_form
from .portfolio import PortfolioSpec, TransactionCosts, generate_instance
from .schedules import ErrorBudget, ScheduleMode, ScheduleSpec, rel_err
from .sddp_engine import (
    backward_pass_sddp,
    evaluate_policy,
    forward_pass_sddp,
    make_pools,
    run_isddp,
    sample_paths,
    upper_bound_ci,
)

__version__ = "0.1.0"

__all__ = [
    "Cut",
    "CutPool",
    "DualCertificate",
    "ErrorBudget",
    "LinearProgram",
    "PortfolioSpec",
    "PrimalDualSolution",
    "RunLog",
    "ScheduleMode",
    "ScheduleSpec",
    "SolveStatus",
    "StageModel",
    "StochasticModel",
    "StochasticStageModel",
    "TransactionCosts",
    "backward_pass",
    "backward_pass_sddp",
    "build_middle_cut",
    "build_terminal_cut",
    "dual_feasibility_residual",
    "evaluate_policy",
    "exact_recourse",
    "extensive_form",
    "forward_pass",
    "forward_pass_sddp",
    "generate_instance",
    "load_model",
    "make_pools",
    "rel_err",
    "run_iddp",
    "run_isddp",
    "sample_paths",
    "save_model",
    "solve_dual_inexact",
    "solve_exact",
    "upper_bound_ci",
]
