"""Per-layer tracing from outside the program.

The tracer replaces public functions at the module attribute each caller
resolves (``isddp.sddp_engine.solve_backward_stage`` is the name the SDDP
engine looks up, ``isddp.stage_solver.solve_dual_inexact`` the name the
stage solver looks up, and so on) with wrappers that record a span per call.
Spans are kept in memory as ``[name, start, end, parent]`` and reduced when
a round ends.  A span's self time is its duration minus its children's.

Work that the benchmark itself adds inside a traced call (the certificate
check, distinct-cut bookkeeping) runs in a ``bench`` span, which is
subtracted from every span it lies in.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

# Certificate check thresholds (see check_certificate).
DUAL_RESIDUAL_MAX = 1e-9
DUAL_OBJ_MATCH = 1e-7       # relative: the kernel's tableau objective drifts
HIGHS_SLACK = 1e-7          # relative: HiGHS and kernel tolerances
EPS_ROUNDING = 1e-12        # relative


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cells_max = 0
        self.distinct: dict[int, set] = defaultdict(set)
        self.failures: list[str] = []
        self.bwd_calls: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.cells_max = 0
        self.distinct.clear()
        self.failures.clear()
        self.bwd_calls.clear()

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> Callable:
        """Replace ``owner.attr`` by a spanning wrapper; returns the original.

        ``after(bound_args, result)`` runs after the span closes, inside a
        ``bench`` span.
        """
        orig = getattr(owner, attr)
        sig = inspect.signature(orig) if after else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                b = tracer._open("bench")
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(bound.arguments, result)
                finally:
                    tracer._close(b)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))
        return orig

    def unpatch(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def durations(self) -> tuple[dict, dict]:
        """(inclusive, self) seconds summed per span name.

        A ``bench`` span is the benchmark's own work: it is taken out of
        the inclusive time of every span it lies in, and out of its parent's
        self time.
        """
        n = len(self.spans)
        child = [0.0] * n      # time of direct children
        bench = [0.0] * n      # time of bench spans anywhere below
        # children open after their parents, so one reverse sweep sees every
        # span's subtree complete before the span itself
        for i in range(n - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
                bench[parent] += bench[i] + (end - start if name == "bench" else 0.0)
        incl: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, _parent) in enumerate(self.spans):
            incl[name] += (end - start) - bench[i]
            own[name] += (end - start) - child[i]
        return incl, own


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI, the engines and the solver cross."""
    import isddp.cli as cli
    import isddp.cuts as cuts
    import isddp.ddp_engine as ddp
    import isddp.models as models
    import isddp.oracle as oracle
    import isddp.portfolio as portfolio
    import isddp.sddp_engine as sddp
    import isddp.stage_solver as ss

    orig_stage_lp = ss.stage_lp

    def count(key: str):
        def after(_args, _result):
            tracer.counts[key] += 1
        return after

    def lp_seen(kind: str, dual: bool):
        def after(args, _result):
            lp = args["lp"]
            tracer.counts[kind] += 1
            tracer.counts["lp_cut_rows"] += lp.num_cuts
            if dual:
                rows = lp.num_vars + (1 if lp.has_epigraph else 0)
                cols = 2 * lp.num_eq + lp.num_cuts + lp.num_vars
            else:
                rows = lp.num_eq + lp.num_cuts
                cols = lp.num_vars + (2 + lp.num_cuts if lp.has_epigraph else 0)
            tracer.cells_max = max(tracer.cells_max, rows * cols)
            # stack[-1] is this hook's bench span, stack[-2] the caller's span
            if tracer.spans[tracer.stack[-2]][0] in ("stage_solver.forward", "stage_solver.lb"):
                tracer.counts["rowgen_rounds"] += 1
        return after

    def backward_done(args, result):
        tracer.counts["backward_solves"] += 1
        check_certificate(tracer, orig_stage_lp, args, result)

    def pool_add(args, _result):
        pool, cut = args["self"], args["cut"]
        tracer.counts["cuts_added"] += 1
        tracer.distinct[id(pool)].add((float(cut.theta), cut.beta.tobytes()))

    def sddp_forward(args, _result):
        tracer.counts["fwd_visits"] += len(args["paths"]) * args["model"].horizon

    def sddp_forward_stage(_args, _result):
        tracer.counts["forward_solves"] += 1
        tracer.counts["fwd_misses"] += 1

    def sddp_backward_stage(args, result):
        backward_done(args, result)
        tracer.bwd_calls[args["t"]] += 1

    def sddp_backward(args, _result):
        # a cache miss at (path, stage t) solves every realization of stage t
        model = args["model"]
        tracer.counts["bwd_visits"] += len(args["trajectories"]) * (model.horizon - 1)
        for t, calls in tracer.bwd_calls.items():
            tracer.counts["bwd_misses"] += calls / model.stages[t - 2].num_realizations
        tracer.bwd_calls.clear()

    tracer.wrap(ss, "stage_lp", "stage_solver.stage_lp")
    tracer.wrap(ss, "solve_exact", "lp_core.solve_exact", lp_seen("primal_solves", False))
    tracer.wrap(ss, "solve_with_primal_trail", "lp_core.solve_with_primal_trail",
                lp_seen("primal_solves", False))
    tracer.wrap(ss, "solve_dual_inexact", "lp_core.solve_dual_inexact",
                lp_seen("dual_solves", True))
    tracer.wrap(oracle, "solve_exact", "lp_core.solve_exact", lp_seen("primal_solves", False))
    tracer.wrap(sddp, "solve_forward_stage", "stage_solver.forward", sddp_forward_stage)
    tracer.wrap(ddp, "solve_forward_stage", "stage_solver.forward", count("forward_solves"))
    for mod in (sddp, ddp):
        tracer.wrap(mod, "stage_value_exact", "stage_solver.lb", count("lb_solves"))
        tracer.wrap(mod, "build_terminal_cut", "cuts.build", count("cuts_built"))
        tracer.wrap(mod, "build_middle_cut", "cuts.build", count("cuts_built"))
    tracer.wrap(sddp, "solve_backward_stage", "stage_solver.backward", sddp_backward_stage)
    tracer.wrap(ddp, "solve_backward_stage", "stage_solver.backward", backward_done)
    tracer.wrap(sddp, "forward_pass_sddp", "sddp_engine.forward_pass", sddp_forward)
    tracer.wrap(sddp, "backward_pass_sddp", "sddp_engine.backward_pass", sddp_backward)
    tracer.wrap(ddp, "forward_pass", "ddp_engine.forward_pass")
    tracer.wrap(ddp, "backward_pass", "ddp_engine.backward_pass")
    tracer.wrap(cuts.CutPool, "add", "cuts.add", pool_add)
    tracer.wrap(cli, "run_isddp", "sddp_engine.run")
    tracer.wrap(cli, "run_iddp", "ddp_engine.run")
    tracer.wrap(cli, "extensive_form", "oracle.extensive_form")
    tracer.wrap(cli, "load_model", "models.load")
    tracer.wrap(cli, "save_model", "models.write")
    tracer.wrap(models, "load_model", "models.load")
    tracer.wrap(models.RunLog, "write_csv", "models.write")
    tracer.wrap(portfolio, "generate_instance", "portfolio.generate")
    tracer.wrap(cli, "main", "cli.main")


def check_certificate(tracer: Tracer, stage_lp, args: dict, result) -> None:
    """Every backward certificate is a dual-feasible point within its budget.

    The LP is rebuilt with the public ``stage_lp`` and solved apart from the
    program by HiGHS.  The dual objective is recomputed from (lam, mu); it
    must match the certificate's and lie within the resolved budget below
    the HiGHS optimum.  ``eps_certified`` may exceed the budget the solve
    resolved only by rounding.
    """
    from isddp.lp_core import dual_feasibility_residual

    import reference

    cert, optimum = result
    lp = stage_lp(args["stage"], args["x_prev"], args["pool"])
    resid = dual_feasibility_residual(lp, cert.lam, cert.mu)
    dual_obj = float(lp.eq_rhs @ cert.lam + lp.cut_thetas() @ cert.mu)
    opt = reference.stage_lp_optimum(lp)
    budget = args["budget"]
    where = f"stage {args.get('t')} path {args.get('path')}"
    fails = tracer.failures
    if not resid <= DUAL_RESIDUAL_MAX:
        fails.append(f"{where}: dual residual {resid!r} > {DUAL_RESIDUAL_MAX}")
    if not abs(dual_obj - cert.dual_obj) <= DUAL_OBJ_MATCH * max(1.0, abs(dual_obj)):
        fails.append(f"{where}: (lam, mu) give {dual_obj!r}, certificate says {cert.dual_obj!r}")
    slack = HIGHS_SLACK * max(1.0, abs(opt))
    if not opt - budget.resolve(opt) - slack <= dual_obj <= opt + slack:
        fails.append(f"{where}: dual objective {dual_obj!r} is not within budget "
                     f"{budget.resolve(opt)!r} below the HiGHS optimum {opt!r}")
    if not cert.eps_certified <= budget.resolve(optimum) + EPS_ROUNDING * max(1.0, abs(optimum)):
        fails.append(f"{where}: certified eps {cert.eps_certified!r} exceeds budget "
                     f"{budget.resolve(optimum)!r}")


LAYER_TIME_SHARES = {
    # metric: (span names, inclusive?)  -- shares of the traced solve time
    "lp_core.busy_share": (("lp_core.solve_exact", "lp_core.solve_with_primal_trail",
                            "lp_core.solve_dual_inexact"), True),
    "stage_solver.backward_share": (("stage_solver.backward",), True),
    "stage_solver.forward_share": (("stage_solver.forward",), True),
    "stage_solver.lb_share": (("stage_solver.lb",), True),
    "stage_solver.assembly_share": (("stage_solver.stage_lp",), True),
    "stage_solver.self_share": (("stage_solver.backward", "stage_solver.forward",
                                 "stage_solver.lb", "stage_solver.stage_lp"), False),
    "cuts.build_share": (("cuts.build", "cuts.add"), True),
    "sddp_engine.forward_pass_share": (("sddp_engine.forward_pass",), True),
    "sddp_engine.backward_pass_share": (("sddp_engine.backward_pass",), True),
    "sddp_engine.self_share": (("sddp_engine.run", "sddp_engine.forward_pass",
                                "sddp_engine.backward_pass"), False),
    "ddp_engine.forward_pass_share": (("ddp_engine.forward_pass",), True),
    "ddp_engine.backward_pass_share": (("ddp_engine.backward_pass",), True),
    "oracle.self_share": (("oracle.extensive_form",), False),
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def round_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(timings, counts) of one traced solve round.

    Timings are seconds for the traced solve and the kernel, and shares of
    the traced solve time for the layers some workloads bypass.  Counts are
    deterministic and must repeat exactly from round to round.
    """
    incl, own = tracer.durations()
    solve_s = incl["cli.main"]
    times = {
        "cli.solve_s": solve_s,
        "lp_core.busy_s": sum(incl[n] for n in LAYER_TIME_SHARES["lp_core.busy_share"][0]),
        "models.write_csv_s": incl["models.write"],
    }
    for metric, (names, inclusive) in LAYER_TIME_SHARES.items():
        src = incl if inclusive else own
        times[metric] = sum(src[n] for n in names) / solve_s
    c = tracer.counts
    distinct = sum(len(s) for s in tracer.distinct.values())
    counts = {
        "lp_core.primal_solves": c["primal_solves"],
        "lp_core.dual_solves": c["dual_solves"],
        "lp_core.cut_rows_mean": _share(c["lp_cut_rows"], c["primal_solves"] + c["dual_solves"]),
        "lp_core.lp_cells_max": tracer.cells_max,
        "stage_solver.backward_solves": c["backward_solves"],
        "stage_solver.forward_solves": c["forward_solves"],
        "stage_solver.rowgen_rounds_mean": _share(c["rowgen_rounds"], c["forward_solves"] + c["lb_solves"]),
        "cuts.added": c["cuts_added"],
        "cuts.built": c["cuts_built"],
        "cuts.distinct_share": _share(distinct, c["cuts_added"]),
        "sddp_engine.fwd_cache_hit_share": 1.0 - _share(c["fwd_misses"], c["fwd_visits"]) if c["fwd_visits"] else 0.0,
        "sddp_engine.bwd_cache_hit_share": 1.0 - _share(c["bwd_misses"], c["bwd_visits"]) if c["bwd_visits"] else 0.0,
    }
    return times, counts
