"""Reference optimum of a multistage LP, computed apart from the program.

The deterministic equivalent (extensive form) of a stagewise-independent
scenario tree is assembled here as a sparse matrix and solved with HiGHS
through ``scipy.optimize.linprog``.  It shares no code with the program's
dense simplex or with its own tree assembly in ``isddp.oracle``; only the
instance JSON is common.  ``stage_lp_optimum`` solves one stage LP the same
way, for the certificate check of traced runs.

Run as a script to recompute (and re-cache) every workload's reference and
to cross-check this assembler against the program's oracle on the shipped
toys and on the chain workload's instance:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(HERE, "cache")


def _stage_arrays(d: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.asarray(d["A"], dtype=float),
        np.asarray(d["B"], dtype=float),
        np.asarray(d["b"], dtype=float),
        np.asarray(d["c"], dtype=float),
    )


def tree_levels(inst: dict) -> list[list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]]]:
    """Per stage, the realizations as (A, B, b, c, prob); stage 1 has one."""
    if inst["type"] == "deterministic":
        return [[_stage_arrays(s) + (1.0,)] for s in inst["stages"]]
    levels = [[_stage_arrays(inst["stage1"]) + (1.0,)]]
    for st in inst["stages"]:
        levels.append([_stage_arrays(r) + (float(r["prob"]),) for r in st["realizations"]])
    return levels


def extensive_form_lp(inst: dict):
    """Sparse (c, A_eq, b_eq) of the whole scenario tree of an instance JSON.

    Node k of stage t (0-based, t >= 1) is child ``k % M_t`` of node
    ``k // M_t`` of stage t-1.  Node costs carry the path probability.
    """
    from scipy import sparse

    levels = tree_levels(inst)
    x0 = np.asarray(inst["x0"], dtype=float)
    rows, cols, vals = [], [], []
    rhs, cost = [], []
    row_base = col_base = 0
    prev_col_base = 0
    prev_nv = 0
    parents = 1
    path_prob = np.ones(1)
    for t, reals in enumerate(levels):
        M = len(reals)
        m, nv = reals[0][0].shape
        nodes = parents * M
        probs = np.array([r[4] for r in reals])
        node_prob = (path_prob[:, None] * probs[None, :]).reshape(-1)
        node_rhs = np.empty((parents, M, m))
        node_cost = np.empty((parents, M, nv))
        for j, (A, B, b, c, _p) in enumerate(reals):
            node_ids = np.arange(parents) * M + j
            ai, ak = np.nonzero(A)
            rows.append((row_base + node_ids[:, None] * m + ai[None, :]).ravel())
            cols.append((col_base + node_ids[:, None] * nv + ak[None, :]).ravel())
            vals.append(np.broadcast_to(A[ai, ak], (parents, ai.size)).ravel())
            if t == 0:
                node_rhs[:, j] = b - B @ x0
            else:
                bi, bk = np.nonzero(B)
                par = np.arange(parents)
                rows.append((row_base + node_ids[:, None] * m + bi[None, :]).ravel())
                cols.append((prev_col_base + par[:, None] * prev_nv + bk[None, :]).ravel())
                vals.append(np.broadcast_to(B[bi, bk], (parents, bi.size)).ravel())
                node_rhs[:, j] = b
            node_cost[:, j] = c
        rhs.append(node_rhs.reshape(-1))
        cost.append((node_cost * node_prob.reshape(parents, M)[:, :, None]).reshape(-1))
        prev_col_base, prev_nv = col_base, nv
        row_base += nodes * m
        col_base += nodes * nv
        parents = nodes
        path_prob = node_prob
    A_eq = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row_base, col_base),
    )
    return np.concatenate(cost), A_eq, np.concatenate(rhs)


def highs_optimum(inst: dict) -> float:
    """Optimal value of the extensive form by HiGHS dual simplex."""
    from scipy.optimize import linprog

    c, A_eq, b_eq = extensive_form_lp(inst)
    res = linprog(
        c,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the extensive form: {res.message}")
    return float(res.fun)


def stage_lp_optimum(lp) -> float:
    """Optimal value of one ``isddp.lp_core.LinearProgram`` by HiGHS.

    min cost.x (+ f)  s.t.  eq_matrix x = eq_rhs,  x >= 0,  and, with an
    epigraph, f >= theta + beta.x for every cut row, f free.
    """
    from scipy.optimize import linprog

    nv = lp.num_vars
    c, A_eq = lp.cost, lp.eq_matrix
    bounds = [(0, None)] * nv
    A_ub = b_ub = None
    if lp.has_epigraph:
        c = np.append(c, 1.0)
        A_eq = np.hstack([A_eq, np.zeros((lp.num_eq, 1))])
        bounds.append((None, None))
        if lp.num_cuts:
            A_ub = np.hstack([lp.cut_beta_matrix(), -np.ones((lp.num_cuts, 1))])
            b_ub = -lp.cut_thetas()
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq if lp.num_eq else None,
        b_eq=lp.eq_rhs if lp.num_eq else None,
        bounds=bounds,
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on a stage LP: {res.message}")
    return float(res.fun)


def instance_key(inst: dict) -> str:
    """Hash of the instance's content, independent of how its file is written."""
    canonical = json.dumps(inst, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def _cache_path(inst: dict) -> str:
    return os.path.join(CACHE_DIR, f"{instance_key(inst)}.json")


def store(inst: dict, v_star: float) -> None:
    os.makedirs(CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=CACHE_DIR, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump({"v_star": v_star, "instance_sha256": instance_key(inst)}, fh)
    os.replace(tmp, _cache_path(inst))


def cached_optimum(instance_path: str) -> float:
    """HiGHS optimum of an instance file, cached by the instance's content.

    A cache miss solves in a child process, so the caller's peak memory and
    timings never include HiGHS.  ``python3 perfbench/reference.py``
    recomputes every cached value.
    """
    with open(instance_path) as fh:
        inst = json.load(fh)
    path = _cache_path(inst)
    if os.path.exists(path):
        with open(path) as fh:
            return float(json.load(fh)["v_star"])
    import subprocess

    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--solve", instance_path],
        check=True, capture_output=True, text=True, timeout=150,
    ).stdout
    v_star = float(json.loads(out.strip().splitlines()[-1])["v_star"])
    store(inst, v_star)
    return v_star


def cross_check(model, name: str) -> float:
    """HiGHS optimum of a model, checked against ``isddp.extensive_form``."""
    from isddp.oracle import extensive_form

    ours = highs_optimum(model.to_dict())
    theirs = extensive_form(model)
    if not abs(ours - theirs) <= 1e-7 * max(1.0, abs(ours)):
        raise RuntimeError(f"{name}: HiGHS {ours!r} vs isddp oracle {theirs!r}")
    print(f"{name:16s} HiGHS {ours!r:24} isddp oracle {theirs!r}")
    return ours


def _main(argv: list[str]) -> int:
    if argv[:1] not in ([], ["--solve"]):
        print("usage: python3 perfbench/reference.py", file=sys.stderr)
        return 1
    sys.path.insert(0, HERE)
    import workloads

    workloads.use_checkout_sources()
    from isddp.models import load_model
    from isddp.toys import TOYS

    # Every reference comes from an assembler just checked on the toys.
    for name, make in sorted(TOYS.items()):
        cross_check(make(), f"toy {name}")
    if argv[:1] == ["--solve"]:
        with open(argv[1]) as fh:
            print(json.dumps({"v_star": highs_optimum(json.load(fh))}))
        return 0
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    for wl in workloads.WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=workloads.WORK_DIR) as tmp:
            instance = wl.make_instance(tmp, seed=0)
            with open(instance) as fh:
                inst = json.load(fh)
            t0 = time.perf_counter()
            if wl.chain:
                v_star = cross_check(load_model(instance), wl.name)
            else:
                v_star = highs_optimum(inst)
                print(f"{wl.name:16s} HiGHS {v_star!r:24} ({time.perf_counter() - t0:.1f} s)")
            store(inst, v_star)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
