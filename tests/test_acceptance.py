"""Acceptance criteria, one test per criterion, runnable standalone:

    pytest tests/test_acceptance.py -v

Each test prints a PASS line with its headline numbers on success; pytest's
own verbose output gives the per-criterion pass/fail summary.
"""

import csv
import itertools
import json
import time

import numpy as np
import pytest

from isddp import oracle
from isddp.cli import main as cli_main
from isddp.ddp_engine import run_iddp
from isddp.lp_core import (
    SolveStatus,
    dual_feasibility_residual,
    solution_residuals,
    solve_dual_inexact,
    solve_exact,
)
from isddp.models import RunStatus
from isddp.schedules import EXACT_SCHEDULE, ErrorBudget, ScheduleMode, ScheduleSpec, rel_err
from isddp.sddp_engine import iterate, make_pools, run_isddp
from isddp.toys import TOYS

from conftest import enumerate_vertices, random_feasible_bounded_lp

FUZZ_SEED = 90210
TOY_SEED = 3
STATE_SEED = 424242
PORTFOLIO_GEN = ["--T", "6", "--n", "4", "--M", "10", "--seed", "2024"]
PORTFOLIO_RUN = ["--paths", "200", "--gap-tol", "0.05", "--max-iter", "50", "--seed", "9"]
PRESET_NAMES = ["sddp", "isddp1", "isddp2", "isddp3", "isddp4"]


@pytest.fixture(scope="session")
def toy_runs():
    """Criterion-3 runs (exact preset) with their pools, logs, and optima."""
    runs = {}
    t_start = time.perf_counter()
    for name, factory in TOYS.items():
        model = factory()
        v_star = oracle.extensive_form(model)
        pools = make_pools(model)
        if model.deterministic:
            log = run_iddp(model, EXACT_SCHEDULE, tol=1e-9, max_iter=100,
                           initial_pools=pools)
        else:
            log = run_isddp(model, EXACT_SCHEDULE, n_paths=8, gap_tol=1e-9,
                            max_iter=100, seed=TOY_SEED, initial_pools=pools)
        runs[name] = dict(model=model, v_star=v_star, log=log, pools=pools)
    elapsed = time.perf_counter() - t_start
    return runs, elapsed


@pytest.fixture(scope="session")
def bounded_runs():
    """Criterion-5 runs: ConstantBounded schedule, exactly 200 iterations."""
    bar = 0.05
    sched = ScheduleSpec(mode=ScheduleMode.CONSTANT_BOUNDED, eps_bar=bar)
    runs = []
    det = TOYS["det_t3"]()
    det_pools = make_pools(det)
    det_log = run_iddp(det, sched, tol=1e-15, max_iter=200, initial_pools=det_pools)
    runs.append(dict(name="det_t3", model=det, lbs=[r.lb for r in det_log.records],
                     pools=det_pools))
    sto = TOYS["sto_t3_m2"]()
    for seed in range(20):
        pools = make_pools(sto)
        records = itertools.islice(iterate(sto, sched, 1, seed, pools), 200)
        runs.append(dict(name=f"sto_t3_m2/seed{seed}", model=sto,
                         lbs=[r.lb for r in records], pools=pools))
    return runs, bar


@pytest.fixture(scope="session")
def recourse_cache():
    """exact_recourse values at 100 fixed reachable states per (toy, stage)."""
    cache = {}

    def get(name, model, t):
        key = (name, t)
        if key not in cache:
            states = oracle.sample_reachable_states(model, t, 100, seed=STATE_SEED + t)
            vals = np.array([oracle.exact_recourse(model, t, s) for s in states])
            cache[key] = (states, vals)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def portfolio_experiment(tmp_path_factory):
    """Criterion-9 experiment: five presets on the benchmark instance.

    ``compare`` writes each preset's run CSV and summary next to its table.
    """
    workdir = tmp_path_factory.mktemp("portfolio")
    instance = str(workdir / "portfolio.json")
    t_start = time.perf_counter()
    assert cli_main(["gen", *PORTFOLIO_GEN, "--out", instance]) == 0
    compare_csv = str(workdir / "compare.csv")
    rc = cli_main([
        "compare", "--instance", instance, "--presets", ",".join(PRESET_NAMES),
        *PORTFOLIO_RUN, "--out", compare_csv,
    ])
    assert rc == 0
    summaries = {}
    for preset in PRESET_NAMES:
        with open(str(workdir / f"{preset}.summary.json")) as fh:
            summaries[preset] = json.load(fh)
    elapsed = time.perf_counter() - t_start
    return dict(
        workdir=workdir,
        instance=instance,
        summaries=summaries,
        compare_csv=compare_csv,
        elapsed=elapsed,
    )


def test_criterion_01_lp_kernel_correctness():
    rng = np.random.default_rng(FUZZ_SEED)
    t_start = time.perf_counter()
    for _ in range(1000):
        lp = random_feasible_bounded_lp(rng)
        ref, verts = enumerate_vertices(lp)
        sol = solve_exact(lp)
        assert sol.status is SolveStatus.OPTIMAL
        scale = 1.0 + abs(ref)
        assert abs(sol.obj - ref) <= 1e-7 * scale
        assert min(np.abs(v - sol.x).max() for v in verts) <= 1e-7
        primal, dual, comp = solution_residuals(lp, sol)
        assert primal <= 1e-9 * scale
        assert dual <= 1e-9 * scale
        assert comp <= 1e-9 * scale
    elapsed = time.perf_counter() - t_start
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: 1000 fuzz LPs match vertex enumeration in {elapsed:.1f}s")


def test_criterion_02_inexact_oracle_certificates():
    rng = np.random.default_rng(FUZZ_SEED)
    violations = 0
    for _ in range(1000):
        lp = random_feasible_bounded_lp(rng)
        ref = solve_exact(lp).obj
        scale = 1.0 + abs(ref)
        for eps in (0.0, 0.01, 0.1):
            cert = solve_dual_inexact(lp, ErrorBudget(absolute=eps))
            if dual_feasibility_residual(lp, cert.lam, cert.mu) > 1e-9:
                violations += 1
            if cert.dual_obj < ref - eps - 1e-9 * scale:
                violations += 1
            if cert.dual_obj > ref + 1e-9 * scale:
                violations += 1
    assert violations == 0
    print("\nPASS criterion 2: 3000 certificates dual-feasible within eps, zero violations")


def test_criterion_03_exact_mode_convergence(toy_runs):
    runs, elapsed = toy_runs
    assert elapsed < 60.0
    for name, run in runs.items():
        v = run["v_star"]
        tol = 1e-6 * (1 + abs(v))
        assert run["log"].iterations <= 100
        assert abs(run["log"].final_lb - v) <= tol, name
    print(f"\nPASS criterion 3: 5 toys converge to v* within 1e-6 rel in {elapsed:.1f}s")


def test_criterion_04_bound_sandwich(toy_runs):
    runs, _ = toy_runs
    for name, run in runs.items():
        v = run["v_star"]
        records = run["log"].records
        lbs = [r.lb for r in records]
        assert all(lb <= v + 1e-7 for lb in lbs), name
        assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:])), name
        if run["model"].deterministic:
            assert all(r.ub >= v - 1e-7 for r in records), name
    print("\nPASS criterion 4: Lb <= v* <= deterministic Ub every iteration, Lb monotone")


def test_criterion_05_bounded_noise_lower_bound_guarantee(bounded_runs):
    runs, bar = bounded_runs
    failures = 0
    for run in runs:
        model = run["model"]
        v = oracle.extensive_form(model)
        T = model.horizon
        bound = v - (bar * T + bar * (T - 1)) - 1e-6
        assert len(run["lbs"]) == 200
        if run["lbs"][-1] < bound:
            failures += 1
        if any(lb > v + 1e-7 for lb in run["lbs"]):
            failures += 1
    assert failures == 0
    print(f"\nPASS criterion 5: Lb_200 >= v* - {bar}*(2T-1) on {len(runs)} bounded-noise runs")


def test_criterion_06_cut_validity(toy_runs, bounded_runs, recourse_cache):
    runs, _ = toy_runs
    checked = 0
    all_pools = [(name, run["model"], run["pools"]) for name, run in runs.items()]
    broad_runs, _bar = bounded_runs
    all_pools += [(run["name"].split("/")[0], run["model"], run["pools"])
                  for run in broad_runs]
    for name, model, pools in all_pools:
        for t in range(2, model.horizon + 1):
            pool = pools[t]
            states, exact_vals = recourse_cache(name, model, t)
            assert np.all(pool.floor <= exact_vals + 1e-7)
            if len(pool):
                cut_vals = states @ pool.beta_matrix().T + pool.thetas()
                worst = float((cut_vals - exact_vals[:, None]).max())
                assert worst <= 1e-7, (name, t, worst)
                checked += len(pool)
    print(f"\nPASS criterion 6: {checked} cuts below exact recourse at 100 states/stage")


def test_criterion_07_vanishing_noise_finite_convergence():
    sched = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
    iters = {}
    for name, factory in TOYS.items():
        model = factory()
        if model.deterministic:
            # seeds do not enter the deterministic engine: one run covers all
            log = run_iddp(model, sched, tol=1e-6, max_iter=200)
            assert log.status is RunStatus.CONVERGED, name
            assert log.records[-1].gap <= 1e-6
            iters[name] = log.iterations
        else:
            v = oracle.extensive_form(model)
            tol = 1e-6 * max(1.0, abs(v))
            worst = 0
            for seed in range(20):
                for rec in itertools.islice(iterate(model, sched, 4, seed, make_pools(model)), 200):
                    if (v - rec.lb) <= tol:
                        break
                assert (v - rec.lb) <= tol, (name, seed)
                assert rec.k <= 200
                worst = max(worst, rec.k)
            iters[name] = worst
    print(f"\nPASS criterion 7: relative schedule closes the gap finitely, iterations {iters}")


def test_criterion_08_schedule_formula():
    spec = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE)
    assert abs(rel_err(2, 1, 6, spec) - 0.1) <= 1e-12
    assert abs(rel_err(6, 1, 6, spec) - 1e-12) <= 1e-12
    assert abs(rel_err(4, 2, 6, spec) - 0.025) <= 1e-12
    print("\nPASS criterion 8: tabulated schedule values reproduced to 1e-12")


def test_criterion_09_portfolio_qualitative_reproduction(portfolio_experiment):
    exp = portfolio_experiment
    assert exp["elapsed"] < 600.0
    for preset in PRESET_NAMES:
        s = exp["summaries"][preset]
        assert s["status"] == "converged", preset
        assert s["iterations"] <= 50, preset
        assert s["gap"] < 0.05, preset
    with open(exp["compare_csv"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert [r["variant"] for r in rows] == PRESET_NAMES[1:]
    for r in rows:
        assert float(r["cpu_ratio"]) > 0
        assert int(r["iterations"]) >= 1 and int(r["iterations_base"]) >= 1
    ratios = {r["variant"]: r["cpu_ratio"] for r in rows}
    print(
        f"\nPASS criterion 9: five presets converged (gap<5%) in "
        f"{exp['elapsed']:.0f}s; cpu ratios {ratios}"
    )


def test_criterion_10_determinism(toy_runs, portfolio_experiment):
    # repeat a criterion-3 stochastic run: identical bound sequences
    runs, _ = toy_runs
    model = TOYS["sto_t4_m3"]()
    log2 = run_isddp(model, EXACT_SCHEDULE, n_paths=8, gap_tol=1e-9, max_iter=100,
                     seed=TOY_SEED)
    ref = runs["sto_t4_m3"]["log"]
    assert [(r.k, r.lb, r.ub, r.gap) for r in ref.records] == [
        (r.k, r.lb, r.ub, r.gap) for r in log2.records
    ]

    # repeat a criterion-9 run: identical CSV modulo the wall-clock column
    exp = portfolio_experiment
    out2 = str(exp["workdir"] / "isddp1_repeat.csv")
    rc = cli_main([
        "solve", "--instance", exp["instance"], "--preset", "isddp1",
        *PORTFOLIO_RUN, "--out", out2,
    ])
    assert rc == 0

    def rows_without_wall(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]

    first = rows_without_wall(str(exp["workdir"] / "isddp1.csv"))
    second = rows_without_wall(out2)
    assert first == second
    print("\nPASS criterion 10: repeated runs emit identical logs (timing column aside)")
