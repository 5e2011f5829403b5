"""Golden run logs: `isddp solve` must keep every CSV column but `wall_ms`.

The CSVs under ``tests/golden/`` were written by the program; a change that
alters solver output on purpose regenerates them (``PYTHONPATH=src python
tests/test_golden.py`` rewrites them) and says so.  Three runs:

* a portfolio with ``--preset isddp1``: several paths and realizations, so
  the backward sweeps solve batches of duals that share their constraints;
* a deterministic chain with ``--algo ddp``: one path and one realization,
  so every backward dual is solved alone;
* the ``portfolio-isddp1`` benchmark solve (T=6, n=4, M=5, 5 paths, 14
  iterations), whose cut pools stop changing early, so the optimal bases
  of earlier stage LPs and duals answer most later ones.
"""

import csv
import os

import pytest

from isddp import stage_solver
from isddp.cli import EXIT_OK, main

from conftest import cache_hit, save_chain

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _portfolio(tmp):
    inst = os.path.join(tmp, "portfolio.json")
    assert main(["gen", "--T", "4", "--n", "3", "--M", "3", "--seed", "2",
                 "--out", inst]) == EXIT_OK
    return inst, ["--preset", "isddp1", "--paths", "3", "--max-iter", "6",
                  "--gap-tol", "1e-9", "--seed", "9"]


def _chain(tmp):
    inst = save_chain(10, 4, 2024, os.path.join(tmp, "chain.json"))
    return inst, ["--algo", "ddp", "--tol", "1e-6", "--max-iter", "100"]


def _portfolio_bench(tmp):
    inst = os.path.join(tmp, "bench.json")
    assert main(["gen", "--T", "6", "--n", "4", "--M", "5", "--seed", "0",
                 "--out", inst]) == EXIT_OK
    return inst, ["--preset", "isddp1", "--paths", "5", "--max-iter", "14",
                  "--gap-tol", "1e-9", "--seed", "9"]


RUNS = {"portfolio_isddp1": _portfolio, "chain_ddp": _chain,
        "portfolio_bench": _portfolio_bench}


def _solve(name, tmp, out):
    inst, flags = RUNS[name](tmp)
    assert main(["solve", "--instance", inst, *flags, "--out", out]) == EXIT_OK


def _rows(path):
    with open(path) as fh:
        return [{k: v for k, v in row.items() if k != "wall_ms"}
                for row in csv.DictReader(fh)]


@pytest.mark.parametrize("name", list(RUNS))
def test_solve_log_matches_golden(name, tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    _solve(name, str(tmp_path), out)
    capsys.readouterr()
    got, want = _rows(out), _rows(os.path.join(GOLDEN, f"{name}.csv"))
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want), start=1):
        assert a == b, f"iteration {k}"


@pytest.mark.parametrize("name", ["portfolio_isddp1", "portfolio_bench"])
def test_portfolio_runs_answer_duals_from_cached_bases(name, tmp_path, capsys, monkeypatch):
    # once a pool holds still, a later dual batch at a stage finds the
    # optimal bases of earlier ones in the pool's memo, and some of its
    # members price out at one: they are answered without a kernel solve
    answered = {"cache": 0, "kernel": 0}
    dual = stage_solver.solve_dual_batch

    def counting_dual(lp, eq_rhs, bases):
        cached = list(bases)
        outcomes = dual(lp, eq_rhs, bases)
        for out in outcomes:
            answered["cache" if cache_hit(out, cached) else "kernel"] += 1
        return outcomes

    monkeypatch.setattr(stage_solver, "solve_dual_batch", counting_dual)
    out = str(tmp_path / "run.csv")
    _solve(name, str(tmp_path), out)
    capsys.readouterr()
    assert answered["cache"] >= 1 and answered["kernel"] >= 1


@pytest.mark.parametrize("name", ["portfolio_isddp1", "portfolio_bench"])
def test_portfolio_runs_answer_forward_lps_from_cached_bases(name, tmp_path, capsys,
                                                             monkeypatch):
    # once a pool holds still, a later forward batch at a stage finds the
    # optimal bases of earlier ones in the pool's memo, and some of them are
    # primal feasible at some of its members: those are answered without a
    # kernel solve
    answered = {"cache": 0, "kernel": 0}
    primal, lone = stage_solver.solve_primal_batch, stage_solver.solve_with_primal_trail

    def counting_primal(lp, eq_rhs, bases):
        cached = list(bases)
        outcomes = primal(lp, eq_rhs, bases)
        for out in outcomes:
            answered["cache" if cache_hit(out, cached) else "kernel"] += 1
        return outcomes

    def counting_lone(lp):
        answered["kernel"] += 1
        return lone(lp)

    monkeypatch.setattr(stage_solver, "solve_primal_batch", counting_primal)
    monkeypatch.setattr(stage_solver, "solve_with_primal_trail", counting_lone)
    out = str(tmp_path / "run.csv")
    _solve(name, str(tmp_path), out)
    capsys.readouterr()
    assert answered["cache"] >= 1 and answered["kernel"] >= 1


if __name__ == "__main__":
    import shutil
    import tempfile

    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            _solve(name, tmp, os.path.join(tmp, "run.csv"))
            shutil.copy(os.path.join(tmp, "run.csv"), os.path.join(GOLDEN, f"{name}.csv"))
