"""Stress corpus: instances that once faulted must solve to the oracle's value."""

import json
import os

import numpy as np
import pytest

from isddp.cli import EXIT_OK, main
from isddp.lp_core import (
    LinearProgram,
    LpError,
    solve_exact,
    solve_primal_batch,
    solve_with_primal_trail,
)

from conftest import save_chain

LPS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lps")


@pytest.mark.parametrize("seed", [0, 1])
def test_t48_chain_solves_to_the_oracle_value(seed, tmp_path, capsys):
    # the T=48, n=10 chains of gen seeds 0 and 1 exited 2 under an
    # all-artificial simplex start, at iterations 21 and 31
    inst = save_chain(48, 10, seed, tmp_path / "chain.json")
    rc = main(["solve", "--instance", inst, "--algo", "ddp", "--tol", "1e-6",
               "--max-iter", "100", "--out", str(tmp_path / "run.csv")])
    assert rc == EXIT_OK
    lb = json.loads(capsys.readouterr().out)["lb"]
    assert main(["oracle", "--instance", inst]) == EXIT_OK
    v_star = json.loads(capsys.readouterr().out)["v_star"]
    assert abs(lb - v_star) <= 1e-9 * abs(v_star)


def test_binding_limit_portfolio_with_100_paths_runs_10_iterations(tmp_path, capsys):
    # the u=0.3 family, whose pools change every iteration: iteration 8
    # exited 2 at stage 3 (path 49), "phase-1 subproblem unbounded", while
    # phase 1 ran on after the last artificial had left the basis
    inst = str(tmp_path / "u03.json")
    assert main(["gen", "--T", "6", "--n", "4", "--M", "10", "--u", "0.3", "--seed", "2024",
                 "--out", inst]) == EXIT_OK
    out = tmp_path / "run.csv"
    rc = main(["solve", "--instance", inst, "--preset", "sddp", "--paths", "100",
               "--gap-tol", "1e-9", "--max-iter", "10", "--seed", "9", "--out", str(out)])
    assert rc == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 10


@pytest.mark.parametrize("name", ["u03_paths50_k11_stage3_path25", "u03_paths200_k9_stage3_path84"])
def test_stored_forward_lp_solves_to_the_highs_value(name):
    # forward LPs (17 variables, 9 equality rows, 300 and 353 cut rows) of
    # the u=0.3 family run with --preset sddp --seed 9, at the iteration,
    # stage and path of their names.  Each faulted alone and in its batch:
    # no artificial was basic any more, but a residue of about 2^-29 in the
    # phase-1 row priced the epigraph column f+, which has no positive
    # entry, so phase 1 reported itself unbounded.  The file holds the LP and
    # the optimum that HiGHS gives it.  A batch of two copies runs phase 1 in
    # the group loop, a lone solve in the scalar loop.
    with np.load(os.path.join(LPS, name + ".npz")) as stored:
        lp = LinearProgram(stored["cost"], stored["eq_matrix"], stored["eq_rhs"],
                           stored["cut_beta"], stored["cut_theta"])
        v_star = float(stored["highs_obj"])
    outcomes = [solve_exact(lp), solve_with_primal_trail(lp),
                *solve_primal_batch(lp, np.array([lp.eq_rhs, lp.eq_rhs]), [])]
    for out in outcomes:
        assert not isinstance(out, LpError), out
        assert abs(out.obj - v_star) <= 1e-9 * abs(v_star)
