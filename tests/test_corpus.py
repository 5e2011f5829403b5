"""Stress corpus: instances that once faulted must solve to the oracle's value."""

import json

import pytest

from isddp.cli import EXIT_OK, main

from conftest import save_chain


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: at 100 paths iteration 8 exits 2, "
                   "stage 3 (path 49): phase-1 subproblem unbounded")
def test_binding_limit_portfolio_with_100_paths_runs_10_iterations(tmp_path, capsys):
    # the u=0.3 family of ROADMAP finding 1, whose pools change every iteration
    inst = str(tmp_path / "u03.json")
    assert main(["gen", "--T", "6", "--n", "4", "--M", "10", "--u", "0.3", "--seed", "2024",
                 "--out", inst]) == EXIT_OK
    out = tmp_path / "run.csv"
    rc = main(["solve", "--instance", inst, "--preset", "sddp", "--paths", "100",
               "--gap-tol", "1e-9", "--max-iter", "10", "--seed", "9", "--out", str(out)])
    assert rc == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 10
