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
