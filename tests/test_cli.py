import csv
import json
import os

import numpy as np
import pytest

from isddp import cli, stage_solver
from isddp.cli import EXIT_GUARD, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main
from isddp.models import load_model, model_to_json, save_model
from isddp.toys import toy_det_t3, toy_sto_t3_m2


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "toy.json"
    save_model(toy_sto_t3_m2(), path)
    return str(path)


@pytest.fixture
def det_instance(tmp_path):
    path = tmp_path / "det.json"
    save_model(toy_det_t3(), path)
    return str(path)


class TestGen:
    def test_writes_parseable_instance(self, tmp_path, capsys):
        out = str(tmp_path / "inst.json")
        rc = main(["gen", "--T", "3", "--n", "2", "--M", "2", "--seed", "5", "--out", out])
        assert rc == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["T"] == 3 and summary["n"] == 2
        model = load_model(out)
        assert model.horizon == 3

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["gen", "--T", "4", "--n", "3", "--M", "2", "--seed", "8", "--out", a]) == EXIT_OK
        assert main(["gen", "--T", "4", "--n", "3", "--M", "2", "--seed", "8", "--out", b]) == EXIT_OK
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_degenerate_horizon_supported(self, tmp_path):
        out = str(tmp_path / "t2.json")
        assert main(["gen", "--T", "2", "--n", "1", "--M", "2", "--out", out]) == EXIT_OK
        assert load_model(out).horizon == 2

    def test_invalid_spec_exits_one(self, tmp_path):
        rc = main(["gen", "--T", "1", "--n", "2", "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("rate", ["-2", "nan", "inf"])
    def test_risk_free_rate_without_a_finite_gross_return_exits_one(self, rate, tmp_path,
                                                                    capsys):
        # 1 + r must be a finite gross return >= 0, as in a returns CSV
        out = tmp_path / "p.json"
        rc = main(["gen", "--T", "3", "--n", "2", "--M", "2", "--risk-free", rate,
                   "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "--risk-free" in capsys.readouterr().err
        assert not out.exists()

    def test_risk_free_rate_of_minus_one_is_allowed(self, tmp_path, capsys):
        # a gross cash return of 0, like a zero entry in a returns CSV
        out = str(tmp_path / "p.json")
        assert main(["gen", "--T", "3", "--n", "2", "--M", "2", "--risk-free", "-1",
                     "--out", out]) == EXIT_OK
        assert main(["oracle", "--instance", out]) == EXIT_OK
        v_star = json.loads(capsys.readouterr().out.splitlines()[-1])["v_star"]
        assert np.isfinite(v_star)


def write_returns_csv(path, row3):
    # five rows, as T=3 with M=2 needs; the third is the one under test
    rows = [["1.01", "0.99"], ["1.0", "1.0"], row3, ["1.02", "0.99"], ["1.03", "0.985"]]
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return str(path)


class TestGenReturnsCsv:
    GEN = ["gen", "--T", "3", "--n", "2", "--M", "2", "--returns-csv"]

    @pytest.mark.parametrize("row3, where", [
        (["1.0", "-1.0"], "row 3, column 2"),
        (["nan", "1.0"], "row 3, column 1"),
        (["1.0", "1.0", "1.0"], "row 3: 3 entries, expected n=2"),
        (["1.0", ""], "row 3, column 2"),
    ], ids=["negative", "nan", "ragged", "empty-cell"])
    def test_bad_entry_names_file_and_row(self, row3, where, tmp_path, capsys):
        path = write_returns_csv(tmp_path / "r.csv", row3)
        out = tmp_path / "p.json"
        assert main([*self.GEN, path, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{path}, {where}" in err
        assert not out.exists()

    def test_zero_return_is_allowed(self, tmp_path, capsys):
        path = write_returns_csv(tmp_path / "r.csv", ["1.0", "0.0"])
        out = str(tmp_path / "p.json")
        assert main([*self.GEN, path, "--out", out]) == EXIT_OK
        assert main(["oracle", "--instance", out]) == EXIT_OK
        v_star = json.loads(capsys.readouterr().out.splitlines()[-1])["v_star"]
        assert np.isfinite(v_star)


class TestSolve:
    def test_exact_preset_on_toy(self, instance, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        rc = main([
            "solve", "--instance", instance, "--preset", "sddp", "--paths", "8",
            "--gap-tol", "0.001", "--max-iter", "60", "--seed", "1", "--out", out,
        ])
        assert rc == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        from isddp import oracle

        v = oracle.extensive_form(load_model(instance))
        assert abs(summary["lb"] - v) <= 1e-5 * (1 + abs(v))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {
            "iter", "lb", "ub", "gap", "n_paths", "wall_ms", "eps_bar", "eps0",
        }
        assert os.path.exists(os.path.splitext(out)[0] + ".summary.json")

    def test_ddp_on_deterministic_instance(self, det_instance, tmp_path, capsys):
        out = str(tmp_path / "ddp.csv")
        rc = main([
            "solve", "--instance", det_instance, "--algo", "ddp",
            "--tol", "1e-7", "--max-iter", "50", "--out", out,
        ])
        assert rc == EXIT_OK
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["iter", "lb", "ub", "gap", "n_paths", "wall_ms", "eps_bar", "eps0"]

    def test_iddp_log_names_its_schedule(self, det_instance, tmp_path, capsys):
        # ddp and iddp write the log format of sddp and isddp
        out = str(tmp_path / "iddp.csv")
        rc = main(["solve", "--instance", det_instance, "--algo", "iddp", "--preset", "isddp1",
                   "--tol", "1e-7", "--max-iter", "50", "--out", out])
        assert rc == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["iter", "lb", "ub", "gap", "n_paths", "wall_ms",
                                 "eps_bar", "eps0"]
        assert {(r["n_paths"], r["eps_bar"], r["eps0"]) for r in rows} == {("1", "0.1", "1e-12")}

    def test_sddp_on_deterministic_matches_ddp(self, det_instance, tmp_path):
        out_d = str(tmp_path / "d.csv")
        out_s = str(tmp_path / "s.csv")
        assert main(["solve", "--instance", det_instance, "--algo", "ddp",
                     "--tol", "1e-9", "--max-iter", "30", "--out", out_d]) == EXIT_OK
        assert main(["solve", "--instance", det_instance, "--algo", "sddp", "--paths", "1",
                     "--gap-tol", "1e-9", "--max-iter", "30", "--out", out_s]) == EXIT_OK
        rows_d = list(csv.DictReader(open(out_d)))
        rows_s = list(csv.DictReader(open(out_s)))
        for a, b in zip(rows_d, rows_s):
            assert a["lb"] == b["lb"] and a["ub"] == b["ub"]

    def test_missing_instance_exits_one(self, tmp_path):
        rc = main(["solve", "--instance", str(tmp_path / "nope.json"), "--algo", "sddp"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("algo", ["ddp", "iddp"])
    def test_one_path_algorithms_reject_paths(self, algo, det_instance, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(["solve", "--instance", det_instance, "--algo", algo, "--paths", "50",
                   "--out", str(out)])
        assert rc == EXIT_USAGE
        assert f"--algo {algo} follows one path" in capsys.readouterr().err
        assert not out.exists()

    def test_ddp_rejects_a_stochastic_instance(self, instance, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(["solve", "--instance", instance, "--algo", "ddp", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "need a deterministic model" in capsys.readouterr().err
        assert not out.exists()

    def test_ddp_on_a_one_realization_portfolio(self, tmp_path, capsys):
        # the M=1 portfolio solves as a chain, and its log is the log of
        # the same chain written as a "deterministic" file
        inst = str(tmp_path / "m1.json")
        assert main(["gen", "--T", "4", "--n", "2", "--M", "1", "--out", inst]) == EXIT_OK
        with open(inst) as fh:
            d = json.load(fh)
        stages = [d["stage1"]] + [st["realizations"][0] for st in d["stages"]]
        for stage in stages[1:]:
            del stage["prob"]
        chain = str(tmp_path / "chain.json")
        with open(chain, "w") as fh:
            json.dump({"type": "deterministic", "x0": d["x0"], "floors": d["floors"],
                       "stages": stages}, fh)
        logs = []
        for path in (inst, chain):
            out = str(tmp_path / f"{os.path.basename(path)}.csv")
            assert main(["solve", "--instance", path, "--algo", "ddp", "--tol", "1e-7",
                         "--max-iter", "50", "--out", out]) == EXIT_OK
            with open(out) as fh:
                logs.append([{k: v for k, v in row.items() if k != "wall_ms"}
                             for row in csv.DictReader(fh)])
        assert logs[0] and logs[0] == logs[1]

    @pytest.mark.parametrize("content", [
        {"type": "stochastic"},
        [1, 2],
        {"type": "deterministic", "x0": [0.0], "floors": [],
         "stages": [{"A": [[1.0]], "B": [[0.0]], "b": [1.0]}]},
        {"type": "deterministic", "x0": [0.0], "floors": [], "stages": [[1.0]]},
    ], ids=["no-stages", "not-an-object", "stage-without-c", "stage-not-an-object"])
    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_malformed_instance_is_usage_error(self, command, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        assert main([command, "--instance", str(path)]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_constant_bounded_logs_its_level(self, instance, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        rc = main(["solve", "--instance", instance, "--schedule-mode", "constant_bounded",
                   "--eps-bar", "0.05", "--paths", "2", "--max-iter", "2", "--out", out])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["eps_bar"] == 0.05
        assert {row["eps_bar"] for row in csv.DictReader(open(out))} == {"0.05"}

    @pytest.mark.parametrize("flags", [
        ["--algo", "ddp", "--schedule-mode", "relative"],
        ["--algo", "ddp", "--eps-bar", "0.3"],
        ["--algo", "sddp", "--eps0", "1e-9"],
        ["--preset", "isddp2", "--schedule-mode", "constant_bounded", "--eps-bar", "0.3"],
        ["--preset", "isddp2", "--eps-bar", "0.3"],
        ["--algo", "iddp", "--preset", "isddp1", "--eps0", "1e-9"],
    ], ids=["ddp-schedule-mode", "ddp-eps-bar", "sddp-eps0", "preset-schedule-mode",
            "preset-eps-bar", "iddp-preset-eps0"])
    def test_ddp_forces_exact_mode(self, flags, det_instance, tmp_path, capsys):
        # the exact algorithms and the presets fix the schedule: a free-form
        # schedule flag beside them is a usage error, not silently dropped
        out = tmp_path / "run.csv"
        rc = main(["solve", "--instance", det_instance, *flags, "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "so it takes no" in err and flags[-2] in err
        assert not out.exists()

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_max_iter_below_one_is_usage_error(self, det_instance, tmp_path, capsys, max_iter):
        out = tmp_path / "run.csv"
        rc = main(["solve", "--instance", det_instance, "--algo", "ddp",
                   "--max-iter", max_iter, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "--max-iter must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["solve", "--algo", "sddp"],
                                         ["compare", "--presets", "sddp,isddp1"]],
                             ids=["solve", "compare"])
    def test_paths_below_one_is_usage_error(self, instance, tmp_path, capsys, command):
        out = tmp_path / "run.csv"
        rc = main([*command, "--instance", instance, "--paths", "0", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "usage error: --paths must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_fault_exits_two(self, tmp_path):
        # stage 2 infeasible for every state: 0 == 1
        from isddp.models import StageModel, StochasticModel

        bad = StochasticModel.chain(
            [
                StageModel(A=[[1.0]], B=[[0.0]], b=[1.0], c=[0.0]),
                StageModel(A=[[0.0]], B=[[0.0]], b=[1.0], c=[0.0]),
            ],
            x0=np.array([0.0]),
            floors=np.array([0.0]),
        )
        path = str(tmp_path / "bad.json")
        save_model(bad, path)
        out = str(tmp_path / "bad.csv")
        rc = main(["solve", "--instance", path, "--algo", "ddp", "--max-iter", "3",
                   "--out", out])
        assert rc == EXIT_SOLVER
        # the partial log is flushed (header at minimum)
        assert open(out).readline().startswith("iter,lb,ub,gap")

    def test_forward_kernel_fault_keeps_partial_log(self, det_instance, tmp_path,
                                                    monkeypatch, capsys):
        import isddp.sddp_engine as engine
        import isddp.stage_solver as ss
        from isddp.lp_core import LpError

        lone, batch = ss.solve_with_primal_trail, ss.solve_primal_batch
        lower_bound = engine.stage_value_exact
        calls, in_lb = [], []
        fault = LpError("phase-1 subproblem unbounded: numerical failure")

        def in_iteration_two(lp):
            # iteration 1 runs against empty pools: one forward kernel call
            # per stage, so call T + 1 outside the lower bound is in
            # iteration 2.  The lower bound of iteration 1 fills the memo
            # entry of stage 1, so that call is stage 2's.  One path makes
            # every forward batch a batch of one, through either entry.
            if not in_lb:
                calls.append(lp)
            return len(calls) > toy_det_t3().horizon

        def fails_in_iteration_two(lp):
            if in_iteration_two(lp):
                raise fault
            return lone(lp)

        def batch_fails_in_iteration_two(lp, eq_rhs, bases):
            if in_iteration_two(lp):
                return [fault] * len(eq_rhs)
            return batch(lp, eq_rhs, bases)

        def flagged_lower_bound(*args, **kwargs):
            in_lb.append(True)
            try:
                return lower_bound(*args, **kwargs)
            finally:
                in_lb.pop()

        monkeypatch.setattr(ss, "solve_with_primal_trail", fails_in_iteration_two)
        monkeypatch.setattr(ss, "solve_primal_batch", batch_fails_in_iteration_two)
        monkeypatch.setattr(engine, "stage_value_exact", flagged_lower_bound)
        out = str(tmp_path / "fault.csv")
        rc = main(["solve", "--instance", det_instance, "--algo", "ddp",
                   "--max-iter", "5", "--out", out])
        assert rc == EXIT_SOLVER
        assert "stage 2 (path 0)" in capsys.readouterr().err
        rows = list(csv.DictReader(open(out)))
        assert [r["iter"] for r in rows] == ["1"]

    def test_cut_row_violation_names_stage_and_path(self, tmp_path, capsys, monkeypatch):
        # a forward LP that comes back OPTIMAL at a point violating one of its
        # own cut rows is a kernel fault.  The fault is injected: every
        # stage-3 forward LP that carries pool cuts returns its optimum with
        # the epigraph value lowered below them.  With solve seed 111 the
        # first such LP is path 0's, in iteration 2.
        pools = {}
        real_lp = stage_solver.stage_lp
        real_batch = stage_solver.solve_primal_batch

        def recording_lp(stage, x_prev, pool):
            lp = real_lp(stage, x_prev, pool)
            pools[id(lp)] = pool
            return lp

        def violating(lp, eq_rhs, bases):
            outcomes = real_batch(lp, eq_rhs, bases)
            if pools[id(lp)].stage == 4 and lp.num_cuts > 1:  # stage 3's LPs
                for out in outcomes:
                    out.obj -= 1.0
            return outcomes

        monkeypatch.setattr(stage_solver, "stage_lp", recording_lp)
        monkeypatch.setattr(stage_solver, "solve_primal_batch", violating)
        monkeypatch.setattr(stage_solver, "solve_with_primal_trail",
                            lambda lp: violating(lp, lp.eq_rhs[None], [])[0])
        inst = str(tmp_path / "u02.json")
        assert main(["gen", "--T", "6", "--n", "8", "--M", "10", "--u", "0.2",
                     "--seed", "0", "--out", inst]) == EXIT_OK
        capsys.readouterr()
        out = str(tmp_path / "violation.csv")
        rc = main(["solve", "--instance", inst, "--preset", "isddp2", "--paths", "10",
                   "--gap-tol", "1e-9", "--max-iter", "40", "--seed", "111", "--out", out])
        assert rc == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "stage 3 (path 0): the kernel's optimum violates one of its own cut rows" in err
        assert "np.float64(" not in err  # the kernel's objectives are plain floats
        rows = list(csv.DictReader(open(out)))
        assert [r["iter"] for r in rows] == ["1"]


class TestCompare:
    def test_self_comparison_ratio_one(self, instance, tmp_path, capsys):
        out = str(tmp_path / "cmp.csv")
        rc = main([
            "compare", "--instance", instance, "--presets", "sddp,sddp",
            "--paths", "4", "--max-iter", "20", "--seed", "1", "--out", out,
        ])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 1
        assert rows[0]["cpu_ratio"] == "1.00"
        assert rows[0]["iterations"] == rows[0]["iterations_base"]

    def test_five_presets_four_ratio_rows(self, instance, tmp_path):
        out = str(tmp_path / "cmp5.csv")
        rc = main([
            "compare", "--instance", instance,
            "--presets", "sddp,isddp1,isddp2,isddp3,isddp4",
            "--paths", "4", "--max-iter", "25", "--seed", "1", "--out", out,
        ])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 4
        assert [r["variant"] for r in rows] == ["isddp1", "isddp2", "isddp3", "isddp4"]
        assert all(float(r["cpu_ratio"]) > 0 for r in rows)
        # each preset's run log and summary are written next to --out
        for preset in ["sddp", "isddp1", "isddp2", "isddp3", "isddp4"]:
            log = list(csv.DictReader(open(tmp_path / f"{preset}.csv")))
            summary = json.load(open(tmp_path / f"{preset}.summary.json"))
            assert summary["iterations"] == len(log)
            assert float(log[-1]["lb"]) == summary["lb"]

    def test_needs_two_presets(self, instance):
        assert main(["compare", "--instance", instance, "--presets", "sddp"]) == EXIT_USAGE

    def test_takes_no_tol(self, instance, tmp_path, capsys):
        # compare runs isddp, which stops on --gap-tol; --tol is the
        # ddp/iddp stop rule, so compare has no such flag
        rc = main(["compare", "--instance", instance, "--presets", "sddp,isddp1",
                   "--tol", "1e-3", "--out", str(tmp_path / "cmp.csv")])
        assert rc == EXIT_USAGE
        assert "--tol" in capsys.readouterr().err

    def test_mismatched_instances_rejected(self, instance, det_instance):
        rc = main([
            "compare", "--presets", "sddp,isddp1",
            "--instance", instance, "--instance", det_instance,
        ])
        assert rc == EXIT_USAGE


class TestParser:
    def test_calls_share_no_parsed_state(self, instance, det_instance, monkeypatch):
        # the parser is built once per process; a flag that appends, given
        # twice in one call, appends nothing to the next call's list
        seen = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args) or EXIT_OK)
        assert main(["solve", "--instance", instance, "--instance", det_instance]) == EXIT_OK
        assert main(["solve", "--instance", instance]) == EXIT_OK
        assert [args.instance for args in seen] == [[instance, det_instance], [instance]]
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("bad", [
        ["--instance", "{instance}", "--seed", "5", "--paths", "x"],  # not an int
        ["--instance", "{instance}", "--seed", "5", "--bogus"],       # unknown flag
        ["--seed", "5"],                                              # no --instance
    ])
    def test_a_usage_error_leaves_the_next_call_unaffected(self, bad, instance, capsys,
                                                           monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(vars(args)) or EXIT_OK)
        assert main(["solve", "--instance", instance]) == EXIT_OK
        assert main(["solve", *(a.format(instance=instance) for a in bad)]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert main(["solve", "--instance", instance]) == EXIT_OK
        assert len(seen) == 2 and seen[1] == seen[0] and seen[1]["seed"] == 0


class TestOracleCmd:
    def test_prints_exact_value(self, det_instance, capsys):
        rc = main(["oracle", "--instance", det_instance])
        assert rc == EXIT_OK
        v = json.loads(capsys.readouterr().out)["v_star"]
        from isddp import oracle

        assert v == pytest.approx(oracle.extensive_form(toy_det_t3()))

    def test_recourse_query(self, instance, capsys):
        rc = main(["oracle", "--instance", instance, "--stage", "3", "--state", "1.0,0.5,0.0"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        from isddp import oracle

        ref = oracle.exact_recourse(toy_sto_t3_m2(), 3, np.array([1.0, 0.5, 0.0]))
        assert out["recourse"] == pytest.approx(ref)

    @pytest.mark.parametrize("stage", [2, 41])
    def test_state_of_the_wrong_length_names_stage_and_length(self, tmp_path, capsys, stage):
        # a T=40, n=6 chain: stage 2 takes the 25 stage-1 variables, and
        # stage 41, beyond the horizon, the 25 stage-40 variables
        path = str(tmp_path / "chain.json")
        argv = ["gen", "--T", "40", "--n", "6", "--M", "1", "--seed", "2024", "--out", path]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        rc = main(["oracle", "--instance", path, "--stage", str(stage), "--state", "1,2"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"stage {stage}" in err and "25" in err
        assert "matmul" not in err

    @pytest.mark.parametrize("state, entry", [("a,b", "entry 1 of 2 is 'a'"),
                                              ("nan,0.5,0", "entry 1 of 3 is 'nan'"),
                                              ("1.0,inf,0", "entry 2 of 3 is 'inf'")])
    def test_state_that_is_not_finite_numbers_is_a_usage_error(self, instance, capsys,
                                                               state, entry):
        rc = main(["oracle", "--instance", instance, "--stage", "3", "--state", state])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"usage error: --state {entry}, not a finite number" in err
        assert "RuntimeWarning" not in err and "argmax" not in err

    def test_oversized_tree_exits_three(self, tmp_path, capsys):
        from isddp.models import StochasticModel, StochasticStageModel
        from isddp.toys import toy_sto_t3_m2

        base = toy_sto_t3_m2()
        st = base.stages[0]
        many = StochasticStageModel(
            realizations=st.realizations * 60, probs=np.full(120, 1.0 / 120)
        )
        big = StochasticModel(
            stage1=base.stage1, stages=[many, many], x0=base.x0, floors=base.floors
        )
        path = str(tmp_path / "big.json")
        save_model(big, path)
        assert main(["oracle", "--instance", path]) == EXIT_GUARD

    def test_dense_tableau_too_large_exits_three(self, tmp_path, capsys):
        # 3,125 leaves, but a 35,154 x 66,402 tree LP: a 3.6e9-cell tableau
        path = str(tmp_path / "p.json")
        assert main(["gen", "--T", "6", "--n", "4", "--M", "5", "--out", path]) == EXIT_OK
        assert main(["oracle", "--instance", path]) == EXIT_GUARD
        assert "oracle guard" in capsys.readouterr().err


    def test_kernel_fault_exits_two(self, det_instance, capsys, monkeypatch):
        from isddp import oracle
        from isddp.lp_core import PivotLimitError

        def stalls(lp):
            raise PivotLimitError("pivot budget exhausted", np.zeros(lp.num_vars), 0.0)

        monkeypatch.setattr(oracle, "solve_exact", stalls)
        assert main(["oracle", "--instance", det_instance]) == EXIT_SOLVER
        assert "solver fault: pivot budget exhausted" in capsys.readouterr().err


class TestRoundTrip:
    def test_emitted_json_parses_back_equal(self, tmp_path):
        out = str(tmp_path / "inst.json")
        assert main(["gen", "--T", "3", "--n", "2", "--M", "3", "--seed", "3", "--out", out]) == EXIT_OK
        model = load_model(out)
        resaved = str(tmp_path / "resave.json")
        save_model(model, resaved)
        assert open(out).read() == open(resaved).read()
        assert model_to_json(load_model(resaved)) == model_to_json(model)
