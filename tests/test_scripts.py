"""Smoke tests of ``scripts/``: each script's ``run([...])`` on tiny settings.

No other test imports the scripts, so a change to the program's API that
breaks one of them shows up here.
"""

import csv
import importlib.util
import json
import os

from isddp.cli import EXIT_OK, PRESET_ORDER, main
from isddp.models import load_model, model_to_json
from isddp.toys import TOYS

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_portfolio_experiment_writes_every_preset(tmp_path, capsys):
    script = _script("run_portfolio_experiment")
    rc = script.run(["--outdir", str(tmp_path), "--T", "3", "--n", "2", "--M", "2",
                     "--paths", "2", "--max-iter", "2"])
    assert rc == 0
    assert "final bounds (per preset)" in capsys.readouterr().out
    model = load_model(str(tmp_path / "portfolio_T3_n2.json"))
    assert model.horizon == 3 and not model.deterministic
    with open(tmp_path / "compare.csv") as fh:
        variants = [row["variant"] for row in csv.DictReader(fh)]
    assert variants == PRESET_ORDER[1:]
    for preset in PRESET_ORDER:
        with open(tmp_path / f"{preset}.csv") as fh:
            rows = list(csv.DictReader(fh))
        with open(tmp_path / f"{preset}.summary.json") as fh:
            summary = json.load(fh)
        assert 1 <= len(rows) <= 2
        assert summary["iterations"] == len(rows)
        assert float(rows[-1]["lb"]) == summary["lb"]


def test_export_toys_writes_every_toy(tmp_path, capsys):
    script = _script("export_toys")
    assert script.run(["--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == sorted(f"{name}.json" for name in TOYS)
    for name, factory in TOYS.items():
        path = str(tmp_path / f"{name}.json")
        model, toy = load_model(path), factory()
        assert model_to_json(model) == model_to_json(toy)
        if toy.deterministic:
            assert main(["solve", "--instance", path, "--algo", "ddp",
                         "--out", str(tmp_path / f"{name}.csv")]) == EXIT_OK
