"""Smoke tests of ``scripts/``: each script's ``run([...])`` on tiny settings.

No other test imports the scripts, so a change to the program's API that
breaks one of them shows up here.
"""

import importlib.util
import os

from isddp.cli import EXIT_OK, main
from isddp.models import load_model, model_to_json
from isddp.toys import TOYS

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
