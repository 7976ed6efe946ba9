"""The scripts under scripts/, each run in-process on a short horizon."""

import ast
import importlib
import re
import runpy
import sys
from pathlib import Path

import pytest

from heatbench.harness import Scenario, run_scenario

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, expected", [
    ("model_learning_curve.py", ["--days", "3", "--seeds", "0"], ["model_mae_seed0.csv"]),
], ids=["model_learning_curve"])
def test_script_writes_its_outputs(tmp_path, monkeypatch, script, args, expected):
    monkeypatch.setattr(sys, "argv", [script, *args, "--out", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert [name for name in expected if not (tmp_path / name).is_file()] == []


def test_learning_curve_file_equals_the_runs_model_mae_file(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["model_learning_curve.py", "--days", "4", "--seeds", "1",
                                      "--out", str(tmp_path / "curve")])
    runpy.run_path(str(SCRIPTS / "model_learning_curve.py"), run_name="__main__")
    report = run_scenario(Scenario(days=4, agent="mbrl", seed=1), tmp_path / "run")
    curve = (tmp_path / "curve" / "model_mae_seed1.csv").read_bytes()
    assert curve.count(b"\n") == 3  # the header and days 2 and 3
    assert curve == Path(report.extra_paths["model_mae"]).read_bytes()


def test_learning_curve_rejects_a_run_without_a_controlled_hour(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["model_learning_curve.py", "--days", "1", "--seeds", "0",
                                      "--out", str(tmp_path / "curve")])
    with pytest.raises(ValueError, match=r"warmup_hours must be < days \* 24"):
        runpy.run_path(str(SCRIPTS / "model_learning_curve.py"), run_name="__main__")
    assert list(tmp_path.rglob("*.csv")) == []
    assert not (tmp_path / "curve").exists()


@pytest.mark.parametrize("seeds, message", [
    (["0", "-1"], "seed must be >= 0"),
    (["0", "0"], "--seeds names seed 0 twice"),
    (["1", "2", "1"], "--seeds names seed 1 twice"),
], ids=["negative", "repeated", "repeated-apart"])
def test_learning_curve_checks_every_seed_before_writing(tmp_path, monkeypatch, seeds,
                                                         message):
    out = tmp_path / "curve"
    monkeypatch.setattr(sys, "argv", ["model_learning_curve.py", "--days", "2", "--seeds",
                                      *seeds, "--out", str(out)])
    with pytest.raises(ValueError, match=re.escape(message)):
        runpy.run_path(str(SCRIPTS / "model_learning_curve.py"), run_name="__main__")
    assert not out.exists()


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_scripts_import_only_public_names(script):
    tree = ast.parse((SCRIPTS / script).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("heatbench")]
    private = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
               if alias.name not in getattr(importlib.import_module(node.module), "__all__", ())]
    assert private == []
