"""The scripts under scripts/, each run in-process on a short horizon."""

import runpy
import sys
from pathlib import Path

import pytest

from heatbench.harness import AGENT_KINDS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _suite_files(name):
    return [f"{name}_table.csv",
            *(f"{name}_{a}_{log}.csv" for a in AGENT_KINDS for log in (a, "rbc_baseline"))]


@pytest.mark.parametrize("script, args, expected", [
    ("model_learning_curve.py", ["--days", "3", "--seeds", "0"], ["model_mae_seed0.csv"]),
    ("run_flat_suite.py", ["--days", "2"], _suite_files("flat")),
    ("run_dual_suite.py", ["--days", "2"], _suite_files("dual")),
], ids=["model_learning_curve", "run_flat_suite", "run_dual_suite"])
def test_script_writes_its_outputs(tmp_path, monkeypatch, script, args, expected):
    monkeypatch.setattr(sys, "argv", [script, *args, "--out", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert [name for name in expected if not (tmp_path / name).is_file()] == []
