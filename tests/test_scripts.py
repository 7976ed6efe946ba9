"""The scripts under scripts/, each run in-process on a short horizon."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, expected", [
    ("model_learning_curve.py", ["--days", "3", "--seeds", "0"], ["model_mae_seed0.csv"]),
], ids=["model_learning_curve"])
def test_script_writes_its_outputs(tmp_path, monkeypatch, script, args, expected):
    monkeypatch.setattr(sys, "argv", [script, *args, "--out", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert [name for name in expected if not (tmp_path / name).is_file()] == []
