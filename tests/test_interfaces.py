"""The public surface that `harness.simulate` and the benchmark's tracer rely on.

Each controller meets `simulate` through the four hooks of `mdp.Controller`
and has no second entry point; the few extra methods it keeps are the ones
`perfbench/tracer.py` wraps by name.  The tracer's targets are resolved here
without running a scenario, so a refactor that drops one fails in
milliseconds, naming it.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

from heatbench.baselines import MpcController, RbcController
from heatbench.mdp import Controller
from heatbench.model_based import ModelBasedAgent
from heatbench.model_free import ModelFreeAgent

HOOKS = {"daily_update", "act", "observe", "tables"}
ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _public_methods(cls) -> set[str]:
    return {name for name in dir(cls) if not name.startswith("_")
            and callable(getattr(cls, name))}


@pytest.mark.parametrize("cls, extra", [
    (Controller, set()),
    (RbcController, set()),
    (MpcController, {"decide"}),
    (ModelBasedAgent, set()),
    (ModelFreeAgent, {"encode", "train_cycle"}),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_each_controller_has_the_four_hooks_and_only_the_traced_extras(cls, extra):
    assert _public_methods(cls) == HOOKS | extra
    assert cls is Controller or "act" in vars(cls)


def test_every_tracer_target_resolves_on_heatbench():
    missing = []
    for name, (module, attr, *_) in runpy.run_path(str(TRACER))["TARGETS"].items():
        owner = importlib.import_module(f"heatbench.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert not missing, f"perfbench traces names heatbench lacks: {missing}"


def _top_level_reads():
    """(file, name the statement defines or None, names and attributes it
    reads) of each top-level statement under src/, scripts/ and perfbench/."""
    for path in sorted(p for d in ("src", "scripts", "perfbench")
                       for p in (ROOT / d).rglob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = getattr(stmt, "targets", [])
            defines = getattr(stmt, "name", None) or (
                targets[0].id if len(targets) == 1 and isinstance(targets[0], ast.Name) else None)
            yield path, defines, {n.id if isinstance(n, ast.Name) else n.attr
                                  for n in ast.walk(stmt)
                                  if isinstance(n, (ast.Name, ast.Attribute))
                                  and isinstance(n.ctx, ast.Load)}


def test_every_top_level_definition_is_used_outside_itself():
    """Each function, class and assigned name at the top of a heatbench module
    is read by another top-level statement, so a helper a refactor leaves
    behind fails here; `__all__` and dunders are exempt."""
    reads = list(_top_level_reads())
    unused = [f"{path.stem}.{name}" for path, name, _ in reads
              if path.parent == ROOT / "src" / "heatbench" and name is not None
              and not (name.startswith("__") and name.endswith("__"))
              and not any(name in names for file, defines, names in reads
                          if (file, defines) != (path, name))]
    assert not unused, f"defined but used only by tests: {unused}"
