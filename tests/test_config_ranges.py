"""Every numeric field of every config dataclass declares its range, and a
value outside it (NaN, an infinity, just past a finite bound) is rejected
with a message that names the field: on construction, and through the INI
section that sets the field.  A value inside it either runs to the end or
is rejected where it enters."""

import dataclasses
import math
import re
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatbench import BackupConfig, SuiteConfig
from heatbench.harness import AGENT_KINDS, INI_SECTIONS, run_scenario, scenario_from_ini
from heatbench.model_free import QPair
from heatbench.neural import MlpParams, MlpSpec

CONFIGS = (*INI_SECTIONS.values(), BackupConfig, QPair, SuiteConfig, MlpSpec)


def _numeric_fields(cls):
    """(name, number type, is a tuple of them) of each int or float field, or of
    such a field that may also be None."""
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        if len(args) == 2 and type(None) in args:  # X | None: X's values
            hint = next(a for a in args if a is not type(None))
        is_tuple = typing.get_origin(hint) is tuple
        kind = typing.get_args(hint)[0] if is_tuple else hint
        if kind in (int, float):
            yield name, kind, is_tuple


def _allowed(cls, name) -> str:
    allowed = next(f for f in dataclasses.fields(cls) if f.name == name).metadata.get("allowed")
    assert isinstance(allowed, str), f"{cls.__name__}.{name} declares no interval"
    return allowed


def _outside(allowed: str, kind):
    """Values of type `kind` outside the interval `allowed`: past each finite
    bound, at it when the bound is open, and for floats NaN and both infinities."""
    lo, hi = map(float, allowed[1:-1].split(","))
    lo_in, hi_in = allowed[0] == "[", allowed[-1] == "]"
    if kind is int:
        below = st.integers(max_value=int(lo) - lo_in) if lo > -math.inf else st.nothing()
        above = st.integers(min_value=int(hi) + hi_in) if hi < math.inf else st.nothing()
        return below | above
    edges = [math.nan, math.inf, -math.inf]
    below = above = st.nothing()
    if lo > -math.inf:
        edges.append(math.nextafter(lo, -math.inf) if lo_in else lo)
        below = st.floats(max_value=lo, exclude_max=lo_in)
    if hi < math.inf:
        edges.append(math.nextafter(hi, math.inf) if hi_in else hi)
        above = st.floats(min_value=hi, exclude_min=hi_in)
    return st.sampled_from(edges) | below | above


def _build(cls, **kwargs):
    if cls is QPair:
        net = MlpParams.init(MlpSpec((2, 2)))
        return QPair(net, net.copy(), **kwargs)
    if cls is MlpSpec:
        return MlpSpec(**{"layer_sizes": (2, 2), **kwargs})
    return cls(**kwargs)


@pytest.mark.parametrize("cls, name, kind, is_tuple", [
    pytest.param(cls, *field, id=f"{cls.__name__}.{field[0]}")
    for cls in CONFIGS for field in _numeric_fields(cls)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_config_fields_reject_values_outside_their_declared_range(cls, name, kind, is_tuple,
                                                                   data):
    bad = data.draw(_outside(_allowed(cls, name), kind), label=name)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        _build(cls, **{name: (bad,) if is_tuple else bad})


@pytest.mark.parametrize("section, name, kind, is_tuple", [
    pytest.param(section, *field, id=f"[{section}] {field[0]}")
    for section, cls in INI_SECTIONS.items() for field in _numeric_fields(cls)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_ini_entries_outside_their_declared_range_are_rejected(tmp_path_factory, section, name,
                                                               kind, is_tuple, data):
    bad = data.draw(_outside(_allowed(INI_SECTIONS[section], name), kind), label=name)
    path = tmp_path_factory.getbasetemp() / f"{section}_{name}.ini"
    path.write_text(f"[{section}]\n{name} = {bad!r}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{name} must be "):
        scenario_from_ini(path)


# Draws of an int field stop at this much above its lower bound, or at its
# upper bound if that is lower: `horizon`, `iterations` and the like have no
# upper bound, and the bounds of `population`, `hidden` and the capacities lie
# far past the span, where one run can take minutes and far more memory.
# `days` stops at 3, the length of every run below.
INT_SPAN, INT_CAPS = 64, {"days": 3}
# the agents a section's fields act on; another section's field runs with any agent
SECTION_AGENTS = {"mpc": ("mpc",), "cem": ("mpc", "mbrl"), "ga": ("mpc", "mbrl"),
                  "mbrl": ("mbrl",), "mfrl": ("mfrl",)}
# short runs that still train: MB-RL and MF-RL update from day 2 on, and the
# GA planner runs where a [ga] field is drawn
BASE = {"scenario": {"days": 3}, "mfrl": {"warmup_samples": 24, "batch_size": 24}}
FIELD_NAMES = {f.name for cls in INI_SECTIONS.values() for f in dataclasses.fields(cls)}


def _inside(allowed: str, kind, name):
    """Values of type `kind` inside the interval `allowed`, ints bounded as above."""
    lo, hi = map(float, allowed[1:-1].split(","))
    lo_in, hi_in = allowed[0] == "[", allowed[-1] == "]"
    if kind is int:
        first = int(lo) + (not lo_in)
        last = first + INT_SPAN
        if hi < math.inf:
            last = min(last, int(hi) - (not hi_in))
        return st.integers(first, min(last, INT_CAPS.get(name, last)))
    return st.floats(lo, hi, exclude_min=not lo_in, exclude_max=not hi_in,
                     allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("section, name, kind, is_tuple", [
    pytest.param(section, *field, id=f"[{section}] {field[0]}")
    for section, cls in INI_SECTIONS.items() for field in _numeric_fields(cls)])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_a_value_inside_its_range_runs_to_the_end_or_is_rejected_at_entry(
        tmp_path_factory, section, name, kind, is_tuple, data):
    inside = _inside(_allowed(INI_SECTIONS[section], name), kind, name)
    value = data.draw(st.lists(inside, min_size=1, max_size=3) if is_tuple else inside,
                      label=name)
    agent = data.draw(st.sampled_from(SECTION_AGENTS.get(section, AGENT_KINDS)), label="agent")
    entries = {key: dict(values) for key, values in BASE.items()}
    entries["scenario"]["agent"] = agent
    if section == "ga":
        entries.setdefault("mpc", {})["planner"] = entries.setdefault("mbrl", {})["planner"] = "ga"
    entries.setdefault(section, {})[name] = ", ".join(map(repr, value)) if is_tuple else repr(value)
    base = tmp_path_factory.mktemp("inside")
    path, out = base / "scenario.ini", base / "out"
    path.write_text("".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for sec, keys in entries.items()), encoding="utf-8")
    try:
        report = run_scenario(scenario_from_ini(path), out)
    except ValueError as exc:
        assert not out.exists(), f"rejected after writing: {exc}"
        named = set(re.findall(r"\w+", str(exc))) & FIELD_NAMES
        assert named, f"the message names no field: {exc}"
        return
    metrics = (report.consumption_change_pct, report.cost_change_pct, report.comfort_loss_eur)
    assert all(map(math.isfinite, metrics)), metrics
