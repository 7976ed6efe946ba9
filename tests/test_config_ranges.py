"""Every numeric field of every config dataclass declares its range, and a
value outside it (NaN, an infinity, just past a finite bound) is rejected
with a message that names the field: on construction, and through the INI
section that sets the field."""

import dataclasses
import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatbench import BackupConfig, Scenario, SuiteConfig
from heatbench.harness import INI_SECTIONS, scenario_from_ini
from heatbench.model_free import QPair
from heatbench.neural import MlpParams, MlpSpec

CONFIGS = (*INI_SECTIONS.values(), BackupConfig, QPair, SuiteConfig, MlpSpec)


def _numeric_fields(cls):
    """(name, number type, is a tuple of them) of each int or float field."""
    for name, hint in typing.get_type_hints(cls).items():
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
    config = cls(**kwargs)
    if cls is Scenario:
        config.validate()
    return config


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
