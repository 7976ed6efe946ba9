"""Allowed values declared on config dataclass fields, and their one check:
`allowed` is a tuple of choices or an interval such as "(0, inf)", "[1, inf)"
or "[0, 1)", which NaN fails and which excludes infinity at an open end."""

import dataclasses


def ranged(default, allowed):
    """A dataclass field whose value, or each of its entries, lies in `allowed`."""
    return dataclasses.field(default=default, metadata={"allowed": allowed})


def declared(cls, name):
    """The allowed values that field `name` of dataclass `cls` declares."""
    return next(f for f in dataclasses.fields(cls) if f.name == name).metadata["allowed"]


def inside(value, allowed):
    """Whether `value` lies in `allowed`; elementwise on an array for an interval."""
    if isinstance(allowed, tuple):
        return value in allowed
    lo, hi = map(float, allowed[1:-1].split(","))
    return ((lo <= value if allowed[0] == "[" else lo < value)
            & (value <= hi if allowed[-1] == "]" else value < hi))


def check_ranges(obj) -> None:
    """Raise ValueError naming the first field of `obj` outside its range, and its value;
    a field holding None is unset and passes."""
    for f in dataclasses.fields(obj):
        allowed, value = f.metadata.get("allowed"), getattr(obj, f.name)
        values = value if isinstance(value, tuple) else (value,)
        if allowed is None or value is None or all(inside(v, allowed) for v in values):
            continue
        if isinstance(allowed, tuple):
            must = f"one of {allowed}"
        elif not allowed.endswith("inf)"):
            must = f"in {allowed}"
        else:  # e.g. "finite and > 0" for a float in "(0, inf)"; "-inf" adds no bound
            lo = allowed[1:allowed.index(",")]
            must = " and ".join(["finite"] * ("float" in str(f.type))
                                + [f"{'>=' if allowed[0] == '[' else '>'} {lo}"] * (lo != "-inf"))
        raise ValueError(f"{f.name} must be {must}, got {value!r}")
