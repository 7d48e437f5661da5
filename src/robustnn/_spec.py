"""Rules shared by the spec modules: enum-valued fields of the frozen spec
dataclasses, which take a member or its string value, integer fields, which
take an integer and nothing else, and the rounding of a rate times a row
count to a count of rows."""

from __future__ import annotations

import math
import operator


def member(enum_cls, value, name: str):
    """The member of enum_cls that value is or names. Anything else raises
    ValueError starting with the field name, as the specs' checks do."""
    try:
        return enum_cls(value)
    except ValueError:
        valid = ", ".join(e.value for e in enum_cls)
        raise ValueError(f"{name} must be one of {{{valid}}}, got {value!r}") from None


def set_members(spec, **enum_classes) -> None:
    """Replace each named field of a frozen dataclass by its member of the
    given enum class; call first in __post_init__."""
    for name, enum_cls in enum_classes.items():
        value = getattr(spec, name)
        if type(value) is not enum_cls:
            object.__setattr__(spec, name, member(enum_cls, value, name))


def integer(value, name: str) -> int:
    """value as an int: an int, or a numpy integer, but not a bool, which
    is an int to Python. Anything else, a float with no fraction too,
    raises ValueError starting with the field name."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def set_integers(spec, *names) -> None:
    """Replace each named field of a frozen dataclass by its value as an
    int (see integer); call before any check that compares the fields."""
    for name in names:
        object.__setattr__(spec, name, integer(getattr(spec, name), name))


def ceil_count(rate: float, n: int) -> int:
    """ceil(rate * n), with the product snapped to the nearest integer first
    so that the binary representations of decimal rates (0.1, 0.25, ...)
    cannot push the ceiling one step too high."""
    x = rate * n
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(x))
