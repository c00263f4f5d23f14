"""Discretized time grid, profile algebra and objectives.

The objective of load profiles xs on base load b is
``norm2(aggregate(objective.effective_base(b), xs))``: Flatten uses b
itself and Track folds its target into the base as b - target.
Units are fixed throughout the package: rates in kW, time in hours,
energy in kWh, squared norms in kW^2*h.  All integrals are discretized
as left-Riemann sums on a uniform grid, and every reduction runs in
ascending slot index order so results are bit-reproducible.
The package's value rules live here too, one per input kind: `_number`,
`_integer`, `_flag`, `_text` and, for numbers written as text,
`_number_text`; `_field` checks and stores every spec field by one of them.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "GridMismatchError",
    "TimeGrid",
    "Profile",
    "values_key",
    "ObjectiveKind",
    "Objective",
    "norm2",
    "norm",
    "aggregate",
]


class GridMismatchError(ValueError):
    """Raised when profiles on different time grids are combined."""


# Python's and numpy's integer and float types; a numpy bool is neither.
_REAL_TYPES = (int, float, np.integer, np.floating)


def _number(value) -> float:
    """`value` as a float, if it is a finite integer or float (numpy's too).

    Bools (numpy's too) and strings are not numbers: TypeError.  NaN,
    ±inf and an integer past float range: ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
        raise TypeError("must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer past float range
        raise ValueError("must be finite") from None
    if not math.isfinite(number):
        raise ValueError("must be finite")
    return number


def _integer(value) -> int:
    """`value` as an int, if `operator.index` accepts it, it is not a bool and,
    as every number, it is finite as a float (past float range: ValueError)."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("must be an integer")
    value = operator.index(value)
    _number(value)
    return value


def _flag(value) -> bool:
    """`value` as a bool, if it is a bool or a numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError("must be true or false")
    return bool(value)


def _text(value) -> str:
    """`value`, if it is a string."""
    if not isinstance(value, str):
        raise TypeError("must be a string")
    return value


def _items(rule, count: int, ordered: bool = False):
    """A rule: a list or tuple of `count` values by `rule`, as a tuple; with
    `ordered`, a nondecreasing one."""
    def convert(value) -> tuple:
        items = tuple(map(rule, value)) if isinstance(value, (list, tuple)) else ()
        if len(items) != count or ordered and list(items) != sorted(items):
            raise ValueError(f"must be a list of {count} values")
        return items
    return convert


def _field(spec, name: str, rule, want: str, ge=None, gt=None, error=ValueError,
           label: Optional[str] = None) -> None:
    """Store the frozen `spec`'s field `name` as `rule` converts it.

    `rule` is one of the value rules here, `_items` of one, or an enum; the
    result, or each of its items, must be >= ge and > gt where they are given, or
    `error` is raised: ``<label, by default name> must be <want>, got <value!r>``.
    """
    value = getattr(spec, name)
    try:
        result = rule(value)
        low = min(result) if type(result) is tuple else result
        if ge is not None and low < ge or gt is not None and low <= gt:
            raise ValueError
    except (TypeError, ValueError):
        raise error(f"{label or name} must be {want}, got {value!r}") from None
    object.__setattr__(spec, name, result)


def _number_text(text: str) -> str:
    """`text`, if it writes its numbers as `np.loadtxt` reads them.

    Python's `int` and `float` also read digit separators (``1_0``) and
    non-ASCII digits, which `np.loadtxt` rejects; so does this check, with
    ValueError.  Past it, `int` and `float` read `text` as `np.loadtxt` does.
    """
    if "_" in text or not text.isascii():
        raise ValueError("numbers are written in ASCII without digit separators")
    return text


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [0, T] into `slots` slots of width `dt` hours.

    horizon_hours is a number > 0 by `_number`'s rule, stored as a float,
    and slots an integer >= 1 by `_integer`'s, stored as an int.  A bad
    value raises ValueError.
    """

    horizon_hours: float
    slots: int

    def __post_init__(self):
        _field(self, "horizon_hours", _number, "a finite number > 0", gt=0)
        _field(self, "slots", _integer, "an integer >= 1", ge=1)

    @property
    def dt(self) -> float:
        """Slot width in hours."""
        return self.horizon_hours / self.slots

    def check_rows(self, *rows) -> None:
        """Raise GridMismatchError unless every row holds one value per slot."""
        if any(np.shape(row) != (self.slots,) for row in rows):
            raise GridMismatchError(f"rows of shapes {[np.shape(r) for r in rows]} "
                                    f"on a {self.slots}-slot grid")


@dataclass(frozen=True)
class Profile:
    """Service/charging rate vector over a grid (kW per slot)."""

    values: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != self.grid.slots:
            raise ValueError(
                f"profile has {arr.shape} values, grid has {self.grid.slots} slots"
            )
        if not np.isfinite(arr).all():
            raise ValueError("profile values must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def zeros(cls, grid: TimeGrid) -> "Profile":
        return cls(np.zeros(grid.slots), grid)

    @classmethod
    def constant(cls, value: float, grid: TimeGrid) -> "Profile":
        return cls(np.full(grid.slots, float(value)), grid)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return self.grid == other.grid and values_key(self.values) == values_key(other.values)

    def __hash__(self):
        return hash((self.grid, values_key(self.values)))


def values_key(values: np.ndarray) -> bytes:
    """Identity key of float64 values: adding 0.0 folds -0.0 into 0.0, so finite
    arrays of one shape have equal keys exactly when they compare equal."""
    return (values + 0.0).tobytes()


class ObjectiveKind(enum.Enum):
    FLATTEN = "flatten"
    TRACK = "track"


@dataclass(frozen=True)
class Objective:
    """Flatten the aggregate, or track a target profile (quadratic cost): kind is an
    ObjectiveKind or its value, and target a Profile exactly with kind track."""

    kind: ObjectiveKind = ObjectiveKind.FLATTEN
    target: Optional[Profile] = None

    def __post_init__(self):
        _field(self, "kind", ObjectiveKind, "flatten or track")
        if self.kind is ObjectiveKind.FLATTEN and self.target is not None:
            raise ValueError(f"kind must be track with a target, got {self.kind.value!r}")
        if self.kind is ObjectiveKind.TRACK and not isinstance(self.target, Profile):
            raise ValueError(f"target must be a Profile with kind track, got {self.target!r}")

    def effective_base(self, b: Profile) -> Profile:
        """Base load with the target folded in; Track reduces to Flatten on b - target."""
        if self.kind is ObjectiveKind.FLATTEN:
            return b
        _check_same_grid(b, self.target)
        return Profile(b.values - self.target.values, b.grid)


def _check_same_grid(*profiles: Profile) -> TimeGrid:
    grid = profiles[0].grid
    for p in profiles[1:]:
        if p.grid != grid:
            raise GridMismatchError(f"grids differ: {p.grid} vs {grid}")
    return grid


def norm2(f: Profile) -> float:
    """Squared l2 norm dt * sum_t f_t^2  (kW^2*h)."""
    return f.grid.dt * float(np.dot(f.values, f.values))


def norm(f: Profile) -> float:
    """l2 norm sqrt(norm2(f))."""
    return math.sqrt(norm2(f))


def aggregate(b: Profile, xs) -> Profile:
    """Pointwise aggregate b + sum_i x_i, summed in load index order.

    `xs` is a sequence of Profiles on b's grid, or an (n, S) array holding
    one load's values per row.
    """
    if isinstance(xs, np.ndarray):
        rows = xs
    else:
        _check_same_grid(b, *xs)
        rows = [x.values for x in xs]
    total = b.values.copy()
    for row in rows:
        total += row
    return Profile(total, b.grid)

