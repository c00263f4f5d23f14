"""Experiment inputs: EV fleets, base-load ingestion and synthesis.

The canonical case study uses a 24 h horizon in 96 slots of 15 minutes,
3.3 kW / 4 h charging pulses and start slots 0..80 (every 15 minutes from
the start of the horizon, latest start 4 h before the end).  The bundled
synthetic residential curve stands in for utility trace data; the CSV
loader accepts real per-household traces.  `synth_baseload` builds every
synthetic curve and checks its peak slots against the grid for every caller.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import (Profile, TimeGrid, _field, _integer, _items, _number, _number_text,
                   _text)
from .engine import LoadSpec
from .feasible import FinitePulseSet, make_pulse_set

__all__ = [
    "BaseLoadError",
    "HeterogeneitySpec",
    "FleetSpec",
    "SynthParams",
    "BaseLoadSpec",
    "CANONICAL_GRID",
    "CANONICAL_PEAK_SLOTS",
    "synth_baseload",
    "default_baseload",
    "load_baseload_csv",
    "build_fleet",
    "build_case_study",
]

CANONICAL_GRID = TimeGrid(horizon_hours=24.0, slots=96)
CANONICAL_PEAK_SLOTS = (4, 36, 52)   # on CANONICAL_GRID


class BaseLoadError(ValueError):
    """Malformed base-load file; the message names the offending line."""


_RANGE = _items(_number, 2, ordered=True)
_WINDOW = _items(_integer, 2, ordered=True)
_PEAK_SLOTS = _items(_integer, 3)


@dataclass(frozen=True)
class HeterogeneitySpec:
    """Bounded per-EV jitter; multipliers are drawn uniformly per EV.

    Duration multipliers snap to a whole number of slots so A1-A4 stay
    exact for every EV.  Each range (lo, hi) is two numbers by core's
    `_number` rule with 0 < lo <= hi, stored as floats; otherwise ValueError.
    """

    rate_range: Tuple[float, float] = (1.0, 1.0)
    duration_range: Tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        for name in ("rate_range", "duration_range"):
            _field(self, name, _RANGE, "finite with 0 < lo <= hi", gt=0)


@dataclass(frozen=True)
class FleetSpec:
    """An EV fleet of round(households * penetration) EVs.

    households is an integer >= 0 by core's `_integer` rule (stored as an
    int), penetration a number >= 0 by `_number`'s, ev_rate (kW) and
    ev_duration_hours numbers > 0, and start_window two integers 0 <=
    first <= last; otherwise ValueError (`build_fleet` checks the window fits).
    """

    households: int
    penetration: float
    ev_rate: float = 3.3               # kW
    ev_duration_hours: float = 4.0
    start_window: Tuple[int, int] = (0, 80)   # inclusive slot range
    heterogeneity: Optional[HeterogeneitySpec] = None

    def __post_init__(self):
        _field(self, "households", _integer, "an integer >= 0", ge=0)
        _field(self, "penetration", _number, "a finite number >= 0", ge=0)
        for name in ("ev_rate", "ev_duration_hours"):
            _field(self, name, _number, "finite and positive", gt=0)
        _field(self, "start_window", _WINDOW, "two integers 0 <= first <= last", ge=0)

    @property
    def evs(self) -> int:
        """The fleet's size, round(households * penetration)."""
        return round(self.households * self.penetration)


@dataclass(frozen=True)
class SynthParams:
    """Synthetic curve anchors: levels (kW per household), numbers >= 0 by
    core's `_number` rule, and peak_slots, None or three integers; otherwise
    ValueError.  `synth_baseload` checks the slots against its grid."""

    evening_peak_kw: float = 1.1
    morning_peak_kw: float = 1.0
    valley_kw: float = 0.9
    # (evening peak slot, valley slot, morning peak slot) on the grid; None
    # places them at CANONICAL_PEAK_SLOTS scaled to the grid.  The horizon
    # starts in the evening, so the valley falls before dawn.
    peak_slots: Optional[Tuple[int, int, int]] = None

    def __post_init__(self):
        for name in ("evening_peak_kw", "morning_peak_kw", "valley_kw"):
            _field(self, name, _number, "a finite number >= 0", ge=0)
        if self.peak_slots is not None:
            _field(self, "peak_slots", _PEAK_SLOTS, "three integers")


@dataclass(frozen=True)
class BaseLoadSpec:
    """Per-household base load source plus scaling (kW per household).

    Exactly one source is given: csv_path, a string by core's `_text` rule,
    or synth.  per_household_scale is a number >= 0 by core's `_number`
    rule (stored as a float).  Otherwise ValueError.
    """

    csv_path: Optional[str] = None
    synth: Optional[SynthParams] = None
    per_household_scale: float = 1.0

    def __post_init__(self):
        if self.synth is None:
            _field(self, "csv_path", _text, "a string when synth is None")
        elif self.csv_path is not None:
            raise ValueError(f"csv_path must be None with synth, got {self.csv_path!r}")
        _field(self, "per_household_scale", _number, "a finite number >= 0", ge=0)


def synth_baseload(p: SynthParams, grid: TimeGrid) -> Profile:
    """Smooth double-hump curve via periodic cosine interpolation.

    Anchors the evening peak, the overnight valley and the morning peak at
    `p.peak_slots` (by default CANONICAL_PEAK_SLOTS scaled to the grid)
    and interpolates between consecutive anchors with a half-cosine ramp;
    the curve wraps around the horizon seam.  The slots must be three
    distinct slots of the grid.
    """
    levels = (p.evening_peak_kw, p.valley_kw, p.morning_peak_kw)
    peak_slots = p.peak_slots
    if peak_slots is None:
        scale = grid.slots / CANONICAL_GRID.slots
        peak_slots = tuple(int(round(s * scale)) for s in CANONICAL_PEAK_SLOTS)
    if len(set(peak_slots)) < 3 or not all(0 <= s < grid.slots for s in peak_slots):
        raise ValueError(f"baseload.synth.peak_slots {list(peak_slots)} are not three "
                         f"distinct slots of the {grid.slots}-slot grid")
    anchors = sorted(zip(peak_slots, levels))
    slots = grid.slots
    values = np.zeros(slots)
    n = len(anchors)
    for a in range(n):
        s0, v0 = anchors[a]
        s1, v1 = anchors[(a + 1) % n]
        span = (s1 - s0) % slots
        for step in range(span):
            t = (s0 + step) % slots
            u = step / span
            values[t] = v0 + (v1 - v0) * 0.5 * (1.0 - np.cos(np.pi * u))
    return Profile(values, grid)


def default_baseload(grid: TimeGrid = CANONICAL_GRID) -> Profile:
    """Bundled synthetic residential curve (kW per household)."""
    return synth_baseload(SynthParams(), grid)


def load_baseload_csv(path, grid: TimeGrid) -> Profile:
    """Read a per-household base load (`slot,kw_per_household`), validated.

    Empty lines after the header are skipped, as in a profiles CSV; errors
    name the file's own line numbers.  A byte that is not UTF-8 makes its
    row unparsable, as in a profiles CSV.
    """
    values = np.zeros(grid.slots)
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["slot", "kw_per_household"]:
            raise BaseLoadError(f"{path}: line 1: expected header slot,kw_per_household")
        line = 1
        count = 0
        for row in reader:
            line += 1
            if not row:
                continue
            if count >= grid.slots:
                raise BaseLoadError(f"{path}: line {line}: more rows than the {grid.slots}-slot grid")
            if len(row) != 2:
                raise BaseLoadError(f"{path}: line {line}: expected 2 fields, got {row!r}")
            try:
                slot = int(_number_text(row[0]))
                kw = float(_number_text(row[1]))
            except ValueError:
                raise BaseLoadError(f"{path}: line {line}: unparsable row {row!r}") from None
            if slot != count:
                raise BaseLoadError(f"{path}: line {line}: expected slot {count}, got {slot}")
            if not math.isfinite(kw):
                raise BaseLoadError(f"{path}: line {line}: value {row[1]!r} is not finite")
            if kw < 0:
                raise BaseLoadError(f"{path}: line {line}: negative value {kw}")
            values[count] = kw
            count += 1
    if count != grid.slots:
        raise BaseLoadError(f"{path}: line {line + 1}: expected {grid.slots} rows, got {count}")
    return Profile(values, grid)


def _ev_pulse_set(spec: FleetSpec, grid: TimeGrid, ev_index: int,
                  seed: int) -> FinitePulseSet:
    rate = spec.ev_rate
    duration = spec.ev_duration_hours
    if spec.heterogeneity is not None:
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, ev_index])
        lo, hi = spec.heterogeneity.rate_range
        rate *= float(rng.uniform(lo, hi))
        lo, hi = spec.heterogeneity.duration_range
        dur_slots = max(1, round(duration * float(rng.uniform(lo, hi)) / grid.dt))
        duration = dur_slots * grid.dt
    first, last = spec.start_window
    duration_slots = round(duration / grid.dt)
    # jittered durations may overrun the nominal window; shrink it per EV
    last = min(last, grid.slots - duration_slots)
    if last < first:
        raise ValueError(
            f"start_window first slot {first} leaves no room for a "
            f"{duration} h pulse on the {grid.slots}-slot grid"
        )
    starts = list(range(first, last + 1))
    return make_pulse_set(rate, duration, starts, grid)


def build_fleet(spec: FleetSpec, grid: TimeGrid = CANONICAL_GRID,
                seed: int = 0) -> List[LoadSpec]:
    """`spec.evs` EVs with c_i = X_i."""
    n = spec.evs
    if spec.heterogeneity is None:
        # identical EVs share one constraint object, letting the engine
        # reuse hull solutions across the fleet within an iteration
        if n == 0:
            return []
        shared = _ev_pulse_set(spec, grid, 0, seed)
        return [LoadSpec(id=i, constraint=shared) for i in range(n)]
    return [LoadSpec(id=i, constraint=_ev_pulse_set(spec, grid, i, seed))
            for i in range(n)]


def build_case_study(spec: FleetSpec, base: BaseLoadSpec,
                     grid: TimeGrid = CANONICAL_GRID, seed: int = 0,
                     ) -> Tuple[Profile, List[LoadSpec]]:
    """Base load scaled to the household count, plus the EV fleet."""
    if base.csv_path is not None:
        per_household = load_baseload_csv(base.csv_path, grid)
    else:
        per_household = synth_baseload(base.synth, grid)
    b = Profile(per_household.values * spec.households * base.per_household_scale,
                grid)
    return b, build_fleet(spec, grid, seed)

