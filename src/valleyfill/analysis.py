"""Theory-verification oracles: Nash checks, brute-force optimum, bounds.

All checks are read-only and exhaustive.  Tie-breaking is always toward
the lowest member index so equilibrium checks are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Profile, aggregate, norm2
from .engine import convex_load_update, coordinator_signal, fleet_weight
from .feasible import FinitePulseSet

__all__ = [
    "OracleTooLargeError",
    "NashReport",
    "BoundReport",
    "nash_report",
    "is_nash",
    "brute_force_optimum",
    "suboptimality_gap_check",
    "subopt_ratio_bound",
    "convex_stationarity_residual",
]

ENUMERATION_CAP = 10_000_000


class OracleTooLargeError(RuntimeError):
    """Product space exceeds the enumeration cap."""


@dataclass(frozen=True)
class NashReport:
    is_equilibrium: bool
    worst_violation: float       # kW^2*h; max positive best-response gap
    violating_load: Optional[int]


@dataclass(frozen=True)
class BoundReport:
    absolute_bound: float        # 2*sum(Y) for nonnegative members (4*sum(Y) signed)
    ratio_bound: float
    optimum_lower_bound: float   # flat-profile lower bound on norm2 of the optimum


def _distinct_sets(sets: Sequence[FinitePulseSet]) -> List[int]:
    """First load of each distinct set object, in load order."""
    seen = {}
    return [seen.setdefault(id(s), i) for i, s in enumerate(sets) if id(s) not in seen]


def nash_report(sets: Sequence[FinitePulseSet], member_idx: Sequence[int],
                total: Profile, tol: float) -> NashReport:
    """Check the best-response condition for every load within tol.

    Load i holds member `member_idx[i]` of `sets[i]`; `total` is the
    load-order aggregate, base included.  Loads holding one member of one
    set object share others' aggregate `total - x`, so their gap is computed
    once, on the group's first load: O(n*S) plus O(m*S) per distinct (set,
    member) pair held.  The first load with the largest gap is named.
    """
    first = {}
    for i, (s, k) in enumerate(zip(sets, member_idx)):
        first.setdefault((id(s), k), i)
    dt = total.grid.dt
    worst = 0.0
    violator = None
    for i in first.values():
        x = sets[i].members[member_idx[i]]
        others = total.values - x
        current = dt * float(np.dot(others, x))
        best = float(np.min(dt * (sets[i].members @ others)))
        gap = current - best
        if gap > worst:
            worst = gap
            violator = i
    return NashReport(worst <= tol, worst, violator if worst > tol else None)


def is_nash(xs: Sequence[Profile], sets: Sequence[FinitePulseSet], b: Profile,
            tol: float) -> NashReport:
    """`nash_report` of profiles xs on base b; a non-member raises ValueError
    before `aggregate` checks grids."""
    idx = [s.member_index(x) for x, s in zip(xs, sets)]
    if None in idx:
        raise ValueError(f"load {idx.index(None)}: profile is not a member of its set")
    return nash_report(sets, idx, aggregate(b, xs), tol)


def brute_force_optimum(sets: Sequence[FinitePulseSet], b: Profile,
                        ) -> Tuple[Tuple[int, ...], float]:
    """Exact global optimum of norm2(b + sum_i x_i) by enumeration."""
    total = 1
    for s in sets:
        total *= s.m
        if total > ENUMERATION_CAP:
            raise OracleTooLargeError(
                f"product space has more than {ENUMERATION_CAP} selections"
            )
    dt = b.grid.dt
    best_value = math.inf
    best_choice: Tuple[int, ...] = ()

    def recurse(level: int, partial: np.ndarray, choice: Tuple[int, ...]) -> None:
        nonlocal best_value, best_choice
        if level == len(sets) - 1:
            totals = partial[None, :] + sets[level].members
            values = dt * np.einsum("ks,ks->k", totals, totals)
            k = int(np.argmin(values))
            if values[k] < best_value:
                best_value = float(values[k])
                best_choice = choice + (k,)
            return
        for k in range(sets[level].m):
            recurse(level + 1, partial + sets[level].members[k], choice + (k,))

    if not sets:
        return (), norm2(b)
    recurse(0, b.values.copy(), ())
    return best_choice, best_value


def suboptimality_gap_check(sets: Sequence[FinitePulseSet], b: Profile,
                            total: Profile) -> Tuple[float, float, bool]:
    """Gap of a stationary profile against the enumerated optimum vs 2/4*sum(Y).

    `total` is the load-order aggregate of the loads' member profiles, base
    included; the caller checks membership and stationarity (via is_nash).
    The bound is 2*sum(Y_i) when all members are nonnegative, 4*sum(Y_i)
    otherwise.
    """
    _, optimum = brute_force_optimum(sets, b)
    gap = norm2(total) - optimum
    nonnegative = all(np.all(sets[i].members >= 0) for i in _distinct_sets(sets))
    bound = (2.0 if nonnegative else 4.0) * sum(s.sqnorm for s in sets)
    return gap, bound, gap <= bound + 1e-9


def convex_stationarity_residual(loads, xs: Sequence[Profile], b: Profile) -> float:
    """First-order optimality residual for a convex-only profile.

    Each load's fixed-point condition is x_i = Proj_i(x_i - c_i * g) with
    g the broadcast signal at x; the residual is the root sum of squared
    per-load violations, zero exactly at stationary points.  C is the
    engine's `fleet_weight`, so a fleet that `run` rejects raises the
    same ConfigurationError.
    """
    g = coordinator_signal(aggregate(b, list(xs)), fleet_weight(loads))
    total = 0.0
    for spec, x in zip(loads, xs):
        proj = convex_load_update(g.values, x.values, spec.constraint, spec.c)
        total += norm2(Profile(x.values - proj, b.grid))
    return math.sqrt(total)


def subopt_ratio_bound(sets: Sequence[FinitePulseSet], b: Profile) -> BoundReport:
    """Computable upper bound on the suboptimality ratio of stationary profiles.

    The unknown optimal objective in the denominator is replaced by the
    flat-profile lower bound T * mu_d^2 (Jensen), which only loosens the
    bound.  Requires nonnegative members; degenerate instances with zero
    mean aggregate are rejected.
    """
    for i in _distinct_sets(sets):
        if (sets[i].members < 0).any():
            raise ValueError(f"set {i} has negative members; ratio bound needs nonnegative profiles")
    T = b.grid.horizon_hours
    total_energy = b.grid.dt * float(np.sum(b.values)) + sum(s.energy for s in sets)
    mu_d = total_energy / T
    if mu_d == 0:
        if not sets:
            return BoundReport(0.0, 0.0, 0.0)
        raise ValueError("mean aggregate rate is zero; ratio bound undefined")
    sum_y = sum(s.sqnorm for s in sets)
    denom = T * mu_d * mu_d
    return BoundReport(2.0 * sum_y, 2.0 * sum_y / denom, denom)
