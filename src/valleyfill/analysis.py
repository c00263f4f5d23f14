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


def _first_holders(xs: Sequence[Profile], sets: Sequence[FinitePulseSet]) -> List[int]:
    """First load holding each (set object, member), in load order; ValueError on a non-member."""
    first = {}
    for i, (x, s) in enumerate(zip(xs, sets)):
        k = s.member_index(x)
        if k is None:
            raise ValueError(f"load {i}: profile is not a member of its set")
        first.setdefault((id(s), k), i)
    return list(first.values())


def _distinct_sets(sets: Sequence[FinitePulseSet]) -> List[int]:
    """First load of each distinct set object, in load order."""
    seen = {}
    return [seen.setdefault(id(s), i) for i, s in enumerate(sets) if id(s) not in seen]


def is_nash(xs: Sequence[Profile], sets: Sequence[FinitePulseSet], b: Profile,
            tol: float) -> NashReport:
    """Check the best-response condition for every load within tol.

    Each load's others' aggregate is the load-order total minus its own
    profile.  Loads holding the same member of the same set object share
    that aggregate, and so their gap, which is computed once on the
    group's first load: the check costs O(n*S) plus O(m*S) per distinct
    (set, member) pair held.  The first load with the largest gap is named.
    """
    holders = _first_holders(xs, sets)  # before `aggregate`, which checks grids
    dt = b.grid.dt
    total = aggregate(b, xs).values
    worst = 0.0
    violator = None
    for i in holders:
        x = xs[i].values
        others = total - x
        current = dt * float(np.dot(others, x))
        best = float(np.min(dt * (sets[i].members @ others)))
        gap = current - best
        if gap > worst:
            worst = gap
            violator = i
    return NashReport(worst <= tol, worst, violator if worst > tol else None)


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


def suboptimality_gap_check(x_s: Sequence[Profile], sets: Sequence[FinitePulseSet],
                            b: Profile) -> Tuple[float, float, bool]:
    """Gap of a stationary profile against the enumerated optimum vs 2/4*sum(Y).

    The caller is responsible for stationarity of x_s (assert via is_nash).
    The bound is 2*sum(Y_i) when all members are nonnegative, 4*sum(Y_i)
    otherwise.
    """
    _first_holders(x_s, sets)
    _, optimum = brute_force_optimum(sets, b)
    value = norm2(aggregate(b, list(x_s)))
    gap = value - optimum
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
