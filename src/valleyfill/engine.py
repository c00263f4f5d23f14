"""Iterative coordinator/load protocol for both update rules and both transports.

`coordinate` is the one coordinator loop: in-process runs and networked
sessions pass it a transport callable that returns every load's update.
`load_step` is the one per-load step, convex (projection) or finite
(hull-minimize, then sample), in process and in networked agents.
Per-load randomness comes from a counter-based stream keyed by
(master_seed, load id, iteration), so trajectories are bit-reproducible
regardless of execution order and can be replayed by networked agents.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (GridMismatchError, Objective, Profile, TimeGrid, aggregate,
                   norm, norm2)
from .feasible import (ConvexChargeSet, Distribution, FinitePulseSet,
                       hull_minimize, project_convex, sample,
                       stay_probability)

__all__ = [
    "ConfigurationError",
    "LoadSpec",
    "EngineConfig",
    "IterationRecord",
    "Termination",
    "Trajectory",
    "load_draw",
    "coordinator_signal",
    "convex_load_update",
    "finite_load_update",
    "load_step",
    "escape_probability",
    "expected_next_objective",
    "fleet_weight",
    "coordinate",
    "run",
    "trajectory_to_csv",
]


class ConfigurationError(ValueError):
    """Invalid engine configuration, surfaced before iteration 1."""


@dataclass(frozen=True)
class LoadSpec:
    """One elastic load: its constraint set and update weight c_i.

    The default weight is the load's total energy request (c_i = X_i),
    which equalizes per-load convergence speed.
    """

    id: int
    constraint: Union[ConvexChargeSet, FinitePulseSet]
    c: Optional[float] = None

    def __post_init__(self):
        if self.c is None:
            object.__setattr__(self, "c", self.constraint.energy)
        if not (self.c > 0):
            raise ConfigurationError(f"load {self.id}: c must be positive, got {self.c}")

    @property
    def is_finite(self) -> bool:
        return isinstance(self.constraint, FinitePulseSet)

    @property
    def grid(self) -> TimeGrid:
        return self.constraint.grid


@dataclass(frozen=True)
class EngineConfig:
    epsilon: float = 1e-6
    max_iterations: int = 1000
    master_seed: int = 0
    record_diagnostics: bool = True
    # The signal-change rule can fire at a non-stationary state when two
    # consecutive iterations happen to leave all profiles unchanged; turn
    # it off to drive all-finite fleets to their exact fixed point.
    stop_on_epsilon: bool = True

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")


@dataclass
class IterationRecord:
    k: int
    g: Profile
    objective: float
    escape_probability: float
    expected_next_objective: float
    profiles_changed: int


class Termination(enum.Enum):
    TOLERANCE = "tolerance"
    FIXED_POINT = "fixed_point"
    MAX_ITER = "max_iter"


@dataclass
class Trajectory:
    records: List[IterationRecord]
    final_profiles: List[Profile]
    terminated_by: Termination
    initial_objective: float


def load_draw(master_seed: int, load_id: int, k: int) -> float:
    """Uniform [0,1) draw for load `load_id` at iteration `k`.

    Keyed, not sequential: the same (seed, id, k) triple yields the same
    draw in-process and across networked agents.
    """
    return float(np.random.default_rng([master_seed & 0xFFFFFFFFFFFFFFFF,
                                        load_id, k]).random())


def coordinator_signal(b: Profile, xs: Sequence[Profile], C: float) -> Profile:
    """Broadcast signal g = (b + sum_i x_i) / C."""
    if C <= 0:
        raise ConfigurationError(f"C must be positive, got {C}")
    d = aggregate(b, xs)
    return Profile(d.values / C, b.grid)


def convex_load_update(g: Profile, x_prev: Profile, charge_set: ConvexChargeSet,
                       c_i: float) -> Profile:
    """argmin over the set of 2*c_i*<g, x> + norm2(x - x_prev).

    Completing the square reduces this to projecting x_prev - c_i*g.
    """
    z = Profile(x_prev.values - c_i * g.values, g.grid)
    return project_convex(z, charge_set)


def finite_load_update(g: Profile, C: float, x_prev: Profile,
                       pulse_set: FinitePulseSet, c_i: float, draw: float,
                       ) -> Tuple[Profile, Distribution]:
    """Randomized update: hull-minimize against the exact leave-one-out signal, then sample.

    h = (g*C - x_prev) / (C - c_i) equals (b + sum_{j != i} x_j) / sum_{j != i} c_j.
    """
    if C <= c_i:
        raise ConfigurationError(
            f"need C > c_i (got C={C}, c_i={c_i}); a single finite load is not schedulable"
        )
    h = Profile((g.values * C - x_prev.values) / (C - c_i), g.grid)
    _, theta = hull_minimize(h, x_prev, c_i, pulse_set)
    idx = sample(theta, draw)
    return pulse_set.member(idx), theta


def load_step(spec: LoadSpec, g: Profile, C: float, x: Profile,
              prev_idx: Optional[int], master_seed: int, k: int, memo: dict,
              ) -> Tuple[Profile, Optional[int], float, Optional[Distribution]]:
    """One load's update at iteration k: (x_new, member index, stay, theta).

    stay = P{x_new == x | x}: theta[prev_idx] for a finite load (0.0 before
    its first member is chosen), and 1.0 or 0.0 for a convex load, whose
    move is deterministic and which has no member index or theta.  `memo`
    maps (constraint, c_i, prev_idx) to theta and must live for one signal
    only: loads sharing a set and weight then solve the hull once per
    previous member.
    """
    if not spec.is_finite:
        x_new = convex_load_update(g, x, spec.constraint, spec.c)
        return x_new, None, 1.0 if x_new == x else 0.0, None
    draw = load_draw(master_seed, spec.id, k)
    key = (id(spec.constraint), spec.c, prev_idx)
    if key not in memo:
        _, memo[key] = finite_load_update(g, C, x, spec.constraint, spec.c, draw)
    theta = memo[key]
    idx = sample(theta, draw)
    stay = 0.0 if prev_idx is None else stay_probability(theta, prev_idx)
    return spec.constraint.member(idx), idx, stay, theta


def escape_probability(thetas: Sequence[Distribution],
                       prev_indices: Sequence[int]) -> float:
    """P{x^(k) != x^(k-1) | x^(k-1)} = 1 - prod_i theta_i[prev_i] (independent draws)."""
    if len(thetas) != len(prev_indices):
        raise ValueError("thetas and prev_indices must align")
    return 1.0 - math.prod(stay_probability(theta, prev)
                           for theta, prev in zip(thetas, prev_indices))


def _finite_moments(theta: Distribution,
                    pulse_set: FinitePulseSet) -> Tuple[np.ndarray, float]:
    """(E[x], E[norm2(x)] - norm2(E[x])) for x ~ theta; members share norm2(x) = Y."""
    mean = theta.weights @ pulse_set.members
    return mean, pulse_set.sqnorm - pulse_set.grid.dt * float(np.dot(mean, mean))


def _expected_objective(b: Profile, mean, variance: float) -> float:
    """E[L_k | x^(k-1)] = norm2(b + sum_i E[x_i]) + sum_i (E[norm2(x_i)] - norm2(E[x_i])).

    `mean` and `variance` are the two sums over loads; the loads draw
    independently, so only their own spreads add.
    """
    d = b.values + mean
    return b.grid.dt * float(np.dot(d, d)) + variance


def expected_next_objective(b: Profile, xs_prev: Sequence[Profile],
                            thetas: Sequence[Distribution],
                            sets: Sequence[FinitePulseSet]) -> float:
    """Exact conditional expectation E[L_k | x^(k-1)] for an all-finite fleet.

    The previous profiles enter only through the sampling distributions,
    which were computed from them; each must be a member of its set.
    """
    if not (len(xs_prev) == len(thetas) == len(sets)):
        raise ValueError("xs_prev, thetas, sets must align")
    for i, (x, s) in enumerate(zip(xs_prev, sets)):
        if s.member_index(x) is None:
            raise ValueError(f"load {i}: previous profile is not a member of its set")
    moments = [_finite_moments(theta, s) for theta, s in zip(thetas, sets)]
    return _expected_objective(b, sum(mean for mean, _ in moments),
                               sum(variance for _, variance in moments))


def fleet_weight(fleet: Sequence[Tuple[int, bool, float]]) -> float:
    """C = sum_i c_i of a fleet given as (id, finite, c_i) per load.

    Raises ConfigurationError for an empty fleet, duplicate ids, or a
    finite load without other weight to average against (C <= c_i).
    """
    ids = [load_id for load_id, _, _ in fleet]
    if not ids or len(set(ids)) != len(ids):
        raise ConfigurationError(f"need one or more loads with unique ids, got "
                                 f"{len(set(ids))} distinct ids for {len(ids)} loads")
    C = sum(c for _, _, c in fleet)
    for load_id, finite, c in fleet:
        if finite and C <= c:
            raise ConfigurationError(f"finite load {load_id} needs C > c_i")
    return C


def coordinate(b: Profile, C: float, all_finite: bool, n: int,
               cfg: EngineConfig, exchange: Callable) -> Trajectory:
    """The coordinator loop, shared by every transport.

    Starting from n zero profiles, each iteration broadcasts
    g = (b + sum_i x_i) / C through exchange(k, g, xs), which returns the
    new profiles in load order, stay = P{x^(k) = x^(k-1)} as the product of
    the loads' stay probabilities (see `load_step`) in load order, and the
    sums `_expected_objective` takes (NaN where the transport lacks them).
    The factors lie in [0, 1], so stay is 1.0 exactly when each factor is.
    Stops on the signal-change rule (k > 2 and ||g^(k-1) - g^(k-2)|| < eps),
    on an exact fixed point when every load is finite and keeps its
    profile with probability 1, or at max_iterations.
    """
    grid = b.grid
    xs: List[Profile] = [Profile.zeros(grid) for _ in range(n)]
    records: List[IterationRecord] = []
    initial_objective = norm2(aggregate(b, xs))
    g_prev: Optional[Profile] = None
    terminated = Termination.MAX_ITER

    for k in range(1, cfg.max_iterations + 1):
        g = coordinator_signal(b, xs, C)
        new_xs, stay, mean, variance = exchange(k, g, xs)
        changed = sum(1 for old, new in zip(xs, new_xs) if old != new)
        if cfg.record_diagnostics:
            escape = 1.0 - stay
            expected = _expected_objective(b, mean, variance)
        else:
            escape = expected = math.nan
        xs = new_xs
        objective = norm2(aggregate(b, xs))
        records.append(IterationRecord(k, g, objective, escape, expected, changed))

        if all_finite and stay == 1.0:
            terminated = Termination.FIXED_POINT
            break
        if cfg.stop_on_epsilon and k > 2:
            if norm(Profile(g.values - g_prev.values, grid)) < cfg.epsilon:
                terminated = Termination.TOLERANCE
                break
        g_prev = g

    return Trajectory(records, xs, terminated, initial_objective)


def run(loads: Sequence[LoadSpec], b: Profile, cfg: EngineConfig,
        obj: Objective = Objective()) -> Trajectory:
    """Run the coordinator loop in process; see `coordinate` for the stopping rules."""
    C = fleet_weight([(spec.id, spec.is_finite, spec.c) for spec in loads])
    grid = b.grid
    for spec in loads:
        if spec.grid != grid:
            raise GridMismatchError(f"load {spec.id} is on a different grid")
    member_idx: List[Optional[int]] = [None] * len(loads)

    def exchange(k, g, xs):
        memo: dict = {}
        # id(theta) -> [theta, its set, loads drawing from it]: moments per memo entry
        draws: dict = {}
        new_xs, stay = [], 1.0
        mean = np.zeros(grid.slots)
        for i, spec in enumerate(loads):
            x_new, member_idx[i], stay_i, theta = load_step(
                spec, g, C, xs[i], member_idx[i], cfg.master_seed, k, memo)
            new_xs.append(x_new)
            stay *= stay_i
            if theta is None:
                mean += x_new.values
            else:
                draws.setdefault(id(theta), [theta, spec.constraint, 0])[2] += 1
        variance = 0.0
        for theta, pulse_set, count in draws.values():
            mean_i, variance_i = _finite_moments(theta, pulse_set)
            mean += count * mean_i
            variance += count * variance_i
        return new_xs, stay, mean, variance

    return coordinate(obj.effective_base(b), C,
                      all(spec.is_finite for spec in loads), len(loads), cfg,
                      exchange)


def trajectory_to_csv(traj: Trajectory, path, g_dir=None) -> None:
    """One row per iteration; optionally dump each broadcast signal as CSV."""
    from .core import profile_to_csv
    import os

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "objective", "escape_probability",
                    "expected_next_objective", "profiles_changed", "g_file"])
        for rec in traj.records:
            g_file = ""
            if g_dir is not None:
                g_file = os.path.join(g_dir, f"g_{rec.k:05d}.csv")
                profile_to_csv(rec.g, g_file)
            w.writerow([rec.k, repr(rec.objective), repr(rec.escape_probability),
                        repr(rec.expected_next_objective), rec.profiles_changed,
                        g_file])
