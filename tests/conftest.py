"""Shared fixtures, instance generators and independent test oracles.

Oracles here deliberately take a different computational path than the
library code they check: exhaustive active-set enumeration for the
projection, support-set enumeration and simplex grid search for the hull
minimizer, outcome enumeration for conditional expectations, a per-load
rebuild of the others' aggregate for best responses, per-member sums
for the A1-A4 assumptions finite sets are built to meet, a per-load loop
for the Nash check, and a `csv.reader` loop with `float` per value for the
profiles reader.  `reference_hull_minimize` is the min-norm-point loop
one problem at a time, which the lockstep solver must match bit for bit,
and `reference_load_update` the load update as a loop over loads, which
the array update must match bit for bit.
"""

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from valleyfill.analysis import NashReport
from valleyfill.cli import InputError
from valleyfill.core import Objective, Profile, TimeGrid, aggregate
from valleyfill.engine import (ConfigurationError, EngineConfig, LoadSpec,
                               convex_load_update, load_draws)
from valleyfill.feasible import (_HULL_MAX_ITERATIONS, SNAP_TOLERANCE, ConvexChargeSet,
                                 FinitePulseSet, SolverError, _checked_weights,
                                 make_pulse_set)
from valleyfill.netsim import RosterEntry
from valleyfill.scenario import BaseLoadSpec, FleetSpec, HeterogeneitySpec, SynthParams


# ---------------------------------------------------------------------------
# checked spec fields

PULSES = make_pulse_set(1.0, 1.0, [0, 1], TimeGrid(4.0, 4))
# Valid arguments of each spec class.
ARGS = {
    TimeGrid: {"horizon_hours": 24.0, "slots": 96},
    EngineConfig: {},
    LoadSpec: {"id": 0, "constraint": PULSES, "c": 1.0},
    RosterEntry: {"id": 0, "is_finite": True, "c": 1.0},
    FleetSpec: {"households": 4, "penetration": 0.5, "start_window": (0, 80)},
    HeterogeneitySpec: {"rate_range": (0.8, 1.2), "duration_range": (0.8, 1.2)},
    BaseLoadSpec: {"csv_path": "base.csv", "per_household_scale": 1.0},
    SynthParams: {"peak_slots": (4, 36, 52)},
    FinitePulseSet: {"members": np.eye(2), "grid": TimeGrid(2.0, 2), "energy": 1.0,
                     "sqnorm": 1.0, "rate_bound": 1.0},
    Objective: {},
}


@dataclass(frozen=True)
class Checked:
    """A field of `spec` that `core._field` checks, or with no spec a value only the
    manifest holds, and the manifest keys, ``<section>.<key>``, that set it.

    A value the field rejects raises the spec's error as
    ``<prefix> <want>, got <value!r>``, and exits 2 from a manifest key with
    ``error: bad <section>: <prefix> <want>, got <value!r>`` (the section of a
    top-level key is ``manifest``).
    """

    spec: Optional[type]
    field: str
    rule: str                      # a key of REJECTED
    want: str
    bound: Optional[tuple] = None  # (">" or ">=", lowest value)
    count: Optional[int] = None    # items of a tuple field
    ordered: bool = False          # nondecreasing items
    keys: tuple = ()
    label: Optional[str] = None    # the message's name for the field

    @property
    def args(self) -> dict:
        return ARGS[self.spec]

    @property
    def prefix(self) -> str:
        return f"{self.label or self.field} must be"


POSITIVE, NON_NEGATIVE = (">", 0), (">=", 0)
CHECKED = [
    Checked(TimeGrid, "horizon_hours", "number", "a finite number > 0", POSITIVE,
            keys=("grid.horizon_hours",)),
    Checked(TimeGrid, "slots", "integer", "an integer >= 1", (">=", 1), keys=("grid.slots",)),
    Checked(EngineConfig, "epsilon", "number", "finite and positive", POSITIVE,
            keys=("engine.epsilon",)),
    Checked(EngineConfig, "max_iterations", "integer", "an integer >= 1", (">=", 1),
            keys=("engine.max_iterations",)),
    Checked(EngineConfig, "master_seed", "integer", "an integer", keys=("engine.master_seed",)),
    Checked(EngineConfig, "record_diagnostics", "flag", "a bool"),
    Checked(EngineConfig, "stop_on_epsilon", "flag", "a bool"),
    *(Checked(spec, "id", "integer", "an integer >= 0", NON_NEGATIVE, label="load id")
      for spec in (LoadSpec, RosterEntry)),
    *(Checked(spec, "c", "number", "finite and positive", POSITIVE, label="load 0: c")
      for spec in (LoadSpec, RosterEntry)),
    Checked(RosterEntry, "is_finite", "flag", "a bool", label="load 0: is_finite"),
    Checked(FleetSpec, "households", "integer", "an integer >= 0", NON_NEGATIVE,
            keys=("fleet.households",)),
    Checked(FleetSpec, "penetration", "number", "a finite number >= 0", NON_NEGATIVE,
            keys=("fleet.penetration",)),
    Checked(FleetSpec, "ev_rate", "number", "finite and positive", POSITIVE,
            keys=("fleet.charger_kw", "fleet.ev_rate")),
    Checked(FleetSpec, "ev_duration_hours", "number", "finite and positive", POSITIVE,
            keys=("fleet.charge_hours", "fleet.ev_duration_hours")),
    Checked(FleetSpec, "start_window", "integer", "two integers 0 <= first <= last",
            NON_NEGATIVE, 2, True, keys=("fleet.start_window",)),
    *(Checked(HeterogeneitySpec, name, "number", "finite with 0 < lo <= hi", POSITIVE, 2,
              True, keys=(f"fleet.heterogeneity.{name}",))
      for name in ("rate_range", "duration_range")),
    Checked(BaseLoadSpec, "csv_path", "text", "a string when synth is None",
            keys=("baseload.csv",)),
    Checked(BaseLoadSpec, "per_household_scale", "number", "a finite number >= 0",
            NON_NEGATIVE, keys=("baseload.per_household_scale",)),
    *(Checked(SynthParams, name, "number", "a finite number >= 0", NON_NEGATIVE,
              keys=(f"baseload.synth.{name}",))
      for name in ("evening_peak_kw", "morning_peak_kw", "valley_kw")),
    Checked(SynthParams, "peak_slots", "integer", "three integers", count=3,
            keys=("baseload.synth.peak_slots",)),
    Checked(FinitePulseSet, "energy", "number", "a finite number"),
    *(Checked(FinitePulseSet, name, "number", "a finite number >= 0", NON_NEGATIVE)
      for name in ("sqnorm", "rate_bound")),
    Checked(Objective, "kind", "kind", "flatten or track", keys=("objective.kind",)),
    Checked(None, "out", "path", "a non-empty string", keys=("out",)),
]
# What each rule rejects among the values a manifest or a caller may pass.
NOT_FINITE = [math.nan, math.inf, -math.inf, 10**400]
REJECTED = {
    "number": [True, np.True_, "1", None, *NOT_FINITE],
    "integer": [True, np.True_, "1", None, 1.0, 2.5, *NOT_FINITE],
    "flag": ["1", None, 0, 1, 0.0, *NOT_FINITE],
    "text": [None, True, 1, ["base.csv"]],
    "path": [None, True, 1, ["out"], ""],
    "kind": ["trak", "FLATTEN", None, True],
}


def rejected(row):
    """The values `row`'s field rejects: its rule's and the first past its bound,
    each as one item among valid ones in a tuple field, which also rejects too
    few items and, if ordered, its valid items reversed."""
    default = (row.spec, row.field) == (LoadSpec, "c")  # None: the set's energy
    values = [v for v in REJECTED[row.rule] if not (default and v is None)]
    if row.bound:
        op, low = row.bound
        values.append(low if op == ">" else low - 1)
    if row.count is None:
        return values
    valid = row.args[row.field]
    return ([(v,) + valid[1:] for v in values] + [valid[:-1]]
            + ([valid[::-1]] if row.ordered else []))


def case_id(value):
    """A short test id for a value."""
    return repr(value).replace(str(10**400), "10**400")


# ---------------------------------------------------------------------------
# instance generators

def random_convex_set(rng, grid):
    caps = rng.uniform(0.5, 3.0, grid.slots)
    max_energy = grid.dt * caps.sum()
    energy = rng.uniform(0.1, 0.9) * max_energy
    return ConvexChargeSet(Profile(caps, grid), energy)


def random_pulse_set(rng, grid, m_max=6, signed=False):
    """Members are shifted copies of one random template: A1-A4 hold exactly."""
    length = int(rng.integers(1, max(2, grid.slots // 2)))
    template = rng.uniform(0.2, 2.0, length)
    if signed:
        template *= rng.choice([-1.0, 1.0], size=length)
    max_start = grid.slots - length
    m = int(rng.integers(1, min(m_max, max_start + 1) + 1))
    starts = sorted(rng.choice(max_start + 1, size=m, replace=False).tolist())
    members = np.zeros((m, grid.slots))
    for k, s in enumerate(starts):
        members[k, s:s + length] = template
    dt = grid.dt
    return FinitePulseSet(members, grid,
                          energy=dt * template.sum(),
                          sqnorm=dt * float(np.dot(template, template)),
                          rate_bound=float(np.max(np.abs(template))))


def random_base(rng, grid, lo=0.0, hi=2.0):
    return Profile(rng.uniform(lo, hi, grid.slots), grid)


# ---------------------------------------------------------------------------
# finite-set oracles: A1-A4 conformance, exhaustive best responses and the
# per-load Nash check

@dataclass(frozen=True)
class ValidationReport:
    """Max deviations from A1/A3/A4 over all members; A2 is report-only."""

    ok: bool
    max_rate_excess: float       # A1: max |y_t| - rate_bound over members
    max_energy_deviation: float  # A3: max |dt*sum(y) - energy|, relative
    max_sqnorm_deviation: float  # A4: max |norm2(y) - sqnorm|, relative
    max_ramp_rate: float         # max slot-to-slot difference per hour (never enforced)


def validate_A1A4(pulse_set, tol):
    """Check A1/A3/A4 on every member within tol; report-only, never raises."""
    y = pulse_set.members
    dt = pulse_set.grid.dt
    rate_excess = float(np.max(np.abs(y)) - pulse_set.rate_bound)
    energies = dt * np.sum(y, axis=1)
    scale_e = 1 + abs(pulse_set.energy)
    energy_dev = float(np.max(np.abs(energies - pulse_set.energy))) / scale_e
    sqnorms = dt * np.sum(y * y, axis=1)
    scale_n = 1 + abs(pulse_set.sqnorm)
    sqnorm_dev = float(np.max(np.abs(sqnorms - pulse_set.sqnorm))) / scale_n
    if pulse_set.grid.slots > 1:
        ramp = float(np.max(np.abs(np.diff(y, axis=1)))) / dt
    else:
        ramp = 0.0
    ok = rate_excess <= tol and energy_dev <= tol and sqnorm_dev <= tol
    return ValidationReport(ok, rate_excess, energy_dev, sqnorm_dev, ramp)


def best_response(i, xs, b, pulse_set):
    """Exhaustive argmin over members y of <b + sum_{j != i} x_j, y>.

    Equal member energies make this equivalent to minimizing the full-game
    cost <b + sum_j x_j, x_i>.  Ties break toward the lowest index.
    Returns (member index, its score).
    """
    if pulse_set.member_index(xs[i]) is None:
        raise ValueError(f"load {i}: profile is not a member of its set")
    others = aggregate(b, [x for j, x in enumerate(xs) if j != i])
    scores = b.grid.dt * (pulse_set.members @ others.values)
    idx = int(np.argmin(scores))
    return idx, float(scores[idx])


def is_nash_per_load(xs, sets, b, tol):
    """`analysis.is_nash` as one m*S product per load, not per held member."""
    for i, (x, s) in enumerate(zip(xs, sets)):
        if s.member_index(x) is None:
            raise ValueError(f"load {i}: profile is not a member of its set")
    dt = b.grid.dt
    total = aggregate(b, xs).values
    worst = 0.0
    violator = None
    for i, (x, s) in enumerate(zip(xs, sets)):
        others = total - x.values
        current = dt * float(np.dot(others, x.values))
        best = float(np.min(dt * (s.members @ others)))
        gap = current - best
        if gap > worst:
            worst = gap
            violator = i
    return NashReport(worst <= tol, worst, violator if worst > tol else None)


# ---------------------------------------------------------------------------
# profiles reader oracle: one `csv.reader` row and one `float` per value at a time

def profiles_from_csv_per_row(path, grid):
    """`cli.profiles_from_csv` as a `csv.reader` loop; InputError names the line."""
    out = {}
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            try:
                load_id = int(row[0])
                profile = Profile(np.array([float(v) for v in row[1:]]), grid)
            except ValueError as exc:
                raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
            if load_id in out:
                raise InputError(f"{path}: line {reader.line_num}: "
                                 f"load {load_id} appears twice")
            out[load_id] = profile
    return out


# ---------------------------------------------------------------------------
# projection oracle: active-set enumeration over box-and-hyperplane sets

def projection_oracle(z, charge_set):
    """Exact projection by enumerating every {at 0, at cap, free} pattern."""
    grid = charge_set.grid
    caps = charge_set.caps.values
    zv = z.values
    dt = grid.dt
    S = grid.slots
    target = charge_set.energy
    best = None
    best_d2 = math.inf
    for pattern in itertools.product((0, 1, 2), repeat=S):
        x = np.empty(S)
        free = []
        fixed_energy = 0.0
        for t, state in enumerate(pattern):
            if state == 0:
                x[t] = 0.0
            elif state == 1:
                x[t] = caps[t]
                fixed_energy += dt * caps[t]
            else:
                free.append(t)
        if free:
            lam = (dt * sum(zv[t] for t in free) - (target - fixed_energy)) \
                / (dt * len(free))
            ok = True
            for t in free:
                xt = zv[t] - lam
                if xt < -1e-12 or xt > caps[t] + 1e-12:
                    ok = False
                    break
                x[t] = min(max(xt, 0.0), caps[t])
            if not ok:
                continue
        else:
            if abs(fixed_energy - target) > 1e-10 * max(1.0, abs(target)):
                continue
        d2 = dt * float(np.dot(x - zv, x - zv))
        if d2 < best_d2:
            best_d2 = d2
            best = x
    assert best is not None, "oracle found no feasible pattern"
    return Profile(best, grid), best_d2


# ---------------------------------------------------------------------------
# hull minimization oracles

def hull_q(z, h, x_prev, c_i, dt):
    diff = z - x_prev
    return dt * (2.0 * c_i * float(np.dot(h, z)) + float(np.dot(diff, diff)))


def hull_oracle_supports(h, x_prev, c_i, pulse_set):
    """Exact hull minimum via enumeration of member support subsets.

    For every support the equality-constrained least-squares system is
    solved directly; candidates with negative weights are discarded.  The
    optimal face always admits an affinely independent support, so the
    minimum is attained.
    """
    Y = pulse_set.members
    m = pulse_set.m
    dt = pulse_set.grid.dt
    hv, pv = h.values, x_prev.values
    p = pv - c_i * hv  # Q(z) = ||z - p||^2 + const
    best_q = math.inf
    best_z = None
    for r in range(1, m + 1):
        for subset in itertools.combinations(range(m), r):
            A = Y[list(subset)]
            G = dt * (A @ A.T)
            rhs = dt * (A @ p)
            n = len(subset)
            K = np.zeros((n + 1, n + 1))
            K[:n, :n] = G
            K[:n, n] = 1.0
            K[n, :n] = 1.0
            v = np.append(rhs, 1.0)
            theta, *_ = np.linalg.lstsq(K, v, rcond=None)
            theta = theta[:n]
            if np.any(theta < -1e-9):
                continue
            theta = np.clip(theta, 0.0, None)
            ssum = theta.sum()
            if ssum <= 0 or abs(ssum - 1.0) > 1e-6:
                continue
            theta = theta / ssum
            z = theta @ A
            q = hull_q(z, hv, pv, c_i, dt)
            if q < best_q:
                best_q = q
                best_z = z
    return best_z, best_q


def hull_oracle_grid(h, x_prev, c_i, pulse_set, step=1e-3):
    """Simplex grid search; only feasible for m <= 3 at this step."""
    Y = pulse_set.members
    m = pulse_set.m
    dt = pulse_set.grid.dt
    hv, pv = h.values, x_prev.values
    n = round(1.0 / step)
    best_q = math.inf
    if m == 1:
        return Y[0], hull_q(Y[0], hv, pv, c_i, dt)
    if m == 2:
        t = np.arange(n + 1) / n
        Z = np.outer(1 - t, Y[0]) + np.outer(t, Y[1])
        diffs = Z - pv
        q = dt * (2 * c_i * (Z @ hv) + np.einsum("ks,ks->k", diffs, diffs))
        k = int(np.argmin(q))
        return Z[k], float(q[k])
    assert m == 3
    for i in range(n + 1):
        a = i / n
        t = np.arange(n - i + 1) / n
        Z = a * Y[0] + np.outer(t, Y[1]) + np.outer(1 - a - t, Y[2])
        diffs = Z - pv
        q = dt * (2 * c_i * (Z @ hv) + np.einsum("ks,ks->k", diffs, diffs))
        k = int(np.argmin(q))
        if q[k] < best_q:
            best_q = float(q[k])
            best_z = Z[k]
    return best_z, best_q


# ---------------------------------------------------------------------------
# hull minimization reference: the min-norm-point loop one problem at a time

def reference_hull_minimize(h, x_prev, c_i, pulse_set, start=None):
    """`feasible.hull_minimize` as one Wolfe loop per problem, each step on
    1-D arrays, as it ran before the solver ran its problems in lockstep:
    the bits a lockstep solve must reproduce."""
    pulse_set.grid.check_rows(h, x_prev)
    Y, G = pulse_set.members, pulse_set.gram
    m = pulse_set.m
    dt = pulse_set.grid.dt
    p = x_prev - c_i * h
    r = np.einsum("ks,s->k", Y, p)
    xx_prev = float(np.dot(x_prev, x_prev))

    if start is None:
        start = int(np.argmin(G.diagonal() - 2.0 * r))
    corral = [start]
    w = np.array([1.0])

    def affine_min(idx):
        G_i, r_i = G[idx][:, idx], r[idx]
        d0 = G_i[0, 0] - G_i[0]
        M = G_i[1:, 1:] - G_i[1:, :1] + d0[1:]
        rhs = d0[1:] + (r_i[1:] - r_i[0])
        try:
            v = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            try:
                v = np.linalg.lstsq(M, rhs)[0]
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"hull minimization: {exc}", gap=gap) from None
        return np.concatenate(([1.0 - v.sum()], v))

    gap = q_last = math.inf
    for _ in range(_HULL_MAX_ITERATIONS):
        scores = w @ G[corral] - r
        wsw = float(w @ scores[corral])
        q = dt * (wsw - float(w @ r[corral]) + xx_prev)
        j = int(scores.argmin())
        gap = 2.0 * dt * (wsw - float(scores[j]))
        if not gap > 1e-8 * (1.0 + abs(q)) or not q < q_last:
            break
        q_last = q
        if j not in corral:
            corral.append(j)
            w = np.append(w, 0.0)
        while True:
            u = affine_min(corral)
            if (u > 1e-12).all():
                w = u
                break
            shrink = u < w
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(shrink, w / (w - u), np.inf)
            t = min(1.0, float(steps.min()))
            w = (1.0 - t) * w + t * u
            keep = ~(w <= 1e-12)
            if keep.all():
                w = np.maximum(w, 0.0)
                break
            corral = [k for k, kept in zip(corral, keep) if kept]
            w = w[keep]
        w = w / float(w.sum())
    else:
        raise SolverError(
            f"hull minimization did not converge in {_HULL_MAX_ITERATIONS} iterations",
            gap=gap,
        )

    theta = np.zeros(m)
    theta[corral] = w
    z = theta @ Y
    nearest = int(np.argmin(G.diagonal() - 2.0 * (scores + r)))
    diff = Y[nearest] - z
    if math.sqrt(dt * float(np.dot(diff, diff))) <= SNAP_TOLERANCE:
        theta = np.zeros(m)
        theta[nearest] = 1.0
    return _checked_weights(theta, gap)


# ---------------------------------------------------------------------------
# load update reference: one load at a time

def reference_load_update(loads, master_seed, member_idx, k, C, g, X):
    """`engine.LoadUpdate`'s call as a loop over loads, as it ran before its
    state became arrays: the bits the array update must reproduce.

    `member_idx` is a list of the loads' member indices (None before a
    finite load's first member), updated in place.  Each call solves every
    group afresh, which the engine's memo changes no bit of, and each
    group solves by `reference_hull_minimize`, one problem at a time.
    Returns (X_new, stay, mean, variance), as the update does.
    """
    gv = g.values
    X_new = np.empty_like(X)
    stays = [1.0] * len(loads)
    mean = np.zeros(gv.shape)
    variance = 0.0
    for i, spec in enumerate(loads):
        if not spec.is_finite:
            x_new = X_new[i] = convex_load_update(gv, X[i], spec.constraint, spec.c)
            stays[i] = 1.0 if np.array_equal(x_new, X[i]) else 0.0
            mean += x_new
    groups: dict = {}
    for i, spec in enumerate(loads):
        if spec.is_finite:
            groups.setdefault((id(spec.constraint), spec.c, member_idx[i]), []).append(i)
    solved = []
    drawn = []
    for (_, c, prev), positions in groups.items():
        x_prev, pulse_set = X[positions[0]], loads[positions[0]].constraint
        if C <= c:
            raise ConfigurationError(f"need C > c_i (got C={C}, c_i={c})")
        pulse_set.grid.check_rows(gv, x_prev)
        theta = reference_hull_minimize((gv * C - x_prev) / (C - c), x_prev, c, pulse_set,
                                        start=prev)
        j = int(theta.argmax())
        pinned = j if theta[j] == 1.0 and not theta[:j].any() else None
        stay = 0.0 if prev is None else float(theta[prev])
        mean_g = np.einsum("k,ks->s", theta, pulse_set.members)
        variance_g = pulse_set.sqnorm - pulse_set.grid.dt * float(np.dot(mean_g, mean_g))
        solved.append((positions, pulse_set, theta, pinned, stay, mean_g, variance_g))
        if pinned is None:
            drawn.extend(positions)
    if drawn:
        drawn.sort()
        u = np.empty(len(loads))
        u[drawn] = load_draws(master_seed, [loads[i].id for i in drawn], k)
    for positions, pulse_set, theta, pinned, stay, mean_g, variance_g in solved:
        if pinned is None:
            draws = u[positions]
            assert np.all((0.0 <= draws) & (draws < 1.0))
            cum = np.cumsum(theta)
            idx = np.minimum(np.searchsorted(cum, draws, side="right"),
                             len(theta) - 1).tolist()
        else:
            idx = [pinned] * len(positions)
        X_new[positions] = pulse_set.members[idx]
        for i, j in zip(positions, idx):
            member_idx[i] = j
            stays[i] = stay
        mean += len(positions) * mean_g
        variance += len(positions) * variance_g
    return X_new, math.prod(stays), mean, variance


# ---------------------------------------------------------------------------
# expectation oracle: full outcome enumeration

def expected_objective_enumeration(b, xs_prev, thetas, sets):
    """E[L_k | x^(k-1)] by enumerating every joint member selection."""
    dt = b.grid.dt
    total = 0.0
    ranges = [range(s.m) for s in sets]
    for choice in itertools.product(*ranges):
        prob = 1.0
        agg = b.values.copy()
        for i, k in enumerate(choice):
            prob *= float(thetas[i][k])
            agg += sets[i].members[k]
        if prob > 0:
            total += prob * dt * float(np.dot(agg, agg))
    return total
