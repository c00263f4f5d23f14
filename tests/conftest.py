"""Shared fixtures, instance generators and independent test oracles.

Oracles here deliberately take a different computational path than the
library code they check: exhaustive active-set enumeration for the
projection, support-set enumeration and simplex grid search for the hull
minimizer, outcome enumeration for conditional expectations, a per-load
rebuild of the others' aggregate for best responses, per-member sums
for the A1-A4 assumptions finite sets are built to meet, a per-load loop
for the Nash check, and a `csv.reader` loop with `float` per value for the
profiles reader.
"""

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from valleyfill.analysis import NashReport
from valleyfill.cli import InputError
from valleyfill.core import Profile, aggregate
from valleyfill.feasible import ConvexChargeSet, FinitePulseSet


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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            try:
                load_id = int(row[0])
                profile = Profile(np.array([float(v) for v in row[1:]]), grid)
            except ValueError as exc:
                raise InputError(f"{path} line {reader.line_num}: {exc}") from None
            if load_id in out:
                raise InputError(f"{path} line {reader.line_num}: "
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
