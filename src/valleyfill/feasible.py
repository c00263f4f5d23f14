"""Constraint sets and the per-load solvers.

Two feasible-set representations: a convex box-and-energy polytope
(projection via dual bisection) and an explicit finite set of admissible
profiles (hull minimization by Wolfe's min-norm-point method, run on the
members' Gram matrix that each set caches, plus inverse-CDF sampling over
the resulting hull weights).  A finite set records the rate bound, energy
and squared norm its members share (assumptions A1, A3 and A4);
`make_pulse_set` builds sets that meet them, and construction does not
re-check them.

The solvers run inside the engine's load update, so they take and return
float64 rows on their set's grid, not `Profile`s; a row of any other
shape raises GridMismatchError.  `FinitePulseSet.member_index` takes
such a row too, or a `Profile`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Profile, TimeGrid, values_key

__all__ = [
    "InfeasibleSetError",
    "SolverError",
    "ConvexChargeSet",
    "FinitePulseSet",
    "make_pulse_set",
    "project_convex",
    "hull_minimize",
    "sample",
    "SNAP_TOLERANCE",
]

# Snap-to-vertex tolerance in profile norm: hull minimizers this close to a
# member collapse to the one-hot weights on it, making stationary points
# exactly observable.
SNAP_TOLERANCE = 1e-7
# Major cycles of the min-norm-point method before hull_minimize gives up.
_HULL_MAX_ITERATIONS = 10_000
# ConvexChargeSet.contains: slack on the box in kW, relative slack on the energy.
_CONTAINS_TOLERANCE = 1e-9


class InfeasibleSetError(ValueError):
    """Raised when a constraint set is empty or a start slot is impossible."""


class SolverError(RuntimeError):
    """Raised when an iterative solver fails to reach its tolerance."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


@dataclass(frozen=True)
class ConvexChargeSet:
    """Box (per-slot caps, kW) intersected with a total-energy hyperplane (kWh)."""

    caps: Profile
    energy: float

    def __post_init__(self):
        if np.any(self.caps.values < 0):
            raise ValueError("caps must be nonnegative")
        max_energy = self.caps.grid.dt * float(np.sum(self.caps.values))
        if not (0 <= self.energy <= max_energy * (1 + 1e-12)):
            raise InfeasibleSetError(
                f"energy {self.energy} kWh outside [0, {max_energy}] kWh"
            )

    @property
    def grid(self) -> TimeGrid:
        return self.caps.grid

    def scaled(self, factor: float) -> "ConvexChargeSet":
        """The set {factor * x : x feasible}; models aggregated identical loads."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return ConvexChargeSet(Profile(self.caps.values * factor, self.grid),
                               self.energy * factor)

    def contains(self, x: Profile) -> bool:
        tol = _CONTAINS_TOLERANCE
        if x.grid != self.grid:
            return False
        if np.any(x.values < -tol) or np.any(x.values > self.caps.values + tol):
            return False
        e = self.grid.dt * float(np.sum(x.values))
        return abs(e - self.energy) <= tol * (1 + abs(self.energy))


class FinitePulseSet:
    """Explicit finite set of admissible profiles with common energy and norm.

    `members` is an (m, S) array of distinct rows, each one admissible
    profile, stored with -0.0 folded into 0.0.
    `energy` (kWh), `sqnorm` (kW^2*h) and `rate_bound` (kW) record the
    common constants the members are supposed to share.  Construction
    does not check that they do, so deliberately perturbed sets can be
    built.
    """

    def __init__(self, members: np.ndarray, grid: TimeGrid, energy: float,
                 sqnorm: float, rate_bound: float):
        members = np.ascontiguousarray(members, dtype=np.float64)
        if members.ndim != 2 or members.shape[1] != grid.slots:
            raise ValueError(f"members must be (m, {grid.slots}), got {members.shape}")
        if members.shape[0] < 1:
            raise ValueError("at least one member required")
        if not np.all(np.isfinite(members)):
            raise ValueError("member values must be finite")
        # a copy with -0.0 folded as in `values_key`, so each row's bytes are its key
        members = members + 0.0
        members.flags.writeable = False
        self._index = {}
        for k, row in enumerate(members):
            if self._index.setdefault(row.tobytes(), k) != k:
                raise ValueError(f"duplicate member at index {k}")
        self.members = members
        self.grid = grid
        self.energy = float(energy)
        self.sqnorm = float(sqnorm)
        self.rate_bound = float(rate_bound)

    @property
    def m(self) -> int:
        return self.members.shape[0]

    def member(self, k: int) -> Profile:
        return Profile(self.members[k], self.grid)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """The members' Gram matrix Y Y^T (kW^2), summed on first use by einsum,
        not BLAS, so its bits do not depend on the BLAS thread count."""
        gram = np.einsum("ks,ls->kl", self.members, self.members)
        gram.flags.writeable = False
        return gram

    def member_index(self, x: np.ndarray | Profile) -> Optional[int]:
        """Index of the member equal to x in every slot, or None.

        x is a float64 row on the set's grid, as the solvers take (a row of
        another shape raises GridMismatchError), or a Profile (on another
        grid: None).
        """
        if isinstance(x, Profile):
            if x.grid is not self.grid and x.grid != self.grid:
                return None
            x = x.values
        elif x.shape != (self.grid.slots,):  # check_rows' own test costs 1 us a row
            self.grid.check_rows(x)  # raises
        return self._index.get(values_key(x))


def make_pulse_set(rate: float, duration_hours: float,
                   allowed_start_slots: Sequence[int], grid: TimeGrid) -> FinitePulseSet:
    """Constant-rate pulse set: one member per allowed start slot.

    Each member charges at `rate` kW for `duration_hours` starting at the
    slot boundary of its start slot, zero elsewhere.  The duration must be
    a whole number of slots and must fit the horizon from every start.
    """
    starts = list(allowed_start_slots)
    if not starts:
        raise ValueError("allowed_start_slots must be nonempty")
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ValueError("allowed_start_slots must be strictly increasing")
    duration_slots = duration_hours / grid.dt
    n_slots = round(duration_slots)
    if abs(duration_slots - n_slots) > 1e-9 or n_slots < 1:
        raise ValueError(
            f"duration {duration_hours} h is not a whole number of {grid.dt} h slots"
        )
    members = np.zeros((len(starts), grid.slots))
    for k, start in enumerate(starts):
        if start < 0 or start + n_slots > grid.slots:
            raise InfeasibleSetError(
                f"pulse starting at slot {start} overruns the {grid.slots}-slot horizon"
            )
        members[k, start:start + n_slots] = rate
    return FinitePulseSet(
        members, grid,
        energy=rate * duration_hours,
        sqnorm=rate * rate * duration_hours,
        rate_bound=abs(rate),
    )


def project_convex(z: np.ndarray, charge_set: ConvexChargeSet) -> np.ndarray:
    """Euclidean projection of the row z onto the box-and-energy set.

    KKT form: x_t = clip(z_t - lam, 0, caps_t) with the scalar dual lam
    found by bisection; the energy dt*sum(x) is monotone nonincreasing in
    lam, which makes bisection safe.
    """
    charge_set.grid.check_rows(z)
    caps = charge_set.caps.values
    dt = charge_set.grid.dt
    target = charge_set.energy

    def energy_at(lam: float) -> float:
        return dt * float(np.sum(np.clip(z - lam, 0.0, caps)))

    lo = float(np.min(z) - np.max(caps) - 1.0)
    hi = float(np.max(z) + 1.0)
    tol = 1e-12 * max(abs(target), 1.0)
    lam = 0.0
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        e = energy_at(lam)
        if abs(e - target) <= tol:
            break
        if e > target:
            lo = lam
        else:
            hi = lam
    x = np.clip(z - lam, 0.0, caps)
    # Exact energy: distribute the residual over the strictly interior slots.
    residual = target - dt * float(np.sum(x))
    interior = (x > 0) & (x < caps)
    n_int = int(np.sum(interior))
    if n_int > 0:
        x[interior] += residual / (dt * n_int)
        x = np.clip(x, 0.0, caps)
    return x


def hull_minimize(h: np.ndarray, x_prev: np.ndarray, c_i: float,
                  pulse_set: FinitePulseSet, start: Optional[int] = None,
                  ) -> np.ndarray:
    """Minimize Q(z) = 2*c_i*<h, z> + norm2(z - x_prev) over the member hull.

    Completing the square turns this into projecting p = x_prev - c_i*h
    onto the hull, solved by Wolfe's min-norm-point active-set method
    (Math. Programming 11, 1976): grow a corral of members, minimize
    exactly over its affine hull, and drop members whose weight would go
    negative.  The loop runs on m-vectors: from the set's cached Gram
    G = Y Y^T and the one S-length product r = Y p, member k scores
    (G w)_k - r_k against the corral weights w, and the duality gap and
    Q follow without a term in norm2(p).  Each affine minimum is solved
    in difference form, u = e_0 + sum_k v_k (e_k - e_0), whose matrix
    (y_k - y_0).(y_l - y_0) holds no p, so it stays well conditioned when
    p is far from the hull, and u sums to 1 by construction; a system
    that rounding made singular is solved by least squares.  Vertex ties
    break toward the lowest index.  Stops when the duality gap drops below
    1e-8 * (1 + |Q|), or when rounding keeps Q from falling.  Returns the
    hull weights theta, a read-only float64 vector of length m whose
    expectation `theta @ members` is the minimizer; a minimizer within
    SNAP_TOLERANCE of a member in profile norm collapses to the one-hot
    weights on the nearest member (equal member norms force degeneracy
    there).  Weights that are not a distribution (negative, NaN, or not
    summing to 1), and a corral system no solver can solve, raise
    SolverError.

    The corral starts from member `start`, which is x_prev's member index
    (fixed points then terminate in one gap evaluation), or None when
    x_prev is not a member: then from the member with the lowest Q value.
    """
    pulse_set.grid.check_rows(h, x_prev)
    Y, G = pulse_set.members, pulse_set.gram
    m = pulse_set.m
    dt = pulse_set.grid.dt
    p = x_prev - c_i * h
    r = np.einsum("ks,s->k", Y, p)     # without BLAS, as the Gram is
    xx_prev = float(np.dot(x_prev, x_prev))

    if start is None:  # norm2(y_k - p), less its constant norm2(p)
        start = int(np.argmin(G.diagonal() - 2.0 * r))
    corral = [start]
    w = np.array([1.0])

    def affine_min(idx):
        """Exact minimizer of norm2(sum_k u_k (y_k - p)) over idx with sum(u) = 1."""
        G_i, r_i = G[idx][:, idx], r[idx]
        d0 = G_i[0, 0] - G_i[0]                 # (y_0 - y_k).y_0
        M = G_i[1:, 1:] - G_i[1:, :1] + d0[1:]  # (y_k - y_0).(y_l - y_0)
        rhs = d0[1:] + (r_i[1:] - r_i[0])      # (y_0 - y_k).(y_0 - p)
        try:
            v = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:  # rounding made the corral dependent
            try:
                v = np.linalg.lstsq(M, rhs)[0]
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"hull minimization: {exc}", gap=gap) from None
        return np.concatenate(([1.0 - v.sum()], v))

    gap = q_last = math.inf
    for _ in range(_HULL_MAX_ITERATIONS):
        scores = w @ G[corral] - r
        wsw = float(w @ scores[corral])     # w^T G w - w.r over the corral
        q = dt * (wsw - float(w @ r[corral]) + xx_prev)
        j = int(scores.argmin())
        gap = 2.0 * dt * (wsw - float(scores[j]))
        # a NaN gap stops too, and so does a Q that rounding kept from falling
        if not gap > 1e-8 * (1.0 + abs(q)) or not q < q_last:
            break
        q_last = q
        if j not in corral:
            corral.append(j)
            w = np.append(w, 0.0)
        # minor cycles: shrink the corral until the affine minimizer is
        # a proper convex combination
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
            keep = ~(w <= 1e-12)            # NaN weights stay, for _checked_weights to reject
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

    # Snap to a vertex when the minimizer coincides with a member: the
    # member nearest z in member space, at its exact distance.
    nearest = int(np.argmin(G.diagonal() - 2.0 * (scores + r)))
    diff = Y[nearest] - z
    if math.sqrt(dt * float(np.dot(diff, diff))) <= SNAP_TOLERANCE:
        theta = np.zeros(m)
        theta[nearest] = 1.0
    return _checked_weights(theta, gap)


def _checked_weights(theta: np.ndarray, gap: float) -> np.ndarray:
    """theta made read-only, or SolverError if it is not a distribution."""
    # written so that NaN fails both checks
    if not (theta >= 0).all():
        raise SolverError("hull minimization: weights must be nonnegative numbers, not NaN",
                          gap=gap)
    if not abs(float(np.sum(theta)) - 1.0) <= 1e-12:
        raise SolverError(f"hull minimization: weights sum to {np.sum(theta)}, expected 1",
                          gap=gap)
    theta.flags.writeable = False
    return theta


def sample(theta: np.ndarray, u):
    """Inverse-CDF sample over theta's cumulative weights in index order.

    theta is a vector of hull weights, as `hull_minimize` returns.
    `u` is one draw in [0, 1), giving one member index, or an array of
    draws, giving an index array: each element is the scalar sample.
    """
    draws = np.asarray(u, dtype=np.float64)
    if not np.all((0.0 <= draws) & (draws < 1.0)):
        raise ValueError(f"u must be in [0, 1), got {u}")
    cum = np.cumsum(theta)
    idx = np.minimum(np.searchsorted(cum, draws, side="right"), len(theta) - 1)
    return int(idx) if idx.ndim == 0 else idx

