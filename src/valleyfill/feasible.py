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
from typing import List, Optional, Sequence

import numpy as np

from .core import Profile, TimeGrid, _field, _number, values_key

__all__ = [
    "InfeasibleSetError",
    "SolverError",
    "ConvexChargeSet",
    "FinitePulseSet",
    "make_pulse_set",
    "project_convex",
    "hull_minimize",
    "hull_minimize_batch",
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
        # the failing problem's position in a `hull_minimize_batch` call
        self.problem: Optional[int] = None


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
    common constants the members are supposed to share: finite numbers,
    with `sqnorm` and `rate_bound` >= 0 (ValueError otherwise).
    Construction does not check that the members share them, so
    deliberately perturbed sets can be built.
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
        self.energy, self.sqnorm, self.rate_bound = energy, sqnorm, rate_bound
        _field(self, "energy", _number, "a finite number")
        _field(self, "sqnorm", _number, "a finite number >= 0", ge=0)
        _field(self, "rate_bound", _number, "a finite number >= 0", ge=0)

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
    This is the one-problem call of `hull_minimize_batch`.
    """
    return hull_minimize_batch([(h, x_prev, c_i, pulse_set, start)])[0]


def hull_minimize_batch(problems: Sequence[tuple]) -> List[np.ndarray]:
    """`hull_minimize(h, x_prev, c_i, pulse_set, start)` of each problem, in lockstep.

    Returns each problem's theta, in order, bit for bit as a call of its
    own would.  The products r = Y p of the problems that share a set are
    one einsum.  The problems step together, bucketed by (m, corral size):
    a bucket's major cycle takes the scores, w.scores and w.r over the
    corral as stacked matmuls, and its minor cycle solves the affine minima
    as one stacked `np.linalg.solve`; per problem, Python keeps only the
    corral list, the entering member and the rare ratio step.  numpy runs
    a stacked matmul or solve as one BLAS or LAPACK call per item, of the
    item's own shape, so no bit depends on the bucket.  A corral is never
    padded to share a bucket: a padded system changes BLAS blocking, and
    so the bits.  When a stacked solve finds a singular system, the
    bucket's systems are solved one at a time, each by `solve`, then by
    least squares.  `_HULL_MAX_ITERATIONS` counts each problem's major
    cycles.  The other problems run on when one fails; then the SolverError
    of the first failing problem is raised, with its position in
    `problems` as `problem`.
    """
    by_set: dict = {}
    for i, (h, x_prev, _, pulse_set, _) in enumerate(problems):
        pulse_set.grid.check_rows(h, x_prev)
        by_set.setdefault(pulse_set, []).append(i)
    r = [None] * len(problems)
    for pulse_set, at in by_set.items():
        # r = Y p of the problems on one set as one einsum, without BLAS as the
        # Gram is; each row has the bits of its problem's own "ks,s->k"
        H, X_prev, c = (np.array([problems[i][j] for i in at]) for j in range(3))
        for i, r_i in zip(at, np.einsum("ks,bs->bk", pulse_set.members,
                                        X_prev - c[:, None] * H)):
            r[i] = r_i
    hulls = [_Hull(x_prev, pulse_set, start, r_i)
             for (_, x_prev, _, pulse_set, start), r_i in zip(problems, r)]
    running = [hull for bucket in _buckets(hulls) for hull in _major_cycle(bucket)]
    while running:
        running = [hull for bucket in _buckets(running) for hull in _minor_cycle(bucket)]
    thetas = []
    for i, hull in enumerate(hulls):
        try:
            thetas.append(hull.weights())
        except SolverError as exc:
            exc.problem = i
            raise
    return thetas


class _Hull:
    """One problem of `hull_minimize_batch`: its data and its Wolfe state."""

    __slots__ = ("Y", "G", "r", "dt", "xx_prev", "corral", "w", "q_last", "gap",
                 "cycles", "scores", "error")

    def __init__(self, x_prev, pulse_set, start, r):
        self.Y, self.G = pulse_set.members, pulse_set.gram
        self.dt = pulse_set.grid.dt
        self.r = r
        self.xx_prev = float(np.dot(x_prev, x_prev))
        if start is None:  # norm2(y_k - p), less its constant norm2(p)
            start = int((self.G.diagonal() - 2.0 * r).argmin())
        self.corral = [start]
        self.w = np.array([1.0])
        self.q_last = self.gap = math.inf
        self.cycles = 0
        self.scores = self.error = None

    def weights(self) -> np.ndarray:
        """theta over all members from the corral weights, snapped and checked;
        the problem's SolverError if it failed."""
        if self.error is not None:
            raise self.error
        Y, G, m = self.Y, self.G, len(self.r)
        theta = np.zeros(m)
        theta[self.corral] = self.w
        z = theta @ Y
        # Snap to a vertex when the minimizer coincides with a member: the
        # member nearest z in member space, at its exact distance.
        nearest = int((G.diagonal() - 2.0 * (self.scores + self.r)).argmin())
        diff = Y[nearest] - z
        if math.sqrt(self.dt * float(np.dot(diff, diff))) <= SNAP_TOLERANCE:
            theta = np.zeros(m)
            theta[nearest] = 1.0
        return _checked_weights(theta, self.gap)


def _buckets(hulls: List[_Hull]):
    """`hulls` grouped by (m, corral size), the shapes a stacked step needs."""
    if len(hulls) == 1:
        return [hulls]
    buckets: dict = {}
    for hull in hulls:
        buckets.setdefault((len(hull.r), len(hull.corral)), []).append(hull)
    return buckets.values()


def _gram(bucket: List[_Hull], corrals: np.ndarray, square: bool) -> np.ndarray:
    """Each problem's Gram rows G[corral], or with `square` its block
    G[corral][:, corral], stacked."""
    G = bucket[0].G
    if len(bucket) == 1 or all(hull.G is G for hull in bucket):  # one set: one gather
        return G[corrals[:, :, None], corrals[:, None, :]] if square else G.take(corrals, axis=0)
    if square:
        return np.stack([hull.G[np.ix_(c, c)] for hull, c in zip(bucket, corrals)])
    return np.stack([hull.G.take(c, axis=0) for hull, c in zip(bucket, corrals)])


def _major_cycle(bucket: List[_Hull], stacked=None) -> List[_Hull]:
    """One major cycle of each problem in `bucket`: score the members against
    the corral weights, stop at a small gap or when Q stops falling, or else
    add the lowest-scoring member to the corral.  `stacked` holds the
    bucket's corrals, r vectors, flat corral positions and weights as the
    minor cycle before stacked them, or is None.  Returns the problems that
    go on to minor cycles."""
    if stacked is None:
        stacked = (*_stacked(bucket), bucket[0].w[None] if len(bucket) == 1
                   else np.array([hull.w for hull in bucket]))
    corrals, R, at, W = stacked
    W = W[:, None]
    scores = (W @ _gram(bucket, corrals, False))[:, 0] - R
    wsw = (W @ scores.take(at)[:, :, None]).ravel()  # w^T G w - w.r over the corral
    wr = (W @ R.take(at)[:, :, None]).ravel()
    going = []
    for hull, s, j, wsw_b, wr_b in zip(bucket, scores, scores.argmin(axis=1).tolist(),
                                       wsw.tolist(), wr.tolist()):
        hull.cycles += 1
        q = hull.dt * (wsw_b - wr_b + hull.xx_prev)
        hull.scores, hull.gap = s, 2.0 * hull.dt * (wsw_b - float(s[j]))
        # a NaN gap stops too, and so does a Q that rounding kept from falling
        if not hull.gap > 1e-8 * (1.0 + abs(q)) or not q < hull.q_last:
            continue
        if hull.cycles == _HULL_MAX_ITERATIONS:
            hull.error = SolverError("hull minimization did not converge in "
                                     f"{_HULL_MAX_ITERATIONS} iterations", gap=hull.gap)
            continue
        hull.q_last = q
        if j not in hull.corral:
            hull.corral.append(j)  # its weight 0 joins w in a ratio step
        going.append(hull)
    return going


def _minor_cycle(bucket: List[_Hull]) -> List[_Hull]:
    """One minor cycle of each problem in `bucket`: the exact minimizer of
    norm2(sum_k u_k (y_k - p)) over the corral's affine hull, with sum(u) = 1.
    A problem takes it as its weights when it is a proper convex combination,
    and otherwise steps toward it until a weight reaches zero, dropping that
    member; a problem whose corral shrank needs another minor cycle, and the
    others go on to their next major cycle here.  Returns the problems that
    run on."""
    corrals, R, at = _stacked(bucket)
    G_i, r_i = _gram(bucket, corrals, True), R.take(at)
    d0 = G_i[:, 0, :1] - G_i[:, 0, 1:]                     # (y_0 - y_k).y_0, k >= 1
    M = G_i[:, 1:, 1:] - G_i[:, 1:, :1] + d0[:, None]      # (y_k - y_0).(y_l - y_0)
    rhs = d0 + (r_i[:, 1:] - r_i[:, :1])                   # (y_0 - y_k).(y_0 - p)
    solved = True
    try:
        v = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # rounding made a corral dependent
        v = np.array([_corral_solve(hull, M_b, rhs_b)
                      for hull, M_b, rhs_b in zip(bucket, M, rhs)])
        solved = all(hull.error is None for hull in bucket)
    U = np.concatenate((1.0 - v.sum(axis=1, keepdims=True), v), axis=1)
    W = U / U.sum(axis=1, keepdims=True)
    mins = U.min(axis=1).tolist()
    if solved and all(u_min > 1e-12 for u_min in mins):  # NaN is not
        for hull, w in zip(bucket, W):
            hull.w = w
        return _major_cycle(bucket, (corrals, R, at, W))  # the stacked arrays carry over
    settled, again = [], []
    for hull, u, w_b, u_min in zip(bucket, U, W, mins):
        if hull.error is not None:
            continue
        if u_min > 1e-12:
            hull.w = w_b
            settled.append(hull)
            continue
        w = hull.w if len(hull.w) == len(u) else np.append(hull.w, 0.0)
        shrink = u < w
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.where(shrink, w / (w - u), np.inf)
        t = min(1.0, float(steps.min()))
        w = (1.0 - t) * w + t * u
        keep = ~(w <= 1e-12)            # NaN weights stay, for _checked_weights to reject
        if keep.all():
            w = np.maximum(w, 0.0)
            hull.w = w / float(w.sum())
            settled.append(hull)
        else:
            hull.corral = [k for k, kept in zip(hull.corral, keep) if kept]
            hull.w = w[keep]
            again.append(hull)
    return again + [hull for sub in _buckets(settled) for hull in _major_cycle(sub)]


def _stacked(bucket: List[_Hull]):
    """The bucket's corrals and r vectors as (B, k) and (B, m) arrays, and each
    corral's flat positions in the (B, m) array."""
    corrals = np.array([hull.corral for hull in bucket])
    if len(bucket) == 1:  # views, not copies: most calls solve one problem
        return corrals, bucket[0].r[None], corrals
    R = np.array([hull.r for hull in bucket])
    return corrals, R, corrals + np.arange(0, R.size, R.shape[1])[:, None]


def _corral_solve(hull: _Hull, M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One corral system by `solve`, or by least squares when rounding made it
    singular; NaNs, with the problem's SolverError set, when neither can."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.lstsq(M, rhs)[0]
        except np.linalg.LinAlgError as exc:
            hull.error = SolverError(f"hull minimization: {exc}", gap=hull.gap)
            return np.full(len(rhs), np.nan)


def _checked_weights(theta: np.ndarray, gap: float) -> np.ndarray:
    """theta made read-only, or SolverError if it is not a distribution."""
    # written so that NaN fails both checks
    if not (theta >= 0).all():
        raise SolverError("hull minimization: weights must be nonnegative numbers, not NaN",
                          gap=gap)
    if not abs(float(theta.sum()) - 1.0) <= 1e-12:
        raise SolverError(f"hull minimization: weights sum to {theta.sum()}, expected 1",
                          gap=gap)
    theta.flags.writeable = False
    return theta


def sample(theta: np.ndarray, u):
    """Inverse-CDF sample over theta's cumulative weights in index order.

    theta is a vector of hull weights, as `hull_minimize` returns.
    `u` is one draw in [0, 1), giving one member index, or an array of
    draws, giving an index array: each element is the scalar sample.
    """
    idx = _inverse_cdf(np.cumsum(theta), _unit_draws(u))
    return int(idx) if idx.ndim == 0 else idx


def _unit_draws(u) -> np.ndarray:
    """u as float64 draws, or ValueError unless every draw lies in [0, 1)."""
    draws = np.asarray(u, dtype=np.float64)
    if not np.all((0.0 <= draws) & (draws < 1.0)):
        raise ValueError(f"u must be in [0, 1), got {u}")
    return draws


def _inverse_cdf(cum: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The member index of each draw in [0, 1) against the cumulative weights
    cum = np.cumsum(theta): the first member whose cumulative weight exceeds
    the draw, or the last member when rounding leaves cum[-1] below it."""
    return np.minimum(np.searchsorted(cum, draws, side="right"), len(cum) - 1)

