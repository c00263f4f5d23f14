"""Iterative coordinator/load protocol for both update rules and both transports.

`coordinate` is the one coordinator loop: in-process runs and networked
sessions pass it the fleet and a transport callable that returns every
load's update, and it works out the fleet's weight C, its size and
whether every load is finite.
Inside the loop the fleet state is one (n+1, S) array, the base in row 0
and one load per row after it; `Profile`s are built only for the
aggregates, the records' signals and the final profiles.  Each iteration
sums one aggregate in load order, with one reduction over that array,
which gives both that iteration's objective and the next signal.  The
loop plays the game on the base it is given; a caller with a Track
objective passes `Objective.effective_base(b)`.  The escape probability
is one minus the product of the loads' stay probabilities, which the
update returns.

`LoadUpdate` is the one load update, for a whole fleet in process and
for one load in a networked agent; one instance serves one run and keeps
its state: each load's member index and the signal memo.
One rule decides what the update computes: a load's update depends only
on the signal (C, g), its set object, its weight c and its state, which
is its member index for a finite load and its row for a convex load.
Loads that agree on all four share one update, so the memo keys each
result by (set, c, state) under one signal.  Convex loads update by
projection (`convex_load_update`), once per key.  Finite loads update in
two phases.  First each key's group solves the hull once for its
sampling distribution theta, the groups the memo lacks all in one
lockstep `hull_minimize_batch` call, and finds whether theta pins one
member.
Then the loads of the groups theta does not pin draw in one `load_draws`
call, in load order, and each group samples theta's cumulative weights,
which the memo keeps, with its loads' draws.  Member indices, stays and
draws are arrays, so a call's Python work on finite loads is per group,
but for one pass that groups them by a small integer key.
While g repeats bit for bit, as it does in every round after one in
which no profile moved, the memo keeps its results, and only the draws
and sampling run again; a new signal clears it.
Per-load randomness comes from a counter-based stream keyed by
(master_seed, load id, iteration) (`load_draw` defines it; `load_draws`
reproduces it bit for bit in one vectorised pass), so trajectories are
bit-reproducible regardless of execution order and grouping, and a
networked agent updating its one load reproduces the in-process run.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (GridMismatchError, Profile, TimeGrid, _field, _flag, _integer,
                   _number, norm, norm2)
from .feasible import (ConvexChargeSet, FinitePulseSet, SolverError, _inverse_cdf,
                       _unit_draws, hull_minimize, hull_minimize_batch, project_convex)

__all__ = [
    "ConfigurationError",
    "LoadSpec",
    "EngineConfig",
    "IterationRecord",
    "Termination",
    "Trajectory",
    "load_draw",
    "load_draws",
    "coordinator_signal",
    "convex_load_update",
    "finite_load_update",
    "fleet_weight",
    "coordinate",
    "LoadUpdate",
    "run",
]


class ConfigurationError(ValueError):
    """Invalid engine configuration, surfaced before iteration 1."""


def _check_load(load) -> None:
    """Check a frozen `LoadSpec`'s or `netsim.RosterEntry`'s id and weight.

    The id must be an integer >= 0 (stored as an int) and c a finite
    number > 0 (stored as a float); otherwise ConfigurationError.
    """
    _field(load, "id", _integer, "an integer >= 0", ge=0, error=ConfigurationError,
           label="load id")
    _field(load, "c", _number, "finite and positive", gt=0, error=ConfigurationError,
           label=f"load {load.id}: c")


@dataclass(frozen=True)
class LoadSpec:
    """One elastic load: its constraint set and update weight c_i.

    The id is a non-negative integer: it keys the load's draws.  The
    weight is a finite number > 0; the default is the load's total energy
    request (c_i = X_i), which equalizes per-load convergence speed.
    A bad id or weight raises ConfigurationError.
    """

    id: int
    constraint: Union[ConvexChargeSet, FinitePulseSet]
    c: Optional[float] = None

    def __post_init__(self):
        if self.c is None:
            object.__setattr__(self, "c", self.constraint.energy)
        # set-up builds one spec per load: the common case, an int id in
        # [0, 2**32) and a float weight in (0, inf), skips the general check
        if not (type(self.id) is int and 0 <= self.id < 2**32
                and type(self.c) is float and 0.0 < self.c < math.inf):
            _check_load(self)

    @property
    def is_finite(self) -> bool:
        return isinstance(self.constraint, FinitePulseSet)

    @property
    def grid(self) -> TimeGrid:
        return self.constraint.grid


@dataclass(frozen=True)
class EngineConfig:
    """Run settings; a bad value raises ConfigurationError when it is built.

    By core's rules, epsilon is a number > 0, max_iterations an integer
    >= 1, master_seed an integer, and record_diagnostics and
    stop_on_epsilon flags.
    """

    epsilon: float = 1e-6
    max_iterations: int = 1000
    master_seed: int = 0
    record_diagnostics: bool = True
    # The signal-change rule can fire at a non-stationary state when two
    # consecutive iterations happen to leave all profiles unchanged; turn
    # it off to drive all-finite fleets to their exact fixed point.
    stop_on_epsilon: bool = True

    def __post_init__(self):
        error = ConfigurationError
        _field(self, "epsilon", _number, "finite and positive", gt=0, error=error)
        _field(self, "max_iterations", _integer, "an integer >= 1", ge=1, error=error)
        _field(self, "master_seed", _integer, "an integer", error=error)
        for name in ("record_diagnostics", "stop_on_epsilon"):
            _field(self, name, _flag, "a bool", error=error)


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


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 constants.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = 0x4385DF649FCCF645
# Below this many keys, one `load_draw` per key is faster than one
# vectorised pass: a key costs 12-25 us, a pass 150-260 us whatever its
# size up to a few hundred keys, and they break even at 11-12 keys (one
# Xeon vCPU, Python 3.11, numpy 2.4).
_BATCH_MIN_KEYS = 12


def _words(n: int) -> List[int]:
    """The uint32 words numpy seeds with for an entry n >= 0, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def load_draw(master_seed: int, load_id: int, k: int) -> float:
    """Uniform [0,1) draw for load `load_id` at iteration `k`.

    Keyed, not sequential: the same (seed, id, k) triple yields the same
    draw in-process and across networked agents.  The stream is
    ``np.random.default_rng([master_seed & 0xFFFFFFFFFFFFFFFF, load_id, k]).random()``.
    numpy seeds with the uint32 words of those entries, concatenated, so
    one uint32 array of the words gives the same generator without
    default_rng's per-entry conversion (about a fifth of the call).
    `load_draws` computes the stream for many ids at once.
    """
    key = _words(master_seed & 0xFFFFFFFFFFFFFFFF) + _words(load_id) + _words(k)
    return float(np.random.Generator(np.random.PCG64(np.array(key, np.uint32))).random())


def _hash_constants(init: int, mult: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) column vectors of n successive SeedSequence hashmix calls.

    The hash constant advances by a fixed multiplier on every call,
    whatever the data, so the sequence is a table.
    """
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & _MASK32
        mults.append(init)
    return (np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None])


# mix_entropy makes 4 + 12 hashmix calls on a key of at most 4 words.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * _POOL)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)


def _hashmix(v: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    v = (v ^ xors) * mults
    return v ^ (v >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> np.uint32(16))


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of a * b, from 32-bit halves."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    a0, a1 = a & m32, a >> s32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    return p11 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)


def _seeded_uniforms(entropy: np.ndarray) -> np.ndarray:
    """First `Generator.random()` of `PCG64(SeedSequence(e))` for each column e.

    `entropy` is a (4, N) uint32 array, one seed's words per column; a seed
    shorter than SeedSequence's 4-word pool is padded with zeros, as
    mix_entropy pads it.
    SeedSequence.mix_entropy and generate_state(4, uint64) run as array
    arithmetic over the columns; so do PCG64's seeding (state = 0,
    inc = seq << 1 | 1; step; state += seed; step) and one output step
    (step, then XSL-RR).  128-bit values are (hi, lo) uint64 pairs.
    """
    xa, ma = _HASH_A
    pool = _hashmix(entropy, xa[:_POOL], ma[:_POOL])
    t = _POOL
    for src in range(_POOL):
        # the source word is fixed while it is mixed into the other three
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xa[t:t + 3], ma[t:t + 3]))
        t += 3
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_HASH_B).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = state[0::2] | (state[1::2] << np.uint64(32))
    one, mult_lo = np.uint64(1), np.uint64(_PCG_MULT_LO)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    for _ in range(2):
        hi = hi * mult_lo + lo * _PCG_MULT_HI + _mulhi64(lo, _PCG_MULT_LO)
        lo = lo * mult_lo
        new_lo = lo + inc_lo
        hi = hi + inc_hi + (new_lo < lo)
        lo = new_lo
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def load_draws(master_seed: int, ids, k: int) -> np.ndarray:
    """`load_draw(master_seed, id, k)` for each id in `ids`, bit for bit, as an array.

    Batches of `_BATCH_MIN_KEYS` or more keys that runs make, ids in
    [0, 2**32) whose (seed, id, k) words fit SeedSequence's 4-word pool,
    run one vectorised SeedSequence + PCG64 pass (`_seeded_uniforms`).
    Smaller batches and batches with any other key take `load_draw` per
    key.
    """
    if len(ids) >= _BATCH_MIN_KEYS:
        arr = np.asarray(ids)
        head = _words(master_seed & 0xFFFFFFFFFFFFFFFF)
        key = head + [0] + _words(k)
        if (arr.dtype.kind in "iu" and arr.min() >= 0 and arr.max() <= _MASK32
                and len(key) <= _POOL):
            key += [0] * (_POOL - len(key))
            entropy = np.array(key, np.uint32)[:, None].repeat(arr.size, axis=1)
            entropy[len(head)] = arr
            return _seeded_uniforms(entropy)
    return np.array([load_draw(master_seed, i, k) for i in ids], dtype=np.float64)


def coordinator_signal(d: Profile, C: float) -> Profile:
    """Broadcast signal g = d / C for the aggregate d = b + sum_i x_i."""
    if C <= 0:
        raise ConfigurationError(f"C must be positive, got {C}")
    return Profile(d.values / C, d.grid)


def convex_load_update(g: np.ndarray, x_prev: np.ndarray, charge_set: ConvexChargeSet,
                       c_i: float) -> np.ndarray:
    """argmin over the set of 2*c_i*<g, x> + norm2(x - x_prev), as a row.

    g and x_prev are rows on the set's grid.  Completing the square
    reduces this to projecting x_prev - c_i*g.
    """
    charge_set.grid.check_rows(g, x_prev)
    return project_convex(x_prev - c_i * g, charge_set)


def finite_load_update(g: np.ndarray, C: float, x_prev: np.ndarray,
                       pulse_set: FinitePulseSet, c_i: float,
                       start: Optional[int] = None) -> np.ndarray:
    """Sampling weights theta of a finite load: hull-minimize against the exact leave-one-out signal.

    g and x_prev are rows on the set's grid; theta is `hull_minimize`'s
    read-only weight vector over the set's members.
    h = (g*C - x_prev) / (C - c_i) equals (b + sum_{j != i} x_j) / sum_{j != i} c_j.
    `start` is x_prev's member index, or None when x_prev is not a member
    (see `hull_minimize`).
    """
    _check_weight(C, c_i)
    pulse_set.grid.check_rows(g, x_prev)
    return hull_minimize(_leave_one_out(g, C, x_prev, c_i), x_prev, c_i, pulse_set,
                         start=start)


def _check_weight(C: float, c_i: float) -> None:
    """ConfigurationError unless C > c_i, which a finite load's leave-one-out signal needs."""
    if C <= c_i:
        raise ConfigurationError(
            f"need C > c_i (got C={C}, c_i={c_i}); a single finite load is not schedulable"
        )


def _leave_one_out(g: np.ndarray, C: float, x_prev: np.ndarray, c) -> np.ndarray:
    """The signal without load i, h = (g*C - x_prev) / (C - c_i), for the row g and
    a row x_prev with its weight c, or a stack of rows with the column of their
    weights: each row of the stack has its own h's bits.  C must exceed c."""
    return (g * C - x_prev) / (C - c)


def _expected_objective(b: Profile, mean, variance: float) -> float:
    """E[L_k | x^(k-1)] = norm2(b + sum_i E[x_i]) + sum_i (E[norm2(x_i)] - norm2(E[x_i])).

    `mean` and `variance` are the two sums over loads; the loads draw
    independently, so only their own spreads add.
    """
    d = b.values + mean
    return b.grid.dt * float(np.dot(d, d)) + variance


def fleet_weight(fleet: Sequence) -> float:
    """C = sum_i c_i of a fleet of `LoadSpec`s or `netsim.RosterEntry`s.

    Raises ConfigurationError for an empty fleet, duplicate ids, or a
    finite load without other weight to average against (C <= c_i).
    """
    ids = [load.id for load in fleet]
    if not ids or len(set(ids)) != len(ids):
        raise ConfigurationError(f"need one or more loads with unique ids, got "
                                 f"{len(set(ids))} distinct ids for {len(ids)} loads")
    C = sum(load.c for load in fleet)
    for load in fleet:
        if load.is_finite and C <= load.c:
            raise ConfigurationError(f"finite load {load.id} needs C > c_i")
    return C


def coordinate(b: Profile, fleet: Sequence, cfg: EngineConfig,
               exchange: Callable) -> Trajectory:
    """The coordinator loop, shared by every transport.

    `fleet` holds the loads' `LoadSpec`s or `netsim.RosterEntry`s, in
    load order; C is their `fleet_weight`.  Starting from zero profiles,
    each iteration broadcasts g = (b + sum_i x_i) / C through
    exchange(k, C, g, X), where X is the (n, S) array of current profiles,
    a view that the next iteration overwrites.  The exchange returns the
    new array, stay = P{x^(k) = x^(k-1)} as the product of the loads' stay
    probabilities (see `LoadUpdate`) in load order, and the sums
    `_expected_objective` takes (NaN where the transport lacks them).
    The factors lie in [0, 1], so stay is 1.0 exactly when each factor is.
    Stops on the signal-change rule (k > 2 and ||g^(k-1) - g^(k-2)|| < eps),
    on an exact fixed point when every load is finite and keeps its
    profile with probability 1, or at max_iterations.

    The loop reuses one (n+1, S) state array: row 0 is b, the rows after
    it are X, and each iteration copies the exchange's rows into it.  The
    aggregate is one `np.add.reduce` over that array, bit for bit
    `aggregate`'s load-order row loop.
    """
    C = fleet_weight(fleet)
    all_finite = all(load.is_finite for load in fleet)
    grid, S = b.grid, b.grid.slots
    # numpy reduces a C-ordered array along axis 0 row after row, but one
    # column as a 1-D pairwise sum, so the state has at least two columns
    state = np.zeros((len(fleet) + 1, max(S, 2)))
    state[0, :S] = b.values
    X = state[1:, :S]

    def total() -> Profile:
        return Profile(np.add.reduce(state, axis=0)[:S], grid)

    d = total()
    records: List[IterationRecord] = []
    g_prev: Optional[Profile] = None
    terminated = Termination.MAX_ITER

    for k in range(1, cfg.max_iterations + 1):
        g = coordinator_signal(d, C)
        X_new, stay, mean, variance = exchange(k, C, g, X)
        changed = int(np.count_nonzero(np.any(X_new != X, axis=1)))
        if cfg.record_diagnostics:
            escape = 1.0 - stay
            expected = _expected_objective(b, mean, variance)
        else:
            escape = expected = math.nan
        X[...] = X_new
        del X_new  # else it stays alive, a second (n, S) array, through the next exchange
        d = total()
        objective = norm2(d)
        records.append(IterationRecord(k, g, objective, escape, expected, changed))

        if all_finite and stay == 1.0:
            terminated = Termination.FIXED_POINT
            break
        if cfg.stop_on_epsilon and k > 2:
            if norm(Profile(g.values - g_prev.values, grid)) < cfg.epsilon:
                terminated = Termination.TOLERANCE
                break
        g_prev = g

    return Trajectory(records, [Profile(x, grid) for x in X], terminated)


class LoadUpdate:
    """The load update of one run of `loads`, as an exchange: update(k, C, g, X).

    Iteration k's update of `loads`, whose current profiles are the rows
    of X.  C is the whole fleet's weight; `loads` may be part of the
    fleet.  A load's update depends only on the signal (C, g), its set
    object, its weight c and its state: its member index for a finite
    load, its row for a convex load.  Loads that share (set, c, state)
    share one update: convex loads project once per key, and finite loads
    of one key share theta, so each such group solves the hull once; the
    groups the memo lacks are solved in one `hull_minimize_batch` call,
    their leave-one-out signals built as one array.
    A group whose theta puts weight 1.0 on one member takes it without a
    draw (inverse-CDF sampling picks it for every u); the loads of the
    other groups draw in one `load_draws` call, in load order, and each
    such group samples its stored cumulative weights with one
    `searchsorted`.
    Returns the new profiles, stay = P{x^(k) = x^(k-1)} as the load-order
    product of the loads' stay probabilities, and the sums of the loads'
    means and variances that `_expected_objective` takes.  A SolverError
    is re-raised naming k and the group's load ids.

    The update reads each load's kind, set and weight when it is built,
    and numbers the finite loads' (set, c) classes, so that a finite
    load's key is one small integer, its class and member index.  Per
    call, one pass groups the finite loads by that integer, each convex
    load keeps its own pass, and the finite loads' other work is array
    operations per group and per set.  `member_idx` is an int array of
    each load's member index (-1 before a finite load's first member).
    The memo keeps the results computed under one signal (C, g): for
    each finite group, what its theta gives (the cumulative weights, or
    the member theta pins, and the stay probability, mean and variance),
    keyed by the group's integer; for each convex key, the projection,
    keyed by (id(set), c, bytes of the row).  While the signal repeats
    bit for bit, a stored key reuses its result instead of re-solving or
    re-projecting; a new signal clears the memo.  Draws and sampling run
    every call, so an update whose memo is cleared before each call gives
    the same results bit for bit.
    """

    def __init__(self, loads: Sequence[LoadSpec], master_seed: int):
        self.loads = loads
        self.master_seed = master_seed
        self.member_idx = np.full(len(loads), -1)
        ids = [spec.id for spec in loads]
        # numpy makes a list holding ids past int64 float64 or object; an object
        # array keeps them Python ints, which load_draws draws key by key
        self._ids = np.array(ids, dtype=np.int64 if max(ids, default=0) < 2**63 else object)
        # (position, set, c, id(set)) of each convex load
        self._convex = [(i, spec.constraint, spec.c, id(spec.constraint))
                        for i, spec in enumerate(loads) if not spec.is_finite]
        finite = [i for i, spec in enumerate(loads) if spec.is_finite]
        self._finite, self._finite_list = np.array(finite, dtype=np.intp), finite
        # one class per (set, c): a finite load's key is its class's code plus its
        # member index, and code // stride is the class, code % stride - 1 the member
        classes: dict = {}
        for i in finite:
            spec = loads[i]
            classes.setdefault((id(spec.constraint), spec.c), (spec.constraint, spec.c))
        self._classes = list(classes.values())
        self._stride = 1 + max((s.m for s, _ in self._classes), default=0)
        code = {key: n * self._stride + 1 for n, key in enumerate(classes)}
        self._codes = np.array([code[id(loads[i].constraint), loads[i].c] for i in finite],
                               dtype=np.int64)
        self._c_max = max((c for _, c in self._classes), default=0.0)
        self._grids = {s.grid for s, _ in self._classes}
        self._signal: Optional[Tuple[float, bytes]] = None
        self._memo: dict = {}

    def __call__(self, k: int, C: float, g: Profile,
                 X: np.ndarray) -> Tuple[np.ndarray, float, np.ndarray, float]:
        memo = self._memo
        gv = g.values
        signal = (C, gv.tobytes())
        if self._signal != signal:
            memo.clear()
            self._signal = signal
            if self._finite_list:  # C comes off the wire in an agent
                _check_weight(C, self._c_max)
        X_new = np.empty_like(X)
        stays = np.empty(len(self.loads))
        mean = np.zeros(gv.shape)
        for i, charge_set, c, set_id in self._convex:
            key = (set_id, c, X[i].tobytes())
            if key not in memo:
                memo[key] = convex_load_update(gv, X[i], charge_set, c)
            x_new = X_new[i] = memo[key]
            stays[i] = 1.0 if np.array_equal(x_new, X[i]) else 0.0
            mean += x_new
        variance = 0.0
        if self._finite_list:
            variance = self._update_finite(k, C, gv, X, X_new, stays, mean)
        return X_new, math.prod(stays.tolist()), mean, variance

    def _update_finite(self, k: int, C: float, gv: np.ndarray, X: np.ndarray,
                       X_new: np.ndarray, stays: np.ndarray, mean: np.ndarray) -> float:
        """The finite loads' rows of X_new and stays, their means added to `mean`,
        and the sum of their variances."""
        member_idx, memo = self.member_idx, self._memo
        groups: dict = {}
        for i, code in zip(self._finite_list,
                           (self._codes + member_idx.take(self._finite)).tolist()):
            groups.setdefault(code, []).append(i)
        missing = [code for code in groups if code not in memo]
        if missing:
            self._solve(k, C, gv, X, groups, missing)
        entries = [(np.array(positions, dtype=np.intp), memo[code])
                   for code, positions in groups.items()]
        drawn = [at for at, (_, cum, *_) in entries if cum is not None]
        if drawn:  # the loads of the groups theta does not pin draw, in load order
            at = np.sort(np.concatenate(drawn))
            u = np.empty(len(self.loads))
            u[at] = _unit_draws(load_draws(self.master_seed, self._ids[at], k))
        variance = 0.0
        for at, (members, cum, top, stay, mean_g, variance_g) in entries:
            idx = top if cum is None else _inverse_cdf(cum, u.take(at))
            member_idx.put(at, idx)
            X_new[at] = members[idx]
            stays.put(at, stay)
            mean += len(at) * mean_g
            variance += len(at) * variance_g
        return variance

    def _solve(self, k: int, C: float, gv: np.ndarray, X: np.ndarray, groups: dict,
               missing: List[int]) -> None:
        """Memo entries for the group codes `missing` under the signal (C, gv): their
        leave-one-out signals as one array, one lockstep hull solve, and each set's
        means as one einsum."""
        classes = self._classes
        keys = [divmod(code, self._stride) for code in missing]   # (class, member + 1)
        X_prev = X.take([groups[code][0] for code in missing], axis=0)
        for grid in self._grids:
            grid.check_rows(gv, X_prev[0])
        c = [classes[n][1] for n, _ in keys]
        H = _leave_one_out(gv, C, X_prev, np.array(c)[:, None])
        problems = [(h, x_prev, c_b, classes[n][0], j - 1 if j else None)
                    for h, x_prev, c_b, (n, j) in zip(H, X_prev, c, keys)]
        try:
            thetas = hull_minimize_batch(problems)
        except SolverError as exc:
            positions = groups[missing[exc.problem]]
            raise SolverError(f"iteration {k}, loads "
                              f"{[self.loads[i].id for i in positions]}: {exc}",
                              gap=exc.gap) from exc
        by_set: dict = {}
        for b, (n, _) in enumerate(keys):
            by_set.setdefault(classes[n][0], []).append(b)
        for pulse_set, at in by_set.items():
            # E[x] and E[norm2(x)] - norm2(E[x]) for x ~ theta; members share norm2(x) = Y.
            # einsum calls no BLAS, so these bits do not depend on its thread count,
            # and each stacked row has the bits of its theta's own "k,ks->s"
            means = np.einsum("bk,ks->bs", np.array([thetas[b] for b in at]),
                              pulse_set.members)
            for b, mean_g in zip(at, means):
                theta, prev = thetas[b], keys[b][1] - 1
                top = int(theta.argmax())
                # theta that pins member top gives it every draw: the group draws none
                pinned = theta[top] == 1.0 and not theta[:top].any()
                self._memo[missing[b]] = (
                    pulse_set.members, None if pinned else np.cumsum(theta), top,
                    0.0 if prev < 0 else float(theta[prev]), mean_g,
                    pulse_set.sqnorm - pulse_set.grid.dt * float(np.dot(mean_g, mean_g)))


def run(loads: Sequence[LoadSpec], b: Profile, cfg: EngineConfig) -> Trajectory:
    """Run the coordinator loop in process; see `coordinate` for the stopping rules.

    `b` is the game's base: the base load, or for a Track objective
    `Objective.effective_base(b)`.
    """
    for spec in loads:
        if spec.grid != b.grid:
            raise GridMismatchError(f"load {spec.id} is on a different grid")
    return coordinate(b, loads, cfg, LoadUpdate(loads, cfg.master_seed))
