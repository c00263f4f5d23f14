"""Output checks, written independently of the code they check.

Each check returns a list of failure messages; an empty list passes.
Every check holds for any correct refactor of the package: it tests a
property of the output, not how the output was computed.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Dict, List, Optional

import numpy as np

# Relative slack for quantities recomputed in another summation order.
RECOMPUTE_RTOL = 1e-9
# Relative slack of the descent criteria, as in the acceptance gate.
DESCENT_SLACK = 1e-9
# Relative tolerance, against the largest per-load cost, for agreement
# between the program's Nash report and the leave-one-out recomputation.
ANALYZE_RTOL = 1e-9


def digest(traj) -> str:
    """Hash of every record's signal and objective plus the final profiles."""
    h = hashlib.sha256()
    for rec in traj.records:
        h.update(np.ascontiguousarray(rec.g.values, dtype=np.float64).tobytes())
        h.update(struct.pack("<d", rec.objective))
    for x in traj.final_profiles:
        h.update(np.ascontiguousarray(x.values, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def profile_matrix(profiles) -> np.ndarray:
    return np.stack([np.asarray(x.values, dtype=np.float64) for x in profiles])


def groups_by_constraint(loads) -> Dict[int, List[int]]:
    """Load positions grouped by their (shared or own) constraint object."""
    groups: Dict[int, List[int]] = {}
    for i, spec in enumerate(loads):
        groups.setdefault(id(spec.constraint), []).append(i)
    return groups


def check_objectives(loads, b_values: np.ndarray, dt: float, traj) -> List[str]:
    """Each recorded objective equals norm2 of the aggregate it describes.

    Iteration k's aggregate is C times the signal broadcast at k+1, and the
    last one is b plus the final profiles.
    """
    errors = []
    C = sum(spec.c for spec in loads)
    recs = traj.records
    for rec, nxt in zip(recs, recs[1:]):
        d = C * np.asarray(nxt.g.values)
        if not _close(rec.objective, dt * float(d @ d), RECOMPUTE_RTOL):
            errors.append(f"k={rec.k}: objective {rec.objective!r} != aggregate "
                          f"recomputed from the next signal")
    d = b_values + profile_matrix(traj.final_profiles).sum(axis=0)
    if recs and not _close(recs[-1].objective, dt * float(d @ d), RECOMPUTE_RTOL):
        errors.append(f"final objective {recs[-1].objective!r} != norm2 of the "
                      f"recomputed final aggregate")
    return errors


def check_members(loads, traj) -> List[str]:
    """Every final profile of a finite load equals one of its members exactly."""
    X = profile_matrix(traj.final_profiles)
    errors = []
    for positions in groups_by_constraint(loads).values():
        Y = loads[positions[0]].constraint.members
        found = (X[positions][:, None, :] == Y[None, :, :]).all(axis=2).any(axis=1)
        for pos, ok in zip(positions, found):
            if not ok:
                errors.append(f"load {loads[pos].id}: final profile is not a member")
    return errors


def check_expected_descent(traj) -> List[str]:
    """E[L_k | x^(k-1)] <= L_(k-1) from the second iteration on (criterion 1)."""
    errors = []
    for prev, cur in zip(traj.records, traj.records[1:]):
        slack = DESCENT_SLACK * max(1.0, abs(prev.objective))
        if not cur.expected_next_objective <= prev.objective + slack:
            errors.append(f"k={cur.k}: expected objective "
                          f"{cur.expected_next_objective!r} exceeds {prev.objective!r}")
    return errors


def check_monotone(traj) -> List[str]:
    """Convex-only runs never increase the objective (criterion 4)."""
    errors = []
    for prev, cur in zip(traj.records, traj.records[1:]):
        if cur.objective > prev.objective + DESCENT_SLACK * max(1.0, abs(prev.objective)):
            errors.append(f"k={cur.k}: objective rose from {prev.objective!r} "
                          f"to {cur.objective!r}")
    return errors


def check_convex_members(loads, traj) -> List[str]:
    return [f"load {spec.id}: final profile outside its convex set"
            for spec, x in zip(loads, traj.final_profiles)
            if not spec.constraint.contains(x)]


def check_same_trajectory(net, local) -> List[str]:
    """Networked and in-process trajectories are equal bit for bit (criterion 9)."""
    if net.terminated_by != local.terminated_by:
        return [f"terminated by {net.terminated_by} vs {local.terminated_by}"]
    if len(net.records) != len(local.records):
        return [f"{len(net.records)} vs {len(local.records)} records"]
    errors = []
    for rn, rl in zip(net.records, local.records):
        if not (rn.k == rl.k and np.array_equal(rn.g.values, rl.g.values)
                and rn.objective == rl.objective
                and rn.profiles_changed == rl.profiles_changed):
            errors.append(f"k={rn.k}: networked record differs from in-process")
            break
    for i, (xn, xl) in enumerate(zip(net.final_profiles, local.final_profiles)):
        if not np.array_equal(xn.values, xl.values):
            errors.append(f"load position {i}: final profiles differ")
    return errors


def leave_one_out(b_values: np.ndarray, dt: float, finite_loads, X: np.ndarray):
    """Best-response gaps of finite loads, with others = total - own profile.

    Returns (gaps, cost scale, aggregate objective) for the fleet whose
    finite profiles are the rows of X, on top of base b.
    """
    d = b_values + X.sum(axis=0)
    others = d[None, :] - X
    current = dt * np.einsum("is,is->i", others, X)
    best = np.empty(len(finite_loads))
    for positions in groups_by_constraint(finite_loads).values():
        Y = finite_loads[positions[0]].constraint.members
        best[positions] = dt * (others[positions] @ Y.T).min(axis=1)
    scale = float(np.max(np.abs(current))) if len(current) else 0.0
    return current - best, scale, dt * float(d @ d)


def check_nash_report(b_values: np.ndarray, dt: float, horizon: float,
                      finite_loads, X: np.ndarray, status: int,
                      worst: float, violator: Optional[int],
                      ratio: float) -> List[str]:
    """The program's analyze verdict agrees with an independent recomputation.

    `status` is 1 for "not an equilibrium", `violator` a position in
    `finite_loads` or None, `ratio` the reported suboptimality ratio bound.
    """
    gaps, scale, value = leave_one_out(b_values, dt, finite_loads, X)
    tol = 1e-9 * (1.0 + abs(value))        # the equilibrium tolerance analyze uses
    slack = ANALYZE_RTOL * (1.0 + scale)
    ind_worst = max(float(gaps.max()), 0.0) if len(gaps) else 0.0
    errors = []
    if abs(ind_worst - tol) > slack and status != (1 if ind_worst > tol else 0):
        errors.append(f"exit status {status}, but worst gap {ind_worst!r} vs tol {tol!r}")
    if abs(worst - ind_worst) > slack:
        errors.append(f"worst_violation {worst!r} != recomputed {ind_worst!r}")
    if violator is None:
        if ind_worst > tol + slack:
            errors.append(f"no violating load named, recomputed worst {ind_worst!r}")
    elif not (0 <= violator < len(gaps)) or gaps[violator] < ind_worst - slack:
        errors.append(f"violating_load {violator} is not a worst violator")
    energy = dt * float(b_values.sum())
    sqnorm = 0.0
    for spec in finite_loads:
        y = spec.constraint.members[0]
        energy += dt * float(y.sum())
        sqnorm += dt * float(y @ y)
    mu = energy / horizon
    expected_ratio = 2.0 * sqnorm / (horizon * mu * mu)
    if not _close(ratio, expected_ratio, RECOMPUTE_RTOL):
        errors.append(f"ratio_bound {ratio!r} != recomputed {expected_ratio!r}")
    return errors


def project_box_energy(Z: np.ndarray, caps: np.ndarray, energy: np.ndarray,
                       dt: float, steps: int = 100) -> np.ndarray:
    """Row-wise projection onto {0 <= x <= caps, dt*sum(x) = energy}.

    Bisects every row's dual at once; energy is monotone in the dual.
    """
    lo = Z.min(axis=1) - caps.max(axis=1) - 1.0
    hi = Z.max(axis=1) + 1.0
    for _ in range(steps):
        lam = 0.5 * (lo + hi)
        e = dt * np.clip(Z - lam[:, None], 0.0, caps).sum(axis=1)
        above = e > energy
        lo = np.where(above, lam, lo)
        hi = np.where(above, hi, lam)
    return np.clip(Z - (0.5 * (lo + hi))[:, None], 0.0, caps)


def check_stationarity(loads, b_values: np.ndarray, dt: float, traj,
                       residual: float, rtol: float = 1e-6) -> List[str]:
    """The reported convex stationarity residual matches a recomputation."""
    X = profile_matrix(traj.final_profiles)
    c = np.array([spec.c for spec in loads])
    caps = np.stack([spec.constraint.caps.values for spec in loads])
    energy = np.array([spec.constraint.energy for spec in loads])
    g = (b_values + X.sum(axis=0)) / c.sum()
    P = project_box_energy(X - c[:, None] * g[None, :], caps, energy, dt)
    expected = math.sqrt(dt * float(((X - P) ** 2).sum()))
    if not abs(residual - expected) <= rtol * max(expected, 1e-6):
        return [f"stationarity residual {residual!r} != recomputed {expected!r}"]
    return []
