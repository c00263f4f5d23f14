"""Acceptance gate: one test per release criterion.

Every test prints a single ``[criterion N] label: PASS/FAIL`` line on the
real stdout so the gate is readable from a plain ``pytest -v`` log.
Tolerances and budgets are pinned in the assertions; do not widen them.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (hull_oracle_grid, hull_oracle_supports, hull_q,
                      projection_oracle, random_base, random_pulse_set)
from test_netsim import assert_trajectories_equivalent, networked_run
from valleyfill.analysis import (convex_stationarity_residual, is_nash,
                                 subopt_ratio_bound, suboptimality_gap_check)
from valleyfill.core import Profile, TimeGrid, aggregate
from valleyfill.engine import (EngineConfig, LoadSpec, Termination, run)
from valleyfill.feasible import (ConvexChargeSet, hull_minimize, project_convex,
                                 sample)
from valleyfill.scenario import (BaseLoadSpec, FleetSpec, SynthParams,
                                 build_case_study)


def _line(num, label, ok):
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}",
          file=sys.__stdout__, flush=True)


@contextmanager
def reported(num, label):
    try:
        yield
    except BaseException:
        _line(num, label, False)
        raise
    _line(num, label, True)


def small_convex_set(rng, grid):
    caps = rng.uniform(0.2, 0.8, grid.slots)
    energy = rng.uniform(0.1, 0.35) * grid.dt * caps.sum()
    return ConvexChargeSet(Profile(caps, grid), energy)


def pulse_fleet(rng, grid, n, m, m_exact=True, signed=False):
    sets = []
    while len(sets) < n:
        s = random_pulse_set(rng, grid, m_max=m, signed=signed)
        if m_exact and s.m != m:
            continue
        sets.append(s)
    c = [1.0 if signed else None for _ in sets]
    return [LoadSpec(i, s, c=ci) for i, (s, ci) in enumerate(zip(sets, c))]


def test_criterion_1_conditional_expectation_never_increases():
    """Recorded E[objective next | state] <= current objective, exactly."""
    with reported(1, "conditional-expectation descent (20 instances x 100 iters)"):
        start = time.monotonic()
        grid = TimeGrid(24.0, 96)
        for instance in range(20):
            rng = np.random.default_rng(10_000 + instance)
            loads = [LoadSpec(i, random_pulse_set(rng, grid, m_max=81))
                     for i in range(20)]
            b = random_base(rng, grid)
            traj = run(loads, b, EngineConfig(max_iterations=100,
                                              master_seed=instance,
                                              stop_on_epsilon=False))
            # the descent property holds from the second iteration on
            for prev, cur in zip(traj.records, traj.records[1:]):
                slack = 1e-9 * max(1.0, abs(prev.objective))
                assert cur.expected_next_objective <= prev.objective + slack, \
                    (instance, cur.k)
        assert time.monotonic() - start < 60.0


def test_criterion_2_finite_runs_reach_equilibrium():
    """100 seeded runs (n=3, m=4, S=8) all hit a fixed point that is Nash."""
    with reported(2, "finite convergence to equilibrium (100 runs)"):
        start = time.monotonic()
        grid = TimeGrid(4.0, 8)
        for seed in range(100):
            rng = np.random.default_rng(20_000 + seed)
            loads = pulse_fleet(rng, grid, n=3, m=4)
            b = random_base(rng, grid)
            traj = run(loads, b, EngineConfig(max_iterations=10_000,
                                              master_seed=seed,
                                              stop_on_epsilon=False))
            assert traj.terminated_by == Termination.FIXED_POINT, seed
            report = is_nash(traj.final_profiles,
                             [spec.constraint for spec in loads], b, 1e-9)
            assert report.is_equilibrium, (seed, report)
        assert time.monotonic() - start < 60.0


def test_criterion_3_stationary_gap_within_bound():
    """Stationary-point gap vs enumerated optimum stays within 2/4*sum(Y)."""
    with reported(3, "suboptimality gap bounds (50 nonneg + signed family)"):
        start = time.monotonic()
        grid = TimeGrid(4.0, 8)
        for seed in range(50):
            rng = np.random.default_rng(30_000 + seed)
            n = int(rng.integers(2, 5))
            loads = pulse_fleet(rng, grid, n=n, m=8, m_exact=False)
            b = random_base(rng, grid)
            traj = run(loads, b, EngineConfig(max_iterations=20_000,
                                              master_seed=seed,
                                              stop_on_epsilon=False))
            assert traj.terminated_by == Termination.FIXED_POINT, seed
            sets = [spec.constraint for spec in loads]
            gap, bound, ok = suboptimality_gap_check(
                sets, b, aggregate(b, traj.final_profiles))
            assert bound == pytest.approx(2.0 * sum(s.sqnorm for s in sets))
            assert ok, (seed, gap, bound)
        # signed members fall back to the looser factor-4 bound
        signed_checked = 0
        for seed in range(12):
            rng = np.random.default_rng(31_000 + seed)
            loads = pulse_fleet(rng, grid, n=2, m=6, m_exact=False,
                                signed=True)
            sets = [spec.constraint for spec in loads]
            if all(np.all(s.members >= 0) for s in sets):
                continue
            b = random_base(rng, grid)
            traj = run(loads, b, EngineConfig(max_iterations=20_000,
                                              master_seed=seed,
                                              stop_on_epsilon=False))
            assert traj.terminated_by == Termination.FIXED_POINT, seed
            gap, bound, ok = suboptimality_gap_check(
                sets, b, aggregate(b, traj.final_profiles))
            assert bound == pytest.approx(4.0 * sum(s.sqnorm for s in sets))
            assert ok, (seed, gap, bound)
            signed_checked += 1
        assert signed_checked >= 5
        assert time.monotonic() - start < 120.0


def test_criterion_4_convex_monotone_convergence():
    """Convex-only runs: monotone objective, tolerance stop, tiny residual."""
    with reported(4, "deterministic monotone convergence (20 instances)"):
        grid = TimeGrid(12.0, 24)
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            loads = [LoadSpec(i, small_convex_set(rng, grid))
                     for i in range(4)]
            b = random_base(rng, grid, lo=0.0, hi=1.0)
            traj = run(loads, b, EngineConfig(epsilon=1e-6,
                                              max_iterations=1000))
            assert traj.terminated_by == Termination.TOLERANCE, seed
            objs = [rec.objective for rec in traj.records]
            for prev, cur in zip(objs, objs[1:]):
                assert cur <= prev + 1e-9 * max(1.0, abs(prev)), seed
            res = convex_stationarity_residual(loads, traj.final_profiles, b)
            assert res <= 1e-5, (seed, res)


def test_criterion_5_duplicated_loads_match_scaled_aggregate():
    """A duplicated pair tracks one load on the doubled set, per iteration."""
    with reported(5, "aggregation equivalence (5 instances x 50 iterations)"):
        grid = TimeGrid(12.0, 24)
        for instance in range(5):
            rng = np.random.default_rng(50_000 + instance)
            shared = small_convex_set(rng, grid)
            others = [small_convex_set(rng, grid) for _ in range(2)]
            b = random_base(rng, grid, lo=0.0, hi=1.0)
            dup = [LoadSpec(0, shared), LoadSpec(1, shared)] + \
                [LoadSpec(10 + i, s) for i, s in enumerate(others)]
            agg = [LoadSpec(0, shared.scaled(2.0))] + \
                [LoadSpec(10 + i, s) for i, s in enumerate(others)]
            for k in range(1, 51):
                cfg = EngineConfig(max_iterations=k, stop_on_epsilon=False)
                xd = run(dup, b, cfg).final_profiles
                xa = run(agg, b, cfg).final_profiles
                assert np.array_equal(xd[0].values, xd[1].values), (instance, k)
                assert np.allclose(2.0 * xd[0].values, xa[0].values,
                                   atol=1e-8), (instance, k)
                for i in range(len(others)):
                    assert np.allclose(xd[2 + i].values, xa[1 + i].values,
                                       atol=1e-8), (instance, k)


def test_criterion_6_identical_loads_synchronize_bitwise():
    """Identical deterministic loads stay bit-for-bit equal at every iteration."""
    with reported(6, "bit-level synchronization of identical loads"):
        grid = TimeGrid(12.0, 24)
        rng = np.random.default_rng(60_000)
        shared = small_convex_set(rng, grid)
        loads = [LoadSpec(i, shared) for i in range(4)]
        b = random_base(rng, grid, lo=0.0, hi=1.0)
        for k in range(1, 31):
            xs = run(loads, b, EngineConfig(max_iterations=k,
                                            stop_on_epsilon=False)
                     ).final_profiles
            for x in xs[1:]:
                assert np.array_equal(x.values, xs[0].values), k


def test_criterion_7_case_study_desk_scale():
    """1000-household fleet: coordination speed and suboptimality scaling."""
    with reported(7, "case study (escape decay, ratio bound, 1/n scaling)"):
        start = time.monotonic()
        base = BaseLoadSpec(synth=SynthParams())
        ratio_by_n = {}
        for pen in (0.2, 0.5, 1.0):
            escapes = []
            for seed in range(10):
                b, loads = build_case_study(
                    FleetSpec(households=1000, penetration=pen), base,
                    seed=seed)
                traj = run(loads, b, EngineConfig(max_iterations=20,
                                                  master_seed=seed,
                                                  stop_on_epsilon=False))
                assert len(traj.records) == 20
                escapes.append(traj.records[-1].escape_probability)
            assert float(np.mean(escapes)) < 0.5, (pen, escapes)
        for households in (1000, 2000):
            b, loads = build_case_study(
                FleetSpec(households=households, penetration=1.0), base)
            report = subopt_ratio_bound([s.constraint for s in loads], b)
            ratio_by_n[households] = report.ratio_bound
        assert ratio_by_n[1000] <= 0.03
        assert ratio_by_n[2000] <= 0.6 * ratio_by_n[1000]
        assert time.monotonic() - start < 300.0


def test_criterion_8_solvers_match_independent_oracles():
    """Projection, hull minimizer and sampler agree with brute-force oracles."""
    with reported(8, "solver oracles (projection, hull, sampler)"):
        # projection vs exhaustive active-set enumeration
        for seed in range(200):
            rng = np.random.default_rng(80_000 + seed)
            S = int(rng.integers(2, 7))
            grid = TimeGrid(float(S) / 2.0, S)
            caps = rng.uniform(0.3, 2.0, S)
            energy = rng.uniform(0.1, 0.9) * grid.dt * caps.sum()
            cs = ConvexChargeSet(Profile(caps, grid), energy)
            z = Profile(rng.uniform(-1.0, 3.0, S), grid)
            x = Profile(project_convex(z.values, cs), grid)
            x_ref, _ = projection_oracle(z, cs)
            assert np.max(np.abs(x.values - x_ref.values)) <= 1e-8, seed

        # hull minimizer vs support enumeration (all m) and grid search (m<=3)
        for seed in range(200):
            rng = np.random.default_rng(81_000 + seed)
            grid = TimeGrid(3.0, int(rng.integers(3, 7)))
            s = random_pulse_set(rng, grid, m_max=6)
            h = Profile(rng.uniform(-1.0, 1.0, grid.slots), grid)
            k = int(rng.integers(s.m))
            x_prev = s.member(k)
            c_i = float(rng.uniform(0.5, 2.0))
            theta = hull_minimize(h.values, x_prev.values, c_i, s, start=k)
            z = Profile(theta @ s.members, grid)
            z_ref, q_ref = hull_oracle_supports(h, x_prev, c_i, s)
            assert np.max(np.abs(z.values - z_ref)) <= 1e-5, seed
            if s.m <= 3:
                _, q_grid = hull_oracle_grid(h, x_prev, c_i, s)
                q = hull_q(z.values, h.values, x_prev.values, c_i, grid.dt)
                assert q <= q_grid + 1e-5, seed

        # sampler frequencies within 3 sigma over 1e5 draws
        draws = 100_000
        for seed in range(5):
            rng = np.random.default_rng(82_000 + seed)
            m = int(rng.integers(2, 7))
            w = rng.uniform(0.05, 1.0, m)
            theta = w / w.sum()
            us = rng.random(draws)
            counts = np.bincount([sample(theta, float(u)) for u in us],
                                 minlength=m)
            for k in range(m):
                p = theta[k]
                sigma = np.sqrt(draws * p * (1.0 - p))
                assert abs(counts[k] - draws * p) <= 3.0 * sigma, (seed, k)


def test_criterion_9_networked_runs_reproduce_in_process():
    """Socket transport changes nothing: trajectories match bit for bit."""
    with reported(9, "transport transparency (10 mixed fleets)"):
        grid = TimeGrid(6.0, 12)
        for seed in range(10):
            rng = np.random.default_rng(90_000 + seed)
            n = int(rng.integers(2, 11))
            loads = []
            for i in range(n):
                if rng.random() < 0.5:
                    loads.append(LoadSpec(i, small_convex_set(rng, grid)))
                else:
                    loads.append(LoadSpec(i, random_pulse_set(rng, grid,
                                                              m_max=5)))
            b = random_base(rng, grid)
            cfg = EngineConfig(max_iterations=25, master_seed=seed)
            net = networked_run(loads, b, cfg)
            local = run(loads, b, cfg)
            assert_trajectories_equivalent(net, local)
