import itertools

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import best_response, is_nash_per_load, random_base, random_pulse_set
from valleyfill.analysis import (NashReport, OracleTooLargeError, brute_force_optimum,
                                 convex_stationarity_residual, is_nash, nash_report,
                                 subopt_ratio_bound, suboptimality_gap_check)
from valleyfill.core import Profile, TimeGrid, aggregate, norm2
from valleyfill.engine import (ConfigurationError, EngineConfig, LoadSpec, LoadUpdate,
                               Termination, coordinator_signal, fleet_weight, run)
from valleyfill.feasible import FinitePulseSet


def grid(T=4.0, S=8):
    return TimeGrid(T, S)


def two_pulse_set(g):
    members = np.zeros((2, g.slots))
    members[0, 0:2] = 1.0
    members[1, 2:4] = 1.0
    return FinitePulseSet(members, g, energy=2 * g.dt, sqnorm=2 * g.dt,
                          rate_bound=1.0)


def enumeration_reference(sets, b):
    """Independent nested-loop optimum used to cross-check the library one."""
    dt = b.grid.dt
    best = None
    best_v = float("inf")
    for choice in itertools.product(*[range(s.m) for s in sets]):
        agg = b.values.copy()
        for i, k in enumerate(choice):
            agg = agg + sets[i].members[k]
        v = dt * float(np.dot(agg, agg))
        if v < best_v:
            best_v = v
            best = choice
    return best, best_v


class TestBestResponse:
    def test_avoids_loaded_slots(self):
        g = grid()
        s = two_pulse_set(g)
        b = Profile(np.array([5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]), g)
        idx, score = best_response(0, [s.member(0)], b, s)
        assert idx == 1
        assert score == pytest.approx(0.0)

    def test_tie_breaks_low_index(self):
        g = grid()
        s = two_pulse_set(g)
        b = Profile.constant(1.0, g)
        idx, _ = best_response(0, [s.member(1)], b, s)
        assert idx == 0

    def test_rejects_non_member(self):
        g = grid()
        s = two_pulse_set(g)
        with pytest.raises(ValueError):
            best_response(0, [Profile.constant(0.5, g)], Profile.zeros(g), s)


nash_cases = given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 24),
                   n_sets=st.integers(1, 3), copies=st.integers(0, 2),
                   signed=st.booleans(), negative_zeros=st.booleans(),
                   tol_scale=st.sampled_from([0.0, 0.5, 1.0]))


def nash_case(seed, n, n_sets, copies, signed, negative_zeros):
    """n loads holding random members of random sets, and a random base."""
    rng = np.random.default_rng(seed)
    g = TimeGrid(float(rng.integers(1, 13)), int(rng.integers(2, 13)))
    sets = [random_pulse_set(rng, g, m_max=4, signed=signed) for _ in range(n_sets)]
    # equal copies are distinct objects, so they form groups of their own
    sets += [FinitePulseSet(s.members, g, s.energy, s.sqnorm, s.rate_bound)
             for s in sets[:copies]]
    own = [sets[int(rng.integers(len(sets)))] for _ in range(n)]
    xs = []
    for s in own:
        row = s.members[int(rng.integers(s.m))]
        if negative_zeros:  # a member still, as membership folds -0.0 into 0.0
            row = np.where((row == 0.0) & (rng.random(g.slots) < 0.5), -0.0, row)
        xs.append(Profile(row, g))
    return xs, own, random_base(rng, g)


class TestIsNash:
    def test_separated_loads_are_nash(self):
        g = grid()
        s = two_pulse_set(g)
        b = Profile.zeros(g)
        report = is_nash([s.member(0), s.member(1)], [s, s], b, 1e-9)
        assert report.is_equilibrium
        assert report.violating_load is None

    def test_stacked_loads_are_not_nash(self):
        g = grid()
        s = two_pulse_set(g)
        b = Profile.zeros(g)
        report = is_nash([s.member(0), s.member(0)], [s, s], b, 1e-9)
        assert not report.is_equilibrium
        # moving either load to the empty slots saves <x_other, member0> = 2*dt
        assert report.worst_violation == pytest.approx(2 * g.dt)
        assert report.violating_load in (0, 1)

    def test_rejects_non_member(self):
        g = grid()
        s = two_pulse_set(g)
        with pytest.raises(ValueError, match="^load 1: profile is not a member"):
            is_nash([s.member(0), Profile.constant(0.3, g)], [s, s], Profile.zeros(g), 1e-9)

    def test_brute_force_optimum_is_nash(self):
        rng = np.random.default_rng(7)
        g = grid()
        for _ in range(10):
            sets = [random_pulse_set(rng, g, m_max=4) for _ in range(3)]
            b = random_base(rng, g)
            choice, _ = brute_force_optimum(sets, b)
            xs = [s.member(k) for s, k in zip(sets, choice)]
            assert is_nash(xs, sets, b, 1e-9).is_equilibrium

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
           n_sets=st.integers(1, 3), signed=st.booleans(),
           tol_scale=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    def test_matches_best_response_oracle(self, seed, n, n_sets, signed, tol_scale):
        """worst_violation is the largest gap of `best_response` over the loads."""
        rng = np.random.default_rng(seed)
        g = TimeGrid(float(rng.integers(1, 13)), int(rng.integers(2, 13)))
        sets = [random_pulse_set(rng, g, m_max=5, signed=signed)
                for _ in range(n_sets)]
        own = [sets[int(rng.integers(n_sets))] for _ in range(n)]
        xs = [s.member(int(rng.integers(s.m))) for s in own]
        b = random_base(rng, g)
        gaps, costs = [], []
        for i, (x, s) in enumerate(zip(xs, own)):
            others = aggregate(b, xs[:i] + xs[i + 1:])
            costs.append(g.dt * float(np.dot(others.values, x.values)))
            gaps.append(costs[-1] - best_response(i, xs, b, s)[1])
        worst = max(gaps)
        slack = 1e-9 * max(abs(c) for c in costs)
        tol = tol_scale * max(worst, 0.0)
        report = is_nash(xs, own, b, tol)
        assert report.worst_violation == pytest.approx(max(worst, 0.0), abs=slack)
        if abs(worst - tol) > slack:
            assert report.is_equilibrium == (worst <= tol)
            event(f"equilibrium: {report.is_equilibrium}")
        if not report.is_equilibrium:
            assert gaps[report.violating_load] >= worst - slack

    def test_empty_fleet_is_nash(self):
        g = grid()
        b = random_base(np.random.default_rng(3), g)
        assert is_nash([], [], b, 0.0) == NashReport(True, 0.0, None)
        assert is_nash_per_load([], [], b, 0.0) == NashReport(True, 0.0, None)

    def test_single_load_matches_per_load_oracle(self):
        g = grid()
        s = two_pulse_set(g)
        b = Profile(np.array([5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]), g)
        report = is_nash([s.member(0)], [s], b, 0.0)
        assert report == is_nash_per_load([s.member(0)], [s], b, 0.0)
        # moving off the loaded slots saves <b, member 0> = 10*dt
        assert report == NashReport(False, 10 * g.dt, 0)

    def test_tied_gaps_name_the_first_load(self):
        """Loads 1-3 stack on member 0 of two equal set objects and tie."""
        g = grid()
        s, t = two_pulse_set(g), two_pulse_set(g)
        xs = [s.member(1), t.member(0), s.member(0), t.member(0)]
        own = [s, t, s, t]
        report = is_nash(xs, own, Profile.zeros(g), 0.0)
        assert report == is_nash_per_load(xs, own, Profile.zeros(g), 0.0)
        assert report == NashReport(False, 2 * g.dt, 1)

    @settings(max_examples=300, deadline=None)
    @nash_cases
    def test_equals_per_load_oracle(self, seed, n, n_sets, copies, signed,
                                    negative_zeros, tol_scale):
        """Grouping loads by (set object, held member) changes no bit of the report."""
        xs, own, b = nash_case(seed, n, n_sets, copies, signed, negative_zeros)
        tol = tol_scale * is_nash_per_load(xs, own, b, 0.0).worst_violation
        report = is_nash(xs, own, b, tol)
        expected = is_nash_per_load(xs, own, b, tol)
        assert report == expected
        assert report.worst_violation.hex() == expected.worst_violation.hex()
        event(f"loads: {min(n, 2)}{'+' if n > 2 else ''}")
        v = report.violating_load
        if v is not None and any(
                xs[j] == xs[v] and np.array_equal(own[j].members, own[v].members)
                for j in range(v + 1, n)):
            event("worst gap tied with a later load")

    @settings(max_examples=300, deadline=None)
    @nash_cases
    def test_report_from_member_indices_equals_per_load_oracle(
            self, seed, n, n_sets, copies, signed, negative_zeros, tol_scale):
        """The kernel on held member indices and the load-order aggregate
        reports what the per-load loop reports on the profiles, bit for bit."""
        xs, own, b = nash_case(seed, n, n_sets, copies, signed, negative_zeros)
        tol = tol_scale * is_nash_per_load(xs, own, b, 0.0).worst_violation
        idx = [s.member_index(x) for x, s in zip(xs, own)]
        report = nash_report(own, idx, aggregate(b, xs), tol)
        expected = is_nash_per_load(xs, own, b, tol)
        assert report == expected
        assert report.worst_violation.hex() == expected.worst_violation.hex()
        event(f"loads: {min(n, 2)}{'+' if n > 2 else ''}")


def tiny_fleet(seed):
    """Two or three finite loads with m <= 4 members on 8 slots, under random
    weights: odd seeds sign their sets, and a load may share the set before it."""
    rng = np.random.default_rng(60_000 + seed)
    g = grid()
    sets = []
    for _ in range(int(rng.integers(2, 4))):
        if sets and rng.random() < 0.25:
            sets.append(sets[-1])
        else:
            sets.append(random_pulse_set(rng, g, m_max=4, signed=seed % 2 == 1))
    loads = [LoadSpec(i, s, c=float(rng.uniform(0.2, 5.0))) for i, s in enumerate(sets)]
    return loads, random_base(rng, g)


class TestFixedPointTuples:
    """The paper's characterization, tuple by tuple: a member tuple is a final
    profile of the algorithm exactly when it is a Nash equilibrium."""

    def test_certified_exactly_when_one_update_keeps_every_load(self):
        seen = {False: 0, True: 0}
        for seed in range(300):
            loads, b = tiny_fleet(seed)
            sets = [spec.constraint for spec in loads]
            C = fleet_weight(loads)
            for idx in itertools.product(*(range(s.m) for s in sets)):
                total = aggregate(b, [s.member(j) for s, j in zip(sets, idx)])
                update = LoadUpdate(loads, seed)
                update.member_idx[:] = idx
                X = np.array([s.members[j] for s, j in zip(sets, idx)])
                stay = update(1, C, coordinator_signal(total, C), X)[1]
                report = nash_report(sets, idx, total, 0.0)
                assert report.is_equilibrium == (stay == 1.0), (seed, idx, report, stay)
                seen[report.is_equilibrium] += 1
        assert min(seen.values()) > 100, seen


class TestBruteForce:
    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(17)
        g = grid()
        for _ in range(15):
            sets = [random_pulse_set(rng, g, m_max=5)
                    for _ in range(int(rng.integers(1, 4)))]
            b = random_base(rng, g)
            choice, value = brute_force_optimum(sets, b)
            ref_choice, ref_value = enumeration_reference(sets, b)
            assert value == pytest.approx(ref_value, rel=1e-12)
            assert choice == ref_choice

    def test_empty_fleet(self):
        g = grid()
        b = random_base(np.random.default_rng(0), g)
        choice, value = brute_force_optimum([], b)
        assert choice == ()
        assert value == pytest.approx(norm2(b))

    def test_size_cap(self):
        g = grid()
        s = two_pulse_set(g)
        with pytest.raises(OracleTooLargeError):
            brute_force_optimum([s] * 30, Profile.zeros(g))


class TestGapCheck:
    def run_to_fixed_point(self, rng, g, n, signed=False, seed=0):
        # signed templates can have negative energy; fix the weight explicitly
        loads = [LoadSpec(i, random_pulse_set(rng, g, m_max=5, signed=signed),
                          c=1.0)
                 for i in range(n)]
        b = random_base(rng, g)
        traj = run(loads, b, EngineConfig(max_iterations=20_000,
                                          master_seed=seed,
                                          stop_on_epsilon=False))
        return loads, b, traj

    def test_nonnegative_bound_holds(self):
        rng = np.random.default_rng(27)
        checked = 0
        for trial in range(12):
            loads, b, traj = self.run_to_fixed_point(rng, grid(), 3, seed=trial)
            if traj.terminated_by != Termination.FIXED_POINT:
                continue
            sets = [spec.constraint for spec in loads]
            gap, bound, ok = suboptimality_gap_check(
                sets, b, aggregate(b, traj.final_profiles))
            assert ok
            assert gap >= -1e-9
            assert bound == pytest.approx(2.0 * sum(s.sqnorm for s in sets))
            checked += 1
        assert checked >= 8

    def test_signed_members_use_looser_bound(self):
        rng = np.random.default_rng(37)
        for trial in range(6):
            loads, b, traj = self.run_to_fixed_point(rng, grid(), 2,
                                                     signed=True, seed=trial)
            if traj.terminated_by != Termination.FIXED_POINT:
                continue
            sets = [spec.constraint for spec in loads]
            if all(np.all(s.members >= 0) for s in sets):
                continue
            gap, bound, ok = suboptimality_gap_check(
                sets, b, aggregate(b, traj.final_profiles))
            assert ok
            assert bound == pytest.approx(4.0 * sum(s.sqnorm for s in sets))


class TestStationarityResidual:
    def test_positive_away_from_fixed_point(self):
        rng = np.random.default_rng(47)
        g = TimeGrid(6.0, 12)
        from conftest import random_convex_set
        loads = [LoadSpec(i, random_convex_set(rng, g)) for i in range(3)]
        b = random_base(rng, g)
        from valleyfill.feasible import project_convex
        xs = [Profile(project_convex(rng.uniform(0, 2, g.slots), spec.constraint), g)
              for spec in loads]
        assert convex_stationarity_residual(loads, xs, b) > 1e-4

    def test_rejects_duplicate_ids_as_run_does(self):
        rng = np.random.default_rng(48)
        g = TimeGrid(6.0, 12)
        from conftest import random_convex_set
        loads = [LoadSpec(0, random_convex_set(rng, g)) for _ in range(2)]
        xs = [Profile.zeros(g)] * 2
        with pytest.raises(ConfigurationError, match="unique ids"):
            convex_stationarity_residual(loads, xs, random_base(rng, g))


class TestRatioBound:
    def test_halves_when_fleet_and_base_double(self):
        rng = np.random.default_rng(57)
        g = TimeGrid(24.0, 96)
        sets = [random_pulse_set(rng, g, m_max=6) for _ in range(8)]
        base = random_base(rng, g, lo=0.5, hi=1.5)
        r1 = subopt_ratio_bound(sets, base)
        doubled_base = Profile(2.0 * base.values, g)
        r2 = subopt_ratio_bound(sets + sets, doubled_base)
        # sum(Y) doubles while the denominator quadruples
        assert r2.ratio_bound == pytest.approx(0.5 * r1.ratio_bound, rel=1e-6)

    def test_empty_zero_base(self):
        g = grid()
        report = subopt_ratio_bound([], Profile.zeros(g))
        assert report.ratio_bound == 0.0

    def test_rejects_signed_members(self):
        rng = np.random.default_rng(67)
        g = grid()
        s = random_pulse_set(rng, g, signed=True)
        if np.all(s.members >= 0):
            pytest.skip("random template came out nonnegative")
        with pytest.raises(ValueError):
            subopt_ratio_bound([s], Profile.constant(1.0, g))

    def test_zero_mean_rejected(self):
        g = grid()
        s = two_pulse_set(g)
        # base energy exactly cancels the set energy, so mu_d = 0
        b = Profile.constant(-s.energy / g.horizon_hours, g)
        with pytest.raises(ValueError):
            subopt_ratio_bound([s], b)
