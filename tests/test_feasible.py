import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (hull_oracle_grid, hull_oracle_supports, hull_q,
                      projection_oracle, random_convex_set, random_pulse_set,
                      validate_A1A4)
from valleyfill.core import GridMismatchError, Profile, TimeGrid, norm, norm2
from valleyfill.feasible import (SNAP_TOLERANCE, ConvexChargeSet, FinitePulseSet,
                                 InfeasibleSetError, SolverError, _checked_weights,
                                 hull_minimize, make_pulse_set, project_convex, sample)


def canonical_grid():
    return TimeGrid(24.0, 96)


class TestMakePulseSet:
    def test_canonical_case(self):
        ps = make_pulse_set(3.3, 4.0, list(range(81)), canonical_grid())
        assert ps.m == 81
        assert ps.energy == pytest.approx(13.2, rel=1e-12)
        assert ps.sqnorm == pytest.approx(43.56, rel=1e-12)
        assert ps.rate_bound == 3.3

    def test_singleton(self):
        ps = make_pulse_set(2.0, 1.0, [3], TimeGrid(8.0, 8))
        assert ps.m == 1
        assert np.array_equal(ps.members[0], [0, 0, 0, 2, 0, 0, 0, 0])

    def test_full_horizon_pulse(self):
        ps = make_pulse_set(1.5, 8.0, [0], TimeGrid(8.0, 8))
        assert np.all(ps.members[0] == 1.5)

    def test_overrun_names_slot(self):
        with pytest.raises(InfeasibleSetError, match="slot 7"):
            make_pulse_set(1.0, 2.0, [0, 7], TimeGrid(8.0, 8))

    def test_duplicate_members_rejected(self):
        g = TimeGrid(4.0, 4)
        with pytest.raises(ValueError, match="duplicate"):
            FinitePulseSet(np.ones((2, 4)), g, 4.0, 4.0, 1.0)

    def test_members_differing_in_the_sign_of_a_zero_are_duplicates(self):
        """Such members compare equal, so `member_index` could never return the second."""
        with pytest.raises(ValueError, match="duplicate member at index 1"):
            FinitePulseSet([[0.0, 1.0], [-0.0, 1.0]], TimeGrid(2.0, 2), 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("field,value", [
        ("energy", math.nan), ("energy", math.inf), ("energy", True), ("energy", "4"),
        ("sqnorm", math.nan), ("sqnorm", -math.inf), ("sqnorm", np.True_),
        ("sqnorm", -1.0), ("rate_bound", math.nan), ("rate_bound", math.inf),
        ("rate_bound", "4"), ("rate_bound", -0.5)],
        ids=["energy-nan", "energy-inf", "energy-bool", "energy-string", "sqnorm-nan",
             "sqnorm-minus-inf", "sqnorm-numpy-bool", "sqnorm-negative", "rate-nan",
             "rate-inf", "rate-string", "rate-negative"])
    def test_constants_are_checked_when_built(self, field, value):
        constants = {"energy": 1.0, "sqnorm": 1.0, "rate_bound": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            FinitePulseSet(np.eye(2), TimeGrid(2.0, 2), **constants)


class TestMemberIndex:
    @staticmethod
    def row_loop(pulse_set, x):
        for k in range(pulse_set.m):
            if np.all(pulse_set.members[k] == x.values):
                return k
        return None

    def test_matches_row_loop_on_near_duplicates(self):
        signed_hits = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            S = int(rng.integers(1, 9))
            g = TimeGrid(float(S), S)
            spread = float(rng.choice([0.0, 1e-12, 1e-6, 1e-3]))
            base = rng.uniform(0.0, 2.0, S)
            signed = seed % 3 == 0
            if signed:
                base[0] = 0.0   # the member equal to base holds 0.0 in slot 0
            # members within a few spreads of each other
            members = base + rng.uniform(-3.0, 3.0, (int(rng.integers(1, 7)), S)) \
                * max(spread, 1e-9)
            members[int(rng.integers(len(members)))] = base
            ps = FinitePulseSet(members, g, 1.0, 1.0, 2.0)
            if rng.random() < 0.5:
                x = Profile(ps.members[int(rng.integers(ps.m))], g)
            else:
                x = Profile(base + rng.uniform(-1.5, 1.5, S) * spread, g)
            if signed:
                # the query holds -0.0 wherever it holds a zero
                x = Profile(np.where(x.values == 0.0, -0.0, x.values), g)
                signed_hits += ps.member_index(x) is not None
            assert ps.member_index(x) == self.row_loop(ps, x), seed
            assert ps.member_index(x.values) == ps.member_index(x), seed  # the row form
        assert signed_hits > 0

    def test_other_grid_is_not_a_member(self):
        ps = make_pulse_set(1.0, 1.0, [0, 2], TimeGrid(4.0, 4))
        assert ps.member_index(Profile(ps.members[0], TimeGrid(8.0, 4))) is None

    @pytest.mark.parametrize("shape", [(3,), (5,), (1, 4), (4, 1)])
    def test_row_of_another_shape_raises(self, shape):
        """As the solvers' rows do; a (1, S) row holds a member's bytes."""
        ps = make_pulse_set(1.0, 1.0, [0, 2], TimeGrid(4.0, 4))
        row = np.resize(ps.members[0], shape)
        with pytest.raises(GridMismatchError):
            ps.member_index(row)


class TestValidateA1A4:
    def test_constructed_sets_pass(self):
        ps = make_pulse_set(3.3, 4.0, list(range(0, 81, 7)), canonical_grid())
        assert validate_A1A4(ps, 1e-9).ok

    def test_perturbed_member_reported(self):
        g = canonical_grid()
        ps = make_pulse_set(3.3, 4.0, [0, 16], g)
        members = ps.members.copy()
        members[1][ps.members[1] > 0] += 1e-3
        bad = FinitePulseSet(members, g, ps.energy, ps.sqnorm, ps.rate_bound)
        report = validate_A1A4(bad, 1e-9)
        assert not report.ok
        # first-order: d(sqnorm) ~ 2 * rate * eps * duration, relative to 1+sqnorm
        expected = 2 * 3.3 * 1e-3 * 4.0 / (1 + ps.sqnorm)
        assert report.max_sqnorm_deviation == pytest.approx(expected, rel=1e-2)

    def test_exact_integers_pass_zero_tol(self):
        ps = make_pulse_set(2.0, 2.0, [0, 2], TimeGrid(8.0, 8))  # dt = 1
        assert validate_A1A4(ps, 0.0).ok

    def test_ramp_reported_not_enforced(self):
        ps = make_pulse_set(3.3, 4.0, [0], canonical_grid())
        report = validate_A1A4(ps, 1e-9)
        assert report.ok
        assert report.max_ramp_rate == pytest.approx(3.3 / 0.25, rel=1e-12)


class TestConvexContains:
    def test_box_and_energy_within_tolerance(self):
        g = TimeGrid(4.0, 4)  # dt = 1
        cs = ConvexChargeSet(Profile(np.full(4, 2.0), g), energy=4.0)
        assert cs.contains(Profile(np.full(4, 1.0), g))
        assert cs.contains(Profile(np.array([2.0 + 1e-10, 1.0, 1.0, -1e-10]), g))
        assert not cs.contains(Profile(np.array([2.1, 1.0, 1.0, -0.1]), g))
        assert not cs.contains(Profile(np.full(4, 1.01), g))
        assert not cs.contains(Profile(np.full(8, 0.5), TimeGrid(4.0, 8)))


class TestProjectConvex:
    def test_feasible_fixed_point(self):
        g = TimeGrid(4.0, 4)
        cs = ConvexChargeSet(Profile(np.full(4, 2.0), g), energy=4.0)
        z = Profile(np.full(4, 1.0), g)  # energy = 4, inside the box
        assert np.allclose(project_convex(z.values, cs), z.values, atol=1e-10)

    def test_hyperplane_only(self):
        g = TimeGrid(4.0, 4)
        big = 1e6
        cs = ConvexChargeSet(Profile(np.full(4, big), g), energy=6.0)
        rng = np.random.default_rng(1)
        z = Profile(rng.uniform(0.5, 2.0, 4), g)
        shift = (g.dt * z.values.sum() - 6.0) / (g.dt * 4)
        expected = z.values - shift
        assert np.allclose(project_convex(z.values, cs), expected, atol=1e-9)

    def test_two_slot_brute_force(self):
        g = TimeGrid(2.0, 2)  # dt = 1
        cs = ConvexChargeSet(Profile(np.array([1.0, 1.0]), g), energy=1.0)
        z = Profile(np.array([2.0, 0.0]), g)
        x = Profile(project_convex(z.values, cs), g)
        # brute force over the 1-D feasible segment x0 in [0,1], x1 = 1 - x0
        ts = np.linspace(0, 1, 100001)
        d2 = (ts - 2.0) ** 2 + (1 - ts) ** 2
        t_best = ts[np.argmin(d2)]
        assert np.allclose(x.values, [t_best, 1 - t_best], atol=1e-4)
        assert np.allclose(x.values, [1.0, 0.0], atol=1e-9)

    def test_energy_exact(self):
        rng = np.random.default_rng(5)
        g = TimeGrid(24.0, 96)
        for _ in range(20):
            cs = random_convex_set(rng, g)
            z = Profile(rng.normal(0, 2, 96), g)
            x = Profile(project_convex(z.values, cs), g)
            energy = g.dt * x.values.sum()
            assert energy == pytest.approx(cs.energy, rel=1e-10)
            assert np.all(x.values >= 0) and np.all(x.values <= cs.caps.values + 1e-12)

    def test_idempotence(self):
        rng = np.random.default_rng(6)
        g = TimeGrid(6.0, 12)
        for _ in range(20):
            cs = random_convex_set(rng, g)
            z = Profile(rng.normal(0, 2, 12), g)
            x1 = Profile(project_convex(z.values, cs), g)
            x2 = Profile(project_convex(x1.values, cs), g)
            assert norm(Profile(x1.values - x2.values, g)) <= 1e-10

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            S = int(rng.integers(2, 7))
            g = TimeGrid(float(S), S)
            cs = random_convex_set(rng, g)
            z = Profile(rng.normal(0, 2, S), g)
            x = Profile(project_convex(z.values, cs), g)
            _, oracle_d2 = projection_oracle(z, cs)
            d2 = norm2(Profile(x.values - z.values, g))
            assert d2 == pytest.approx(oracle_d2, abs=1e-8)


def hull_point(h, x_prev, c_i, ps, **kwargs):
    """hull_minimize on the Profiles' rows: (its minimizer as a Profile, theta)."""
    theta = hull_minimize(h.values, x_prev.values, c_i, ps, **kwargs)
    return Profile(theta @ ps.members, ps.grid), theta


def assert_as_close_as_oracle(theta, ps, h, x_prev, c_i):
    """theta is a distribution whose minimizer is as close to p = x_prev - c_i*h
    as the support oracle's.

    theta must be a read-only float64 vector of length m, nonnegative and
    summing to 1.  Both distances are dt*norm2(z - p), compared with a
    relative tolerance.  The snap may move a minimizer by up to
    SNAP_TOLERANCE, which bounds the rest of the allowance.
    """
    assert theta.dtype == np.float64 and theta.shape == (ps.m,)
    assert not theta.flags.writeable
    assert (theta >= 0).all() and abs(float(theta.sum()) - 1.0) <= 1e-12
    g = ps.grid
    oracle_z, _ = hull_oracle_supports(Profile(h, g), Profile(x_prev, g), c_i, ps)
    p = x_prev - c_i * h
    d2 = norm2(Profile(theta @ ps.members - p, g))
    oracle_d2 = norm2(Profile(oracle_z - p, g))
    snap = 2 * SNAP_TOLERANCE * math.sqrt(oracle_d2) + SNAP_TOLERANCE ** 2
    assert d2 <= oracle_d2 * (1 + 1e-9) + snap


class TestHullMinimize:
    def test_fixed_point_degenerate(self):
        g = TimeGrid(8.0, 8)
        ps = make_pulse_set(1.0, 2.0, [0, 3, 6], g)
        x_prev = ps.member(1)
        z, theta = hull_point(Profile.zeros(g), x_prev, 1.0, ps, start=1)
        assert theta.tolist() == [0.0, 1.0, 0.0]
        assert z == x_prev

    def test_single_member(self):
        g = TimeGrid(8.0, 8)
        ps = make_pulse_set(1.0, 2.0, [4], g)
        z, theta = hull_point(Profile(np.ones(8), g), Profile.zeros(g), 2.0, ps)
        assert theta.tolist() == [1.0]
        assert z == ps.member(0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_warm_start_reaches_the_same_minimizer(self, seed):
        # from x_prev = member k, warm-starting the corral at k and starting
        # from the lowest-Q member reach one minimizer
        rng = np.random.default_rng(seed)
        S = int(rng.integers(2, 13))
        g = TimeGrid(float(S), S)
        ps = random_pulse_set(rng, g, m_max=8)
        k = int(rng.integers(ps.m))
        h = rng.normal(0, 1, S)
        c_i = float(rng.uniform(0.2, 3.0))
        warm = hull_minimize(h, ps.members[k], c_i, ps, start=k)
        cold = hull_minimize(h, ps.members[k], c_i, ps, start=None)
        gap = (warm - cold) @ ps.members
        assert np.max(np.abs(gap)) <= 1e-7

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_shift=st.floats(0.0, 4.0))
    def test_large_signal_shift_matches_support_oracle(self, seed, log_shift):
        # members share their energy, so adding a constant to h moves Q by a
        # constant on the hull and leaves the minimizer where it was; the
        # oracle solves the unshifted problem
        rng = np.random.default_rng(seed)
        S = int(rng.integers(2, 9))
        ps = random_pulse_set(rng, TimeGrid(float(S), S), m_max=6)
        h = rng.normal(0, 1, S)
        x_prev = rng.normal(0, 1, S)
        c_i = float(rng.uniform(0.2, 3.0))
        theta = hull_minimize(h + 10.0 ** log_shift * ps.rate_bound, x_prev, c_i, ps)
        assert_as_close_as_oracle(theta, ps, h, x_prev, c_i)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    # rounding makes a corral system singular (35) and keeps Q from falling
    # (35 and 2249)
    @example(seed=35)
    @example(seed=2249)
    def test_near_duplicate_members_match_support_oracle(self, seed):
        # up to 8 members, some of them copies of others moved by 1e-9 to 1e-6
        rng = np.random.default_rng(seed)
        S = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        rows = list(rng.uniform(0.0, 2.0, (int(rng.integers(1, m)), S)))
        while len(rows) < m:
            near = rows[int(rng.integers(len(rows)))]
            rows.append(near + 10.0 ** rng.uniform(-9, -6) * rng.normal(0, 1, S))
        ps = FinitePulseSet(np.array(rows), TimeGrid(float(S), S), 1.0, 1.0, 2.0)
        h = rng.normal(0, 1, S)
        x_prev = rng.normal(0, 1, S)
        c_i = float(rng.uniform(0.2, 3.0))
        theta = hull_minimize(h, x_prev, c_i, ps)
        assert_as_close_as_oracle(theta, ps, h, x_prev, c_i)

    def test_minimizer_is_theta_expectation_after_snap(self):
        g = TimeGrid(8.0, 8)
        ps = make_pulse_set(1.0, 2.0, [0, 3, 6], g)
        theta = hull_minimize(np.zeros(8), ps.members[1], 1.0, ps, start=1)
        assert np.array_equal(theta @ ps.members, ps.members[1])

    @pytest.mark.parametrize("bad", [np.zeros(7), np.zeros(9), np.zeros((1, 8)),
                                     np.float64(0.0)])
    def test_wrong_length_row_rejected(self, bad):
        g = TimeGrid(8.0, 8)
        ps = make_pulse_set(1.0, 2.0, [0, 3, 6], g)
        cs = ConvexChargeSet(Profile(np.full(8, 2.0), g), energy=4.0)
        with pytest.raises(GridMismatchError):
            project_convex(bad, cs)
        with pytest.raises(GridMismatchError):
            hull_minimize(bad, ps.members[0], 1.0, ps)
        with pytest.raises(GridMismatchError):
            hull_minimize(np.zeros(8), bad, 1.0, ps)

    def test_two_member_closed_form(self):
        rng = np.random.default_rng(3)
        g = TimeGrid(4.0, 4)
        for _ in range(30):
            ps = random_pulse_set(rng, g, m_max=2)
            if ps.m != 2:
                continue
            h = Profile(rng.normal(0, 1, 4), g)
            x_prev = Profile(rng.normal(0, 1, 4), g)
            c_i = float(rng.uniform(0.2, 3.0))
            _, theta = hull_point(h, x_prev, c_i, ps)
            # scalar calculus along the segment y0 + t (y1 - y0)
            y0, y1 = ps.members
            d = y1 - y0
            dt = g.dt
            # dQ/dt = 2 c <h, d> + 2 <y0 + t d - x_prev, d> = 0
            denom = dt * float(np.dot(d, d))
            t_star = -(dt * c_i * float(np.dot(h.values, d))
                       + dt * float(np.dot(y0 - x_prev.values, d))) / denom
            t_star = min(max(t_star, 0.0), 1.0)
            assert theta[1] == pytest.approx(t_star, abs=1e-8)

    def test_matches_support_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            S = int(rng.integers(2, 7))
            g = TimeGrid(float(S), S)
            ps = random_pulse_set(rng, g, m_max=6)
            h = Profile(rng.normal(0, 1, S), g)
            x_prev = Profile(rng.normal(0, 1, S), g)
            c_i = float(rng.uniform(0.2, 3.0))
            z, theta = hull_point(h, x_prev, c_i, ps)
            q = hull_q(z.values, h.values, x_prev.values, c_i, g.dt)
            _, oracle_q = hull_oracle_supports(h, x_prev, c_i, ps)
            assert q == pytest.approx(oracle_q, abs=1e-5)

    def test_matches_grid_search_small_m(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            S = int(rng.integers(2, 7))
            g = TimeGrid(float(S), S)
            ps = random_pulse_set(rng, g, m_max=3)
            h = Profile(rng.normal(0, 1, S), g)
            x_prev = Profile(rng.normal(0, 1, S), g)
            c_i = float(rng.uniform(0.2, 3.0))
            z, _ = hull_point(h, x_prev, c_i, ps)
            q = hull_q(z.values, h.values, x_prev.values, c_i, g.dt)
            _, oracle_q = hull_oracle_grid(h, x_prev, c_i, ps)
            assert q <= oracle_q + 1e-5

    def test_expectation_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = TimeGrid(6.0, 6)
            ps = random_pulse_set(rng, g, m_max=5)
            h = Profile(rng.normal(0, 1, 6), g)
            x_prev = Profile(rng.normal(0, 1, 6), g)
            z, theta = hull_point(h, x_prev, 1.0, ps)
            expectation = theta @ ps.members
            assert norm(Profile(z.values - expectation, g)) <= 1e-7

    def test_degeneracy_rule(self):
        # whenever z_star sits on a member, theta must have a single atom
        rng = np.random.default_rng(19)
        for _ in range(30):
            g = TimeGrid(6.0, 6)
            ps = random_pulse_set(rng, g, m_max=5)
            h = Profile(rng.normal(0, 1, 6), g)
            x_prev = Profile(rng.normal(0, 1, 6), g)
            z, theta = hull_point(h, x_prev, 1.0, ps)
            dists = [norm(Profile(z.values - ps.members[k], g)) for k in range(ps.m)]
            if min(dists) <= 1e-7:
                assert np.count_nonzero(theta) == 1


class TestCheckedWeights:
    @pytest.mark.parametrize("weights", [[0.5, 0.6], [-0.1, 1.1], [np.nan, 1.0],
                                         [np.nan]],
                             ids=["sum-above-1", "negative", "nan", "only-nan"])
    def test_weights_that_are_no_distribution_raise(self, weights):
        with pytest.raises(SolverError, match="^hull minimization: weights"):
            _checked_weights(np.array(weights), gap=0.0)


class TestSample:
    def test_degenerate(self):
        theta = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        for u in (0.0, 0.3, 0.999999):
            assert sample(theta, u) == 3

    def test_inverse_cdf(self):
        theta = np.array([0.5, 0.5])
        assert sample(theta, 0.25) == 0
        assert sample(theta, 0.75) == 1

    def test_array_of_draws_matches_scalar(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            w = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.7)
            w[int(rng.integers(m))] += 0.1
            theta = w / w.sum()
            us = np.append(rng.random(20), [0.0, np.nextafter(1.0, 0.0)])
            assert sample(theta, us).tolist() == [sample(theta, float(u)) for u in us]

    def test_rejects_draw_outside_unit_interval(self):
        theta = np.array([0.5, 0.5])
        for u in (1.0, -0.1, np.array([0.2, 1.0])):
            with pytest.raises(ValueError):
                sample(theta, u)

    def test_empirical_frequencies(self):
        theta = np.array([0.2, 0.5, 0.3])
        rng = np.random.default_rng(23)
        n = 100_000
        draws = rng.random(n)
        counts = np.bincount([sample(theta, u) for u in draws], minlength=3)
        for k, p in enumerate(theta):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[k] - n * p) <= 3 * sigma
