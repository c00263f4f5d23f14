import json
import math
import operator

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import valleyfill.engine as engine
import valleyfill.feasible as feasible

from conftest import (expected_objective_enumeration, mixed_loads, random_base,
                      random_convex_set, random_pulse_set, reference_load_update,
                      row_loop_aggregate)
from valleyfill.analysis import NashReport, is_nash
from valleyfill.cli import main
from valleyfill.core import (GridMismatchError, Profile, TimeGrid, aggregate,
                             norm, norm2)
from valleyfill.engine import (ConfigurationError, EngineConfig, LoadSpec,
                               LoadUpdate, Termination, convex_load_update,
                               coordinator_signal, finite_load_update,
                               fleet_weight, load_draw, load_draws, run)
from valleyfill.feasible import (FinitePulseSet, SolverError,
                                 make_pulse_set, sample)
from valleyfill.scenario import (BaseLoadSpec, FleetSpec, SynthParams,
                                 build_case_study)


def grid(T=6.0, S=12):
    return TimeGrid(T, S)


class TestLoadDraw:
    def test_deterministic(self):
        assert load_draw(42, 3, 7) == load_draw(42, 3, 7)

    def test_range(self):
        for k in range(1, 50):
            u = load_draw(0, 1, k)
            assert 0.0 <= u < 1.0

    def test_key_sensitivity(self):
        base = load_draw(5, 2, 9)
        assert load_draw(6, 2, 9) != base
        assert load_draw(5, 3, 9) != base
        assert load_draw(5, 2, 10) != base


MASK64 = 0xFFFFFFFFFFFFFFFF


def reference_draws(master_seed, ids, k):
    """The stream's definition, one Generator per key."""
    return [float(np.random.default_rng([master_seed & MASK64, i, k]).random())
            for i in ids]


class TestLoadDraws:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.one_of(st.integers(-2**70, -1), st.integers(0, 2**32 - 1),
                          st.integers(2**32, MASK64), st.integers(2**64, 2**80)),
           ids=st.lists(st.one_of(st.integers(0, 2**32 - 1),
                                  st.integers(2**32, MASK64), st.just(0),
                                  st.just(2**32 - 1)),
                        max_size=2 * engine._BATCH_MIN_KEYS + 2),
           k=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)))
    def test_matches_default_rng(self, seed, ids, k):
        # sizes from 0 to past the crossover take both branches
        got = load_draws(seed, ids, k)
        assert got.dtype == np.float64 and got.shape == (len(ids),)
        assert got.tolist() == reference_draws(seed, ids, k)

    def test_large_batch_of_mixed_widths(self):
        rng = np.random.default_rng(4)
        ids = [int(i) for i in rng.integers(0, 2**32, 300)]
        ids += [int(i) for i in rng.integers(2**32, 2**63, 300)]
        ids += [0, 2**32 - 1, 2**32, MASK64]
        rng.shuffle(ids)
        for seed, k in ((1, 20), (-5, 2**31), (2**63 + 11, 2**40)):
            assert load_draws(seed, ids, k).tolist() == reference_draws(seed, ids, k)

    def test_branches_agree(self, monkeypatch):
        ids = [0, 1, 7, 2**31, 2**32 - 1]
        monkeypatch.setattr(engine, "_BATCH_MIN_KEYS", len(ids) + 1)
        scalar = load_draws(3, ids, 9)
        monkeypatch.setattr(engine, "_BATCH_MIN_KEYS", 1)
        assert load_draws(3, ids, 9).tolist() == scalar.tolist()
        assert load_draws(3, ids[:1], 9).tolist() == [load_draw(3, 0, 9)]

    def test_keys_outside_the_kernel_take_the_definition(self):
        n = engine._BATCH_MIN_KEYS
        huge_ids = [2**64 + i for i in range(n)]
        assert load_draws(2, huge_ids, 5).tolist() == reference_draws(2, huge_ids, 5)
        long_k = 2**(32 * engine._POOL)
        assert load_draws(2, range(n), long_k).tolist() == \
            reference_draws(2, range(n), long_k)

    def test_negative_id_rejected_like_load_draw(self):
        with pytest.raises(ValueError):
            load_draw(0, -1, 1)
        with pytest.raises(ValueError):
            load_draws(0, [-1] + list(range(engine._BATCH_MIN_KEYS)), 1)


class TestCoordinatorSignal:
    def test_hand_example(self):
        g = TimeGrid(1.0, 2)
        b = Profile(np.array([1.0, 3.0]), g)
        xs = [Profile(np.array([1.0, 1.0]), g)]
        sig = coordinator_signal(aggregate(b, xs), 4.0)
        assert np.array_equal(sig.values, [0.5, 1.0])

    def test_rejects_nonpositive_weight(self):
        g = grid()
        with pytest.raises(ConfigurationError):
            coordinator_signal(Profile.zeros(g), 0.0)


class TestConvexLoadUpdate:
    def test_matches_shifted_projection(self):
        rng = np.random.default_rng(11)
        g = grid()
        cs = random_convex_set(rng, g)
        from valleyfill.feasible import project_convex
        x_prev = project_convex(rng.uniform(0, 2, g.slots), cs)
        sig = rng.uniform(0, 1, g.slots)
        c_i = 1.7
        out = convex_load_update(sig, x_prev, cs, c_i)
        direct = project_convex(x_prev - c_i * sig, cs)
        assert np.array_equal(out, direct)

    def test_zero_signal_fixed_point(self):
        rng = np.random.default_rng(12)
        g = grid()
        cs = random_convex_set(rng, g)
        from valleyfill.feasible import project_convex
        x_prev = project_convex(rng.uniform(0, 2, g.slots), cs)
        out = convex_load_update(np.zeros(g.slots), x_prev, cs, 2.0)
        assert np.allclose(out, x_prev, atol=1e-9)


class TestFiniteLoadUpdate:
    def test_rejects_single_finite_load(self):
        rng = np.random.default_rng(13)
        g = grid()
        ps = random_pulse_set(rng, g)
        sig = np.zeros(g.slots)
        with pytest.raises(ConfigurationError):
            finite_load_update(sig, ps.energy, ps.members[0], ps, ps.energy)

    def test_leave_one_out_signal(self):
        # the internal signal must equal (b + sum_{j != i} x_j)/(C - c_i):
        # with x_prev = 0 that is g*C/(C - c_i), checked via the resulting
        # sampling distribution against a direct hull call
        rng = np.random.default_rng(14)
        g = grid()
        ps = random_pulse_set(rng, g, m_max=4)
        b = random_base(rng, g)
        C = ps.energy + 3.0
        c_i = ps.energy
        x_prev = Profile.zeros(g)
        sig = coordinator_signal(aggregate(b, [x_prev]), C)
        from valleyfill.feasible import hull_minimize
        h_direct = b.values / (C - c_i)
        theta_direct = hull_minimize(h_direct, x_prev.values, c_i, ps)
        theta = finite_load_update(sig.values, C, x_prev.values, ps, c_i)
        x_new = ps.member(sample(theta, 0.3))
        assert np.allclose(theta, theta_direct, atol=1e-12)
        assert ps.member_index(x_new) is not None

    def test_draw_selects_member(self):
        rng = np.random.default_rng(15)
        g = grid()
        ps = random_pulse_set(rng, g, m_max=5)
        b = random_base(rng, g)
        sig = coordinator_signal(aggregate(b, [ps.member(0)]), ps.energy + 2.0)
        theta = finite_load_update(sig.values, ps.energy + 2.0, ps.members[0],
                                   ps, ps.energy, start=0)
        x_new = ps.member(sample(theta, 0.999999))
        k = ps.member_index(x_new)
        assert k is not None
        assert theta[k] > 0


class TestMixedFleetEscape:
    def test_escape_is_one_when_a_convex_load_moves(self):
        # a convex load's move is deterministic, so an iteration in which
        # it moves leaves x^(k) != x^(k-1) with probability 1
        rng = np.random.default_rng(0)
        g = TimeGrid(6.0, 12)
        loads = [LoadSpec(0, random_convex_set(rng, g)),
                 LoadSpec(1, random_pulse_set(rng, g, m_max=4)),
                 LoadSpec(2, random_pulse_set(rng, g, m_max=4))]
        b = random_base(rng, g)
        traj = run(loads, b, EngineConfig(max_iterations=8,
                                          stop_on_epsilon=False))
        # runs are keyed by (seed, id, k), so a shorter run is a prefix
        convex = [Profile.zeros(g)] + [
            run(loads, b, EngineConfig(max_iterations=k, stop_on_epsilon=False)
                ).final_profiles[0] for k in range(1, 9)]
        moved = [k for k in range(1, 9) if convex[k] != convex[k - 1]]
        assert moved
        for k in moved:
            assert traj.records[k - 1].escape_probability == 1.0


def fresh_memo(update):
    """`update` with its memo cleared before every call: the reference for memo reuse."""
    def call(*args):
        update._memo.clear()
        return update(*args)
    return call


class TestUpdateLoads:
    """A networked agent updates its one load; the fleet's rows must not differ."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sets=st.integers(1, 4),
           n=st.integers(2, 2 * engine._BATCH_MIN_KEYS),
           master_seed=st.integers(0, MASK64))
    def test_fleet_rows_match_single_load_calls(self, seed, n_sets, n, master_seed):
        rng = np.random.default_rng(seed)
        g = grid()
        # loads share sets (hence groups), and a fleet of 12 or more draws
        # in one batched pass where a single load draws per key
        sets = [random_pulse_set(rng, g, m_max=4) if rng.random() < 0.7
                else random_convex_set(rng, g) for _ in range(n_sets)]
        ids = rng.choice(2**40, size=n, replace=False).tolist()
        loads = [LoadSpec(i, sets[int(rng.integers(n_sets))]) for i in ids]
        C = fleet_weight(loads)
        b = random_base(rng, g)
        X = np.zeros((n, g.slots))
        fleet = LoadUpdate(loads, master_seed)
        singles = [LoadUpdate([spec], master_seed) for spec in loads]
        for k in range(1, 7):
            sig = coordinator_signal(row_loop_aggregate(b, X), C)
            X_fleet, stay, _, _ = fresh_memo(fleet)(k, C, sig, X)
            stays = []
            for i, single in enumerate(singles):
                x_i, stay_i, _, _ = fresh_memo(single)(k, C, sig, X[i:i + 1])
                assert x_i[0].tobytes() == X_fleet[i].tobytes()
                assert single.member_idx.tolist() == fleet.member_idx[i:i + 1].tolist()
                stays.append(stay_i)
            assert stay == math.prod(stays)
            X = X_fleet


    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sets=st.integers(1, 3),
           n=st.integers(2, 2 * engine._BATCH_MIN_KEYS),
           master_seed=st.integers(0, MASK64))
    def test_agent_memos_match_fleet_call(self, seed, n_sets, n, master_seed):
        """Each agent keeps its own memo across rounds, as `run_agent` does."""
        rng = np.random.default_rng(seed)
        g = grid()
        sets = [random_pulse_set(rng, g, m_max=3) if rng.random() < 0.7
                else random_convex_set(rng, g) for _ in range(n_sets)]
        loads = [LoadSpec(i, sets[int(rng.integers(n_sets))]) for i in range(n)]
        C = fleet_weight(loads)
        b = random_base(rng, g)
        X = np.zeros((n, g.slots))
        fleet = LoadUpdate(loads, master_seed)
        singles = [LoadUpdate([spec], master_seed) for spec in loads]
        for k in range(1, 16):
            sig = coordinator_signal(row_loop_aggregate(b, X), C)
            X_fleet, stay, _, _ = fresh_memo(fleet)(k, C, sig, X)
            stays = []
            for i, single in enumerate(singles):
                x_i, stay_i, _, _ = single(k, C, sig, X[i:i + 1])
                assert x_i[0].tobytes() == X_fleet[i].tobytes()
                assert single.member_idx.tolist() == fleet.member_idx[i:i + 1].tolist()
                stays.append(stay_i)
            assert stay == math.prod(stays)
            X = X_fleet


def record_bytes(traj):
    return ([(r.k, r.g.values.tobytes(), r.objective, r.escape_probability,
              r.expected_next_objective, r.profiles_changed) for r in traj.records],
            [x.values.tobytes() for x in traj.final_profiles], traj.terminated_by)


def test_records_without_diagnostics_differ_only_in_nan_diagnostics():
    rng = np.random.default_rng(11)
    g = grid()
    loads = mixed_loads(rng, g, 2, 5)
    b = random_base(rng, g)
    fields = dict(max_iterations=40, master_seed=9, stop_on_epsilon=False)
    on = run(loads, b, EngineConfig(**fields))
    off = run(loads, b, EngineConfig(**fields, record_diagnostics=False))
    assert all(math.isnan(r.escape_probability) and math.isnan(r.expected_next_objective)
               for r in off.records)
    assert not any(math.isnan(r.escape_probability) for r in on.records)

    def without_diagnostics(traj):
        records, finals, terminated = record_bytes(traj)
        return [r[:3] + r[5:] for r in records], finals, terminated

    assert without_diagnostics(off) == without_diagnostics(on)


def reference_exchange(loads, master_seed):
    """`conftest.reference_load_update` as an exchange with its own member indices."""
    member_idx = [None] * len(loads)
    return lambda k, C, g, X: reference_load_update(loads, master_seed, member_idx, k, C, g, X)


class TestArrayUpdate:
    """The update's array state gives the bits of the per-load loop it replaced."""

    def test_matches_the_per_load_loop(self):
        seen = set()

        @settings(max_examples=60, deadline=None)
        @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2 * engine._BATCH_MIN_KEYS),
               master_seed=st.integers(0, MASK64))
        def prop(seed, n, master_seed):
            rng = np.random.default_rng(seed)
            g = grid()
            sets = [random_pulse_set(rng, g, m_max=4) for _ in range(int(rng.integers(1, 4)))]
            shared_c = float(rng.uniform(0.5, 3.0))  # one weight across sets
            loads = []
            for i in range(n):
                if rng.random() < 0.2:
                    loads.append(LoadSpec(i, random_convex_set(rng, g)))
                else:  # a set under its own energy or the shared weight
                    loads.append(LoadSpec(i, sets[int(rng.integers(len(sets)))],
                                          shared_c if rng.random() < 0.5 else None))
            finite = [(id(spec.constraint), spec.c) for spec in loads if spec.is_finite]
            if len(set(finite)) > len({set_id for set_id, _ in finite}):
                seen.add("one set, two weights")
            if len({set_id for set_id, c in finite if c == shared_c}) > 1:
                seen.add("one weight, two sets")
            seen.update({"one load"} if n == 1 else set())
            seen.update({"convex"} if len(finite) < n else set())
            # the loads may be part of a fleet, so C exceeds their own weight
            C = sum(spec.c for spec in loads) + float(rng.uniform(0.5, 5.0))
            b = random_base(rng, g)
            update = LoadUpdate(loads, master_seed)
            member_idx = [None] * n
            X = np.zeros((n, g.slots))
            sig = None
            for k in range(1, 9):
                if sig is None or rng.random() < 0.6:
                    sig = coordinator_signal(row_loop_aggregate(b, X), C)
                else:  # the memo keeps the keys that recur under a repeated signal
                    seen.add("repeated signal")
                got = update(k, C, sig, X)
                want = reference_load_update(loads, master_seed, member_idx, k, C, sig, X)
                assert got[0].tobytes() == want[0].tobytes()
                assert update.member_idx.tolist() == [-1 if j is None else j
                                                      for j in member_idx]
                assert got[1] == want[1]
                assert got[2].tobytes() == want[2].tobytes()
                assert got[3] == want[3]
                cums = [entry[1] for key, entry in update._memo.items() if type(key) is int]
                seen.update({"pinned"} if any(cum is None for cum in cums) else set())
                seen.update({"drawn"} if any(cum is not None for cum in cums) else set())
                X = got[0]

        prop()
        assert seen == {"one set, two weights", "one weight, two sets", "one load", "convex",
                        "repeated signal", "pinned", "drawn"}

    @pytest.mark.parametrize("ids", [
        [3, 2**63, 7, 2**63 + 11, 2**64 - 1],          # float64 in numpy, per key
        [3, 2**63, 2**64 + 5, 7, 2**70],                # object in numpy, per key
        list(range(10)) + [2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**90],
        list(range(12)) + [2**63, 2**64 - 1],
        list(range(2**32 - 14, 2**32)),                 # the vectorised pass
    ])
    def test_ids_of_any_size_draw_by_their_definition(self, monkeypatch, ids):
        """numpy turns ids past int64 into float64 or objects; each draw keeps its id."""
        rng = np.random.default_rng(len(ids))
        g = grid()
        ps = random_pulse_set(rng, g, m_max=4)
        loads = [LoadSpec(i, ps) for i in ids]
        b = random_base(rng, g)
        cfg = EngineConfig(max_iterations=8, master_seed=5, stop_on_epsilon=False)
        calls = []
        draws = engine.load_draws

        def traced(master_seed, batch, k):
            out = draws(master_seed, batch, k)
            calls.append(([operator.index(i) for i in batch], k, out))
            return out

        monkeypatch.setattr(engine, "load_draws", traced)
        traj = run(loads, b, cfg)
        monkeypatch.undo()
        assert calls
        for batch, k, out in calls:
            # the drawn loads, in load order, each drawn by the stream's definition
            assert batch == [i for i in ids if i in set(batch)]
            assert out.tolist() == [load_draw(5, i, k) for i in batch]
        reference = engine.coordinate(b, loads, cfg, reference_exchange(loads, 5))
        assert record_bytes(traj) == record_bytes(reference)


@pytest.mark.parametrize("slots", [1, 2, 12])
def test_recorded_aggregates_are_the_load_order_row_loop(slots):
    """A one-slot grid is where a reduction of the rows could sum pairwise;
    over ten fleets, a pairwise sum would differ in some last bit."""
    g = TimeGrid(6.0, slots)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        loads = [LoadSpec(i, random_convex_set(rng, g)) for i in range(40)]
        b = random_base(rng, g)
        update = LoadUpdate(loads, 0)
        rows = []

        def exchange(*args):
            result = update(*args)
            rows.append(result[0])
            return result

        traj = engine.coordinate(b, loads, EngineConfig(max_iterations=3,
                                                        stop_on_epsilon=False), exchange)
        C = fleet_weight(loads)
        assert len(rows) == 3
        for record, X in zip(traj.records, rows):
            assert record.objective == norm2(row_loop_aggregate(b, X))
        for record, X in zip(traj.records[1:], rows):
            assert record.g.values.tobytes() == coordinator_signal(
                row_loop_aggregate(b, X), C).values.tobytes()


class TestSignalMemo:
    """Reusing updates while the signal repeats changes no bit of a run."""

    def test_persistent_memo_matches_fresh_memos(self):
        quiet_runs = []

        @settings(max_examples=25, deadline=None)
        @given(seed=st.integers(0, 2**32 - 1), n_convex=st.integers(0, 3),
               n_finite=st.integers(2, 8), master_seed=st.integers(0, MASK64),
               share_convex=st.booleans())
        def prop(seed, n_convex, n_finite, master_seed, share_convex):
            rng = np.random.default_rng(seed)
            g = grid()
            # convex loads sharing a set share the memo's (set, c, row) keys
            loads = mixed_loads(rng, g, n_convex, n_finite, share_convex)
            b = random_base(rng, g)
            # convex rows need up to ~150 rounds to stop moving bit for bit
            cfg = EngineConfig(max_iterations=150, master_seed=master_seed,
                               stop_on_epsilon=False)
            kept = engine.coordinate(b, loads, cfg, LoadUpdate(loads, master_seed))
            fresh = engine.coordinate(b, loads, cfg,
                                      fresh_memo(LoadUpdate(loads, master_seed)))
            assert record_bytes(kept) == record_bytes(fresh)
            gs = [r.g.values.tobytes() for r in kept.records]
            quiet = sum(a == b for a, b in zip(gs, gs[1:]))
            event(f"quiet rounds: {'some' if quiet else 'none'}, "
                  f"convex loads: {'yes' if n_convex else 'no'}")
            quiet_runs.append(quiet)

        prop()
        assert any(quiet_runs)

    def test_repeated_signal_makes_no_update_calls(self, monkeypatch):
        rng = np.random.default_rng(5)
        g = grid()
        loads = mixed_loads(rng, g, 1, 4)
        b = random_base(rng, g)
        signals, calls = [], []
        for name in ("hull_minimize_batch", "convex_load_update"):
            def traced(*args, _update=getattr(engine, name), **kwargs):
                calls.append(len(signals))  # the round making the call
                return _update(*args, **kwargs)
            monkeypatch.setattr(engine, name, traced)
        signal = engine.coordinator_signal
        monkeypatch.setattr(engine, "coordinator_signal",
                            lambda *args: signals.append(signal(*args)) or signals[-1])
        traj = run(loads, b, EngineConfig(max_iterations=200, master_seed=3,
                                          stop_on_epsilon=False))
        monkeypatch.undo()
        repeats = [r.k for prev, r in zip(traj.records, traj.records[1:])
                   if prev.profiles_changed == 0]
        assert repeats
        for k in repeats:
            # nothing moved in round k - 1, so round k sees the same signal
            assert signals[k - 1].values.tobytes() == signals[k - 2].values.tobytes()
            assert k not in calls
        assert 1 in calls

    def test_identical_convex_loads_project_once_per_signal(self, monkeypatch):
        rng = np.random.default_rng(7)
        g = grid()
        loads = mixed_loads(rng, g, 4, 2, share_convex=True)
        b = random_base(rng, g)
        signals, calls = [], []
        update = engine.convex_load_update
        monkeypatch.setattr(engine, "convex_load_update",
                            lambda *args: calls.append(len(signals)) or update(*args))
        signal = engine.coordinator_signal
        monkeypatch.setattr(engine, "coordinator_signal",
                            lambda *args: signals.append(signal(*args)) or signals[-1])
        traj = run(loads, b, EngineConfig(max_iterations=30, stop_on_epsilon=False))
        monkeypatch.undo()
        # the four rows start equal and stay equal (criterion 6), so they share one key
        assert len({x.values.tobytes() for x in traj.final_profiles[:4]}) == 1
        new_signal = [k for k in range(1, len(signals) + 1)
                      if k == 1 or signals[k - 1].values.tobytes()
                      != signals[k - 2].values.tobytes()]
        assert calls == new_signal

    def test_load_kinds_are_read_once_per_run(self, monkeypatch):
        """The update reads each load's kind when it is built, not per iteration."""
        rng = np.random.default_rng(13)
        g = grid()
        loads = mixed_loads(rng, g, 10, 10)
        b = random_base(rng, g)
        reads = []
        kind = LoadSpec.is_finite.fget
        monkeypatch.setattr(LoadSpec, "is_finite",
                            property(lambda spec: reads.append(spec.id) or kind(spec)))
        counts = []
        for iterations in (1, 5, 20):
            reads.clear()
            traj = run(loads, b, EngineConfig(max_iterations=iterations,
                                              stop_on_epsilon=False))
            assert len(traj.records) == iterations
            counts.append(len(reads))
        assert counts[0] == counts[1] == counts[2]


class TestRunValidation:
    def test_empty_fleet(self):
        with pytest.raises(ConfigurationError):
            run([], Profile.zeros(grid()), EngineConfig())

    def test_duplicate_ids(self):
        rng = np.random.default_rng(31)
        g = grid()
        loads = [LoadSpec(0, random_convex_set(rng, g)),
                 LoadSpec(0, random_convex_set(rng, g))]
        with pytest.raises(ConfigurationError):
            run(loads, Profile.zeros(g), EngineConfig())

    def test_grid_mismatch(self):
        rng = np.random.default_rng(32)
        loads = [LoadSpec(0, random_convex_set(rng, TimeGrid(6.0, 12)))]
        with pytest.raises(GridMismatchError):
            run(loads, Profile.zeros(TimeGrid(6.0, 24)), EngineConfig())

    def test_single_finite_load_rejected(self):
        rng = np.random.default_rng(33)
        g = grid()
        loads = [LoadSpec(0, random_pulse_set(rng, g))]
        with pytest.raises(ConfigurationError):
            run(loads, Profile.zeros(g), EngineConfig())

    def test_coordinate_rejects_duplicate_ids_before_exchanging(self):
        rng = np.random.default_rng(38)
        g = grid()
        loads = [LoadSpec(0, random_convex_set(rng, g)),
                 LoadSpec(0, random_convex_set(rng, g))]
        calls = []
        with pytest.raises(ConfigurationError, match="unique ids"):
            engine.coordinate(Profile.zeros(g), loads, EngineConfig(),
                              lambda *args: calls.append(args))
        assert calls == []

    def test_grid_checked_before_fleet(self):
        rng = np.random.default_rng(39)
        loads = [LoadSpec(0, random_convex_set(rng, TimeGrid(6.0, 12)))] * 2
        with pytest.raises(GridMismatchError):
            run(loads, Profile.zeros(TimeGrid(6.0, 24)), EngineConfig())


class TestRunDeterminism:
    def test_replay_is_bitwise_identical(self):
        rng = np.random.default_rng(41)
        g = grid()
        loads = mixed_loads(rng, g, 1, 2)
        b = random_base(rng, g)
        cfg = EngineConfig(max_iterations=30, master_seed=99)
        t1 = run(loads, b, cfg)
        t2 = run(loads, b, cfg)
        assert len(t1.records) == len(t2.records)
        for r1, r2 in zip(t1.records, t2.records):
            assert np.array_equal(r1.g.values, r2.g.values)
            assert r1.objective == r2.objective
        for x1, x2 in zip(t1.final_profiles, t2.final_profiles):
            assert np.array_equal(x1.values, x2.values)

    def test_seed_changes_finite_trajectory(self):
        rng = np.random.default_rng(42)
        g = grid()
        loads = mixed_loads(rng, g, 0, 3)
        b = random_base(rng, g)
        t1 = run(loads, b, EngineConfig(max_iterations=5, master_seed=1,
                                        stop_on_epsilon=False))
        t2 = run(loads, b, EngineConfig(max_iterations=5, master_seed=2,
                                        stop_on_epsilon=False))
        diff = any(not np.array_equal(x1.values, x2.values)
                   for x1, x2 in zip(t1.final_profiles, t2.final_profiles))
        # identical endpoints are possible but vanishingly unlikely here
        assert diff or len(t1.records) != len(t2.records)


class TestSynchronization:
    def test_identical_convex_loads_stay_identical(self):
        # same constraint, same weight, zero start: every update is the
        # same deterministic map, so profiles agree bit for bit
        rng = np.random.default_rng(51)
        g = TimeGrid(12.0, 24)
        cs = random_convex_set(rng, g)
        loads = [LoadSpec(i, cs, c=cs.energy) for i in range(4)]
        b = random_base(rng, g)
        traj = run(loads, b, EngineConfig(max_iterations=40))
        first = traj.final_profiles[0]
        for x in traj.final_profiles[1:]:
            assert np.array_equal(x.values, first.values)


class TestConvexConvergence:
    def test_signal_change_stop_and_residual(self):
        rng = np.random.default_rng(61)
        g = TimeGrid(12.0, 24)
        loads = mixed_loads(rng, g, 4, 0)
        b = random_base(rng, g)
        traj = run(loads, b, EngineConfig(epsilon=1e-9, max_iterations=2000))
        assert traj.terminated_by == Termination.TOLERANCE
        from valleyfill.analysis import convex_stationarity_residual
        res = convex_stationarity_residual(loads, traj.final_profiles, b)
        assert res <= 1e-6

    def test_objective_monotone_after_first(self):
        rng = np.random.default_rng(62)
        g = TimeGrid(12.0, 24)
        loads = mixed_loads(rng, g, 3, 0)
        b = random_base(rng, g)
        traj = run(loads, b, EngineConfig(max_iterations=60))
        objs = [rec.objective for rec in traj.records]
        for prev, cur in zip(objs[1:], objs[2:]):
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))


class TestSupermartingale:
    def test_exact_conditional_expectation_decreases(self):
        # from iteration 2 on, E[L_k | x^(k-1)] <= L_{k-1} holds exactly
        rng = np.random.default_rng(71)
        g = TimeGrid(6.0, 12)
        for trial in range(5):
            loads = mixed_loads(rng, g, 0, 3)
            b = random_base(rng, g)
            traj = run(loads, b, EngineConfig(max_iterations=40,
                                              master_seed=trial,
                                              stop_on_epsilon=False))
            for prev, cur in zip(traj.records, traj.records[1:]):
                slack = 1e-9 * max(1.0, abs(prev.objective))
                assert cur.expected_next_objective <= prev.objective + slack

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
           master_seed=st.integers(0, 2**32 - 1), iterations=st.integers(1, 6))
    def test_recorded_expectation_matches_standalone(self, seed, n, master_seed,
                                                     iterations):
        """Record k holds E[L_k | x^(k-1)], by outcome enumeration over the thetas."""
        rng = np.random.default_rng(seed)
        g = TimeGrid(3.0, 6)
        loads = [LoadSpec(i, random_pulse_set(rng, g, m_max=4)) for i in range(n)]
        b = random_base(rng, g)
        traj = run(loads, b, EngineConfig(max_iterations=iterations,
                                          master_seed=master_seed,
                                          stop_on_epsilon=False))
        sets = [spec.constraint for spec in loads]
        C = sum(spec.c for spec in loads)
        xs = [Profile.zeros(g) for _ in loads]
        for rec in traj.records:
            # runs are keyed by (seed, id, k), so a shorter run is a prefix
            if rec.k > 1:
                xs = run(loads, b, EngineConfig(max_iterations=rec.k - 1,
                                                master_seed=master_seed,
                                                stop_on_epsilon=False)).final_profiles
            assert rec.g == coordinator_signal(aggregate(b, xs), C)
            thetas = [finite_load_update(rec.g.values, C, x.values, spec.constraint,
                                         spec.c, start=spec.constraint.member_index(x))
                      for spec, x in zip(loads, xs)]
            expected = expected_objective_enumeration(b, xs, thetas, sets)
            assert rec.expected_next_objective == \
                pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestFixedPoint:
    def test_all_finite_fleet_reaches_nash(self):
        rng = np.random.default_rng(81)
        hits = 0
        for trial in range(10):
            g = TimeGrid(4.0, 8)
            loads = [LoadSpec(i, random_pulse_set(rng, g, m_max=4))
                     for i in range(3)]
            b = random_base(rng, g)
            traj = run(loads, b, EngineConfig(max_iterations=10_000,
                                              master_seed=trial,
                                              stop_on_epsilon=False))
            if traj.terminated_by != Termination.FIXED_POINT:
                continue
            hits += 1
            report = is_nash(traj.final_profiles,
                             [spec.constraint for spec in loads], b, 0.0)
            assert report.is_equilibrium and report.worst_violation == 0.0, report
        assert hits >= 8

    @pytest.mark.parametrize("seed", range(6))
    def test_small_case_study_fixed_point_certifies_with_gap_zero(self, seed):
        """A 20-household case study's fixed point is exactly Nash: no member
        of any load costs less than the one it holds."""
        b, loads = build_case_study(FleetSpec(households=20, penetration=0.5),
                                    BaseLoadSpec(synth=SynthParams()), seed=seed)
        traj = run(loads, b, EngineConfig(max_iterations=400, master_seed=seed,
                                          stop_on_epsilon=False))
        assert traj.terminated_by is Termination.FIXED_POINT
        report = is_nash(traj.final_profiles, [spec.constraint for spec in loads], b, 0.0)
        assert report == NashReport(True, 0.0, None)

    def test_fixed_point_escape_probability_zero(self):
        rng = np.random.default_rng(82)
        g = TimeGrid(4.0, 8)
        loads = [LoadSpec(i, random_pulse_set(rng, g, m_max=3))
                 for i in range(3)]
        b = random_base(rng, g)
        traj = run(loads, b, EngineConfig(max_iterations=10_000, master_seed=0,
                                          stop_on_epsilon=False))
        if traj.terminated_by == Termination.FIXED_POINT:
            assert traj.records[-1].escape_probability == 0.0


class TestAggregationEquivalence:
    def test_duplicated_convex_loads_match_scaled_aggregate(self):
        # two copies of a load with c = energy behave like one load on the
        # doubled set: each copy carries half the aggregate profile
        rng = np.random.default_rng(91)
        g = TimeGrid(12.0, 24)
        cs = random_convex_set(rng, g)
        anchor = LoadSpec(100, random_convex_set(rng, g))
        b = random_base(rng, g)
        dup = [LoadSpec(0, cs), LoadSpec(1, cs), anchor]
        agg = [LoadSpec(0, cs.scaled(2.0)), anchor]
        cfg = EngineConfig(max_iterations=50, stop_on_epsilon=False)
        t_dup = run(dup, b, cfg)
        t_agg = run(agg, b, cfg)
        pair_sum = t_dup.final_profiles[0].values + t_dup.final_profiles[1].values
        assert np.allclose(pair_sum, t_agg.final_profiles[0].values, atol=1e-8)
        assert np.allclose(t_dup.final_profiles[2].values,
                           t_agg.final_profiles[1].values, atol=1e-8)


class TestTrajectoryCsv:
    def test_round_numbers_and_files(self, tmp_path):
        """`run` writes one trajectory row per record of the same run."""
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "grid": {"horizon_hours": 6.0, "slots": 12},
            "fleet": {"households": 4, "penetration": 0.5, "charge_hours": 1.0,
                      "start_window": [0, 8]},
            "engine": {"max_iterations": 4, "master_seed": 95}}))
        assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path)]) == 0
        b, loads = build_case_study(
            FleetSpec(households=4, penetration=0.5, ev_duration_hours=1.0,
                      start_window=(0, 8)), BaseLoadSpec(synth=SynthParams()), grid())
        traj = run(loads, b, EngineConfig(max_iterations=4, master_seed=95))
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("k,signal_norm,objective,escape_probability,"
                            "expected_next_objective,profiles_changed")
        assert len(lines) == 1 + len(traj.records)
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == norm(traj.records[0].g)
        assert float(first[2]) == traj.records[0].objective


class TestSolverErrorContext:
    def test_names_iteration_and_group(self, monkeypatch):
        g = TimeGrid(4.0, 8)
        ps = make_pulse_set(1.0, 1.0, [2], g)  # one member: one group from k=2
        loads = [LoadSpec(i, ps) for i in range(3)]
        solve = engine.hull_minimize_batch

        def fail_after_first(problems):
            if all(start is None for *_, start in problems):
                return solve(problems)
            error = SolverError("did not converge", gap=0.25)
            error.problem = 0
            raise error

        monkeypatch.setattr(engine, "hull_minimize_batch", fail_after_first)
        with pytest.raises(SolverError) as info:
            run(loads, random_base(np.random.default_rng(0), g),
                EngineConfig(max_iterations=5, stop_on_epsilon=False))
        assert "iteration 2" in str(info.value)
        assert "loads [0, 1, 2]" in str(info.value)
        assert info.value.gap == 0.25

    def test_names_the_failing_group_when_it_is_not_first_in_its_batch(self, monkeypatch):
        """With one major cycle allowed, the one-member set's group stops in it and
        the three-member set's group fails; both are solved in one batch."""
        g = TimeGrid(8.0, 8)
        single = make_pulse_set(1.0, 2.0, [3], g)
        several = make_pulse_set(1.0, 2.0, [0, 1, 2], g)
        loads = [LoadSpec(0, single), LoadSpec(1, single), LoadSpec(2, several),
                 LoadSpec(3, several)]
        batches = []
        solve = engine.hull_minimize_batch
        monkeypatch.setattr(engine, "hull_minimize_batch",
                            lambda problems: batches.append(len(problems)) or solve(problems))
        monkeypatch.setattr(feasible, "_HULL_MAX_ITERATIONS", 1)
        with pytest.raises(SolverError) as info:
            run(loads, Profile(np.arange(8.0), g), EngineConfig(max_iterations=5))
        assert batches == [2]
        assert str(info.value) == ("iteration 1, loads [2, 3]: hull minimization did not "
                                   "converge in 1 iterations")
        assert info.value.gap > 0

    def test_weights_that_are_no_distribution_name_iteration_and_group(
            self, tmp_path, capsys, monkeypatch):
        """A corral solve that returns NaN weights fails as a SolverError."""
        def nans(M, rhs):
            return np.full(np.shape(rhs), np.nan)

        monkeypatch.setattr(feasible.np.linalg, "solve", nans)
        message = ("iteration 1, loads [0, 1]: hull minimization: "
                   "weights must be nonnegative numbers, not NaN")
        b, loads = build_case_study(FleetSpec(households=4, penetration=0.5),
                                    BaseLoadSpec(synth=SynthParams()), seed=0)
        with pytest.raises(SolverError) as info:
            run(loads, b, EngineConfig(max_iterations=5))
        assert str(info.value) == message
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"fleet": {"households": 4, "penetration": 0.5}}')
        assert main(["run", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_corral_system_no_solver_can_solve_names_iteration_and_group(
            self, monkeypatch):
        """A LinAlgError from the corral solve and its fallback is a SolverError."""
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(feasible.np.linalg, "solve", singular)
        monkeypatch.setattr(feasible.np.linalg, "lstsq", singular)
        b, loads = build_case_study(FleetSpec(households=4, penetration=0.5),
                                    BaseLoadSpec(synth=SynthParams()), seed=0)
        with pytest.raises(SolverError) as info:
            run(loads, b, EngineConfig(max_iterations=5))
        assert str(info.value) == ("iteration 1, loads [0, 1]: "
                                   "hull minimization: Singular matrix")
        assert info.value.gap > 0


class TestGroupedWork:
    """Exact work counts of the canonical seed-0 run, checked by a per-load replay.

    Hull solves happen only in rounds whose signal differs from the previous
    round's; rounds that repeat it reuse every theta.
    """

    def test_canonical_run_counts(self, monkeypatch):
        b, loads = build_case_study(FleetSpec(households=1000, penetration=1.0),
                                    BaseLoadSpec(synth=SynthParams()), seed=0)
        iterations = 20
        events = []
        solve, draws, signal = engine.hull_minimize_batch, engine.load_draws, \
            engine.coordinator_signal
        scan = FinitePulseSet.member_index

        def traced_signal(*args):
            g = signal(*args)
            events.append(("signal", g.values.tobytes()))
            return g

        def traced_solve(problems):
            thetas = solve(problems)
            events.append(("batch",))
            for (_, _, c_i, pulse_set, start), theta in zip(problems, thetas):
                events.append(("solve", (id(pulse_set), c_i, start), theta))
            return thetas

        def traced_draws(master_seed, ids, k):
            events.append(("draws", [int(i) for i in ids], k))
            return draws(master_seed, ids, k)

        def traced_scan(self, x):
            events.append(("scan",))
            return scan(self, x)

        monkeypatch.setattr(engine, "coordinator_signal", traced_signal)
        monkeypatch.setattr(engine, "hull_minimize_batch", traced_solve)
        monkeypatch.setattr(engine, "load_draws", traced_draws)
        monkeypatch.setattr(FinitePulseSet, "member_index", traced_scan)
        traj = run(loads, b, EngineConfig(max_iterations=iterations, master_seed=0,
                                          stop_on_epsilon=False))
        monkeypatch.undo()

        per_k = [[] for _ in range(iterations + 1)]
        signals = [None]
        k = 0
        for event in events:
            if event[0] == "signal":
                k += 1
                signals.append(event[1])
            else:
                per_k[k].append(event)
        prev = [None] * len(loads)
        draws_total = updates_to_draw = quiet_rounds = 0
        thetas = {}
        for k in range(1, iterations + 1):
            solves = {e[1]: e[2] for e in per_k[k] if e[0] == "solve"}
            keys = {(id(spec.constraint), spec.c, prev[i])
                    for i, spec in enumerate(loads)}
            n_solves = sum(e[0] == "solve" for e in per_k[k])
            n_batches = sum(e[0] == "batch" for e in per_k[k])
            if signals[k] != signals[k - 1]:
                # a new signal: one hull solve per distinct (set, c, previous member),
                # all in one batch
                assert n_batches == 1
                assert n_solves == len(solves) == len(keys)
                assert set(solves) == keys
                thetas = solves
            else:
                # the signal repeats (C is fixed): every theta is reused
                assert n_solves == n_batches == 0
                assert keys <= set(thetas)
                quiet_rounds += 1
            # the engine passes each group's previous member: it never scans
            scans = sum(e[0] == "scan" for e in per_k[k])
            assert scans == 0
            # at most one batched draw call, keyed by this iteration
            calls = [e for e in per_k[k] if e[0] == "draws"]
            assert len(calls) <= 1
            assert all(e[2] == k for e in calls)
            drawn = [i for e in calls for i in e[1]]
            expected = []
            stays = []
            for i, spec in enumerate(loads):
                theta = thetas[(id(spec.constraint), spec.c, prev[i])]
                stays.append(0.0 if prev[i] is None else float(theta[prev[i]]))
                if np.count_nonzero(theta) == 1 and theta.max() == 1.0:
                    prev[i] = int(np.argmax(theta))
                else:
                    expected.append(spec.id)
                    prev[i] = sample(theta, load_draw(0, spec.id, k))
            # the batch holds exactly the non-pinned loads, in load order
            assert drawn == expected
            # escape = 1 - prod_i theta_i[prev_i], in load order
            assert traj.records[k - 1].escape_probability == 1.0 - math.prod(stays)
            draws_total += len(drawn)
            updates_to_draw += len(expected)
        assert 0 < draws_total == updates_to_draw < iterations * len(loads)
        assert quiet_rounds > 0
        for i, spec in enumerate(loads):
            assert np.array_equal(traj.final_profiles[i].values,
                                  spec.constraint.members[prev[i]])
