import io
import math
import socket
import sys
import threading

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import random_base, random_convex_set, random_pulse_set
from valleyfill.core import Profile, TimeGrid
from valleyfill.engine import (ConfigurationError, EngineConfig, LoadSpec,
                               run)
from valleyfill import netsim
from valleyfill.netsim import (_HEADERS, AgentLostError, ProtocolError,
                               RosterEntry, _connect_with_retry, _encode_floats,
                               _recv, grid_digest, run_agent, serve_coordinator)

# A socket or file that a test leaves open fails it: the warning that its
# finalizer gives is an error, and so is pytest's report of that error.
LEAKS_FAIL = pytest.mark.filterwarnings("error::ResourceWarning",
                                        "error::pytest.PytestUnraisableExceptionWarning")
pytestmark = LEAKS_FAIL


def free_endpoint():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    endpoint = s.getsockname()
    s.close()
    return endpoint


def networked_run(loads, b, cfg, timeout=10.0):
    """Coordinator and one agent per load in threads; every agent must exit 0."""
    endpoint = free_endpoint()
    roster = [RosterEntry(spec.id, spec.is_finite, spec.c) for spec in loads]
    result = {}
    statuses = {}

    def agent(spec):
        statuses[spec.id] = run_agent(spec, cfg.master_seed, endpoint, timeout=timeout)

    def coordinate():
        try:
            result["traj"] = serve_coordinator(b, roster, cfg, endpoint,
                                               timeout=timeout)
        except Exception as exc:  # surfaced to the test thread
            result["error"] = exc

    coord = threading.Thread(target=coordinate)
    coord.start()
    agents = []
    for spec in loads:
        t = threading.Thread(target=agent, args=(spec,))
        t.start()
        agents.append(t)
    coord.join(timeout=60)
    for t in agents:
        t.join(timeout=60)
    if "error" in result:
        raise result["error"]
    assert statuses == {spec.id: 0 for spec in loads}
    return result["traj"]


def assert_trajectories_equivalent(net, local):
    assert net.terminated_by == local.terminated_by
    assert len(net.records) == len(local.records)
    for rn, rl in zip(net.records, local.records):
        assert rn.k == rl.k
        assert np.array_equal(rn.g.values, rl.g.values)
        assert rn.objective == rl.objective
        assert rn.profiles_changed == rl.profiles_changed
        assert np.array_equal(rn.escape_probability, rl.escape_probability,
                              equal_nan=True)
    for xn, xl in zip(net.final_profiles, local.final_profiles):
        assert np.array_equal(xn.values, xl.values)


class TestEquivalence:
    def test_single_convex_agent(self):
        rng = np.random.default_rng(1)
        g = TimeGrid(6.0, 12)
        loads = [LoadSpec(0, random_convex_set(rng, g))]
        b = random_base(rng, g)
        cfg = EngineConfig(max_iterations=20, master_seed=7)
        net = networked_run(loads, b, cfg)
        local = run(loads, b, cfg)
        assert_trajectories_equivalent(net, local)

    def test_mixed_fleet(self):
        rng = np.random.default_rng(2)
        g = TimeGrid(6.0, 12)
        loads = [LoadSpec(0, random_convex_set(rng, g)),
                 LoadSpec(1, random_pulse_set(rng, g, m_max=4)),
                 LoadSpec(2, random_pulse_set(rng, g, m_max=4))]
        b = random_base(rng, g)
        cfg = EngineConfig(max_iterations=30, master_seed=11)
        net = networked_run(loads, b, cfg)
        local = run(loads, b, cfg)
        assert_trajectories_equivalent(net, local)

    def test_all_finite_fixed_point(self):
        rng = np.random.default_rng(3)
        g = TimeGrid(4.0, 8)
        loads = [LoadSpec(i, random_pulse_set(rng, g, m_max=3))
                 for i in range(3)]
        b = random_base(rng, g)
        cfg = EngineConfig(max_iterations=5000, master_seed=4,
                           stop_on_epsilon=False)
        net = networked_run(loads, b, cfg)
        local = run(loads, b, cfg)
        assert_trajectories_equivalent(net, local)


    def test_equal_grids_of_other_number_types(self):
        """A session on TimeGrid(24.0, 4) serves loads built on TimeGrid(24, 4)."""
        rng = np.random.default_rng(21)
        g_agent = TimeGrid(24, 4)
        loads = [LoadSpec(0, random_convex_set(rng, g_agent)),
                 LoadSpec(1, random_pulse_set(rng, g_agent, m_max=3)),
                 LoadSpec(2, random_pulse_set(rng, g_agent, m_max=3))]
        b = random_base(rng, TimeGrid(24.0, 4))
        cfg = EngineConfig(max_iterations=20, master_seed=5)
        assert_trajectories_equivalent(networked_run(loads, b, cfg), run(loads, b, cfg))


class TestHandshake:
    def test_grid_digest_format(self):
        assert grid_digest(TimeGrid(24.0, 96)) == "24.0:96"
        assert grid_digest(TimeGrid(24.0, 96)) != grid_digest(TimeGrid(24.0, 48))

    def test_equal_grids_have_equal_digests(self):
        assert TimeGrid(24, 96) == TimeGrid(24.0, 96)
        assert grid_digest(TimeGrid(24, 96)) == grid_digest(TimeGrid(24.0, 96))

    def test_grid_mismatch_refused(self):
        rng = np.random.default_rng(5)
        g_session = TimeGrid(6.0, 12)
        g_agent = TimeGrid(6.0, 24)
        endpoint = free_endpoint()
        roster = [RosterEntry(0, False, 1.0)]
        b = random_base(rng, g_session)
        result = {}

        def coordinate():
            try:
                serve_coordinator(b, roster, EngineConfig(), endpoint,
                                  timeout=10.0)
            except Exception as exc:
                result["error"] = exc

        coord = threading.Thread(target=coordinate)
        coord.start()
        load = LoadSpec(0, random_convex_set(rng, g_agent))
        status = run_agent(load, 0, endpoint, timeout=10.0)
        coord.join(timeout=30)
        assert status == 1
        assert isinstance(result.get("error"), ProtocolError)

    def test_unknown_id_refused(self):
        rng = np.random.default_rng(6)
        g = TimeGrid(6.0, 12)
        endpoint = free_endpoint()
        roster = [RosterEntry(0, False, 1.0)]
        b = random_base(rng, g)
        result = {}

        def coordinate():
            try:
                serve_coordinator(b, roster, EngineConfig(), endpoint,
                                  timeout=10.0)
            except Exception as exc:
                result["error"] = exc

        coord = threading.Thread(target=coordinate)
        coord.start()
        load = LoadSpec(99, random_convex_set(rng, g))
        status = run_agent(load, 0, endpoint, timeout=10.0)
        coord.join(timeout=30)
        assert status == 1
        assert isinstance(result.get("error"), ConfigurationError)

    def test_kind_mismatch_refused(self):
        """A convex agent whose roster entry, of the same weight, is finite."""
        rng = np.random.default_rng(7)
        g = TimeGrid(6.0, 12)
        endpoint = free_endpoint()
        # the convex entry 1 keeps C > c_i for the finite entry 0
        roster = [RosterEntry(0, True, 1.5), RosterEntry(1, False, 2.0)]
        b = random_base(rng, g)
        result = {}

        def coordinate():
            try:
                serve_coordinator(b, roster, EngineConfig(), endpoint,
                                  timeout=10.0)
            except Exception as exc:
                result["error"] = exc

        coord = threading.Thread(target=coordinate)
        coord.start()
        load = LoadSpec(0, random_convex_set(rng, g), c=1.5)
        status = run_agent(load, 0, endpoint, timeout=10.0)
        coord.join(timeout=30)
        assert status == 1
        assert isinstance(result.get("error"), ConfigurationError)
        assert "does not match its roster entry" in str(result["error"])

    def test_weight_one_ulp_off_is_a_mismatch(self):
        """c must equal the roster's bit for bit; the refusal names the reason."""
        rng = np.random.default_rng(10)
        g = TimeGrid(6.0, 12)
        endpoint = free_endpoint()
        result = {}

        def coordinate():
            try:
                serve_coordinator(random_base(rng, g), [RosterEntry(0, False, 2.0)],
                                  EngineConfig(), endpoint, timeout=10.0)
            except Exception as exc:
                result["error"] = exc

        coord = threading.Thread(target=coordinate)
        coord.start()
        conn = _connect_with_retry(endpoint, timeout=10.0)
        fh = conn.makefile("rw", encoding="ascii", newline="\n")
        fh.write(f"MESSAGE HELLO 0 0 {grid_digest(g)} convex "
                 f"{math.nextafter(2.0, 3.0)!r}\n")
        fh.flush()
        reply = fh.readline()
        fh.close()
        conn.close()
        coord.join(timeout=30)
        assert reply == "MESSAGE STOP 0 RosterMismatch\n"
        assert isinstance(result.get("error"), ConfigurationError)

    def test_empty_roster(self):
        with pytest.raises(ConfigurationError):
            serve_coordinator(Profile.zeros(TimeGrid(1.0, 2)), [],
                              EngineConfig(), free_endpoint())

    def test_lone_finite_agent_rejected_before_binding(self):
        # C = c_i leaves the finite load nothing to average against; the
        # short timeout turns a check made after binding into socket.timeout
        with pytest.raises(ConfigurationError):
            serve_coordinator(Profile.zeros(TimeGrid(1.0, 2)),
                              [RosterEntry(0, True, 1.0)], EngineConfig(),
                              free_endpoint(), timeout=0.5)


class TestRosterEntry:
    """Ids and weights are checked as `LoadSpec`'s are (see test_engine)."""

    @pytest.mark.parametrize("is_finite", ["yes", 1, 0.0, None])
    def test_non_bool_kind_rejected_when_built(self, is_finite):
        with pytest.raises(ConfigurationError, match="is_finite must be a bool"):
            RosterEntry(0, is_finite, 1.0)


class TestFailureModes:
    def test_agent_disconnect_mid_session(self):
        rng = np.random.default_rng(8)
        g = TimeGrid(6.0, 12)
        endpoint = free_endpoint()
        roster = [RosterEntry(0, False, 2.0)]
        b = random_base(rng, g)
        result = {}

        def coordinate():
            try:
                serve_coordinator(b, roster, EngineConfig(max_iterations=100),
                                  endpoint, timeout=10.0)
            except Exception as exc:
                result["error"] = exc

        coord = threading.Thread(target=coordinate)
        coord.start()

        # handshake correctly, then vanish before answering any signal
        conn = _connect_with_retry(endpoint, timeout=10.0)
        fh = conn.makefile("rw", encoding="ascii", newline="\n")
        fh.write(f"MESSAGE HELLO 0 0 {grid_digest(g)} convex 2.0\n")
        fh.flush()
        assert fh.readline().startswith("MESSAGE ASSIGN")
        fh.readline()  # consume the first SIGNAL
        fh.close()
        conn.close()
        coord.join(timeout=30)
        assert isinstance(result.get("error"), AgentLostError)

    def test_surviving_agent_of_an_aborted_session_exits_1(self):
        """STOP AgentLost ends the session, but not as a completed run."""
        rng = np.random.default_rng(13)
        g = TimeGrid(6.0, 12)
        endpoint = free_endpoint()
        roster = [RosterEntry(0, False, 2.0), RosterEntry(1, False, 2.0)]
        b = random_base(rng, g)
        result, status = {}, {}

        def coordinate():
            try:
                serve_coordinator(b, roster, EngineConfig(max_iterations=100),
                                  endpoint, timeout=10.0)
            except Exception as exc:
                result["error"] = exc

        def survive():
            status[0] = run_agent(LoadSpec(0, random_convex_set(rng, g), c=2.0),
                                  0, endpoint, timeout=10.0)

        coord = threading.Thread(target=coordinate)
        coord.start()
        survivor = threading.Thread(target=survive)
        survivor.start()
        # agent 1 handshakes correctly, then vanishes after the first SIGNAL
        conn = _connect_with_retry(endpoint, timeout=10.0)
        fh = conn.makefile("rw", encoding="ascii", newline="\n")
        fh.write(f"MESSAGE HELLO 0 1 {grid_digest(g)} convex 2.0\n")
        fh.flush()
        assert fh.readline().startswith("MESSAGE ASSIGN")
        assert fh.readline().startswith("MESSAGE SIGNAL")
        fh.close()
        conn.close()
        coord.join(timeout=30)
        survivor.join(timeout=30)
        assert isinstance(result.get("error"), AgentLostError)
        assert status == {0: 1}

    def test_endpoint_is_free_after_a_refusal_and_an_abort(self):
        """A failed session releases its endpoint: the next coordinator binds at once."""
        rng = np.random.default_rng(14)
        g = TimeGrid(6.0, 12)
        endpoint = free_endpoint()
        roster = [RosterEntry(0, False, 2.0)]
        b = random_base(rng, g)

        def fails_with(error, client):
            result = {}

            def coordinate():
                try:
                    serve_coordinator(b, roster, EngineConfig(max_iterations=100),
                                      endpoint, timeout=10.0)
                except Exception as exc:
                    result["error"] = exc

            coord = threading.Thread(target=coordinate)
            coord.start()
            client()
            coord.join(timeout=30)
            assert isinstance(result.get("error"), error)
            # binding succeeds, so only the wait for an agent can time out
            with pytest.raises(socket.timeout):
                serve_coordinator(b, roster, EngineConfig(), endpoint, timeout=0.2)

        def refused_agent():
            load = LoadSpec(0, random_convex_set(rng, g), c=1.5)
            assert run_agent(load, 0, endpoint, timeout=10.0) == 1

        def vanishing_agent():
            with _connect_with_retry(endpoint, timeout=10.0) as conn, \
                    conn.makefile("rw", encoding="ascii", newline="\n") as fh:
                fh.write(f"MESSAGE HELLO 0 0 {grid_digest(g)} convex 2.0\n")
                fh.flush()
                assert fh.readline().startswith("MESSAGE ASSIGN")
                assert fh.readline().startswith("MESSAGE SIGNAL")

        fails_with(ConfigurationError, refused_agent)   # STOP RosterMismatch
        fails_with(AgentLostError, vanishing_agent)     # STOP AgentLost

    def test_duplicate_hello_is_refused(self):
        rng = np.random.default_rng(15)
        g = TimeGrid(6.0, 12)
        endpoint = free_endpoint()
        roster = [RosterEntry(0, False, 2.0), RosterEntry(1, False, 2.0)]
        result = {}

        def coordinate():
            try:
                serve_coordinator(random_base(rng, g), roster, EngineConfig(),
                                  endpoint, timeout=10.0)
            except Exception as exc:
                result["error"] = exc

        coord = threading.Thread(target=coordinate)
        coord.start()
        hello = f"MESSAGE HELLO 0 0 {grid_digest(g)} convex 2.0\n"
        with _connect_with_retry(endpoint, timeout=10.0) as first, \
                first.makefile("rw", encoding="ascii", newline="\n") as fh:
            fh.write(hello)
            fh.flush()
            assert fh.readline().startswith("MESSAGE ASSIGN 0 0 ")
            with _connect_with_retry(endpoint, timeout=10.0) as second, \
                    second.makefile("rw", encoding="ascii", newline="\n") as fh2:
                fh2.write(hello)
                fh2.flush()
                assert fh2.readline() == "MESSAGE STOP 0 DuplicateId\n"
                coord.join(timeout=30)
        assert isinstance(result.get("error"), ConfigurationError)
        assert "duplicate load id 0" in str(result["error"])

    @pytest.mark.parametrize("iteration,sender,message", [
        (2, 0, "profile update for iteration 2, expected 1"),
        (1, 7, "update from 7 on connection 0"),
    ], ids=["wrong-iteration", "wrong-sender"])
    def test_misaddressed_update_is_protocol_error(self, iteration, sender, message):
        rng = np.random.default_rng(16)
        g = TimeGrid(6.0, 12)
        endpoint = free_endpoint()
        roster = [RosterEntry(0, False, 2.0)]
        result = {}

        def coordinate():
            try:
                serve_coordinator(random_base(rng, g), roster, EngineConfig(),
                                  endpoint, timeout=10.0)
            except Exception as exc:
                result["error"] = exc

        coord = threading.Thread(target=coordinate)
        coord.start()
        with _connect_with_retry(endpoint, timeout=10.0) as conn, \
                conn.makefile("rw", encoding="ascii", newline="\n") as fh:
            fh.write(f"MESSAGE HELLO 0 0 {grid_digest(g)} convex 2.0\n")
            fh.flush()
            assert fh.readline().startswith("MESSAGE ASSIGN")
            assert fh.readline().startswith("MESSAGE SIGNAL 1 ")
            fh.write(f"MESSAGE PROFILEUPDATE {iteration} {sender} 1.0 "
                     f"{g.slots} {_encode_floats(np.zeros(g.slots))}\n")
            fh.flush()
            coord.join(timeout=30)
        assert isinstance(result.get("error"), ProtocolError)
        assert message in str(result["error"])

    @pytest.mark.parametrize("line", [
        "MESSAGE HELLO 0",
        "MESSAGE HELLO 0 abc x",
        "MESSAGE PROFILEUPDATE 1",
        "MESSAGE PROFILEUPDATE 1 0",
        "MESSAGE PROFILEUPDATE 1 0 0 nonsense",
    ], ids=["hello-no-fields", "hello-bad-id", "update-no-fields",
            "update-no-stay", "update-bad-profile"])
    def test_malformed_update_is_protocol_error(self, line):
        rng = np.random.default_rng(9)
        g = TimeGrid(6.0, 12)
        endpoint = free_endpoint()
        roster = [RosterEntry(0, False, 2.0)]
        b = random_base(rng, g)
        result = {}

        def coordinate():
            try:
                serve_coordinator(b, roster, EngineConfig(max_iterations=100),
                                  endpoint, timeout=10.0)
            except Exception as exc:
                result["error"] = exc

        coord = threading.Thread(target=coordinate)
        coord.start()
        conn = _connect_with_retry(endpoint, timeout=10.0)
        fh = conn.makefile("rw", encoding="ascii", newline="\n")
        if "HELLO" not in line:
            fh.write(f"MESSAGE HELLO 0 0 {grid_digest(g)} convex 2.0\n")
            fh.flush()
            fh.readline()  # ASSIGN
            fh.readline()  # SIGNAL
        fh.write(line + "\n")
        fh.flush()
        coord.join(timeout=30)
        fh.close()
        conn.close()
        assert isinstance(result.get("error"), ProtocolError)


WIRE_GRID = TimeGrid(3.0, 3)
WIRE_WORDS = ["MESSAGE", *_HEADERS, "3", "0", "1", "-1", "-5", "0.5", "nan", "inf",
              "-0.0", "1e999", grid_digest(WIRE_GRID), "finite", "convex", "x"]
wire_token = st.one_of(
    st.sampled_from(WIRE_WORDS).map(str.encode),
    st.floats().map(lambda v: repr(v).encode()),
    st.integers(-2**70, 2**70).map(lambda v: str(v).encode()),
    st.binary(min_size=1, max_size=4))


WIRE_VALID = {"HELLO": ["0", grid_digest(WIRE_GRID), "finite", "2.5"],
              "ASSIGN": ["0", grid_digest(WIRE_GRID)],
              "SIGNAL": ["2.5", "3", "0.5", "0.25", "1.0"],
              "PROFILEUPDATE": ["0", "0.5", "3", "0.5", "0.25", "1.0"],
              "STOP": ["FixedPoint"]}


@st.composite
def wire_lines(draw):
    """Random token lines, and well-formed messages with up to two fields edited."""
    if draw(st.booleans()):
        return b" ".join(draw(st.lists(wire_token, max_size=12))) + b"\n"
    kind = draw(st.sampled_from(list(WIRE_VALID)))
    fields = [f.encode() for f in WIRE_VALID[kind]]
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(fields)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or pos == len(fields):
            fields.insert(pos, draw(wire_token))
        elif edit == "replace":
            fields[pos] = draw(wire_token)
        else:
            del fields[pos]
    return b" ".join([b"MESSAGE", kind.encode(), b"1", *fields]) + b"\n"


def read_wire(data):
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline="\n")
    return _recv(fh, list(_HEADERS), WIRE_GRID)


class TestWireParsing:
    @settings(max_examples=300, deadline=None)
    @given(data=wire_lines())
    def test_random_lines_parse_or_raise_protocol_errors(self, data):
        try:
            kind, _, fields = read_wire(data)
        except (ProtocolError, AgentLostError) as exc:
            event(type(exc).__name__)
            return
        event(f"parsed {kind}")
        if kind == "SIGNAL":
            assert math.isfinite(fields[0]) and fields[0] > 0

    @pytest.mark.parametrize("data", [
        b"MESSAGE SIGNAL 1 nan 3 0.5 0.5 0.5\n",
        b"MESSAGE SIGNAL 1 -5 3 0.5 0.5 0.5\n",
        b"MESSAGE SIGNAL 1 inf 3 0.5 0.5 0.5\n",
        b"MESSAGE SIGNAL 1 2.0 3 0.5 \xc3\xa9 0.5\n",
        b"MESSAGE STOP 1 \xff\n",
        b"MESSAGE HELLO 0 0 3.0:3 pulse 2.5\n",
        b"MESSAGE HELLO 0 0 3.0:3 convex 0.0\n",
        b"MESSAGE HELLO 0 0 3.0:3 convex\n",
        # Python's int and float read digit separators; np.loadtxt does not
        b"MESSAGE SIGNAL 1_0 2.0 3 1_0 0.5 0.5\n",
        b"MESSAGE SIGNAL 1 2.0 0_3 0.5 0.5 0.5\n",
        b"MESSAGE SIGNAL 1 2_0.5 3 0.5 0.5 0.5\n",
        b"MESSAGE PROFILEUPDATE 1 0 0.5 3 0.5 0.5 1_0\n",
        # a kind without a profile takes no field past its header
        b"MESSAGE HELLO 0 3 3.0:3 finite 13.2 extra junk\n",
        b"MESSAGE ASSIGN 0 3 3.0:3 extra\n",
        b"MESSAGE STOP 5 MaxIter trailing\n",
    ], ids=["nan-weight", "negative-weight", "infinite-weight", "non-ascii-value",
            "non-ascii-stop", "hello-unknown-kind", "hello-zero-weight",
            "hello-no-weight", "separator-in-iteration-and-value",
            "separator-in-slot-count", "separator-in-weight",
            "separator-in-update-value", "hello-extra-fields", "assign-extra-field",
            "stop-extra-field"])
    def test_bad_signal_is_protocol_error(self, data):
        with pytest.raises(ProtocolError):
            read_wire(data)

    def test_well_formed_hello_parses(self):
        kind, k, fields = read_wire(b"MESSAGE HELLO 0 7 3.0:3 finite 0.1\n")
        assert (kind, k, fields) == ("HELLO", 0, [7, "3.0:3", True, 0.1])

    def test_well_formed_signal_parses(self):
        kind, k, (C, g) = read_wire(b"MESSAGE SIGNAL 4 2.5 3 0.5 0.25 1.0\n")
        assert (kind, k, C) == ("SIGNAL", 4, 2.5)
        assert g.values.tolist() == [0.5, 0.25, 1.0]

    def test_repeated_profile_reuses_its_parse(self):
        """Per connection, equal profile tokens give the same Profile; new text is checked."""
        last = {}
        fh = io.StringIO("MESSAGE SIGNAL 1 2.5 3 0.5 0.25 1.0\n"
                         "MESSAGE SIGNAL 2 3.5 3 0.5 0.25 1.0\n"
                         "MESSAGE SIGNAL 3 2.5 3 0.5 0.25 2.0\n"
                         "MESSAGE SIGNAL 4 2.5 3 0.5 0.25 nonsense\n")
        _, _, (_, g1) = _recv(fh, ["SIGNAL"], WIRE_GRID, last)
        _, _, (C2, g2) = _recv(fh, ["SIGNAL"], WIRE_GRID, last)
        assert g2 is g1 and C2 == 3.5
        _, _, (_, g3) = _recv(fh, ["SIGNAL"], WIRE_GRID, last)
        assert g3 is not g1 and g3.values.tolist() == [0.5, 0.25, 2.0]
        with pytest.raises(ProtocolError):
            _recv(fh, ["SIGNAL"], WIRE_GRID, last)


def old_encoding(values):
    """The per-element form the wire has always carried."""
    return " ".join(repr(float(v)) for v in values)


finite_float64 = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.min / 3,
                     sys.float_info.max, -sys.float_info.max]))


class TestEncoding:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(finite_float64, min_size=1, max_size=24))
    def test_encoder_is_the_per_element_repr_and_parses_back(self, values):
        a = np.array(values, dtype=np.float64)
        text = _encode_floats(a)
        assert text == old_encoding(a)
        line = f"MESSAGE SIGNAL 1 2.5 {a.size} {text}\n"
        _, _, (_, g) = _recv(io.StringIO(line), ["SIGNAL"], TimeGrid(1.0, a.size))
        assert g.values.tobytes() == a.tobytes()

    def test_session_bytes_and_encodings(self, monkeypatch):
        """Every line is the old encoding; each side encodes only a changed payload."""
        rng = np.random.default_rng(12)
        g = TimeGrid(4.0, 8)
        loads = [LoadSpec(0, random_convex_set(rng, g)),
                 LoadSpec(1, random_pulse_set(rng, g, m_max=3)),
                 LoadSpec(2, random_pulse_set(rng, g, m_max=3))]
        b = random_base(rng, g)
        cfg = EngineConfig(max_iterations=50, master_seed=3, stop_on_epsilon=False)
        sent, encoded = [], []
        send, encode = netsim._send, netsim._encode_floats

        class Recorder:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                sent.append((threading.get_ident(), text))
                self.fh.write(text)

            def flush(self):
                self.fh.flush()

        def counted_encode(values):
            encoded.append(threading.get_ident())
            return encode(values)

        monkeypatch.setattr(netsim, "_send", lambda fh, *args: send(Recorder(fh), *args))
        monkeypatch.setattr(netsim, "_encode_floats", counted_encode)
        net = networked_run(loads, b, cfg)
        assert_trajectories_equivalent(net, run(loads, b, cfg))

        payloads = {}       # sender thread -> its float payloads, in order
        signaller = None
        for sender, text in sent:
            kind = text.split()[1]
            if kind not in ("SIGNAL", "PROFILEUPDATE"):
                continue
            if kind == "SIGNAL":
                signaller = sender
            _, k, fields = _recv(io.StringIO(text), [kind], g)
            *header, profile = fields
            rebuilt = " ".join(["MESSAGE", kind, str(k), *map(repr, header),
                                str(g.slots), old_encoding(profile.values)]) + "\n"
            assert text == rebuilt
            payloads.setdefault(sender, []).append(profile.values.tobytes())
        assert len(payloads) == 1 + len(loads)
        for sender, values in payloads.items():
            # the coordinator sends each round's signal to every agent
            per_round = len(loads) if sender == signaller else 1
            assert len(values) == per_round * len(net.records)
            changes = sum(v != prev for v, prev in zip(values, [None] + values))
            assert encoded.count(sender) == changes
        # the session has rounds that repeat the last signal
        assert encoded.count(signaller) < len(net.records)


class FakeClock:
    """`time` for `_connect_with_retry`: sleeping advances the clock and is recorded."""

    def __init__(self):
        self.now = 0.0
        self.pauses = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.pauses.append(seconds)
        self.now += seconds


class TestConnectRetry:
    def test_pauses_double_up_to_50_ms_until_the_deadline(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(netsim, "time", clock)
        with pytest.raises(ConnectionRefusedError):
            _connect_with_retry(free_endpoint(), timeout=0.3)
        assert clock.pauses == [0.001 * 2**i for i in range(6)] + [0.05] * 5
        assert clock.now >= 0.3
