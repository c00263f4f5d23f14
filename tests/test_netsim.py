import io
import math
import socket
import threading

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import random_base, random_convex_set, random_pulse_set
from valleyfill.core import Profile, TimeGrid
from valleyfill.engine import (ConfigurationError, EngineConfig, LoadSpec,
                               run)
from valleyfill.netsim import (_HEADERS, AgentLostError, ProtocolError,
                               RosterEntry, _connect_with_retry, _recv,
                               grid_digest, run_agent, serve_coordinator)


def free_endpoint():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    endpoint = s.getsockname()
    s.close()
    return endpoint


def networked_run(loads, b, cfg, timeout=10.0):
    """Coordinator in this thread, one agent thread per load."""
    endpoint = free_endpoint()
    roster = [RosterEntry(spec.id, spec.is_finite, spec.c) for spec in loads]
    result = {}

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
        t = threading.Thread(target=run_agent,
                             args=(spec, cfg.master_seed, endpoint),
                             kwargs={"timeout": timeout})
        t.start()
        agents.append(t)
    coord.join(timeout=60)
    for t in agents:
        t.join(timeout=60)
    if "error" in result:
        raise result["error"]
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


class TestHandshake:
    def test_grid_digest_format(self):
        assert grid_digest(TimeGrid(24.0, 96)) == "24.0:96"
        assert grid_digest(TimeGrid(24.0, 96)) != grid_digest(TimeGrid(24.0, 48))

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
    ], ids=["nan-weight", "negative-weight", "infinite-weight", "non-ascii-value",
            "non-ascii-stop", "hello-unknown-kind", "hello-zero-weight",
            "hello-no-weight"])
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
