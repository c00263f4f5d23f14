import io
import math
import socket
import sys
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (LEAKS_FAIL, Session, assert_trajectories_equivalent, free_endpoint,
                      networked_run, random_base, random_convex_set, random_pulse_set)
from valleyfill.core import Profile, TimeGrid
from valleyfill.engine import (ConfigurationError, EngineConfig, LoadSpec, Termination,
                               run)
from valleyfill import netsim
from valleyfill.netsim import (_HEADERS, AgentLostError, ProtocolError,
                               RosterEntry, _connect_with_retry, _encode_floats,
                               _open, _recv, _send, grid_digest, serve_coordinator)

pytestmark = LEAKS_FAIL


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


class TestRunEnd:
    @pytest.mark.parametrize("termination", Termination, ids=lambda t: t.name)
    def test_every_agent_reads_the_run_ending_stop(self, termination):
        """`networked_run` asserts that each agent reads ``STOP <records> <reason>``
        and exits 0; a session ends here by each termination."""
        rng = np.random.default_rng(31)
        g = TimeGrid(4.0, 8)
        if termination is Termination.TOLERANCE:
            loads = [LoadSpec(0, random_convex_set(rng, g))]
        else:
            loads = [LoadSpec(i, random_pulse_set(rng, g, m_max=3)) for i in range(3)]
        cfg = EngineConfig(max_iterations=2 if termination is Termination.MAX_ITER else 5000,
                           stop_on_epsilon=termination is Termination.TOLERANCE)
        assert networked_run(loads, random_base(rng, g), cfg).terminated_by is termination


GRID = TimeGrid(6.0, 12)
BASE = random_base(np.random.default_rng(8), GRID)


def convex_agent(load_id, grid=GRID, c=2.0):
    return LoadSpec(load_id, random_convex_set(np.random.default_rng(load_id), grid), c=c)


SURVIVOR = convex_agent(0)
ZEROS = f"{GRID.slots} {_encode_floats(np.zeros(GRID.slots))}"


@dataclass(frozen=True)
class Fault:
    """Agent 0 joins a session of agents 0 and 1, then a client breaks it.

    The client runs `run_agent` for `agent`, or is a raw connection that
    sends `hello`, given `reply` reads ASSIGN and SIGNAL 1 and writes
    `reply`, and then reads to the end, or closes if `vanish`.  The
    coordinator raises `error`, whose text holds `message`, and the client
    then reads only ``STOP 0 <stop>``, or nothing if `stop` is None.
    """

    error: type
    message: str
    stop: Optional[str]
    agent: Optional[LoadSpec] = None
    hello: str = f"MESSAGE HELLO 0 1 {grid_digest(GRID)} convex 2.0"
    reply: Optional[str] = None
    vanish: bool = False
    finite: bool = False        # roster entry 1's kind
    timeout: float = 10.0       # the coordinator's


def malformed(line, reason):
    """The coordinator's error text for a malformed `line`."""
    quoted = repr(line + "\n")
    return f"malformed {line.split()[1]} message ({reason}): {quoted}"


FAULTS = {
    # refusals: the client reads its reason and exits 1
    "grid-mismatch": Fault(ProtocolError, "agent 1 grid digest '6.0:24' != session '6.0:12'",
                           "GridMismatch", convex_agent(1, TimeGrid(6.0, 24))),
    "unknown-id": Fault(ConfigurationError, "load id 99 not in roster", "UnknownId",
                        convex_agent(99)),
    "duplicate-id": Fault(ConfigurationError, "duplicate load id 0 in session",
                          "DuplicateId", SURVIVOR),
    # a convex agent whose roster entry, of the same weight, is finite
    "kind-mismatch": Fault(ConfigurationError, "does not match its roster entry",
                           "RosterMismatch", convex_agent(1), finite=True),
    # c must equal the roster's bit for bit
    "weight-one-ulp-off": Fault(ConfigurationError, "does not match its roster entry",
                                "RosterMismatch",
                                convex_agent(1, c=math.nextafter(2.0, 3.0))),
    # malformed HELLOs: the client is not assigned and reads no line
    **{name: Fault(ProtocolError, malformed(line, "HELLO needs 4 header fields"), None,
                   hello=line)
       for name, line in [("hello-no-fields", "MESSAGE HELLO 0"),
                          ("hello-bad-id", "MESSAGE HELLO 0 abc x")]},
    # mid-session: every assigned agent, the client included, reads STOP 0 AgentLost
    **{name: Fault(ProtocolError, message, "AgentLost", reply=line)
       for name, line, message in [
           ("update-no-fields", "MESSAGE PROFILEUPDATE 1",
            malformed("MESSAGE PROFILEUPDATE 1", "PROFILEUPDATE needs 2 header fields")),
           ("update-no-stay", "MESSAGE PROFILEUPDATE 1 1",
            malformed("MESSAGE PROFILEUPDATE 1 1", "PROFILEUPDATE needs 2 header fields")),
           ("update-bad-profile", "MESSAGE PROFILEUPDATE 1 1 0 nonsense",
            malformed("MESSAGE PROFILEUPDATE 1 1 0 nonsense",
                      "invalid literal for int() with base 10: 'nonsense'")),
           ("wrong-iteration", f"MESSAGE PROFILEUPDATE 2 1 1.0 {ZEROS}",
            "profile update for iteration 2, expected 1"),
           ("wrong-sender", f"MESSAGE PROFILEUPDATE 1 7 1.0 {ZEROS}",
            "update from 7 on connection 1")]},
    "lost-after-signal": Fault(AgentLostError, "agent lost mid-session: connection closed",
                               None, reply="", vanish=True),
    # a broken pipe or a reset, as the coordinator's first SIGNAL finds the socket closed
    "lost-after-hello": Fault(AgentLostError, "agent lost mid-session: ", None, vanish=True),
    "silent-after-signal": Fault(AgentLostError, "agent lost mid-session: timed out",
                                 "AgentLost", reply="", timeout=1.0),
}


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS)
def test_a_failed_session_stops_every_assigned_agent(fault):
    """Any failure once the coordinator listens ends the session one way: the
    coordinator raises, every assigned agent reads STOP 0 AgentLost and exits
    1, a refused client reads its own reason, and the endpoint is free."""
    roster = [RosterEntry(0, False, 2.0), RosterEntry(1, fault.finite, 2.0)]
    with Session(BASE, roster, EngineConfig(max_iterations=100), fault.timeout) as session:
        survivor = session.agent(SURVIVOR)
        if fault.agent is not None:
            client = session.agent(fault.agent)
        else:
            fh = session.client(fault.hello)
            if fault.reply is not None:
                assert fh.readline().startswith("MESSAGE ASSIGN 0 1 ")
                assert fh.readline().startswith("MESSAGE SIGNAL 1 ")
                if fault.reply:
                    fh.write(fault.reply + "\n")
                    fh.flush()
            lines = [] if fault.vanish else fh.readlines()
            fh.close()
    with pytest.raises(fault.error) as raised:
        session.result()
    assert fault.message in str(raised.value)
    assert survivor.lines[0] == f"MESSAGE ASSIGN 0 0 {grid_digest(GRID)}\n"
    assert (survivor.status, survivor.lines[-1]) == (1, "MESSAGE STOP 0 AgentLost\n")
    if fault.agent is not None:
        assert client.status == 1
        lines = client.lines
    assert lines == ([] if fault.stop is None else [f"MESSAGE STOP 0 {fault.stop}\n"])
    # a failed session releases its endpoint: binding succeeds, so only the
    # wait for an agent can time out
    with pytest.raises(socket.timeout):
        serve_coordinator(BASE, roster, EngineConfig(), session.endpoint, timeout=0.2)


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
    return _recv(io.BytesIO(data), list(_HEADERS), WIRE_GRID)


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

    def test_a_reply_keeps_the_lines_read_ahead(self):
        """A STOP that arrives with a SIGNAL is read after the agent's reply."""
        coordinator, agent = socket.socketpair()
        with coordinator, _open(agent, 1.0) as fh:
            coordinator.sendall(b"MESSAGE SIGNAL 1 2.5 3 0.5 0.25 1.0\n"
                                b"MESSAGE STOP 0 AgentLost\n")
            assert _recv(fh, ["SIGNAL", "STOP"], WIRE_GRID)[0] == "SIGNAL"
            _send(fh, "PROFILEUPDATE", 1, "0 1.0 3 0.5 0.25 1.0")
            assert _recv(fh, ["SIGNAL", "STOP"], WIRE_GRID) == ("STOP", 0, ["AgentLost"])

    def test_repeated_profile_reuses_its_parse(self):
        """Per connection, equal profile tokens give the same Profile; new text is checked."""
        last = {}
        fh = io.BytesIO(b"MESSAGE SIGNAL 1 2.5 3 0.5 0.25 1.0\n"
                        b"MESSAGE SIGNAL 2 3.5 3 0.5 0.25 1.0\n"
                        b"MESSAGE SIGNAL 3 2.5 3 0.5 0.25 2.0\n"
                        b"MESSAGE SIGNAL 4 2.5 3 0.5 0.25 nonsense\n")
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
        _, _, (_, g) = _recv(io.BytesIO(line.encode()), ["SIGNAL"], TimeGrid(1.0, a.size))
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
                sent.append((threading.get_ident(), text.decode()))
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
            _, k, fields = _recv(io.BytesIO(text.encode()), [kind], g)
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
