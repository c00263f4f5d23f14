"""Networked coordinator/agent runner over a line-delimited socket protocol.

One message per line: ``MESSAGE <kind> <iteration> <payload...>``.  Float
payloads are encoded with shortest round-trip decimal representation, so
64-bit values cross the wire bit-faithfully and networked runs reproduce
in-process trajectories exactly.

Message kinds:

- ``HELLO <load_id> <grid_digest> <finite|convex> <c>``
                                        agent -> coordinator handshake
- ``ASSIGN <load_id> <grid_digest>``      coordinator acknowledgment
- ``SIGNAL <C> <S> v1..vS``               broadcast signal and fleet weight C > 0
- ``PROFILEUPDATE <load_id> <stay> <S> v1..vS``
- ``STOP <reason>``                       termination broadcast: ``Tolerance``,
                                        ``FixedPoint`` or ``MaxIter`` ends the run,
                                        any other reason aborts it

In HELLO an agent states its load's kind and weight c (``repr``).  The
coordinator refuses, with ``STOP`` and an error before iteration 1, an
agent whose id repeats or is not in the roster (``DuplicateId``,
``UnknownId``), whose grid differs (``GridMismatch``), or whose kind or
weight differs bit for bit from its roster entry (``RosterMismatch``).

An agent sends what the coordinator needs each round: the new profile and, as
``<stay>``, the ``repr`` of the probability that the load kept its previous
profile.  Networked records thus carry escape probabilities, but a NaN
expected next objective: agents send no sampling distributions.

The coordinator runs the engine's shared loop, `engine.coordinate`, and
each agent one `engine.LoadUpdate` of its one load for the session, which
keeps the load's member index and signal memo, so an agent whose signal
and profile did not change replies without re-solving; the update is the
in-process one, so a session reproduces the in-process run.  Iterations
are barrier synchronized: the signal for iteration k+1 is only sent after
all n profile updates for iteration k have been received.

A repeated signal or profile is re-sent as the same bytes without being
encoded again: the coordinator encodes the signal only when it differs
from the last one it sent, and an agent its profile only when it differs
from its last reply.  On receipt, a profile whose text repeats the
previous line's on that connection reuses its parsed Profile.  This state
lives per session and per connection.  An agent exits 0 after a STOP that
ends the run and 1 after a refusal or an abort such as ``AgentLost``.
Every connection, and the coordinator's listening socket, is closed on
every exit path.
"""

from __future__ import annotations

import contextlib
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Profile, TimeGrid, _field, _flag, _number_text
from .engine import (ConfigurationError, EngineConfig, LoadSpec, Termination,
                     LoadUpdate, Trajectory, _check_load, coordinate, fleet_weight)

__all__ = [
    "ProtocolError",
    "AgentLostError",
    "RosterEntry",
    "serve_coordinator",
    "run_agent",
    "grid_digest",
]

DEFAULT_TIMEOUT = 30.0


class ProtocolError(RuntimeError):
    """Malformed or out-of-order message; the offending line is quoted."""


class AgentLostError(RuntimeError):
    """An agent timed out or disconnected mid-session."""


@dataclass(frozen=True)
class RosterEntry:
    """What the coordinator knows about one agent: id, kind and weight.

    The id and weight follow `LoadSpec`'s rules and is_finite is a bool;
    a bad entry raises ConfigurationError.
    """

    id: int
    is_finite: bool
    c: float

    def __post_init__(self):
        _check_load(self)
        _field(self, "is_finite", _flag, "a bool", error=ConfigurationError,
               label=f"load {self.id}: is_finite")


def grid_digest(grid: TimeGrid) -> str:
    """`horizon:slots`; equal grids have equal digests (the horizon is a float)."""
    return f"{grid.horizon_hours!r}:{grid.slots}"


def _encode_floats(values: np.ndarray) -> str:
    return " ".join(map(repr, values.tolist()))


def _send(fh, kind: str, iteration: int, payload: str) -> None:
    fh.write(f"MESSAGE {kind} {iteration} {payload}\n")
    fh.flush()


def _probability(text: str) -> float:
    p = float(text)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {text} outside [0, 1]")
    return p


def _weight(text: str) -> float:
    c = float(text)
    if not 0.0 < c < np.inf:
        raise ValueError(f"weight {text} is not finite and positive")
    return c


def _finite(text: str) -> bool:
    """A load kind, ``finite`` or ``convex``, as LoadSpec.is_finite."""
    if text not in ("finite", "convex"):
        raise ValueError(f"load kind {text!r} is neither finite nor convex")
    return text == "finite"


def _profile(fields: List[str], grid: TimeGrid) -> Profile:
    """``<S> v1..vS`` on the session grid."""
    if not fields or int(fields[0]) != grid.slots or len(fields) != grid.slots + 1:
        raise ValueError(f"profile does not match the {grid.slots}-slot session grid")
    return Profile(np.array([float(v) for v in fields[1:]]), grid)


# Header field parsers per message kind; SIGNAL and PROFILEUPDATE end in a profile.
_HEADERS = {"HELLO": (int, str, _finite, _weight), "ASSIGN": (int, str),
            "SIGNAL": (_weight,),
            "PROFILEUPDATE": (int, _probability), "STOP": (str,)}


def _stop_reason(termination: Termination) -> str:
    """STOP's reason for a run that ended by `termination`, e.g. FixedPoint."""
    return termination.value.title().replace("_", "")


# The reasons of a STOP that ends a completed run; any other is an abort.
_RUN_ENDED = frozenset(_stop_reason(t) for t in Termination)


def _recv(fh, expect: Sequence[str], grid: TimeGrid,
          last: Optional[dict] = None) -> Tuple[str, int, list]:
    """Read one message of an expected kind: (kind, iteration, fields).

    The fields are the kind's header values, followed by the profile for
    SIGNAL and PROFILEUPDATE.  Any malformed part, a non-ASCII byte or a
    digit separator (core's `_number_text`) included, raises ProtocolError.
    `last` is the connection's dict, kept for the session: a profile whose
    tokens equal the previous profile's on that connection reuses its
    parsed Profile.
    """
    try:
        line = fh.readline()
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"non-ASCII message ({exc})") from None
    if not line:
        raise AgentLostError("connection closed")
    parts = line.split()
    if len(parts) < 3 or parts[0] != "MESSAGE":
        raise ProtocolError(f"malformed message: {line!r}")
    kind = parts[1]
    if kind not in expect:
        raise ProtocolError(f"expected one of {list(expect)}, got: {line!r}")
    header = _HEADERS[kind]
    payload = parts[3:]
    try:
        _number_text(line)
        iteration = int(parts[2])
        if len(payload) < len(header):
            raise ValueError(f"{kind} needs {len(header)} header fields")
        fields = [parse(v) for parse, v in zip(header, payload)]
        if kind in ("SIGNAL", "PROFILEUPDATE"):
            tokens = payload[len(header):]
            last = {} if last is None else last
            if tokens != last.get("tokens"):
                last["tokens"], last["profile"] = tokens, _profile(tokens, grid)
            fields.append(last["profile"])
    except ValueError as exc:
        raise ProtocolError(f"malformed {kind} message ({exc}): {line!r}") from None
    return kind, iteration, fields


@contextlib.contextmanager
def _open(conn: socket.socket, timeout: float):
    """The connection's ASCII line file; on exit closes it, then the socket."""
    with conn:
        conn.settimeout(timeout)
        fh = conn.makefile("rw", encoding="ascii", newline="\n")
        try:
            yield fh
        finally:
            with contextlib.suppress(OSError):
                fh.close()


def serve_coordinator(b: Profile, roster: Sequence[RosterEntry], cfg: EngineConfig,
                      endpoint: Tuple[str, int],
                      timeout: float = DEFAULT_TIMEOUT) -> Trajectory:
    """Run the engine's coordinator loop against connected agents.

    Checks the roster before binding, accepts one connection per roster
    entry whose HELLO matches it (id, grid, kind and weight), then drives
    `engine.coordinate` with a transport that sends SIGNAL to every agent
    and waits for every PROFILEUPDATE.  The returned Trajectory matches
    the in-process run bit for bit, escape probabilities included; its
    expected next objectives are NaN.
    """
    fleet_weight(roster)  # a bad roster fails before the socket opens
    entries = {entry.id: entry for entry in roster}
    ids = list(entries)
    grid = b.grid
    digest = grid_digest(grid)

    with contextlib.ExitStack() as stack:
        server = stack.enter_context(socket.create_server(endpoint,
                                                          backlog=len(roster)))
        server.settimeout(timeout)
        conns: Dict[int, object] = {}
        while len(conns) < len(roster):
            fh = stack.enter_context(_open(server.accept()[0], timeout))
            _, _, (load_id, agent_digest, finite, c) = _recv(fh, ["HELLO"], grid)
            if load_id in conns:
                _send(fh, "STOP", 0, "DuplicateId")
                raise ConfigurationError(f"duplicate load id {load_id} in session")
            if load_id not in entries:
                _send(fh, "STOP", 0, "UnknownId")
                raise ConfigurationError(f"load id {load_id} not in roster")
            if agent_digest != digest:
                _send(fh, "STOP", 0, "GridMismatch")
                raise ProtocolError(
                    f"agent {load_id} grid digest {agent_digest!r} != session {digest!r}"
                )
            entry = entries[load_id]
            if (finite, c) != (entry.is_finite, entry.c):
                _send(fh, "STOP", 0, "RosterMismatch")
                raise ConfigurationError(f"agent {load_id} (finite={finite}, c={c!r}) "
                                         f"does not match its roster entry {entry}")
            _send(fh, "ASSIGN", 0, f"{load_id} {digest}")
            conns[load_id] = fh

        received = {i: {} for i in ids}     # each connection's last profile
        signal, payload = None, ""          # the last signal sent

        def exchange(k, C, g, X):
            nonlocal signal, payload
            if g.values.tobytes() != signal:
                signal = g.values.tobytes()
                payload = f"{float(C)!r} {grid.slots} {_encode_floats(g.values)}"
            for i in ids:
                _send(conns[i], "SIGNAL", k, payload)
            X_new, stay = np.empty_like(X), 1.0
            for pos, i in enumerate(ids):
                _, it, (sender, stay_i, x_new) = _recv(conns[i], ["PROFILEUPDATE"],
                                                       grid, received[i])
                if it != k:
                    raise ProtocolError(f"profile update for iteration {it}, expected {k}")
                if sender != i:
                    raise ProtocolError(f"update from {sender} on connection {i}")
                X_new[pos] = x_new.values
                stay *= stay_i
            # Agents send no sampling distributions, so the moments are NaN.
            return X_new, stay, 0.0, float("nan")

        try:
            traj = coordinate(b, roster, cfg, exchange)
        except (socket.timeout, AgentLostError) as exc:
            for fh in conns.values():
                with contextlib.suppress(OSError):
                    _send(fh, "STOP", 0, "AgentLost")
            raise AgentLostError(f"agent lost mid-session: {exc}") from exc

        for fh in conns.values():
            _send(fh, "STOP", len(traj.records), _stop_reason(traj.terminated_by))
        return traj


def _connect_with_retry(endpoint: Tuple[str, int], timeout: float) -> socket.socket:
    """Connect, retrying while the coordinator is still starting up.

    The pause after a refusal starts at 1 ms and doubles up to 50 ms.
    """
    deadline = time.monotonic() + timeout
    pause = 0.001
    while True:
        try:
            return socket.create_connection(endpoint, timeout=timeout)
        except ConnectionRefusedError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(pause)
            pause = min(2 * pause, 0.05)


def run_agent(load: LoadSpec, master_seed: int, endpoint: Tuple[str, int],
              timeout: float = DEFAULT_TIMEOUT) -> int:
    """Single-load agent state machine; returns a process exit status.

    Per iteration: receive the signal, update the one load with one
    `engine.LoadUpdate` for the session, the in-process runs' update, and
    reply with the new profile and the probability that the load kept its
    previous profile.  The update's memo lives for the session, so a
    round that repeats the last signal and profile reuses their solve, and
    a repeated signal or profile is neither parsed nor encoded again.
    Returns 0 after a STOP that ends the run (TOLERANCE, FIXED_POINT or
    MAX_ITER) and 1 after a refusal or an aborted session.
    """
    grid = load.grid
    digest = grid_digest(grid)
    with _open(_connect_with_retry(endpoint, timeout), timeout) as fh:
        load_kind = "finite" if load.is_finite else "convex"
        _send(fh, "HELLO", 0, f"{load.id} {digest} {load_kind} {float(load.c)!r}")
        kind, _, fields = _recv(fh, ["ASSIGN", "STOP"], grid)
        if kind == "STOP":
            return 1
        if fields != [load.id, digest]:
            raise ProtocolError(f"handshake refused: {fields!r}")

        X = np.zeros((1, grid.slots))
        update = LoadUpdate([load], master_seed)
        received: dict = {}                 # the last signal's profile
        reply, reply_text = None, ""        # the last profile sent
        while True:
            kind, k, fields = _recv(fh, ["SIGNAL", "STOP"], grid, received)
            if kind == "STOP":
                return 0 if fields[0] in _RUN_ENDED else 1
            C, g = fields
            X, stay, _, _ = update(k, C, g, X)
            if X[0].tobytes() != reply:
                reply, reply_text = X[0].tobytes(), _encode_floats(X[0])
            _send(fh, "PROFILEUPDATE", k,
                  f"{load.id} {stay!r} {grid.slots} {reply_text}")
