"""In-memory span tracer for the benchmark's traced runs.

The tracer measures the package from outside.  It replaces each traced
public function in its defining module and in every ``valleyfill`` module
that imported it by name, so calls made inside the package (the engine's
``hull_minimize``, netsim's ``coordinator_signal``) are caught as well.
Spans are held in memory and written out once, when the run ends.
"""

from __future__ import annotations

import csv
import functools
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, NamedTuple

# (defining module, function) pairs wrapped in a span when tracing is on.
TRACED_FUNCTIONS = [
    ("valleyfill.scenario", "build_case_study"),
    ("valleyfill.feasible", "make_pulse_set"),
    ("valleyfill.core", "aggregate"),
    ("valleyfill.feasible", "project_convex"),
    ("valleyfill.feasible", "hull_minimize"),
    ("valleyfill.feasible", "sample"),
    ("valleyfill.engine", "run"),
    ("valleyfill.engine", "load_draw"),
    ("valleyfill.engine", "coordinator_signal"),
    ("valleyfill.engine", "convex_load_update"),
    ("valleyfill.engine", "finite_load_update"),
    ("valleyfill.analysis", "is_nash"),
    ("valleyfill.analysis", "subopt_ratio_bound"),
    ("valleyfill.analysis", "convex_stationarity_residual"),
    ("valleyfill.cli", "main"),
    ("valleyfill.cli", "cmd_analyze"),
    ("valleyfill.cli", "profiles_from_csv"),
    ("valleyfill.netsim", "serve_coordinator"),
    ("valleyfill.netsim", "run_agent"),
]
# (defining module, class, method) triples wrapped in a span.
TRACED_METHODS = [("valleyfill.feasible", "FinitePulseSet", "member_index")]
# Profile constructions are counted, not spanned: there are tens of
# thousands per solve.
PROFILE_COUNT = "core.profiles_built"


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int
    thread: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class NullTracer:
    """Stands in for a Tracer in untraced runs: spans cost nothing."""

    def span(self, name, parent=None):
        return nullcontext(0)

    def current(self) -> int:
        return 0


class Tracer:
    """Span recorder with a thread-local stack of open spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    @contextmanager
    def span(self, name: str, parent: int = None):
        """Open a span; `parent` links a span opened on another thread."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end,
                                   threading.get_ident()))

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, start, end,
                                         threading.get_ident()))
        return traced

    def _counting(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counts[PROFILE_COUNT] += 1
            return fn(*args, **kwargs)
        return counted

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every traced function wherever a valleyfill module binds it.

        A name missing from the package is skipped, so its metrics read 0.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "valleyfill"
                                         or name.startswith("valleyfill."))]
        for module_name, attr in TRACED_FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapped = self._wrap(f"{module_name.split('.')[-1]}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        for module_name, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            if cls is not None and attr in vars(cls):
                self._set(cls, attr, self._wrap(
                    f"{module_name.split('.')[-1]}.{attr}", vars(cls)[attr]))
        profile = getattr(sys.modules.get("valleyfill.core"), "Profile", None)
        if profile is not None and "__post_init__" in vars(profile):
            self._set(profile, "__post_init__",
                      self._counting(vars(profile)["__post_init__"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """Write every span as one CSV row; called once, when the run ends."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["run_id", "span_id", "parent_id", "name", "thread",
                        "start_ns", "end_ns"])
            for s in sorted(self.spans, key=lambda s: s.id):
                w.writerow([self.run_id, s.id, s.parent, s.name, s.thread,
                            s.start_ns, s.end_ns])


class SpanTree:
    """Parent/child index over a tracer's spans."""

    def __init__(self, spans: Iterable[Span]):
        self.by_id: Dict[int, Span] = {}
        self.children: Dict[int, List[Span]] = defaultdict(list)
        for s in spans:
            self.by_id[s.id] = s
            self.children[s.parent].append(s)

    def under(self, root_ids: Iterable[int]) -> List[Span]:
        """Every span strictly below the given roots."""
        out: List[Span] = []
        todo = list(root_ids)
        while todo:
            for child in self.children.get(todo.pop(), ()):
                out.append(child)
                todo.append(child.id)
        return out

    def self_seconds(self, span: Span) -> float:
        """Duration minus the part of the span's interval its children cover."""
        intervals = sorted((max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns))
                           for c in self.children.get(span.id, ()))
        covered = 0
        reach = span.start_ns
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (span.end_ns - span.start_ns - covered) * 1e-9

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent)
        return False


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles; 0 with no samples."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def _signal_intervals_ms(tree: SpanTree, spans: List[Span], parent_name: str):
    """Gaps between successive coordinator signals, per enclosing loop span."""
    by_loop: Dict[int, List[int]] = defaultdict(list)
    for s in spans:
        if s.name == "engine.coordinator_signal":
            parent = tree.by_id.get(s.parent)
            if parent is not None and parent.name == parent_name:
                by_loop[parent.id].append(s.start_ns)
    out = {}
    for loop_id, starts in by_loop.items():
        starts.sort()
        out[loop_id] = [(b - a) * 1e-6 for a, b in zip(starts, starts[1:])]
    return out


def layer_metrics(tracer: Tracer, setups: List[dict], cycles: List[dict],
                  traced_solve_s: List[float], untraced_solve_s: List[float]):
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    `setups` holds the root span id of each traced set-up.  `cycles` holds
    {"solve": id, "analyze": id, "profiles": Profiles built in the solve,
    "finite_updates": finite loads x iterations} per traced cycle.
    Scenario metrics cover set-up, analysis and cli metrics the analysis,
    member_index both solve and analysis, and the rest the solve.  Counts
    come from the first set-up and cycle, so they repeat exactly for a
    seed; times are medians over all of them.
    """
    tree = SpanTree(tracer.spans)
    setup_spans = [tree.under([root]) for root in setups]
    solve_spans = [tree.under([c["solve"]]) for c in cycles]
    analyze_spans = [tree.under([c["analyze"]]) for c in cycles]
    cycle_spans = [a + b for a, b in zip(solve_spans, analyze_spans)]

    def count(name, groups=solve_spans):
        return sum(1 for s in groups[0] if s.name == name)

    def seconds(name, groups=solve_spans):
        return _median(sum(s.seconds for s in spans if s.name == name)
                       for spans in groups)

    def call_us(name):
        return [s.seconds * 1e6 for spans in solve_spans for s in spans
                if s.name == name]

    m = {}
    m["scenario.build_case_study_s"] = (seconds("scenario.build_case_study",
                                                setup_spans), "s")
    m["scenario.make_pulse_set_calls"] = (count("feasible.make_pulse_set",
                                                setup_spans), "count")
    m["core.profiles_built"] = (cycles[0]["profiles"], "count")
    m["core.aggregate_calls"] = (count("core.aggregate"), "count")
    m["core.aggregate_s"] = (seconds("core.aggregate"), "s")
    hull_us = call_us("feasible.hull_minimize")
    m["feasible.hull_minimize_calls"] = (count("feasible.hull_minimize"), "count")
    m["feasible.hull_minimize_s"] = (seconds("feasible.hull_minimize"), "s")
    m["feasible.hull_minimize_us_p50"] = (_percentile(hull_us, 50), "us")
    m["feasible.hull_minimize_us_p99"] = (_percentile(hull_us, 99), "us")
    m["feasible.project_convex_calls"] = (count("feasible.project_convex"), "count")
    m["feasible.project_convex_s"] = (seconds("feasible.project_convex"), "s")
    m["feasible.project_convex_us_p50"] = (
        _percentile(call_us("feasible.project_convex"), 50), "us")
    m["feasible.sample_calls"] = (count("feasible.sample"), "count")
    m["feasible.sample_s"] = (seconds("feasible.sample"), "s")
    m["feasible.member_index_calls"] = (count("feasible.member_index", cycle_spans),
                                        "count")
    m["feasible.member_index_s"] = (seconds("feasible.member_index", cycle_spans), "s")

    m["engine.run_self_s"] = (_median(
        sum(tree.self_seconds(s) for s in spans if s.name == "engine.run")
        for spans in solve_spans), "s")
    m["engine.load_draw_calls"] = (count("engine.load_draw"), "count")
    m["engine.load_draw_s"] = (seconds("engine.load_draw"), "s")
    solves = count("feasible.hull_minimize")
    updates = cycles[0]["finite_updates"]
    m["engine.hull_solves"] = (solves, "count")
    m["engine.finite_updates"] = (updates, "count")
    m["engine.hull_memo_hit_ratio"] = (1.0 - solves / updates if updates else 0.0,
                                       "ratio")
    iter1, later = [], []
    for spans in solve_spans:
        for gaps in _signal_intervals_ms(tree, spans, "engine.run").values():
            if gaps:
                iter1.append(gaps[0])
                later.extend(gaps[1:])
    m["engine.iter1_ms"] = (_median(iter1), "ms")
    m["engine.iter_ms_p50"] = (_median(later), "ms")

    handshakes, rounds, agent_s, session_s, shares = [], [], [], [], []
    for c, spans in zip(cycles, solve_spans):
        sessions = [s for s in spans if s.name == "netsim.serve_coordinator"]
        if not sessions:
            continue
        gaps = _signal_intervals_ms(tree, spans, "netsim.serve_coordinator")
        for session in sessions:
            signals = [s.start_ns for s in tree.children[session.id]
                       if s.name == "engine.coordinator_signal"]
            if signals:
                handshakes.append((min(signals) - session.start_ns) * 1e-9)
            rounds.extend(gaps.get(session.id, []))
        busy = sum(s.seconds for s in spans
                   if s.name in ("engine.convex_load_update",
                                 "engine.finite_load_update")
                   and tree.has_ancestor(s, "netsim.run_agent"))
        total = tree.by_id[c["solve"]].seconds
        agent_s.append(busy)
        session_s.append(total)
        shares.append(busy / total)
    m["netsim.handshake_s"] = (_median(handshakes), "s")
    m["netsim.round_ms_p50"] = (_percentile(rounds, 50), "ms")
    m["netsim.round_ms_p99"] = (_percentile(rounds, 99), "ms")
    m["netsim.agent_update_s"] = (_median(agent_s), "s")
    m["netsim.session_s"] = (_median(session_s), "s")
    m["netsim.agent_share"] = (_median(shares), "ratio")

    m["analysis.is_nash_s"] = (seconds("analysis.is_nash", analyze_spans), "s")
    m["analysis.subopt_ratio_bound_s"] = (
        seconds("analysis.subopt_ratio_bound", analyze_spans), "s")
    m["analysis.convex_stationarity_residual_s"] = (
        seconds("analysis.convex_stationarity_residual", analyze_spans), "s")
    m["cli.profiles_from_csv_s"] = (seconds("cli.profiles_from_csv", analyze_spans), "s")
    m["cli.cmd_analyze_self_s"] = (_median(
        sum(tree.self_seconds(s) for s in spans if s.name == "cli.cmd_analyze")
        for spans in analyze_spans), "s")
    m["trace.overhead"] = (_median(traced_solve_s) / _median(untraced_solve_s)
                           if untraced_solve_s else 0.0, "ratio")
    return m
