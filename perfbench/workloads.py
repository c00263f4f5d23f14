"""The benchmark's workloads: inputs built from a seed, the timed solve,
the timed analysis of its final profiles, and the output checks.

The program receives only the built LoadSpecs, base profile, engine
configuration and (for the CLI path) a manifest.  Every solve runs a
fixed iteration count (``stop_on_epsilon=False``), so a change to
convergence cannot pass as a speed-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import socket
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from valleyfill import analysis, cli, core, engine, netsim, scenario
from valleyfill.core import Profile
from valleyfill.engine import EngineConfig, LoadSpec
from valleyfill.feasible import ConvexChargeSet
from valleyfill.scenario import BaseLoadSpec, FleetSpec, HeterogeneitySpec, SynthParams

import checks

GRID = scenario.CANONICAL_GRID
SEED_MASK = 0xFFFFFFFFFFFFFFFF
# Socket timeout of a networked session; a lost agent fails the solve
# well inside the benchmark's own time limit.
NET_TIMEOUT = 10.0


@dataclass
class Case:
    """One workload's built inputs."""

    b: Profile
    loads: List[LoadSpec]
    cfg: EngineConfig
    extra: Dict[str, Any] = field(default_factory=dict)

    def sizes(self) -> Dict[str, int]:
        finite = [spec.constraint.m for spec in self.loads if spec.is_finite]
        return {"n": len(self.loads), "m": max(finite, default=0),
                "S": self.b.grid.slots, "iterations": self.cfg.max_iterations}


def _nash_and_ratio(base: Profile, xs, sets):
    """Library form of ``valleyfill analyze --checks nash,ratio``."""
    value = core.norm2(core.aggregate(base, xs))
    report = analysis.is_nash(xs, sets, base, 1e-9 * (1 + abs(value)))
    bound = analysis.subopt_ratio_bound(sets, base)
    return (0 if report.is_equilibrium else 1, report.worst_violation,
            report.violating_load, bound.ratio_bound)


class Workload:
    name = ""
    iterations = 0
    # Fleets an untraced run solves in turn: --seed's own, then fleets of
    # seeds drawn from it. Hull work differs by up to 20 % between seeds,
    # and a run that spreads its solves over several fleets averages that.
    fleets = 4

    def fleet_seeds(self, seed: int) -> List[int]:
        drawn = np.random.SeedSequence(seed & SEED_MASK).generate_state(self.fleets - 1)
        return [seed] + [int(s) for s in drawn]

    def setup(self, seed: int) -> Case:
        raise NotImplementedError

    def prepare(self, case: Case, workdir: str) -> None:
        """Untimed work done once per run, after set-up."""

    def solve(self, case: Case, tracer):
        return engine.run(case.loads, case.b, case.cfg)

    def check_solve(self, case: Case, traj) -> List[str]:
        errors = checks.check_objectives(case.loads, case.b.values,
                                         case.b.grid.dt, traj)
        errors += checks.check_members(case.loads, traj)
        if case.cfg.record_diagnostics:
            errors += checks.check_expected_descent(traj)
        return errors

    def prepare_analyze(self, case: Case, traj, workdir: str):
        """Untimed input of the analysis step, built from the final profiles."""
        return traj.final_profiles

    def analyze(self, case: Case, prepared):
        return _nash_and_ratio(case.b, list(prepared), [s.constraint for s in case.loads])

    def check_analyze(self, case: Case, traj, result) -> List[str]:
        status, worst, violator, ratio = result
        return checks.check_nash_report(
            case.b.values, case.b.grid.dt, case.b.grid.horizon_hours, case.loads,
            checks.profile_matrix(traj.final_profiles), status, worst, violator, ratio)


class EvShared(Workload):
    """The canonical case study: 1000 identical EVs sharing one pulse set."""

    name = "ev-shared"
    iterations = 20

    def setup(self, seed):
        b, loads = scenario.build_case_study(
            FleetSpec(households=1000, penetration=1.0),
            BaseLoadSpec(synth=SynthParams()), GRID, seed=seed)
        cfg = EngineConfig(max_iterations=self.iterations, master_seed=seed,
                           stop_on_epsilon=False, record_diagnostics=True)
        return Case(b, loads, cfg, {"seed": seed})

    def prepare(self, case, workdir):
        # Only keys that README documents, so the CLI builds the same fleet.
        manifest = {"grid": {"horizon_hours": GRID.horizon_hours, "slots": GRID.slots},
                    "fleet": {"households": 1000, "penetration": 1.0},
                    "engine": {"master_seed": case.extra["seed"]}}
        case.extra["manifest"] = os.path.join(workdir, "manifest.json")
        with open(case.extra["manifest"], "w") as fh:
            json.dump(manifest, fh)

    def prepare_analyze(self, case, traj, workdir):
        path = os.path.join(workdir, "final_profiles.csv")
        cli.profiles_to_csv(case.loads, traj.final_profiles, path)
        return ["analyze", path, "--manifest", case.extra["manifest"],
                "--checks", "nash,ratio"]

    def analyze(self, case, prepared):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(prepared)
        return status, out.getvalue(), err.getvalue()

    def check_analyze(self, case, traj, result):
        status, stdout, stderr = result
        fields = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
        try:
            worst = float(fields["worst_violation"])
            violator = None if fields["violating_load"] == "None" else int(fields["violating_load"])
            ratio = float(fields["ratio_bound"])
        except (KeyError, ValueError):
            return [f"analyze exit {status}: unparsable report {stdout!r} {stderr!r}"]
        return super().check_analyze(case, traj, (status, worst, violator, ratio))


class EvHetero(Workload):
    """50 jittered EVs, one pulse set each, diagnostics off."""

    name = "ev-hetero"
    iterations = 20

    def setup(self, seed):
        fleet = FleetSpec(households=50, penetration=1.0,
                          heterogeneity=HeterogeneitySpec((0.9, 1.1), (0.9, 1.1)))
        b, loads = scenario.build_case_study(fleet, BaseLoadSpec(synth=SynthParams()),
                                             GRID, seed=seed)
        cfg = EngineConfig(max_iterations=self.iterations, master_seed=seed,
                           stop_on_epsilon=False, record_diagnostics=False)
        return Case(b, loads, cfg)


def _ev_like_convex_load(load_id: int, rng: np.random.Generator) -> LoadSpec:
    """3.3 kW +-10 % caps inside a random plug-in window of 6-16 h, ~4 h of energy."""
    rate = 3.3 * float(rng.uniform(0.9, 1.1))
    width = int(rng.integers(24, 65))
    first = int(rng.integers(0, GRID.slots - width + 1))
    caps = np.zeros(GRID.slots)
    caps[first:first + width] = rate
    energy = rate * 4.0 * float(rng.uniform(0.9, 1.1))
    return LoadSpec(load_id, ConvexChargeSet(Profile(caps, GRID), energy))


class ConvexFleet(Workload):
    """1000 EV-like convex loads: projection does the work, the hull none."""

    name = "convex-fleet"
    iterations = 5
    households = 1000

    def setup(self, seed):
        rng = np.random.default_rng([seed & SEED_MASK, 1])
        b = Profile(scenario.default_baseload(GRID).values * self.households, GRID)
        loads = [_ev_like_convex_load(i, rng) for i in range(self.households)]
        cfg = EngineConfig(max_iterations=self.iterations, master_seed=seed,
                           stop_on_epsilon=False, record_diagnostics=True)
        return Case(b, loads, cfg)

    def check_solve(self, case, traj):
        return (checks.check_objectives(case.loads, case.b.values, case.b.grid.dt, traj)
                + checks.check_convex_members(case.loads, traj)
                + checks.check_monotone(traj))

    def analyze(self, case, prepared):
        return analysis.convex_stationarity_residual(case.loads, list(prepared), case.b)

    def check_analyze(self, case, traj, result):
        return checks.check_stationarity(case.loads, case.b.values, case.b.grid.dt,
                                         traj, result)


def _free_endpoint():
    s = socket.socket()
    try:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()
    finally:
        s.close()


class NetLoopback(Workload):
    """One convex load and one canonical EV over loopback TCP, 1000 rounds.

    The fleet is fixed and the seed picks the EV's draws, as in ev-shared.
    Against the full 1000-household base the EV's sampling distribution is
    degenerate every round, so every seed gives the same trajectory and
    the same solver work: the workload measures the transport.
    """

    name = "net-loopback"
    iterations = 1000
    agents = 2
    fleets = 1          # the trajectory is the same for every seed

    def setup(self, seed):
        nproc = os.cpu_count() or 1
        if nproc < self.agents:
            raise RuntimeError(f"net-loopback opens {self.agents} agent connections "
                               f"and needs as many CPUs; this machine has {nproc}")
        b, evs = scenario.build_case_study(            # one EV among 1000 households
            FleetSpec(households=1000, penetration=0.001),
            BaseLoadSpec(synth=SynthParams()), GRID, seed=seed)
        ev = evs[0].constraint
        # The EV's convex relaxation: its rate in every slot it can charge in.
        relaxed = ConvexChargeSet(Profile(ev.members.max(axis=0), GRID), ev.energy)
        loads = [LoadSpec(0, relaxed), LoadSpec(1, ev)]
        cfg = EngineConfig(max_iterations=self.iterations, master_seed=seed,
                           stop_on_epsilon=False, record_diagnostics=False)
        return Case(b, loads, cfg)

    def prepare(self, case, workdir):
        case.extra["reference"] = engine.run(case.loads, case.b, case.cfg)

    def solve(self, case, tracer):
        endpoint = _free_endpoint()
        roster = [netsim.RosterEntry(s.id, s.is_finite, s.c) for s in case.loads]
        errors: List[str] = []
        parent = tracer.current()

        def agent(spec):
            with tracer.span("bench.agent", parent=parent):
                try:
                    status = netsim.run_agent(spec, case.cfg.master_seed, endpoint,
                                              timeout=NET_TIMEOUT)
                except Exception as exc:  # reported as this solve's failure
                    errors.append(f"agent {spec.id}: {exc!r}")
                    return
                if status != 0:
                    errors.append(f"agent {spec.id} exited with status {status}")

        threads = [threading.Thread(target=agent, args=(spec,), daemon=True)
                   for spec in case.loads]
        for t in threads:
            t.start()
        try:
            traj = netsim.serve_coordinator(case.b, roster, case.cfg, endpoint,
                                            timeout=NET_TIMEOUT)
        finally:
            for t in threads:
                t.join(2 * NET_TIMEOUT)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("an agent thread did not finish")
        if errors:
            raise RuntimeError("; ".join(errors))
        return traj

    def check_solve(self, case, traj):
        return checks.check_same_trajectory(traj, case.extra["reference"])

    def prepare_analyze(self, case, traj, workdir):
        """The base the EV answers to: b plus the convex load's final profile."""
        return Profile(case.b.values + traj.final_profiles[0].values, case.b.grid)

    def analyze(self, case, prepared):
        """Nash and ratio check of every admissible EV profile against that base.

        Checking all members, not just the final one, keeps the cost the
        same for every seed.
        """
        ev = case.loads[1].constraint
        return [_nash_and_ratio(prepared, [ev.member(k)], [ev]) for k in range(ev.m)]

    def check_analyze(self, case, traj, result):
        base = self.prepare_analyze(case, traj, None)
        ev = case.loads[1]
        errors = []
        for k, report in enumerate(result):
            errors += checks.check_nash_report(
                base.values, base.grid.dt, base.grid.horizon_hours, [ev],
                ev.constraint.members[k:k + 1], *report)
        return errors


WORKLOADS = {w.name: w for w in (EvShared(), EvHetero(), ConvexFleet(), NetLoopback())}
