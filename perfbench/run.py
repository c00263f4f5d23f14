"""valleyfill benchmark: one workload per run, or every workload in turn.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ev-shared --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The workload's inputs are built from --seed.  The run repeats cycles of
timed set-ups, one solve and the analysis of its final profiles for
--seconds, checking every output.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it patches the package's public
functions with spans and reports per-layer metrics instead.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("ev-shared", "ev-hetero", "convex-fleet", "net-loopback")
# All load comes from this one process; its BLAS and OpenMP pools are
# pinned to one thread before numpy is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Timed set-ups per cycle, spread over the run like every other sample so
# that a slow spell of the machine at start-up does not decide setup_s.
SETUPS_PER_CYCLE = 3
# Traced set-ups at the start of a traced run.
TRACED_SETUPS = 3
# Each cycle repeats the analysis until this much time is spent on it, so
# short analyses give many samples.
ANALYZE_MIN_S = 0.25
# How the run's samples of each timing make its metric.
AGGREGATES = {"setup_s": "median", "updates_per_s": "total rate", "analyze_s": "mean"}
# Failure messages kept per run and printed to stderr.
MAX_MESSAGES = 20
# A child workload run in --workload all is stopped after this long.
CHILD_TIMEOUT_S = 600


class Ledger:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, what, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            room = MAX_MESSAGES - len(self.messages)
            self.messages.extend(f"{what}: {e}" for e in errors[:max(room, 0)])
        return not errors

    def run(self, what, fn, *args):
        """Call fn; an exception counts as a failed operation."""
        try:
            return True, fn(*args)
        except Exception as exc:  # the benchmark keeps measuring
            self.record(what, [repr(exc)])
            return False, None


def median(values):
    return float(statistics.median(values)) if values else 0.0


def provenance(workload, case, seed, trace):
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"workload": workload.name, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "cpu": cpu,
            "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else None,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "commit": commit, "sizes": case.sizes()}


def golden_status(workload, seed, digest):
    path = BENCH_DIR / "golden.json"
    golden = json.loads(path.read_text()).get(workload, {}) if path.exists() else {}
    expected = golden.get(str(seed))
    if expected is None:
        return "no golden value for this seed"
    return "matches golden" if expected == digest else f"MISMATCH, golden {expected}"


class Run:
    """One workload's measurement: operations, their checks and samples."""

    def __init__(self, workload, seed, seconds, workdir):
        from tracing import NullTracer

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.ledger = Ledger()
        self.digests = {}                 # master seed -> digest of each solve
        self.null = NullTracer()

    def solve(self, case, tracer):
        """One checked solve; returns (trajectory or None, wall seconds)."""
        import checks

        t0 = time.perf_counter()
        ok, traj = self.ledger.run("solve", self.workload.solve, case, tracer)
        wall = time.perf_counter() - t0
        if ok and self.ledger.record("solve", self.workload.check_solve(case, traj)):
            self.digests.setdefault(case.cfg.master_seed, []).append(checks.digest(traj))
            return traj, wall
        return None, wall

    def analyze(self, case, traj, prepared):
        """One checked analysis; returns its wall seconds, or None on failure."""
        t0 = time.perf_counter()
        ok, result = self.ledger.run("analyze", self.workload.analyze, case, prepared)
        wall = time.perf_counter() - t0
        if ok and self.ledger.record("analyze",
                                     self.workload.check_analyze(case, traj, result)):
            return wall
        return None

    def cycles(self):
        """Yield cycle numbers until --seconds have passed, at least once."""
        start = time.perf_counter()
        cycle = 0
        while cycle == 0 or time.perf_counter() - start < self.seconds:
            yield cycle
            cycle += 1

    def untraced(self):
        """End-to-end metrics from timings at reference speed (see reference.py).

        setup_s is the median set-up; updates_per_s is all updates over the
        total solve time and analyze_s the mean analysis. A run has only a
        dozen or so solves and analyses, and their total moved less with the
        run's share of slow machine time than their median did.
        """
        from reference import Reference

        fleets = []
        for k, seed in enumerate(self.workload.fleet_seeds(self.seed)):
            case = self.workload.setup(seed)
            workdir = os.path.join(self.workdir, f"fleet{k}")
            os.mkdir(workdir)
            self.workload.prepare(case, workdir)
            fleets.append((case, workdir))
        ref = Reference()
        setup_s, rates, analyze_s = [], [], []
        raw = {"setup_s": [], "updates_per_s": [], "analyze_s": []}

        def keep(name, walls, values):
            """Scale the walls of the block just ended; keep raw and scaled values."""
            scale = ref.scale()
            raw[name].extend(walls)
            values.extend(wall * scale for wall in walls)

        for cycle in self.cycles():
            walls = []
            for _ in range(SETUPS_PER_CYCLE):
                t0 = time.perf_counter()
                self.workload.setup(self.seed)
                walls.append(time.perf_counter() - t0)
            keep("setup_s", walls, setup_s)
            case, workdir = fleets[cycle % len(fleets)]
            traj, wall = self.solve(case, self.null)
            scale = ref.scale()
            if traj is None:
                continue
            updates = len(case.loads) * len(traj.records)
            raw["updates_per_s"].append(updates / wall)
            rates.append(updates / (wall * scale))
            prepared = self.workload.prepare_analyze(case, traj, workdir)
            walls = []
            while sum(walls) < ANALYZE_MIN_S:
                wall = self.analyze(case, traj, prepared)
                if wall is None:
                    break
                walls.append(wall)
            keep("analyze_s", walls, analyze_s)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"setup_s": (median(setup_s), "s"),
                   # Every solve makes the same updates: their total over the total time.
                   "updates_per_s": (statistics.harmonic_mean(rates) if rates else 0.0,
                                     "updates/s"),
                   "analyze_s": (statistics.fmean(analyze_s) if analyze_s else 0.0, "s"),
                   "peak_rss_mb": (peak_kb / 1024.0, "MB")}
        samples = {"setup_s": setup_s, "updates_per_s": rates, "analyze_s": analyze_s,
                   "raw": raw, "reference_chunk_s": ref.samples}
        return metrics, samples, fleets[0][0]

    def traced(self, run_id):
        """Per-layer metrics from spans; each cycle also times an untraced solve."""
        from tracing import PROFILE_COUNT, Tracer, layer_metrics

        tracer = Tracer(run_id)
        setups, cycles, traced_s, untraced_s = [], [], [], []
        for _ in range(TRACED_SETUPS):
            with tracer.installed(), tracer.span("bench.setup") as root:
                case = self.workload.setup(self.seed)
            setups.append(root)
        self.workload.prepare(case, self.workdir)
        for _ in self.cycles():
            traj, wall = self.solve(case, self.null)
            if traj is None:
                continue
            untraced_s.append(wall)
            before = tracer.counts[PROFILE_COUNT]
            with tracer.installed(), tracer.span("bench.solve") as solve_root:
                traj, wall = self.solve(case, tracer)
            if traj is None:
                continue
            traced_s.append(wall)
            profiles = tracer.counts[PROFILE_COUNT] - before
            prepared = self.workload.prepare_analyze(case, traj, self.workdir)
            with tracer.installed(), tracer.span("bench.analyze") as analyze_root:
                self.analyze(case, traj, prepared)
            cycles.append({"solve": solve_root, "analyze": analyze_root,
                           "profiles": profiles,
                           "finite_updates": len(traj.records) * sum(
                               spec.is_finite for spec in case.loads)})
        tracer.write(OUT_DIR / f"trace-{self.workload.name}-seed{self.seed}-{run_id}.csv")
        metrics = (layer_metrics(tracer, setups, cycles, traced_s, untraced_s)
                   if cycles else {})
        samples = {"traced_solve_s": traced_s, "untraced_solve_s": untraced_s}
        return metrics, samples, case


def pin_one_cpu():
    """Run this process and its threads on one CPU.

    The reference then gauges the CPU the work runs on, and the thread
    hand-offs of net-loopback stay on it. Spread over a shared VM's two
    vCPUs they waited on the other vCPU's wake-up latency, which changed
    the session's rate 2x between runs while the reference moved 15 %.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args):
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    run_id = f"{os.getpid()}-{time.time_ns()}"
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{run_id}"
    workdir.mkdir()
    run = Run(workload, args.seed, args.seconds, str(workdir))
    try:
        metrics, samples, case = run.traced(run_id) if args.trace else run.untraced()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = run.ledger
    for seed, digests in run.digests.items():
        if len(set(digests)) > 1:
            ledger.record("determinism", [f"repeated solves of the fleet of seed {seed} "
                                          f"gave digests {sorted(set(digests))}"])
    digest = run.digests.get(args.seed, [None])[0]

    prov = provenance(workload, case, args.seed, args.trace)
    print(f"# valleyfill benchmark: workload={workload.name} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    print("provenance " + json.dumps(prov))
    for name, (value, unit) in metrics.items():
        count = (f"{AGGREGATES[name]} of {len(samples[name])} at reference speed, "
                 f"raw median {median(samples['raw'][name]):.6g}"
                 if name in samples else "")
        print(f"{workload.name:<13} {name:<42} {value:>16.6g} {unit:<10} {count}")
    rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"{workload.name:<13} {'error_rate':<42} {rate:>16.6g} "
          f"failed/attempted ({ledger.failed}/{ledger.attempted})")
    print(f"{workload.name:<13} {'trajectory_digest':<42} {digest} "
          f"({golden_status(workload.name, args.seed, digest)})")
    for message in ledger.messages:
        print(f"FAILED {message}", file=sys.stderr)
    with open(OUT_DIR / f"result-{workload.name}-seed{args.seed}-{run_id}.json", "w") as fh:
        json.dump({"provenance": prov, "metrics": metrics, "samples": samples,
                   "digest": digest, "attempted": ledger.attempted,
                   "failed": ledger.failed, "messages": ledger.messages}, fh)
    print(json.dumps({"correct": ledger.failed == 0 and bool(metrics),
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "valleyfill" / "__init__.py").is_file():
        print(f"error: no valleyfill package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    pin_one_cpu()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
