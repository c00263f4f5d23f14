"""Command-line entry point.

Commands: ``run``, ``experiment``, ``analyze``, ``coordinator``, ``agent``,
``fleet-gen``.  Configuration lives in a JSON manifest; common flags
(--seed, --iterations, --epsilon, --penetration, --out) override the
manifest one-to-one.  All outputs are CSV or key=value text; plotting is
left to external tools.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, netsim
from .core import (Objective, Profile, TimeGrid, _flag, _items, _number, _number_text,
                   aggregate, norm, norm2)
from .engine import EngineConfig, LoadSpec, Trajectory, run
from .scenario import (BaseLoadSpec, FleetSpec, HeterogeneitySpec, SynthParams,
                       build_case_study)

__all__ = ["main", "load_manifest", "cmd_run", "cmd_experiment", "cmd_analyze"]

CHECKS = ("nash", "gap", "ratio")

DEFAULT_MANIFEST = {
    "grid": {"horizon_hours": 24.0, "slots": 96},
    "fleet": {"households": 1000, "penetration": 1.0},
    "baseload": {"synth": {}},
    "engine": {"epsilon": 1e-6, "max_iterations": 20, "master_seed": 0},
    "objective": {"kind": "flatten"},
    "out": "out",
    "emit": {"trajectory": True, "profiles": True, "report": True},
}


class InputError(ValueError):
    """Malformed manifest, fleet, base load, profiles CSV, flag or load id (exit 2)."""


@dataclass(frozen=True)
class Manifest:
    """A checked manifest: each section converted to what it configures."""

    grid: TimeGrid
    fleet: FleetSpec
    baseload: BaseLoadSpec
    engine: EngineConfig
    objective: Objective
    out: str
    emit: Dict[str, bool]


def load_manifest(path: Optional[str], overrides: argparse.Namespace) -> Manifest:
    """DEFAULT_MANIFEST updated section by section from the file, then the flags.

    Every section is checked; a malformed one raises InputError.
    """
    manifest = json.loads(json.dumps(DEFAULT_MANIFEST))  # deep copy
    if path:
        with open(path) as fh:
            try:
                user = json.load(fh)
            except ValueError as exc:  # also an integer past Python's digit limit
                raise InputError(f"manifest {path} is not JSON: {exc}") from None
        if not isinstance(user, dict):
            raise InputError(f"manifest must be an object, got {user!r}")
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(manifest.get(key), dict):
                manifest[key].update(value)
            else:
                manifest[key] = value
    for section, key, flag in (("engine", "master_seed", "seed"),
                               ("engine", "max_iterations", "iterations"),
                               ("engine", "epsilon", "epsilon"),
                               ("fleet", "penetration", "penetration")):
        value = getattr(overrides, flag, None)
        # a section that is not an object is rejected below
        if value is not None and isinstance(manifest.get(section), dict):
            manifest[section][key] = value
    if getattr(overrides, "out", None) is not None:
        manifest["out"] = overrides.out
    parts = _fields(manifest, _MANIFEST_KEYS, "manifest")
    grid = parts["grid"]
    target = ("target", lambda v: Profile(_items(_number, grid.slots)(v), grid))
    parts["objective"] = _section(Objective, parts["objective"],
                                  {"kind": "kind", "target": target}, "objective")
    return Manifest(**parts)


def _jitter(value) -> Tuple[float, float]:
    """A jitter j stands for the multiplier range (1 - j, 1 + j)."""
    j = _number(value)
    if not 0.0 <= j < 1.0:
        raise ValueError("must be in [0, 1)")
    return (1.0 - j, 1.0 + j)


def _fields(section, keys: dict, where: str) -> dict:
    """Convert a manifest section to keyword arguments.

    `keys` maps each accepted key to the field it sets, whose spec checks
    the value, or to (field, converter) for a form the spec does not take.
    A section that is not an object, unknown keys, two keys for one field
    and values a converter rejects raise InputError; a bad value reads
    ``bad <where>: <key> must be <want>, got <value>``.
    """
    if not isinstance(section, dict):  # `where` is <section>.<key> or a top-level key
        parent, _, key = where.rpartition(".")
        raise InputError(f"bad {parent or 'manifest'}: {key} must be an object, "
                         f"got {section!r}")
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise InputError(f"unknown {where} key(s) {unknown}; "
                         f"expected some of {sorted(keys)}")
    out = {}
    for key, value in section.items():
        field, convert = (keys[key], None) if isinstance(keys[key], str) else keys[key]
        if field in out:
            raise InputError(f"{where} sets {field} twice (key {key!r})")
        try:
            out[field] = value if convert is None else convert(value)
        except InputError:
            raise
        except (TypeError, ValueError) as exc:  # core's rules raise `must be <want>`
            raise InputError(f"bad {where}: {key} {exc}, got {value!r}") from None
    return out


def _section(cls, section, keys: dict, where: str):
    """`cls` built from a manifest section; its own checks raise InputError too."""
    fields = _fields(section, keys, where)
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad {where}: {exc}") from None


_GRID_KEYS = {key: key for key in ("horizon_hours", "slots")}

_HETEROGENEITY_KEYS = {"rate_jitter": ("rate_range", _jitter), "rate_range": "rate_range",
                       "duration_jitter": ("duration_range", _jitter),
                       "duration_range": "duration_range"}


def _heterogeneity(section) -> Optional[HeterogeneitySpec]:
    """None for `{}` (identical EVs, one shared set); a value that is not an
    object is rejected as any section's is."""
    if section == {}:
        return None
    return _section(HeterogeneitySpec, section, _HETEROGENEITY_KEYS,
                    "fleet.heterogeneity")


# Fleet keys, README's names and FleetSpec's, with the field each sets.
_FLEET_KEYS = {"households": "households", "penetration": "penetration",
               "charger_kw": "ev_rate", "ev_rate": "ev_rate",
               "charge_hours": "ev_duration_hours",
               "ev_duration_hours": "ev_duration_hours",
               "start_window": "start_window",
               "heterogeneity": ("heterogeneity", _heterogeneity)}

_SYNTH_KEYS = {key: key for key in ("evening_peak_kw", "morning_peak_kw", "valley_kw",
                                    "peak_slots")}

_BASELOAD_KEYS = {"csv": "csv_path",
                  "synth": ("synth", lambda s: _section(SynthParams, s, _SYNTH_KEYS,
                                                        "baseload.synth")),
                  "per_household_scale": "per_household_scale"}


def _baseload(section) -> BaseLoadSpec:
    fields = _fields(section, _BASELOAD_KEYS, "baseload")
    if "csv_path" in fields:  # a CSV takes precedence over the default synth
        fields.pop("synth", None)
    try:  # the default synth leaves exactly one source
        return BaseLoadSpec(**fields)
    except ValueError as exc:
        raise InputError(f"bad baseload: {exc}") from None


def _out(value) -> str:
    """The output directory: a non-empty string, so no command works for nothing."""
    if not (isinstance(value, str) and value):
        raise ValueError("must be a non-empty string")
    return value


_ENGINE_KEYS = {key: key for key in ("epsilon", "max_iterations", "master_seed")}

_EMIT_KEYS = {key: (key, _flag) for key in ("trajectory", "profiles", "report")}

# Top-level keys; the objective's target needs the grid, so load_manifest
# builds the Objective from its section.
_MANIFEST_KEYS = {
    "grid": ("grid", lambda s: _section(TimeGrid, s, _GRID_KEYS, "grid")),
    "fleet": ("fleet", lambda s: _section(FleetSpec, s, _FLEET_KEYS, "fleet")),
    "baseload": ("baseload", _baseload),
    "engine": ("engine", lambda s: _section(EngineConfig, s, _ENGINE_KEYS, "engine")),
    "objective": "objective",
    "out": ("out", _out),
    "emit": ("emit", lambda s: _fields(s, _EMIT_KEYS, "emit")),
}


def _scenario(manifest: Manifest, seed: Optional[int] = None,
              penetration: Optional[float] = None
              ) -> Tuple[Profile, Profile, List[LoadSpec]]:
    """The raw base load b, the game's base and the fleet.

    The game's base is b with the objective folded in (b itself for
    `flatten`, b - target for `track`); every command solves and checks
    the game on it.  Seed and penetration default to the manifest's.  A
    fleet or base load that cannot be built raises InputError.
    """
    fleet = manifest.fleet
    if penetration is not None:
        fleet = dataclasses.replace(fleet, penetration=penetration)
    if seed is None:
        seed = manifest.engine.master_seed
    try:
        b, loads = build_case_study(fleet, manifest.baseload, manifest.grid, seed=seed)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return b, manifest.objective.effective_base(b), loads


def _endpoint(text: str) -> Tuple[str, int]:
    """`host:port` from --endpoint, with the port in 1-65535."""
    host, _, port = text.rpartition(":")
    if host and port.isascii() and port.isdigit() and 1 <= int(port) <= 65535:
        return host, int(port)
    raise InputError(f"--endpoint must be host:port, port 1-65535, got {text!r}")


def profiles_to_csv(loads: Sequence[LoadSpec], profiles: Sequence[Profile],
                    path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for spec, p in zip(loads, profiles):
            w.writerow([spec.id] + [repr(float(v)) for v in p.values])


# Lines one `np.loadtxt` call parses: enough that the per-call cost is
# small next to the parse, few enough to bound the text held at once.
_CHUNK_LINES = 4096


def profiles_from_csv(path, grid: TimeGrid) -> Tuple[List[int], np.ndarray]:
    """Load ids in file order and their values as one (n, S) float64 array,
    from `id,v1..vS` rows; blank lines are skipped.

    Values parse with `np.loadtxt`, 4096 lines a call, which rejects digit
    separators, non-ASCII digits and quotes; each call's rows are checked
    for length and finiteness at once.  Only a chunk that fails is parsed
    again line by line, so a row that does not parse, has the wrong length,
    holds a non-finite value or repeats an id raises InputError naming its
    line, and a value that does not parse also its CSV column.  A byte that
    is not UTF-8 is read as a lone surrogate, which no number holds, so its
    row does not parse.
    """
    ids: List[int] = []
    seen = set()
    blocks = []
    with open(path, newline="", errors="surrogateescape") as fh:
        lines = ((n, line.rstrip("\r\n").partition(",")) for n, line in enumerate(fh, 1)
                 if line.strip("\r\n"))
        while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
            tails = [tail for _, (_, _, tail) in chunk]
            rows = None
            if all(tails):  # loadtxt would skip an empty tail
                with contextlib.suppress(ValueError):
                    rows = np.loadtxt(tails, delimiter=",", comments=None, ndmin=2)
            parsed = (rows is not None and rows.shape == (len(chunk), grid.slots)
                      and np.isfinite(rows).all())
            if not parsed:  # each line alone, as a Profile, to name the first bad one
                rows = np.empty((len(chunk), grid.slots))
            for k, (n, (head, _, tail)) in enumerate(chunk):
                try:
                    load_id = int(_number_text(head))
                    if not parsed:
                        rows[k] = Profile(_line_values(tail), grid).values
                except ValueError as exc:
                    raise InputError(f"{path}: line {n}: {exc}") from None
                if load_id in seen:
                    raise InputError(f"{path}: line {n}: load {load_id} appears twice")
                seen.add(load_id)
                ids.append(load_id)
            blocks.append(rows)
    return ids, np.concatenate(blocks) if blocks else np.empty((0, grid.slots))


def _line_values(tail: str) -> np.ndarray:
    """The values after one profiles line's id, as `np.loadtxt` parses them.

    A value it rejects raises ValueError naming its CSV column (the id is
    column 0); `np.loadtxt`'s own row and column count within its call.
    """
    try:
        return np.loadtxt([tail], delimiter=",", comments=None, ndmin=1) if tail else np.empty(0)
    except ValueError:
        fields = tail.split(",")
        column = next(c for c, text in enumerate(fields, 1) if not _is_value(text))
        raise ValueError(f"column {column}: could not convert {fields[column - 1]!r} "
                         "to a number") from None


def _is_value(text: str) -> bool:
    """Whether `np.loadtxt` reads `text` as one value of a line (an empty value is
    none, though alone it reads as a line without data)."""
    try:
        return bool(text) and np.loadtxt([text], delimiter=",", comments=None).size == 1
    except ValueError:
        return False


def _write_artifacts(manifest: Manifest, loads: Sequence[LoadSpec], base: Profile,
                     traj: Optional[Trajectory]) -> None:
    """trajectory.csv, final_profiles.csv and report.txt, as `emit` selects.

    `base` is the game's base and `traj` the run on it (None without loads).
    """
    out = manifest.out
    os.makedirs(out, exist_ok=True)
    emit = manifest.emit
    if traj is not None and emit["trajectory"]:
        _write_csv(os.path.join(out, "trajectory.csv"),
                   ["k", "signal_norm", "objective", "escape_probability",
                    "expected_next_objective", "profiles_changed"],
                   ([rec.k, repr(norm(rec.g)), repr(rec.objective),
                     repr(rec.escape_probability), repr(rec.expected_next_objective),
                     rec.profiles_changed] for rec in traj.records))
    if traj is not None and emit["profiles"]:
        profiles_to_csv(loads, traj.final_profiles,
                        os.path.join(out, "final_profiles.csv"))
    if not emit["report"]:
        return
    if traj is None:
        final_objective, iterations, terminated, escape_last = (
            norm2(base), 0, "no_loads", 0.0)
    else:
        last = traj.records[-1]
        final_objective, iterations, terminated, escape_last = (
            last.objective, len(traj.records), traj.terminated_by.value,
            last.escape_probability)
    sets = [s.constraint for s in loads if s.is_finite]
    try:
        ratio = analysis.subopt_ratio_bound(sets, base).ratio_bound if sets else 0.0
    except ValueError:
        ratio = float("nan")
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(f"objective={final_objective!r}\n")
        fh.write(f"iterations={iterations}\n")
        fh.write(f"terminated_by={terminated}\n")
        fh.write(f"final_escape_probability={escape_last!r}\n")
        fh.write(f"ratio_bound={ratio!r}\n")
        fh.write(f"n_loads={len(loads)}\n")


def cmd_run(args) -> int:
    manifest = load_manifest(args.manifest, args)
    _, base, loads = _scenario(manifest)
    traj = run(loads, base, manifest.engine) if loads else None
    _write_artifacts(manifest, loads, base, traj)
    return 0


def _write_csv(path, header: List[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _penetrations(text: Optional[str]) -> List[float]:
    """--penetrations: comma-separated levels >= 0, by default 0.2, 0.5 and 1.0."""
    if not text:
        return [0.2, 0.5, 1.0]
    levels = []
    for entry in text.split(","):
        try:
            level = float(_number_text(entry))
        except ValueError:
            level = math.nan
        if not (math.isfinite(level) and level >= 0):
            raise InputError(f"--penetrations entry {entry!r} in {text!r} is not "
                             f"a finite level >= 0")
        levels.append(level)
    return levels


def cmd_experiment(args) -> int:
    manifest = load_manifest(args.manifest, args)
    penetrations = _penetrations(args.penetrations)
    if args.seeds < 1:
        raise InputError(f"--seeds must be >= 1, got {args.seeds}")
    out = manifest.out  # made once a sweep has its table, so a failed one leaves none

    if args.name == "bound-sweep":
        rows = []
        for pen in penetrations:
            _, base, loads = _scenario(manifest, penetration=pen)
            report = analysis.subopt_ratio_bound(
                [s.constraint for s in loads], base)
            rows.append([repr(v) for v in (pen, *dataclasses.astuple(report))])
        os.makedirs(out, exist_ok=True)
        _write_csv(os.path.join(out, "bound_sweep.csv"),
                   ["penetration", "absolute_bound", "ratio_bound",
                    "optimum_lower_bound"], rows)
        return 0

    for pen in penetrations:
        # a lone EV has no other load to average against, so `run` rejects it
        if dataclasses.replace(manifest.fleet, penetration=pen).evs == 1:
            raise InputError(f"--penetrations level {pen!r} gives 1 EV; a sweep's "
                             f"runs need 0 or at least 2")
    iterations = manifest.engine.max_iterations
    first_seed = manifest.engine.master_seed
    seeds = range(first_seed, first_seed + args.seeds)
    escape_rows: List[List[str]] = []
    mean_aggregates: List[np.ndarray] = []
    for pen in penetrations:
        escapes = np.zeros((len(seeds), iterations))
        ev_sum = np.zeros(manifest.grid.slots)  # over seeds, of each seed's EV sum
        for s, seed in enumerate(seeds):
            b, base, loads = _scenario(manifest, seed, pen)
            if not loads:
                continue
            # only a fixed point stops a sweep's run early: escape 0 after it is exact
            cfg = dataclasses.replace(manifest.engine, master_seed=seed,
                                      stop_on_epsilon=False)
            traj = run(loads, base, cfg)
            for rec in traj.records:
                escapes[s, rec.k - 1] = rec.escape_probability
            ev_sum += aggregate(Profile.zeros(b.grid), traj.final_profiles).values
        escape_rows += [[repr(pen), str(k + 1), repr(float(mean))]
                        for k, mean in enumerate(escapes.mean(axis=0))]
        # b does not depend on the seed, so it is added once, exactly
        mean_aggregates.append(b.values + ev_sum / len(seeds))
    os.makedirs(out, exist_ok=True)
    if args.name == "escape-sweep":
        _write_csv(os.path.join(out, "escape_sweep.csv"),
                   ["penetration", "k", "mean_escape_probability"], escape_rows)
    else:
        _write_csv(os.path.join(out, "profile_sweep.csv"),
                   ["slot"] + [f"mean_aggregate_kw_pen_{p}" for p in penetrations],
                   ([t] + [repr(float(agg[t])) for agg in mean_aggregates]
                    for t in range(manifest.grid.slots)))
    return 0


def _print_fields(report) -> None:
    for field in dataclasses.fields(report):
        print(f"{field.name}={getattr(report, field.name)!r}")


def cmd_analyze(args) -> int:
    checks = set(args.checks.split(",")) if args.checks else {"nash", "ratio"}
    unknown = sorted(checks - set(CHECKS))
    if unknown:
        raise InputError(f"unknown check(s) {unknown}; expected some of {list(CHECKS)}")
    manifest = load_manifest(args.manifest, args)
    _, base, loads = _scenario(manifest)
    ids, rows = profiles_from_csv(args.profiles, manifest.grid)
    known = {spec.id for spec in loads}
    for load_id in ids:
        if load_id not in known:
            raise InputError(f"load {load_id}: not in the scenario")
    row_of = {load_id: r for r, load_id in enumerate(ids)}
    sets = [spec.constraint for spec in loads]
    order = []  # each load's row, in load order; all found before a check prints
    for spec in loads:
        if spec.id not in row_of:
            raise InputError(f"load {spec.id}: missing profile")
        order.append(row_of[spec.id])
    idx = [s.member_index(rows[r]) for s, r in zip(sets, order)]
    status = 0
    for spec, k in zip(loads, idx):
        if k is None:
            print(f"load {spec.id}: profile is not an admissible member",
                  file=sys.stderr)
            status = 1
    if status or not loads:
        return status

    total = aggregate(base, rows[order])
    if "nash" in checks:
        tol = 1e-9 * (1 + abs(norm2(total)))
        report = analysis.nash_report(sets, idx, total, tol)
        _print_fields(report)
        if not report.is_equilibrium:
            status = 1
    if "gap" in checks:
        try:
            gap, bound, ok = analysis.suboptimality_gap_check(sets, base, total)
            print(f"gap={gap!r}\ngap_bound={bound!r}\ngap_ok={ok}")
            if not ok:
                status = 1
        except analysis.OracleTooLargeError:
            print("gap=skipped (instance too large to enumerate)")
    if "ratio" in checks:
        _print_fields(analysis.subopt_ratio_bound(sets, base))
    return status


def cmd_coordinator(args) -> int:
    endpoint = _endpoint(args.endpoint)
    manifest = load_manifest(args.manifest, args)
    _, base, loads = _scenario(manifest)
    roster = [netsim.RosterEntry(s.id, s.is_finite, s.c) for s in loads]
    # without loads there is no session to serve, as `run` has nothing to solve
    traj = (netsim.serve_coordinator(base, roster, manifest.engine, endpoint)
            if roster else None)
    _write_artifacts(manifest, loads, base, traj)
    return 0


def cmd_agent(args) -> int:
    endpoint = _endpoint(args.endpoint)
    manifest = load_manifest(args.manifest, args)
    _, _, loads = _scenario(manifest)
    spec = next((s for s in loads if s.id == args.load_id), None)
    if spec is None:
        raise InputError(f"load id {args.load_id} not in scenario")
    return netsim.run_agent(spec, manifest.engine.master_seed, endpoint)


def cmd_fleet_gen(args) -> int:
    manifest = load_manifest(args.manifest, args)
    b, _, loads = _scenario(manifest)
    out = manifest.out
    os.makedirs(out, exist_ok=True)
    rows = []
    for spec in loads:  # EVs charge at a positive rate, so every member has a start
        s = spec.constraint
        rows.append([spec.id, repr(s.rate_bound), repr(s.energy / s.rate_bound),
                     int(np.flatnonzero(s.members[0])[0]),
                     int(np.flatnonzero(s.members[-1])[0]), s.m])
    _write_csv(os.path.join(out, "fleet.csv"),
               ["id", "rate_kw", "duration_hours", "first_start_slot",
                "last_start_slot", "members"], rows)
    _write_csv(os.path.join(out, "baseload.csv"), ["slot", "value_kw"],
               ([t, repr(float(v))] for t, v in enumerate(b.values)))
    return 0


def _numeric_option(convert):
    """An argparse type: `convert`, int or float, of text `_number_text` passes."""
    def parse(text: str):
        return convert(_number_text(text))
    parse.__name__ = convert.__name__  # as argparse names the type on an error
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once; `main` looks each command's function up by name."""
    parser = argparse.ArgumentParser(prog="valleyfill")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--manifest", help="JSON manifest file")
        p.add_argument("--seed", type=_numeric_option(int), default=None)
        p.add_argument("--iterations", type=_numeric_option(int), default=None)
        p.add_argument("--epsilon", type=_numeric_option(float), default=None)
        p.add_argument("--penetration", type=_numeric_option(float), default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("run", help="run a scenario and emit artifacts")
    common(p)

    p = sub.add_parser("experiment", help="seeded sweeps producing CSV tables")
    p.add_argument("name", choices=["escape-sweep", "profile-sweep", "bound-sweep"])
    p.add_argument("--penetrations", help="comma-separated penetration levels")
    p.add_argument("--seeds", type=_numeric_option(int), default=10)
    common(p)

    p = sub.add_parser("analyze", help="check saved profiles against the theory")
    p.add_argument("profiles", help="final_profiles.csv from a run")
    p.add_argument("--checks", help="comma-separated subset of " + ",".join(CHECKS))
    common(p)

    p = sub.add_parser("coordinator", help="serve the networked coordinator")
    p.add_argument("--endpoint", default="127.0.0.1:7421")
    common(p)

    p = sub.add_parser("agent", help="run one networked load agent")
    p.add_argument("--endpoint", default="127.0.0.1:7421")
    p.add_argument("--load-id", type=_numeric_option(int), required=True)
    common(p)

    p = sub.add_parser("fleet-gen", help="emit the fleet manifest and base load")
    common(p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a command function patched after the first call runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
