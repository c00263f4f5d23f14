import contextlib
import csv
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CHECKED, LEAKS_FAIL, case_id, free_endpoint, profiles_from_csv_per_row,
                      rejected)
from valleyfill import cli, netsim
from valleyfill.analysis import (brute_force_optimum, is_nash, subopt_ratio_bound,
                                 suboptimality_gap_check)
from valleyfill.cli import (_CHUNK_LINES, InputError, load_manifest, main, profiles_from_csv,
                            profiles_to_csv)
from valleyfill.core import (Objective, ObjectiveKind, Profile, TimeGrid,
                             aggregate, norm2)
from valleyfill.engine import EngineConfig, Termination, run
from valleyfill.feasible import FinitePulseSet
from valleyfill.scenario import (BaseLoadSpec, FleetSpec, SynthParams, build_case_study,
                                 default_baseload)

SMALL_MANIFEST = {
    "grid": {"horizon_hours": 24.0, "slots": 24},
    "fleet": {"households": 10, "penetration": 0.3,
              "start_window": [0, 20]},
    "engine": {"max_iterations": 15, "master_seed": 3},
}


def write_manifest(tmp_path, extra=None, name="manifest.json"):
    manifest = json.loads(json.dumps(SMALL_MANIFEST))
    for key, value in (extra or {}).items():
        if isinstance(value, dict) and isinstance(manifest.get(key), dict):
            manifest[key].update(value)
        else:
            manifest[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(manifest, default=lambda v: v.item()))  # numpy scalars
    return str(path)


def small_scenario(penetration=0.3, seed=3):
    grid = TimeGrid(24.0, 24)
    spec = FleetSpec(households=10, penetration=penetration,
                     start_window=(0, 20))
    return grid, build_case_study(spec, BaseLoadSpec(synth=SynthParams()),
                                  grid, seed=seed)


# Three canonical EVs among six households; `track` pulls the aggregate
# towards a daytime plateau instead of flattening it.
TRACK_TARGET = [4.0 + 4.0 * (32 <= t < 72) for t in range(96)]
THREE_EVS = {"fleet": {"households": 6, "penetration": 0.5},
             "engine": {"max_iterations": 30, "master_seed": 2}}
OBJECTIVES = {"flatten": {"kind": "flatten"},
              "track": {"kind": "track", "target": TRACK_TARGET}}


def three_ev_manifest(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(dict(THREE_EVS, objective=OBJECTIVES[kind])))
    return str(path)


def track_game(seed=2):
    """The raw base load, the fleet and the objective of the `track` manifest."""
    grid = TimeGrid(24.0, 96)
    b, loads = build_case_study(FleetSpec(households=6, penetration=0.5),
                                BaseLoadSpec(synth=SynthParams()), grid, seed=seed)
    return b, loads, Objective(ObjectiveKind.TRACK,
                               Profile(np.array(TRACK_TARGET), grid))


def baseload_csv(tmp_path, edit):
    """A base-load CSV of the lines `edit` makes of a valid 24-slot file's lines."""
    lines = ["slot,kw_per_household"] + [f"{t},1.0" for t in range(24)]
    path = tmp_path / "baseload.csv"
    path.write_text("".join(line + "\n" for line in edit(lines)))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# `python -m valleyfill.cli` as a process of its own, importing this checkout's src
CLI = [sys.executable, "-m", "valleyfill.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(pathlib.Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))


class TestRun:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path)
        assert main(["run", "--manifest", manifest, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "final_profiles.csv").exists()
        report = (out / "report.txt").read_text()
        assert "objective=" in report
        assert "terminated_by=" in report
        assert "n_loads=3" in report

    def test_zero_penetration_objective_is_base_norm(self, tmp_path):
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path)
        assert main(["run", "--manifest", manifest, "--out", str(out),
                     "--penetration", "0"]) == 0
        report = dict(line.split("=", 1)
                      for line in (out / "report.txt").read_text().splitlines())
        _, (b, loads) = small_scenario(penetration=0.0)
        assert loads == []
        assert float(report["objective"]) == pytest.approx(norm2(b), rel=1e-12)
        assert report["terminated_by"] == "no_loads"

    def test_reruns_are_byte_identical(self, tmp_path):
        manifest = write_manifest(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--manifest", manifest, "--out", str(out)]) == 0
            outs.append(out)
        for artifact in ("trajectory.csv", "final_profiles.csv", "report.txt"):
            assert (outs[0] / artifact).read_bytes() == \
                (outs[1] / artifact).read_bytes()

    def test_seed_override_changes_trajectory(self, tmp_path):
        manifest = write_manifest(tmp_path)
        texts = []
        for seed in ("3", "4"):
            out = tmp_path / f"s{seed}"
            assert main(["run", "--manifest", manifest, "--out", str(out),
                         "--seed", seed]) == 0
            texts.append((out / "final_profiles.csv").read_text())
        assert texts[0] != texts[1]

    @pytest.mark.parametrize("argv", [
        ["run", "--seed"], ["run", "--iterations"], ["agent", "--load-id"],
        ["experiment", "escape-sweep", "--seeds"], ["run", "--epsilon"],
        ["run", "--penetration"]], ids=lambda argv: argv[-1])
    @pytest.mark.parametrize("text", ["1_0", "\u0663"], ids=["separator", "arabic-indic"])
    def test_numeric_flags_read_numbers_as_loadtxt_does(self, tmp_path, capsys, argv,
                                                        text):
        """Python's int and float read `1_0` and non-ASCII digits; no flag does."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(argv + [text, "--manifest", write_manifest(tmp_path), "--out", str(out)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-1]}: invalid " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_flat_base_far_above_the_members_runs(self, tmp_path, seed):
        """3 kW per household in every slot puts the hull problem's point far from
        the 3.3 kW members of the fleet's two EVs; their weights are still found."""
        base = tmp_path / "flat.csv"
        base.write_text("slot,kw_per_household\n"
                        + "".join(f"{t},3.0\n" for t in range(96)))
        manifest = tmp_path / "flat.json"
        manifest.write_text(json.dumps({
            "fleet": {"households": 1000, "penetration": 0.002},
            "baseload": {"csv": str(base)},
            "engine": {"max_iterations": 5, "master_seed": seed}}))
        out = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert "n_loads=2\n" in (out / "report.txt").read_text()
        assert len(read_rows(out / "trajectory.csv")) > 1
        assert (out / "final_profiles.csv").exists()

    def test_every_section_accepted(self, tmp_path):
        manifest = write_manifest(tmp_path, {
            "baseload": {"synth": {"valley_kw": 0.5, "peak_slots": [4, 10, 16]},
                         "per_household_scale": 2.0},
            "objective": {"kind": "track", "target": [0.5] * 24},
            "emit": {"trajectory": False}})
        out = tmp_path / "out"
        assert main(["run", "--manifest", manifest, "--out", str(out)]) == 0
        assert not (out / "trajectory.csv").exists()
        assert (out / "final_profiles.csv").exists()
        assert (out / "report.txt").exists()

    @pytest.mark.parametrize("households,iterations,status,message", [
        (4, "5", 0, ""),
        (2, "5", 1, "error: finite load 0 needs C > c_i\n"),
        (4, "1_0", 2, "error: argument --iterations: invalid "),
    ], ids=["two-evs", "one-ev", "separator"])
    def test_process_exit_codes(self, tmp_path, households, iterations, status, message):
        """The process exits with `main`'s status, and never with a traceback."""
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"fleet": {"households": households,
                                                  "penetration": 0.5}}))
        out = tmp_path / "out"
        process = subprocess.run(CLI + ["run", "--manifest", str(manifest), "--iterations",
                                        iterations, "--out", str(out)],
                                 env=CLI_ENV, capture_output=True, text=True, timeout=120)
        assert process.returncode == status, process.stderr
        assert message in process.stderr and "Traceback" not in process.stderr
        assert (out / "report.txt").exists() == (status == 0)

    @pytest.mark.parametrize("command", [["run"], ["fleet-gen"],
                                         ["experiment", "bound-sweep"], ["coordinator"]],
                             ids=lambda command: command[0])
    def test_empty_out_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                               command):
        def work(*args, **kwargs):
            raise AssertionError("an empty --out reached the scenario")

        monkeypatch.setattr(cli, "_scenario", work)
        assert main(command + ["--manifest", write_manifest(tmp_path), "--out", ""]) == 2
        assert capsys.readouterr().err == (
            "error: bad manifest: out must be a non-empty string, got ''\n")

    def test_missing_baseload_csv_is_reported(self, tmp_path):
        manifest = write_manifest(
            tmp_path, {"baseload": {"csv": str(tmp_path / "nope.csv")}})
        del_synth = json.loads((tmp_path / "manifest.json").read_text())
        del_synth["baseload"].pop("synth", None)
        (tmp_path / "manifest.json").write_text(json.dumps(del_synth))
        assert main(["run", "--manifest", manifest,
                     "--out", str(tmp_path / "o")]) == 1


@LEAKS_FAIL
class TestNetworked:
    @pytest.mark.parametrize("kind,processes", [("flatten", False), ("track", False),
                                                ("flatten", True)],
                             ids=["flatten", "track", "processes"])
    def test_coordinator_writes_runs_artifacts(self, tmp_path, kind, processes):
        """Coordinator plus one agent per EV gives `run`'s artifacts, whether
        they run as threads of `main` or as processes."""
        manifest = three_ev_manifest(tmp_path, kind)
        assert main(["run", "--manifest", manifest,
                     "--out", str(tmp_path / "run")]) == 0
        host, port = free_endpoint()
        common = ["--manifest", manifest, "--endpoint", f"{host}:{port}"]
        commands = [["coordinator", *common, "--out", str(tmp_path / "net")]]
        commands += [["agent", "--load-id", str(i), *common] for i in range(3)]
        if processes:
            with contextlib.ExitStack() as stack:
                running = []
                for command in commands:
                    running.append(stack.enter_context(
                        subprocess.Popen(CLI + command, env=CLI_ENV)))
                    stack.callback(running[-1].kill)  # a no-op once it has exited
                statuses = [process.wait(60) for process in running]
        else:
            statuses = [None] * len(commands)

            def call(i):
                statuses[i] = main(commands[i])

            threads = [threading.Thread(target=call, args=(i,), daemon=True)
                       for i in range(len(commands))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
        assert statuses == [0] * len(commands)

        local, net = tmp_path / "run", tmp_path / "net"
        assert (net / "final_profiles.csv").read_bytes() == \
            (local / "final_profiles.csv").read_bytes()
        assert (net / "report.txt").read_bytes() == \
            (local / "report.txt").read_bytes()
        local_rows = read_rows(local / "trajectory.csv")
        net_rows = read_rows(net / "trajectory.csv")
        assert net_rows[0] == local_rows[0]
        column = local_rows[0].index("expected_next_objective")
        assert len(net_rows) == len(local_rows)
        for net_row, local_row in zip(net_rows[1:], local_rows[1:]):
            assert net_row[column] == "nan"
            del net_row[column], local_row[column]
            assert net_row == local_row

    def test_coordinator_without_loads_writes_runs_report(self, tmp_path,
                                                          monkeypatch):
        """An empty fleet opens no socket; the report is `run`'s, byte for byte."""
        def serve(*args, **kwargs):
            raise AssertionError("an empty fleet reached the transport")

        monkeypatch.setattr(netsim, "serve_coordinator", serve)
        manifest = write_manifest(tmp_path, {"fleet": {"households": 4,
                                                       "penetration": 0.0}})
        assert main(["run", "--manifest", manifest,
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["coordinator", "--manifest", manifest,
                     "--out", str(tmp_path / "net")]) == 0
        report = (tmp_path / "net" / "report.txt").read_bytes()
        assert b"terminated_by=no_loads" in report
        assert report == (tmp_path / "run" / "report.txt").read_bytes()
        assert sorted(p.name for p in (tmp_path / "net").iterdir()) == ["report.txt"]

    @pytest.mark.parametrize("command", ["coordinator", "agent"])
    @pytest.mark.parametrize("endpoint", ["nohostport", "127.0.0.1:abc",
                                          "127.0.0.1:99999"])
    def test_bad_endpoint_exits_2(self, tmp_path, capsys, monkeypatch,
                                  command, endpoint):
        def connect(*args, **kwargs):
            raise AssertionError("a bad endpoint reached the transport")

        monkeypatch.setattr(netsim, "serve_coordinator", connect)
        monkeypatch.setattr(netsim, "run_agent", connect)
        argv = [command, "--manifest", write_manifest(tmp_path),
                "--endpoint", endpoint, "--out", str(tmp_path / "out")]
        if command == "agent":
            argv += ["--load-id", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --endpoint") and endpoint in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_agent_of_an_unknown_load_exits_2(self, tmp_path, capsys, monkeypatch):
        def connect(*args, **kwargs):
            raise AssertionError("an unknown load reached the transport")

        monkeypatch.setattr(netsim, "run_agent", connect)
        assert main(["agent", "--manifest", write_manifest(tmp_path),
                     "--load-id", "99"]) == 2
        assert capsys.readouterr().err == "error: load id 99 not in scenario\n"


class TestAnalyze:
    def write_profiles(self, path, rows):
        with open(path, "w", newline="") as fh:
            for load_id, values in rows:
                fh.write(",".join([str(load_id)] +
                                  [repr(float(v)) for v in values]) + "\n")

    def test_optimal_profiles_pass_all_checks(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        grid, (b, loads) = small_scenario()
        sets = [spec.constraint for spec in loads]
        choice, _ = brute_force_optimum(sets, b)
        profiles = tmp_path / "profiles.csv"
        self.write_profiles(profiles,
                            [(spec.id, s.members[k])
                             for spec, s, k in zip(loads, sets, choice)])
        status = main(["analyze", str(profiles), "--manifest", manifest,
                       "--checks", "nash,gap,ratio"])
        captured = capsys.readouterr()
        assert status == 0, captured.err
        # one name=repr(value) line per report field, from the library's results
        xs = [s.member(k) for s, k in zip(sets, choice)]
        value = norm2(aggregate(b, xs))
        nash = is_nash(xs, sets, b, 1e-9 * (1 + abs(value)))
        gap, gap_bound, _ = suboptimality_gap_check(sets, b, aggregate(b, xs))
        bounds = subopt_ratio_bound(sets, b)
        assert captured.out == (
            f"is_equilibrium=True\n"
            f"worst_violation={nash.worst_violation!r}\n"
            f"violating_load=None\n"
            f"gap={gap!r}\n"
            f"gap_bound={gap_bound!r}\n"
            f"gap_ok=True\n"
            f"absolute_bound={bounds.absolute_bound!r}\n"
            f"ratio_bound={bounds.ratio_bound!r}\n"
            f"optimum_lower_bound={bounds.optimum_lower_bound!r}\n")

    def test_non_member_profile_names_the_load(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        grid, (b, loads) = small_scenario()
        rows = [(spec.id, spec.constraint.members[0]) for spec in loads]
        # corrupt the second load's profile so it is no longer a member
        rows[1] = (rows[1][0], rows[1][1] + 0.01)
        profiles = tmp_path / "profiles.csv"
        self.write_profiles(profiles, rows)
        status = main(["analyze", str(profiles), "--manifest", manifest])
        captured = capsys.readouterr()
        assert status == 1
        assert f"load {rows[1][0]}: profile is not an admissible member" \
            in captured.err

    def test_missing_profile_exits_2_before_any_membership_line(self, tmp_path, capsys):
        """Every load's row is found before the first membership check prints."""
        manifest = write_manifest(tmp_path)
        grid, (b, loads) = small_scenario()
        rows = [(spec.id, spec.constraint.members[0]) for spec in loads]
        rows[1] = (rows[1][0], rows[1][1] + 0.01)
        missing = rows.pop()[0]
        profiles = tmp_path / "profiles.csv"
        self.write_profiles(profiles, rows)
        status = main(["analyze", str(profiles), "--manifest", manifest])
        err = capsys.readouterr().err
        assert status == 2
        assert err == f"error: load {missing}: missing profile\n"

    def test_gap_past_the_enumeration_cap_is_skipped(self, tmp_path, capsys):
        """Twenty canonical EVs have 81**20 selections: `gap` skips and exits 0."""
        manifest = tmp_path / "twenty.json"
        manifest.write_text(json.dumps({"fleet": {"households": 20,
                                                  "penetration": 1.0}}))
        _, loads = build_case_study(FleetSpec(households=20, penetration=1.0),
                                    BaseLoadSpec(synth=SynthParams()))
        profiles = tmp_path / "profiles.csv"
        self.write_profiles(profiles, [(spec.id, spec.constraint.members[0])
                                       for spec in loads])
        status = main(["analyze", str(profiles), "--manifest", str(manifest),
                       "--checks", "gap"])
        assert status == 0
        assert capsys.readouterr().out == \
            "gap=skipped (instance too large to enumerate)\n"

    def test_failing_gap_exits_1(self, tmp_path, capsys):
        """Three EVs all at their first start are further from optimal than the bound."""
        manifest = three_ev_manifest(tmp_path, "flatten")
        b, loads, _ = track_game()  # the raw base is the flatten game's base
        sets = [spec.constraint for spec in loads]
        xs = [s.member(0) for s in sets]
        gap, gap_bound, ok = suboptimality_gap_check(sets, b, aggregate(b, xs))
        assert not ok
        profiles = tmp_path / "profiles.csv"
        self.write_profiles(profiles, [(spec.id, x.values)
                                       for spec, x in zip(loads, xs)])
        status = main(["analyze", str(profiles), "--manifest", manifest,
                       "--checks", "gap"])
        assert status == 1
        assert capsys.readouterr().out == \
            f"gap={gap!r}\ngap_bound={gap_bound!r}\ngap_ok=False\n"

    def test_missing_profile_rejected(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        grid, (b, loads) = small_scenario()
        profiles = tmp_path / "profiles.csv"
        self.write_profiles(profiles, [(loads[0].id,
                                        loads[0].constraint.members[0])])
        status = main(["analyze", str(profiles), "--manifest", manifest])
        assert status == 2

    def test_profile_of_unknown_load_exits_2(self, tmp_path, capsys):
        """A profiles file with more loads than the scenario names the first extra id."""
        out = tmp_path / "out"
        assert main(["run", "--manifest", write_manifest(tmp_path),
                     "--out", str(out)]) == 0
        smaller = write_manifest(tmp_path, {"fleet": {"penetration": 0.1}},
                                 name="smaller.json")
        status = main(["analyze", str(out / "final_profiles.csv"),
                       "--manifest", smaller])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err == "error: load 1: not in the scenario\n"
        assert captured.out == ""

    def test_unknown_check_exits_2(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        grid, (b, loads) = small_scenario()
        profiles = tmp_path / "profiles.csv"
        self.write_profiles(profiles, [(spec.id, spec.constraint.members[0])
                                       for spec in loads])
        status = main(["analyze", str(profiles), "--manifest", manifest,
                       "--checks", "nsh"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith("error: ") and "nsh" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("corrupt", [
        lambda rows: rows[1].__setitem__(3, "x"),
        lambda rows: rows[1].pop(),
        lambda rows: rows[1].__setitem__(0, rows[0][0]),
        lambda rows: rows[1].__setitem__(0, "0_" + rows[1][0]),
    ], ids=["non-numeric-value", "short-row", "repeated-id", "separator-in-id"])
    def test_malformed_profiles_exit_2_naming_the_line(self, tmp_path, capsys,
                                                       corrupt):
        manifest = write_manifest(tmp_path)
        grid, (b, loads) = small_scenario()
        rows = [[str(spec.id)] + [repr(float(v)) for v in spec.constraint.members[0]]
                for spec in loads]
        corrupt(rows)
        profiles = tmp_path / "profiles.csv"
        profiles.write_text("".join(",".join(row) + "\n" for row in rows))
        status = main(["analyze", str(profiles), "--manifest", manifest])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: ") and "line 2" in err
        assert "Traceback" not in err

    def test_each_profile_is_looked_up_once(self, tmp_path, monkeypatch):
        """`analyze` finds each load's member once and hands the indices on
        to the Nash check and the aggregate on to the gap check, which look
        nothing up again."""
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, {"fleet": {"households": 20,
                                                       "penetration": 0.5}})
        assert main(["run", "--manifest", manifest, "--out", str(out)]) == 0
        n = len(profiles_from_csv(out / "final_profiles.csv", TimeGrid(24.0, 24))[0])
        calls = []
        lookup = FinitePulseSet.member_index

        def counted(self, x):
            calls.append(x)
            return lookup(self, x)

        monkeypatch.setattr(FinitePulseSet, "member_index", counted)
        assert n == 10
        for checks in ("nash,ratio", "nash,gap,ratio", "gap"):
            calls.clear()
            status = main(["analyze", str(out / "final_profiles.csv"), "--manifest",
                           manifest, "--checks", checks])
            assert status in (0, 1)
            assert len(calls) == n, checks

    def test_round_trip_of_run_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path)
        assert main(["run", "--manifest", manifest, "--out", str(out)]) == 0
        grid = TimeGrid(24.0, 24)
        ids, rows = profiles_from_csv(out / "final_profiles.csv", grid)
        assert ids == [0, 1, 2] and rows.shape == (3, 24)
        # membership must round trip bit-exactly through the CSV
        _, (b, loads) = small_scenario()
        for spec, row in zip(loads, rows):
            assert spec.constraint.member_index(row) is not None
        # `run` writes CRLF rows, and an LF copy of them prints the same lines;
        # with nash, its three lines come first and the others are unchanged
        crlf = out / "final_profiles.csv"
        assert crlf.read_bytes().count(b"\r\n") == 3
        lf = tmp_path / "lf.csv"
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        printed = []
        for path, checks in ((crlf, "gap,ratio"), (lf, "gap,ratio"), (crlf, "nash,gap,ratio")):
            status = main(["analyze", str(path), "--manifest", manifest, "--checks", checks])
            assert status in ((0, 1) if "nash" in checks else (0,))
            printed.append(capsys.readouterr().out.splitlines())
        assert printed[0] == printed[1] and len(printed[0]) == 6
        assert printed[2][0].startswith("is_equilibrium=") and printed[2][3:] == printed[0]

    def test_profiles_built_do_not_grow_with_the_fleet(self, tmp_path, monkeypatch):
        """`analyze` reads the profiles into one array and checks them there:
        a 10-EV and a 200-EV fleet build the same number of `Profile`s."""
        built = []
        check = Profile.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        counts = []
        for households in (10, 200):
            manifest = write_manifest(tmp_path, {"fleet": {"households": households,
                                                           "penetration": 1.0}},
                                      name=f"fleet_{households}.json")
            _, loads = build_case_study(FleetSpec(households=households, penetration=1.0,
                                                  start_window=(0, 20)),
                                        BaseLoadSpec(synth=SynthParams()),
                                        TimeGrid(24.0, 24), seed=3)
            profiles = tmp_path / f"profiles_{households}.csv"
            self.write_profiles(profiles, [(spec.id, spec.constraint.members[0])
                                           for spec in loads])
            monkeypatch.setattr(Profile, "__post_init__", counted)
            built.clear()
            status = main(["analyze", str(profiles), "--manifest", manifest,
                           "--checks", "nash,ratio"])
            monkeypatch.undo()
            assert status in (0, 1) and len(loads) == households
            counts.append(len(built))
        assert counts[0] == counts[1], counts

    def test_track_fixed_point_is_nash(self, tmp_path, capsys):
        """`analyze` checks a `track` equilibrium on b - target."""
        b, loads, objective = track_game()
        traj = run(loads, objective.effective_base(b),
                   EngineConfig(max_iterations=5000, master_seed=2,
                                stop_on_epsilon=False))
        assert traj.terminated_by is Termination.FIXED_POINT
        profiles = tmp_path / "profiles.csv"
        profiles_to_csv(loads, traj.final_profiles, profiles)
        status = main(["analyze", str(profiles), "--checks", "nash",
                       "--manifest", three_ev_manifest(tmp_path, "track")])
        captured = capsys.readouterr()
        assert status == 0, captured.out + captured.err
        assert "is_equilibrium=True" in captured.out
        assert "worst_violation=0.0\n" in captured.out


def line_named(parse, path, grid):
    """The line number in the InputError that parse(path, grid) raises."""
    with pytest.raises(InputError) as info:
        parse(path, grid)
    return int(re.search(r" line (\d+): ", str(info.value)).group(1))


def parsed_pairs(path, grid):
    """(id, row bytes) in file order, from `profiles_from_csv`."""
    ids, rows = profiles_from_csv(path, grid)
    assert rows.dtype == np.float64 and rows.shape == (len(ids), grid.slots)
    return [(i, row.tobytes()) for i, row in zip(ids, rows)]


def oracle_pairs(path, grid):
    """(id, row bytes) in file order, from the `csv.reader` oracle."""
    return [(i, p.values.tobytes()) for i, p in profiles_from_csv_per_row(path, grid).items()]


# Each corruption edits the fields of row i of a list of rows, in place.
CORRUPTIONS = {
    "non-numeric value": lambda rows, i: rows[i].__setitem__(2, "x"),
    "short row": lambda rows, i: rows[i].pop(),
    "long row": lambda rows, i: rows[i].append("1.0"),
    "id only": lambda rows, i: rows[i].__delitem__(slice(1, None)),
    "empty value": lambda rows, i: rows[i].__setitem__(1, ""),
    "blank value": lambda rows, i: rows[i].__setitem__(1, " "),
    "repeated id": lambda rows, i: rows[i].__setitem__(0, rows[i - 1 if i else 1][0]),
    "id 1.0": lambda rows, i: rows[i].__setitem__(0, "1.0"),
    "comment line": lambda rows, i: rows[i].__setitem__(0, "#" + rows[i][0]),
    "nan": lambda rows, i: rows[i].__setitem__(3, "nan"),
    "inf": lambda rows, i: rows[i].__setitem__(1, "inf"),
    "1e400": lambda rows, i: rows[i].__setitem__(2, "1e400"),
    # written with errors="surrogateescape", as the byte 0xff
    "non-UTF-8 byte": lambda rows, i: rows[i].__setitem__(2, "0.5\udcff"),
}


class TestProfilesCsv:
    """`profiles_from_csv` against the `csv.reader` loop it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(st.integers(-10**9, 10**9), unique=True, max_size=8),
           slots=st.integers(1, 6), data=st.data())
    def test_written_files_parse_bit_for_bit(self, ids, slots, data):
        """`profiles_to_csv` output, its LF copy and a copy with blank lines."""
        grid = TimeGrid(24.0, slots)
        value = st.floats(allow_nan=False, allow_infinity=False)
        rows = [data.draw(st.lists(value, min_size=slots, max_size=slots)) for _ in ids]
        expected = [(i, np.array(row).tobytes()) for i, row in zip(ids, rows)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "profiles.csv")
            profiles_to_csv([SimpleNamespace(id=i) for i in ids],
                            [Profile(np.array(row), grid) for row in rows], path)
            with open(path, newline="") as fh:
                lines = fh.read().splitlines(keepends=True)
            blank = data.draw(st.lists(st.tuples(st.integers(0, len(lines)),
                                                 st.sampled_from(["\r\n", "\n"])),
                                       max_size=4))
            with_blanks = list(lines)
            for at, ending in sorted(blank, reverse=True):
                with_blanks.insert(at, ending)
            for text in ("".join(lines), "".join(lines).replace("\r\n", "\n"),
                         "".join(with_blanks)):
                with open(path, "w", newline="") as fh:
                    fh.write(text)
                for parse in (parsed_pairs, oracle_pairs):
                    assert parse(path, grid) == expected

    @pytest.mark.parametrize("ending", ["\r\n", "\n"])
    def test_long_files_parse_like_the_oracle(self, tmp_path, ending):
        """Past the reader's chunks, with blank lines across their ends."""
        c = _CHUNK_LINES
        grid = TimeGrid(24.0, 5)
        rng = np.random.default_rng(5)
        values = rng.choice([0.0, -0.0, 3.3, 1e-310, rng.uniform(-1e3, 1e3)], (2 * c + 1000, 5))
        lines = [",".join([str(i)] + [repr(float(v)) for v in row]) + ending
                 for i, row in enumerate(values)]
        for at in (2 * c + 900, 2 * c, 2 * c - 1, c + 1, c, c - 1, 0):
            lines.insert(at, ending)
        path = tmp_path / "profiles.csv"
        path.write_bytes("".join(lines).encode())
        assert parsed_pairs(path, grid) == oracle_pairs(path, grid)
        assert np.array_equal(profiles_from_csv(path, grid)[1], values)

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_each_corruption_names_the_oracles_line(self, tmp_path, kind):
        """One corrupted row, at either end of the reader's chunks."""
        c = _CHUNK_LINES
        n = 2 * c + 100
        grid = TimeGrid(24.0, 4)
        path = tmp_path / "profiles.csv"
        for i in (0, 1, c - 1, c, c + 1, 2 * c, n - 1):
            rows = [[str(j)] + [repr(0.5 * (j + t)) for t in range(4)] for j in range(n)]
            CORRUPTIONS[kind](rows, i)
            path.write_text("".join(",".join(row) + "\r\n" for row in rows),
                            errors="surrogateescape")
            expected = line_named(profiles_from_csv_per_row, path, grid)
            # row 0's repeated id is row 1's, so the repeat shows on line 2
            assert expected == (2 if (kind, i) == ("repeated id", 0) else i + 1)
            assert line_named(profiles_from_csv, path, grid) == expected

    @settings(max_examples=200, deadline=None)
    @given(n=st.sampled_from([5, _CHUNK_LINES + 300]), data=st.data(),
           ending=st.sampled_from(["\r\n", "\n"]))
    def test_corrupted_files_name_the_oracles_line(self, n, data, ending):
        c = _CHUNK_LINES
        at = st.integers(0, n - 1)
        if n > c:  # rows on either side of the first chunk's end, often
            at |= st.sampled_from([c - 2, c - 1, c, c + 1])
        edits = data.draw(st.dictionaries(at,
                                          st.sampled_from(sorted(CORRUPTIONS)),
                                          min_size=1, max_size=3))
        blank = data.draw(st.lists(st.integers(0, n), max_size=3))
        grid = TimeGrid(24.0, 4)
        rows = [[str(i)] + [repr(0.5 * (i + t)) for t in range(4)] for i in range(n)]
        for i, kind in edits.items():  # one corruption per corrupted row
            CORRUPTIONS[kind](rows, i)
        lines = [",".join(row) + ending for row in rows]
        for at in sorted(blank, reverse=True):
            lines.insert(at, ending)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "profiles.csv")
            with open(path, "w", newline="", errors="surrogateescape") as fh:
                fh.write("".join(lines))
            assert (line_named(profiles_from_csv, path, grid)
                    == line_named(profiles_from_csv_per_row, path, grid))

    @pytest.mark.parametrize("spelling", ["1_0", "\u0661", "\uff11", '"1.0"'],
                             ids=["digit-separator", "arabic-indic-digit",
                                  "fullwidth-digit", "quoted"])
    def test_spellings_only_float_accepts_exit_2_naming_the_line(self, tmp_path, capsys,
                                                                 spelling):
        """Values `loadtxt` rejects that the `csv.reader` loop parsed."""
        manifest = write_manifest(tmp_path)
        grid, (b, loads) = small_scenario()
        rows = [[str(spec.id)] + [repr(float(v)) for v in spec.constraint.members[0]]
                for spec in loads]
        rows[1][3] = spelling
        profiles = tmp_path / "profiles.csv"
        profiles.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        profiles_from_csv_per_row(profiles, grid)  # the old reader took it
        status = main(["analyze", str(profiles), "--manifest", manifest])
        err = capsys.readouterr().err
        assert status == 2
        assert err == (f"error: {profiles}: line 2: column 3: could not convert "
                       f"{spelling!r} to a number\n")

    @pytest.mark.parametrize("value, column", [("0.0\udcff", 1), ("x", 2), ("", 4),
                                               (" ", 3), ("1.0 2.0", 2)],
                             ids=["non-UTF-8-byte", "letter", "empty", "blank", "space"])
    def test_a_value_that_does_not_parse_names_its_line_and_column(self, tmp_path, value,
                                                                  column):
        """Not the row and column of numpy's one-line parse: the file's line and
        the CSV column, counting the id as column 0."""
        grid = TimeGrid(24.0, 4)
        rows = [[str(i)] + [repr(0.5 * (i + t)) for t in range(4)] for i in range(3)]
        rows[1][column] = value
        path = tmp_path / "fp.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows),
                        errors="surrogateescape")
        with pytest.raises(InputError) as info:
            profiles_from_csv(path, grid)
        assert str(info.value) == (f"{path}: line 2: column {column}: could not convert "
                                   f"{value!r} to a number")


class TestExperiment:
    def test_bound_sweep(self, tmp_path):
        manifest = write_manifest(tmp_path)
        out = tmp_path / "out"
        assert main(["experiment", "bound-sweep", "--manifest", manifest,
                     "--out", str(out), "--penetrations", "0.3,0.6"]) == 0
        raw = (out / "bound_sweep.csv").read_bytes()
        assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n") == 3
        lines = raw.decode().splitlines()
        assert lines[0] == "penetration,absolute_bound,ratio_bound,optimum_lower_bound"
        r1 = float(lines[1].split(",")[2])
        r2 = float(lines[2].split(",")[2])
        assert 0 < r1 < r2   # more EVs, larger bound at fixed base load

    def test_bound_sweep_follows_the_seed(self, tmp_path):
        manifest = write_manifest(tmp_path, {"fleet": {
            "heterogeneity": {"rate_jitter": 0.2}}})

        def sweep(seed, name):
            out = tmp_path / name
            assert main(["experiment", "bound-sweep", "--manifest", manifest,
                         "--out", str(out), "--penetrations", "0.3,0.6",
                         "--seed", str(seed)]) == 0
            return (out / "bound_sweep.csv").read_text()

        assert sweep(1, "a") == sweep(1, "b")
        assert sweep(1, "a") != sweep(2, "c")

    def test_escape_sweep(self, tmp_path):
        manifest = write_manifest(tmp_path, {"engine": {"max_iterations": 5}})
        out = tmp_path / "out"
        assert main(["experiment", "escape-sweep", "--manifest", manifest,
                     "--out", str(out), "--penetrations", "0.3",
                     "--seeds", "2"]) == 0
        lines = (out / "escape_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "penetration,k,mean_escape_probability"
        assert len(lines) == 1 + 5
        for line in lines[1:]:
            escape = float(line.split(",")[2])
            assert 0.0 <= escape <= 1.0

    def test_profile_sweep(self, tmp_path):
        manifest = write_manifest(tmp_path, {"engine": {"max_iterations": 5}})
        out = tmp_path / "out"
        assert main(["experiment", "profile-sweep", "--manifest", manifest,
                     "--out", str(out), "--penetrations", "0.3",
                     "--seeds", "2"]) == 0
        lines = (out / "profile_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "slot,mean_aggregate_kw_pen_0.3"
        assert len(lines) == 1 + 24

    def test_track_sweeps_solve_the_track_game(self, tmp_path):
        manifest = three_ev_manifest(tmp_path, "track")
        out = tmp_path / "out"
        for name in ("escape-sweep", "profile-sweep"):
            assert main(["experiment", name, "--manifest", manifest,
                         "--out", str(out), "--penetrations", "0.5",
                         "--seeds", "2"]) == 0
        escapes = np.zeros((2, 30))
        physical = np.zeros(96)
        for s, seed in enumerate((2, 3)):  # the manifest's master_seed is 2
            b, loads, objective = track_game(seed)
            traj = run(loads, objective.effective_base(b),
                       EngineConfig(max_iterations=30, master_seed=seed,
                                    stop_on_epsilon=False))
            for rec in traj.records:
                escapes[s, rec.k - 1] = rec.escape_probability
            physical += aggregate(b, traj.final_profiles).values / 2
        escape_rows = read_rows(out / "escape_sweep.csv")[1:]
        assert [float(row[2]) for row in escape_rows] == \
            pytest.approx(escapes.mean(axis=0), rel=1e-12, abs=1e-15)
        profile_rows = read_rows(out / "profile_sweep.csv")[1:]
        assert [float(row[1]) for row in profile_rows] == \
            pytest.approx(physical, rel=1e-12)

    def test_escape_sweep_reads_zero_only_from_the_fixed_point(self, tmp_path):
        """Sweeps run past the signal-change rule: escape 0 means a fixed point."""
        manifest = write_manifest(tmp_path, {"grid": {"slots": 96},
                                             "fleet": {"households": 4,
                                                       "penetration": 0.5,
                                                       "start_window": [0, 80]},
                                             "engine": {"max_iterations": 15,
                                                        "master_seed": 0}})
        out = tmp_path / "out"
        assert main(["experiment", "escape-sweep", "--manifest", manifest,
                     "--out", str(out), "--penetrations", "0.5", "--seeds", "1"]) == 0
        b, loads = build_case_study(FleetSpec(households=4, penetration=0.5),
                                    BaseLoadSpec(synth=SynthParams()), TimeGrid(24.0, 96))
        assert run(loads, b, EngineConfig(max_iterations=15, master_seed=0)
                   ).terminated_by is Termination.TOLERANCE
        traj = run(loads, b, EngineConfig(max_iterations=15, master_seed=0,
                                          stop_on_epsilon=False))
        assert traj.terminated_by is Termination.FIXED_POINT
        fixed_k = traj.records[-1].k
        escapes = [float(row[2]) for row in read_rows(out / "escape_sweep.csv")[1:]]
        assert len(escapes) == 15 and fixed_k < 15
        assert all(e > 0.0 for e in escapes[:fixed_k - 1])
        assert escapes[fixed_k - 1:] == [0.0] * (15 - fixed_k + 1)

    def test_profile_sweep_without_evs_is_the_base_load(self, tmp_path):
        """At penetration 0 the mean aggregate is fleet-gen's base load, bit for
        bit, whatever the number of seeds."""
        manifest = write_manifest(tmp_path)
        assert main(["fleet-gen", "--manifest", manifest,
                     "--out", str(tmp_path / "fleet")]) == 0
        base = read_rows(tmp_path / "fleet" / "baseload.csv")
        assert float(base[1][1]) > 0.0
        for seeds in ("1", "3", "7"):
            assert main(["experiment", "profile-sweep", "--manifest", manifest,
                         "--out", str(tmp_path / seeds), "--penetrations", "0,0.3",
                         "--seeds", seeds]) == 0
            sweep = read_rows(tmp_path / seeds / "profile_sweep.csv")
            assert sweep[0][1] == "mean_aggregate_kw_pen_0.0"
            assert [row[1] for row in sweep[1:]] == [row[1] for row in base[1:]]

    @pytest.mark.parametrize("name,table", [("escape-sweep", "escape_sweep.csv"),
                                            ("profile-sweep", "profile_sweep.csv")])
    def test_sweep_seeds_start_at_the_seed(self, tmp_path, name, table):
        """--seed 3 --seeds 2 averages what seeds 3 and 4 give one at a time."""
        manifest = write_manifest(tmp_path, {"engine": {"max_iterations": 5}})

        def sweep(seed, seeds):
            out = tmp_path / f"{seed}-{seeds}"
            assert main(["experiment", name, "--manifest", manifest,
                         "--out", str(out), "--penetrations", "0.3",
                         "--seed", str(seed), "--seeds", str(seeds)]) == 0
            return read_rows(out / table)

        both, three, four = sweep(3, 2), sweep(3, 1), sweep(4, 1)
        assert both[0] == three[0] == four[0]
        column = 2 if name == "escape-sweep" else 1
        assert len(both) == len(three) == len(four)
        for row, a, b in zip(both[1:], three[1:], four[1:]):
            assert float(row[column]) == (float(a[column]) + float(b[column])) / 2
        assert both != sweep(0, 2)

    @pytest.mark.parametrize("name", ["escape-sweep", "profile-sweep"])
    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_seeds_below_one_exit_2(self, tmp_path, capsys, name, seeds):
        out = tmp_path / "out"
        assert main(["experiment", name, "--manifest", write_manifest(tmp_path),
                     "--out", str(out), "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --seeds must be >= 1, got {seeds}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["bound-sweep", "escape-sweep", "profile-sweep"])
    def test_fleet_that_cannot_be_built_leaves_no_output(self, tmp_path, capsys, name):
        """A 30-h charge on a 24-h horizon fails the sweep's first fleet."""
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, {"fleet": {"charge_hours": 30}})
        assert main(["experiment", name, "--manifest", manifest, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: start_window")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["escape-sweep", "profile-sweep"])
    def test_level_with_one_ev_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                      name):
        """Six households at 0.2 give round(1.2) = 1 EV, which `run` rejects:
        the sweep names the level before it runs 0.5's three EVs."""
        runs = []
        monkeypatch.setattr(cli, "run", lambda *args: runs.append(args) or run(*args))
        out = tmp_path / "out"
        assert main(["experiment", name, "--manifest", three_ev_manifest(tmp_path, "flatten"),
                     "--out", str(out), "--seeds", "1", "--penetrations", "0.5,0.2"]) == 2
        assert capsys.readouterr().err == (
            "error: --penetrations level 0.2 gives 1 EV; a sweep's runs need 0 or at least 2\n")
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("levels", ["0.2,x", "-0.5", "0_5"])
    def test_bad_penetrations_exit_2(self, tmp_path, capsys, levels):
        out = tmp_path / "out"
        assert main(["experiment", "bound-sweep", "--manifest",
                     write_manifest(tmp_path), "--out", str(out),
                     "--penetrations", levels]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --penetrations") and levels in err
        assert not out.exists()


# (row, key, value) for each manifest key of a checked field and each value it rejects
MANIFEST_CASES = [(row, key, value) for row in CHECKED for key in row.keys
                  for value in rejected(row)]


class TestFleetGen:
    def test_artifacts(self, tmp_path):
        manifest = write_manifest(tmp_path)
        out = tmp_path / "out"
        assert main(["fleet-gen", "--manifest", manifest,
                     "--out", str(out)]) == 0
        fleet = (out / "fleet.csv").read_text().strip().splitlines()
        assert len(fleet) == 1 + 3
        base = (out / "baseload.csv").read_text().strip().splitlines()
        assert base[0] == "slot,value_kw"
        assert len(base) == 1 + 24

    def test_baseload_follows_the_grid(self, tmp_path):
        """Default peak slots scale to a 48-slot grid, keeping the 0.9 kW valley."""
        manifest = write_manifest(tmp_path, {"grid": {"slots": 48}})
        out = tmp_path / "out"
        assert main(["fleet-gen", "--manifest", manifest,
                     "--out", str(out)]) == 0
        grid = TimeGrid(24.0, 48)
        b = np.loadtxt(out / "baseload.csv", delimiter=",", skiprows=1)[:, 1]
        per_household = default_baseload(grid).values
        assert np.array_equal(b, 10 * per_household)
        assert per_household.min() == pytest.approx(0.9)

    @pytest.mark.parametrize("slots", [[4, 10, 24], [-1, 10, 16], [4, 10, 10]])
    def test_bad_peak_slots_are_named(self, tmp_path, capsys, slots):
        manifest = write_manifest(tmp_path, {"baseload": {"synth": {
            "peak_slots": slots}}})
        assert main(["fleet-gen", "--manifest", manifest,
                     "--out", str(tmp_path / "out")]) == 2
        assert "baseload.synth.peak_slots" in capsys.readouterr().err

    def test_command_is_looked_up_on_each_call(self, tmp_path, monkeypatch):
        """With the parser built once, a command patched after the first
        call is the one a later call runs."""
        manifest = write_manifest(tmp_path)
        assert main(["fleet-gen", "--manifest", manifest,
                     "--out", str(tmp_path / "out")]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_fleet_gen", lambda args: calls.append(args) or 0)
        assert main(["fleet-gen", "--manifest", manifest]) == 0
        assert [args.manifest for args in calls] == [manifest]

    def read_fleet(self, out):
        rows = (out / "fleet.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        return [dict(zip(header, row.split(","))) for row in rows[1:]]

    def test_documented_charger_keys(self, tmp_path):
        manifest = write_manifest(tmp_path, {"fleet": {"charger_kw": 7,
                                                       "charge_hours": 2}})
        out = tmp_path / "out"
        assert main(["fleet-gen", "--manifest", manifest,
                     "--out", str(out)]) == 0
        fleet = self.read_fleet(out)
        assert len(fleet) == 3
        for row in fleet:
            assert float(row["rate_kw"]) == 7.0
            assert float(row["duration_hours"]) == 2.0

    def test_jitter_is_a_symmetric_range(self, tmp_path):
        def fleet_csv(heterogeneity, name):
            manifest = write_manifest(tmp_path, {"fleet": {
                "heterogeneity": heterogeneity}}, name=f"{name}.json")
            assert main(["fleet-gen", "--manifest", manifest,
                         "--out", str(tmp_path / name)]) == 0
            return (tmp_path / name / "fleet.csv").read_text()

        jitter = fleet_csv({"rate_jitter": 0.25, "duration_jitter": 0.5}, "j")
        ranges = fleet_csv({"rate_range": [0.75, 1.25],
                            "duration_range": [0.5, 1.5]}, "r")
        assert jitter == ranges
        assert jitter != fleet_csv({}, "none")

    @pytest.mark.parametrize("manifest", [
        {"fleet": {"charger_kilowatts": 7}},
        {"fleet": {"heterogeneity": {"rate_jiter": 0.1}}},
        {"fleet": {"charger_kw": 7, "ev_rate": 3.3}},
        {"fleet": {"heterogeneity": {"rate_jitter": 1.5}}},
        {"fleet": {"heterogeneity": {"duration_range": 2}}},
        {"fleet": {"start_window": 5}},
        {"fleet": {"heterogeneity": [0.1]}},
        {"fleet": {"charge_hours": 1.1}},
        lambda tmp_path: {"baseload": {"csv": baseload_csv(tmp_path, lambda x: x[:2])}},
        lambda tmp_path: {"baseload": {"csv": baseload_csv(
            tmp_path, lambda x: x[:5] + [x[5] + ",9"] + x[6:])}},
        lambda tmp_path: {"baseload": {"csv": baseload_csv(
            tmp_path, lambda x: x[:5] + ["  "] + x[5:])}},
        # the other sections, and the file itself, are checked as strictly
        {"baseload": {"synth": {"bogus": 1}}},
        {"baseload": {"synth": {"peak_slots": [4, 10, 24]}}},
        {"baseload": {"synth": {"peak_slots": [-1, 10, 16]}}},
        {"baseload": {"synth": {"peak_slots": [4, 10, 10]}}},
        {"engine": 5},
        {"engine": {"max_iter": 3}},
        {"grid": {"slot": 24}},
        {"emit": {"reports": True}},
        {"emit": {"report": "yes"}},
        {"objective": {"kind": "track"}},
        {"objective": {"kind": "track", "target": [1.0, 2.0]}},
        {"objective": {"kind": "flatten", "target": [1.0] * 24}},
        {"outdir": "x"},
        "[1, 2]",
        "{not json",
        '{"fleet": {"penetration": 1e400}}',  # JSON reads it as infinity
        '{"fleet": {"households": 1' + "0" * 5000 + "}}",
    ], ids=["unknown-key", "unknown-jitter-key", "two-rate-keys",
            "jitter-out-of-range", "bad-range", "window-not-pair",
            "heterogeneity-not-object", "hours-off-grid", "baseload-csv-one-row",
            "baseload-csv-third-field", "baseload-csv-line-of-spaces", "unknown-synth-key",
            "peak-slot-past-grid", "peak-slot-negative", "peak-slot-repeated",
            "engine-not-object", "unknown-engine-key", "unknown-grid-key",
            "unknown-emit-key", "emit-not-bool", "track-without-target",
            "target-off-grid", "flatten-with-target", "unknown-top-level-key",
            "manifest-not-object", "manifest-not-json", "penetration-1e400",
            "integer-past-digit-limit"])
    def test_bad_fleet_key_exits_2(self, tmp_path, capsys, manifest):
        """Every manifest section, not only `fleet`: a bad one exits 2."""
        if callable(manifest):  # the manifest names a file it needs
            manifest = manifest(tmp_path)
        if isinstance(manifest, str):  # the file itself is malformed
            (tmp_path / "manifest.json").write_text(manifest)
            manifest = str(tmp_path / "manifest.json")
        else:
            manifest = write_manifest(tmp_path, manifest)
        assert main(["fleet-gen", "--manifest", manifest,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [False, 0, [], "", None, 5],
                             ids=["false", "zero", "list", "string", "null", "five"])
    def test_heterogeneity_that_is_not_an_object_exits_2(self, tmp_path, capsys, value):
        """A falsy value too: it does not stand for identical EVs."""
        manifest = write_manifest(tmp_path, {"fleet": {"heterogeneity": value}})
        assert main(["fleet-gen", "--manifest", manifest,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: bad fleet: heterogeneity must be an object, got {value!r}\n")
        assert not (tmp_path / "out").exists()

    def test_empty_heterogeneity_is_identical_evs(self, tmp_path):
        """`{}` gives what no `heterogeneity` key gives: EVs sharing one set."""
        manifest = write_manifest(tmp_path, {"fleet": {"heterogeneity": {}}})
        fleet = load_manifest(manifest, SimpleNamespace()).fleet
        assert fleet.heterogeneity is None
        for name, out in ((manifest, "empty"),
                          (write_manifest(tmp_path, name="plain.json"), "plain")):
            assert main(["fleet-gen", "--manifest", name, "--out", str(tmp_path / out)]) == 0
        assert (read_rows(tmp_path / "empty" / "fleet.csv")
                == read_rows(tmp_path / "plain" / "fleet.csv"))

    @pytest.mark.parametrize("row,key,value", MANIFEST_CASES, ids=[
        f"{key}-{case_id(value)}" for _, key, value in MANIFEST_CASES])
    def test_manifest_rejects_what_the_spec_rejects(self, tmp_path, monkeypatch, capsys,
                                                    row, key, value):
        """fleet-gen exits 2 naming the spec's field, and writes nothing."""
        extra = value
        for name in reversed(key.split(".")):
            extra = {name: extra}
        manifest = write_manifest(tmp_path, extra)
        monkeypatch.chdir(tmp_path)
        assert main(["fleet-gen", "--manifest", manifest]
                    + ([] if key == "out" else ["--out", "out"])) == 2
        read = json.loads(json.dumps(value, default=lambda v: v.item()))
        section = key.rpartition(".")[0] or "manifest"
        assert capsys.readouterr().err == (
            f"error: bad {section}: {row.prefix} {row.want}, got {read!r}\n")
        assert os.listdir(tmp_path) == ["manifest.json"]
