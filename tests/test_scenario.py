import numpy as np
import pytest

from conftest import validate_A1A4
from valleyfill.cli import main
from valleyfill.core import TimeGrid
from valleyfill.scenario import (CANONICAL_GRID, CANONICAL_PEAK_SLOTS,
                                 BaseLoadError, BaseLoadSpec,
                                 FleetSpec, HeterogeneitySpec, SynthParams,
                                 build_case_study, build_fleet,
                                 default_baseload,
                                 load_baseload_csv, synth_baseload)


class TestCanonicalFleet:
    def test_ev_constants(self):
        fleet = build_fleet(FleetSpec(households=10, penetration=0.2))
        assert len(fleet) == 2
        for spec in fleet:
            s = spec.constraint
            assert s.m == 81
            assert s.energy == pytest.approx(13.2, rel=1e-12)      # kWh
            assert s.sqnorm == pytest.approx(43.56, rel=1e-12)     # kW^2 h
            assert s.rate_bound == pytest.approx(3.3)
            assert spec.c == pytest.approx(13.2, rel=1e-12)
            report = validate_A1A4(s, 1e-9)
            assert report.ok, report

    def test_fleet_size_rounding(self):
        assert len(build_fleet(FleetSpec(households=1000, penetration=0.5))) == 500
        assert len(build_fleet(FleetSpec(households=3, penetration=0.5))) == 2
        assert len(build_fleet(FleetSpec(households=5, penetration=0.0))) == 0
        assert len(build_fleet(FleetSpec(households=np.int64(4), penetration=1))) == 4

    def test_determinism(self):
        spec = FleetSpec(households=10, penetration=0.3,
                         heterogeneity=HeterogeneitySpec((0.8, 1.2), (0.75, 1.25)))
        f1 = build_fleet(spec, seed=5)
        f2 = build_fleet(spec, seed=5)
        for a, b in zip(f1, f2):
            assert np.array_equal(a.constraint.members, b.constraint.members)
        f3 = build_fleet(spec, seed=6)
        assert any(not np.array_equal(a.constraint.members, c.constraint.members)
                   for a, c in zip(f1, f3))


class TestHeterogeneity:
    def test_jittered_fleet_stays_admissible(self):
        spec = FleetSpec(households=20, penetration=1.0,
                         heterogeneity=HeterogeneitySpec((0.7, 1.3), (0.8, 1.2)))
        for load in build_fleet(spec, seed=1):
            report = validate_A1A4(load.constraint, 1e-9)
            assert report.ok, report
            # duration snaps to whole slots
            s = load.constraint
            duration_slots = s.energy / s.rate_bound / CANONICAL_GRID.dt
            assert duration_slots == pytest.approx(round(duration_slots), abs=1e-9)

    def test_rate_scaling_quadratic_in_sqnorm(self):
        base = build_fleet(FleetSpec(households=1, penetration=1.0))[0].constraint
        doubled = build_fleet(FleetSpec(households=1, penetration=1.0,
                                        ev_rate=6.6))[0].constraint
        assert doubled.energy == pytest.approx(2.0 * base.energy, rel=1e-12)
        assert doubled.sqnorm == pytest.approx(4.0 * base.sqnorm, rel=1e-12)

    def test_long_pulse_shrinks_window(self):
        spec = FleetSpec(households=1, penetration=1.0, ev_duration_hours=5.0)
        s = build_fleet(spec)[0].constraint
        # a 5 h pulse (20 slots) fits at starts 0..76 only
        assert s.m == 77

    def test_window_with_no_room_rejected(self):
        spec = FleetSpec(households=1, penetration=1.0, start_window=(90, 95))
        with pytest.raises(ValueError):
            build_fleet(spec)


class TestSynthBaseload:
    def test_default_curve_levels(self):
        p = default_baseload()
        assert p.values.min() == pytest.approx(0.9)
        assert p.values.max() == pytest.approx(1.1)
        evening, valley, morning = CANONICAL_PEAK_SLOTS
        assert p.values[evening] == pytest.approx(1.1)
        assert p.values[valley] == pytest.approx(0.9)
        assert p.values[morning] == pytest.approx(1.0)

    def test_constant_anchors_give_flat_curve(self):
        g = TimeGrid(24.0, 96)
        p = synth_baseload(SynthParams(0.7, 0.7, 0.7, (4, 36, 52)), g)
        assert np.allclose(p.values, 0.7, atol=1e-12)

    def test_seam_continuity(self):
        p = default_baseload()
        diffs = np.abs(np.diff(np.concatenate([p.values, p.values[:1]])))
        # half-cosine ramps: step never exceeds the coarse slope bound
        assert diffs.max() < 0.1

    def test_nonstandard_grid(self):
        g = TimeGrid(24.0, 48)
        p = default_baseload(g)
        assert p.values.min() == pytest.approx(0.9)
        assert p.values.max() == pytest.approx(1.1)

    @pytest.mark.parametrize("slots", [1, 2, 4])
    def test_grid_too_small_for_the_peaks(self, slots):
        """The scaled default peak slots collide on very small grids."""
        with pytest.raises(ValueError, match=rf"baseload.synth.peak_slots .* {slots}-slot"):
            default_baseload(TimeGrid(2.0, slots))

    @pytest.mark.parametrize("peak_slots, slots", [((0, 2, 2), 4), ((4, 36, 200), 96),
                                                   ((-1, 10, 16), 96)])
    def test_explicit_peak_slots_are_checked(self, peak_slots, slots):
        with pytest.raises(ValueError, match=rf"baseload.synth.peak_slots .* {slots}-slot"):
            synth_baseload(SynthParams(peak_slots=peak_slots), TimeGrid(24.0, slots))


class TestCsvLoader:
    def write(self, tmp_path, rows, header="slot,kw_per_household"):
        path = tmp_path / "base.csv"
        lines = [header] + rows
        path.write_text("\n".join(lines) + "\n", errors="surrogateescape")  # \udcff: 0xff
        return path

    def test_round_trip(self, tmp_path):
        g = TimeGrid(2.0, 4)
        rows = [f"{i},{v}" for i, v in enumerate([0.5, 1.25, 0.0, 2.0])]
        p = load_baseload_csv(self.write(tmp_path, rows), g)
        assert np.array_equal(p.values, [0.5, 1.25, 0.0, 2.0])

    def test_bad_header(self, tmp_path):
        g = TimeGrid(2.0, 4)
        path = self.write(tmp_path, ["0,1.0"], header="slot,kw")
        with pytest.raises(BaseLoadError, match="line 1"):
            load_baseload_csv(path, g)

    def test_short_file_reports_following_line(self, tmp_path):
        g = TimeGrid(2.0, 4)
        rows = [f"{i},1.0" for i in range(3)]
        with pytest.raises(BaseLoadError, match="line 5.*expected 4 rows"):
            load_baseload_csv(self.write(tmp_path, rows), g)

    def test_extra_rows(self, tmp_path):
        g = TimeGrid(2.0, 4)
        rows = [f"{i},1.0" for i in range(5)]
        with pytest.raises(BaseLoadError, match="line 6"):
            load_baseload_csv(self.write(tmp_path, rows), g)

    def test_out_of_order_slots(self, tmp_path):
        g = TimeGrid(2.0, 4)
        rows = ["0,1.0", "2,1.0", "1,1.0", "3,1.0"]
        with pytest.raises(BaseLoadError, match="line 3.*expected slot 1"):
            load_baseload_csv(self.write(tmp_path, rows), g)

    def test_negative_value(self, tmp_path):
        g = TimeGrid(2.0, 4)
        rows = ["0,1.0", "1,-0.5", "2,1.0", "3,1.0"]
        with pytest.raises(BaseLoadError, match="line 3.*negative"):
            load_baseload_csv(self.write(tmp_path, rows), g)

    def test_unparsable_row(self, tmp_path):
        g = TimeGrid(2.0, 4)
        rows = ["0,1.0", "one,1.0", "2,1.0", "3,1.0"]
        with pytest.raises(BaseLoadError, match="line 3.*unparsable"):
            load_baseload_csv(self.write(tmp_path, rows), g)

    @pytest.mark.parametrize("row", ["1,1_0", "0_1,1.0", "1,\u0661", "1,1.0\udcff"],
                             ids=["separator-in-value", "separator-in-slot",
                                  "non-ascii-digit", "non-utf-8-byte"])
    def test_numbers_np_loadtxt_rejects_are_unparsable(self, tmp_path, row):
        g = TimeGrid(2.0, 4)
        rows = ["0,1.0", row, "2,1.0", "3,1.0"]
        with pytest.raises(BaseLoadError, match="line 3.*unparsable"):
            load_baseload_csv(self.write(tmp_path, rows), g)

    @pytest.mark.parametrize("row", ["1,1.0,9", "1", "1,1.0,"])
    def test_row_of_other_than_two_fields(self, tmp_path, row):
        g = TimeGrid(2.0, 4)
        rows = ["0,1.0", row, "2,1.0", "3,1.0"]
        with pytest.raises(BaseLoadError, match="line 3.*expected 2 fields"):
            load_baseload_csv(self.write(tmp_path, rows), g)

    @pytest.mark.parametrize("at", [4, 1], ids=["trailing", "interior"])
    def test_empty_line_is_skipped(self, tmp_path, at):
        g = TimeGrid(2.0, 4)
        rows = [f"{i},{v}" for i, v in enumerate([0.5, 1.25, 0.0, 2.0])]
        clean = load_baseload_csv(self.write(tmp_path, rows), g)
        rows.insert(at, "")
        assert load_baseload_csv(self.write(tmp_path, rows), g) == clean

    @pytest.mark.parametrize("rows,message", [
        (["0,1.0", "", "1,-0.5", "2,1.0", "3,1.0"], "line 4: negative"),
        (["0,1.0", "  ", "1,1.0", "2,1.0", "3,1.0"], "line 3: expected 2 fields"),
        (["0,1.0", "", "1,1.0", "", ""], "line 7: expected 4 rows, got 2"),
    ], ids=["error-past-an-empty-line", "line-of-spaces", "short-with-empty-lines"])
    def test_errors_name_the_files_line(self, tmp_path, rows, message):
        with pytest.raises(BaseLoadError, match=message):
            load_baseload_csv(self.write(tmp_path, rows), TimeGrid(2.0, 4))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_value_not_finite(self, tmp_path, value):
        g = TimeGrid(2.0, 4)
        rows = ["0,1.0", "1,1.0", f"2,{value}", "3,1.0"]
        with pytest.raises(BaseLoadError, match=f"line 4: value '{value}' is not finite"):
            load_baseload_csv(self.write(tmp_path, rows), g)


class TestCaseStudy:
    def test_base_scales_with_households(self):
        spec = FleetSpec(households=1000, penetration=0.2)
        b, fleet = build_case_study(spec, BaseLoadSpec(synth=SynthParams()))
        assert len(fleet) == 200
        per = default_baseload()
        assert np.allclose(b.values, 1000.0 * per.values, rtol=1e-12)

    def test_csv_source(self, tmp_path):
        g = TimeGrid(2.0, 4)
        path = tmp_path / "b.csv"
        path.write_text("slot,kw_per_household\n0,1.0\n1,2.0\n2,0.5\n3,0.0\n")
        spec = FleetSpec(households=10, penetration=0.0)
        b, fleet = build_case_study(spec, BaseLoadSpec(csv_path=str(path)),
                                    grid=g)
        assert fleet == []
        assert np.allclose(b.values, [10.0, 20.0, 5.0, 0.0])

    def test_spec_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            BaseLoadSpec()
        with pytest.raises(ValueError):
            BaseLoadSpec(csv_path="x.csv", synth=SynthParams())


class TestManifest:
    def test_manifest_columns(self, tmp_path):
        fleet = build_fleet(FleetSpec(households=10, penetration=0.2))
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"fleet": {"households": 10, "penetration": 0.2}}')
        assert main(["fleet-gen", "--manifest", str(manifest),
                     "--out", str(tmp_path)]) == 0
        path = tmp_path / "fleet.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,rate_kw,duration_hours,first_start_slot,last_start_slot,members"
        assert len(lines) == 1 + len(fleet)
        row = lines[1].split(",")
        assert row[0] == "0"
        assert float(row[1]) == pytest.approx(3.3)
        assert float(row[2]) == pytest.approx(4.0)
        assert row[3:] == ["0", "80", "81"]
