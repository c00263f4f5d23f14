import ast
import dataclasses
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import valleyfill
from conftest import ARGS, CHECKED, PULSES, case_id, rejected
from valleyfill.cli import main
from valleyfill.core import (GridMismatchError, Objective, ObjectiveKind,
                             Profile, TimeGrid, _field, _flag, _integer, _number,
                             _number_text, aggregate, norm2)
from valleyfill.engine import ConfigurationError, EngineConfig, LoadSpec
from valleyfill.netsim import RosterEntry


def grid(T=24.0, S=96):
    return TimeGrid(T, S)


class TestPublicNames:
    """Every exported or package-level name resolves."""

    @pytest.mark.parametrize("name", ["analysis", "cli", "core", "engine",
                                      "feasible", "netsim", "scenario"])
    def test_module_all_resolves(self, name):
        module = importlib.import_module(f"valleyfill.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == []

    def test_package_imports_resolve(self):
        tree = ast.parse(Path(valleyfill.__file__).read_text())
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
        assert names
        assert [n for n in names if not hasattr(valleyfill, n)] == []


# The values on which the package's former copies of each rule disagreed.
RULE_VALUES = [np.int64(3), np.True_, 2.5, True, 10**400, "3"]
RULE_IDS = ["numpy-int", "numpy-bool", "fraction", "bool", "past-float-range",
            "string"]


class TestValueRules:
    """core's one rule per input kind; a result's type is part of the rule."""

    @staticmethod
    def check(rule, value, expected):
        if isinstance(expected, type):
            with pytest.raises(expected):
                rule(value)
        else:
            result = rule(value)
            assert result == expected and type(result) is type(expected)

    @pytest.mark.parametrize("value,expected", zip(
        RULE_VALUES, [3.0, TypeError, 2.5, TypeError, ValueError, TypeError]),
        ids=RULE_IDS)
    def test_number(self, value, expected):
        self.check(_number, value, expected)

    @pytest.mark.parametrize("value,expected", zip(
        RULE_VALUES, [3, TypeError, TypeError, TypeError, ValueError, TypeError]),
        ids=RULE_IDS)
    def test_integer(self, value, expected):
        self.check(_integer, value, expected)

    @pytest.mark.parametrize("value,expected", zip(
        RULE_VALUES, [TypeError, True, TypeError, True, TypeError, TypeError]),
        ids=RULE_IDS)
    def test_flag(self, value, expected):
        self.check(_flag, value, expected)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus-inf"])
    def test_number_is_finite(self, value):
        with pytest.raises(ValueError, match="must be finite"):
            _number(value)

    @pytest.mark.parametrize("text", ["1_0", "0_4", "\u0661", "1.5e+3 2"])
    def test_number_text_is_what_loadtxt_reads(self, text):
        """Past the check, Python's int and float read what np.loadtxt reads."""
        try:
            loadtxt = np.loadtxt([text], comments=None, ndmin=1).tolist()
        except ValueError:
            loadtxt = None
        try:
            checked = [float(t) for t in _number_text(text).split()]
        except ValueError:
            checked = None
        assert checked == loadtxt


CONFIGURATION_SPECS = (EngineConfig, LoadSpec, RosterEntry)
PYTHON_TYPES = {"number": float, "integer": int, "flag": bool}


def below(rule, bound):
    """Values of `rule`'s kind that the lower bound rejects."""
    op, low = bound
    if rule == "integer":
        return st.integers(max_value=low if op == ">" else low - 1)
    return st.floats(max_value=low, allow_nan=False).filter(
        lambda x: x < low or op == ">")


def passing(rule, bound):
    """numpy values, and Python ints for a number, that the rule and the bound accept."""
    if rule == "flag":
        return st.booleans().map(np.bool_)
    low = -10**6 if bound is None else bound[1] + 1
    ints = st.integers(low, 10**6)
    if rule == "integer":
        return ints.map(np.int64)
    return ints | ints.map(np.int64) | st.floats(low, 1e6).map(np.float64)


def check_rejected(row, value):
    """Building `row`'s spec from `value` raises its error with the full message."""
    with pytest.raises(ValueError) as info:
        row.spec(**{**row.args, row.field: value})
    assert type(info.value) is (ConfigurationError if row.spec in CONFIGURATION_SPECS
                                else ValueError)
    assert str(info.value) == f"{row.prefix} {row.want}, got {value!r}"


SPEC_CASES = [(row, value) for row in CHECKED if row.spec for value in rejected(row)]


class TestCheckedFields:
    """Every spec field goes through core's one field check."""

    @pytest.mark.parametrize("row,value", SPEC_CASES, ids=[
        f"{row.spec.__name__}.{row.field}-{case_id(value)}" for row, value in SPEC_CASES])
    def test_spec_rejects(self, row, value):
        check_rejected(row, value)

    @given(st.data())
    def test_rejected_values_raise_the_specs_error_naming_the_field(self, data):
        """Values below a field's lower bound."""
        row = data.draw(st.sampled_from([row for row in CHECKED if row.bound]))
        value = data.draw(below(row.rule, row.bound))
        check_rejected(row, value if row.count is None
                       else (value,) + row.args[row.field][1:])

    def test_load_weight_defaults_to_the_sets_energy(self):
        assert LoadSpec(0, PULSES).c == PULSES.energy
        assert LoadSpec(0, PULSES, None).c == PULSES.energy

    @given(st.data())
    def test_numpy_values_are_stored_as_python_values(self, data):
        row = data.draw(st.sampled_from([row for row in CHECKED
                                         if row.spec and row.rule in PYTHON_TYPES]))
        value = data.draw(passing(row.rule, row.bound))
        values = (value,) * (row.count or 1)
        spec = row.spec(**{**row.args, row.field: values if row.count else value})
        stored = getattr(spec, row.field)
        items = stored if row.count else (stored,)
        assert items == values
        assert {type(item) for item in items} == {PYTHON_TYPES[row.rule]}
        if dataclasses.is_dataclass(spec):  # equal specs hash alike, as grids must
            assert hash(spec) == hash(row.spec(**{**row.args, row.field: stored}))

    def test_every_checked_field_has_a_row(self, monkeypatch):
        """Each spec built from valid arguments checks exactly the table's fields."""
        seen = set()

        def record(spec, name, *args, **kwargs):
            seen.add((type(spec), name))
            return _field(spec, name, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "valleyfill" and getattr(module, "_field", None) is _field:
                monkeypatch.setattr(module, "_field", record)
        for spec, args in ARGS.items():  # numpy numbers take LoadSpec past its fast path
            spec(**{k: np.asarray(v)[()] if isinstance(v, (int, float)) else v
                    for k, v in args.items()})
        assert seen == {(row.spec, row.field) for row in CHECKED if row.spec}


class TestTimeGrid:
    def test_dt_consistency(self):
        g = grid()
        assert abs(g.dt * g.slots - g.horizon_hours) <= 1e-12 * g.horizon_hours


class TestProfile:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Profile(np.zeros(5), grid())

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Profile(np.array([1.0, np.nan]), TimeGrid(1.0, 2))

    def test_values_immutable(self):
        p = Profile.zeros(grid())
        with pytest.raises(ValueError):
            p.values[0] = 1.0

    def test_signed_zeros_are_equal_and_hash_equal(self):
        g = TimeGrid(1.0, 2)
        a, b = Profile(np.array([0.0, 1.0]), g), Profile(np.array([-0.0, 1.0]), g)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_csv_round_trip(self, tmp_path):
        """`fleet-gen` writes one household's CSV base load back bit for bit."""
        g = TimeGrid(3.0, 4)
        p = Profile(np.array([0.1, 1.0 / 3.0, 2.5, 0.0]), g)
        source = tmp_path / "source.csv"
        source.write_text("slot,kw_per_household\n" + "".join(
            f"{t},{v!r}\n" for t, v in enumerate(p.values.tolist())))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "grid": {"horizon_hours": 3.0, "slots": 4},
            "fleet": {"households": 1, "penetration": 0.0},
            "baseload": {"csv": str(source)}}))
        assert main(["fleet-gen", "--manifest", str(manifest),
                     "--out", str(tmp_path)]) == 0
        path = tmp_path / "baseload.csv"
        assert path.read_text().splitlines()[0] == "slot,value_kw"
        slots, values = np.loadtxt(path, delimiter=",", skiprows=1).T
        assert np.array_equal(slots, np.arange(4))
        assert Profile(values, g) == p


class TestNorm2:
    def test_zero(self):
        assert norm2(Profile.zeros(grid())) == 0.0

    def test_canonical_pulse(self):
        g = grid()
        values = np.zeros(96)
        values[10:26] = 3.3  # 16 slots of 15 min = 4 h
        assert norm2(Profile(values, g)) == pytest.approx(43.56, rel=1e-12)

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    def test_scaling_homogeneity(self, a):
        g = TimeGrid(1.5, 3)
        f = Profile(np.array(a), g)
        doubled = Profile(2 * np.array(a), g)
        assert norm2(doubled) == pytest.approx(4 * norm2(f), rel=1e-12, abs=1e-12)


class TestAggregate:
    def test_empty(self):
        g = grid()
        b = Profile(np.linspace(0, 1, 96), g)
        assert aggregate(b, []) == b

    def test_two_copies(self):
        g = TimeGrid(1.0, 2)
        p = Profile(np.array([1.0, 2.0]), g)
        agg = aggregate(Profile.zeros(g), [p, p])
        assert np.array_equal(agg.values, [2.0, 4.0])

    def test_pointwise(self):
        g = TimeGrid(1.0, 2)
        b = Profile(np.array([1.0, 1.0]), g)
        xs = [Profile(np.array([0.0, 1.0]), g), Profile(np.array([2.0, 0.0]), g)]
        assert np.array_equal(aggregate(b, xs).values, [3.0, 2.0])

    def test_grid_mismatch(self):
        f = Profile.zeros(TimeGrid(1.0, 2))
        h = Profile.zeros(TimeGrid(1.0, 3))
        with pytest.raises(GridMismatchError):
            aggregate(f, [h])

    def test_order_independent(self):
        rng = np.random.default_rng(0)
        g = TimeGrid(4.0, 8)
        xs = [Profile(rng.uniform(0, 1, 8), g) for _ in range(5)]
        b = Profile(rng.uniform(0, 1, 8), g)
        forward = aggregate(b, xs)
        # permutation then index-order summation over the permuted list:
        # results must agree bitwise because addition runs pairwise in the
        # same sequential pattern over values that sum identically per slot
        backward = aggregate(b, xs[::-1])
        assert np.allclose(forward.values, backward.values, rtol=0, atol=1e-12)


class TestObjective:
    """The objective is norm2(aggregate(obj.effective_base(b), xs))."""

    def test_empty_zero(self):
        g = grid()
        b = Profile.zeros(g)
        assert norm2(aggregate(Objective().effective_base(b), [])) == 0.0

    def test_flat_profile(self):
        g = grid()
        mu = 1.7
        b = Profile.constant(mu, g)
        assert norm2(aggregate(Objective().effective_base(b), [])) == \
            pytest.approx(24.0 * mu * mu, rel=1e-12)

    def test_perfect_tracking(self):
        g = TimeGrid(2.0, 4)
        b = Profile(np.array([1.0, 2.0, 0.5, 0.0]), g)
        x = Profile(np.array([0.1, 0.2, 0.3, 0.4]), g)
        target = aggregate(b, [x])
        obj = Objective(ObjectiveKind.TRACK, target)
        assert norm2(aggregate(obj.effective_base(b), [x])) == \
            pytest.approx(0.0, abs=1e-15)

    def test_track_requires_target(self):
        with pytest.raises(ValueError):
            Objective(ObjectiveKind.TRACK)
