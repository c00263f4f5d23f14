"""Golden trajectories: engine refactors must reproduce these runs bit for bit.

Each case hashes every record's signal, objective, escape probability,
expected next objective and changed-profile count, then the final
profiles and the termination reason.  Floats are hashed through
``repr``, which round-trips 64-bit values exactly and spells NaN one way.

To record the digests again (only when a change is meant to alter
trajectories), run from the repository root:

    PYTHONPATH=src:tests python3 tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import mixed_fleet, random_base, random_convex_set, random_pulse_set
from valleyfill.core import Objective, ObjectiveKind, Profile, TimeGrid
from valleyfill.engine import EngineConfig, LoadSpec, run
from valleyfill.scenario import (BaseLoadSpec, FleetSpec, SynthParams,
                                 build_case_study)

GOLDEN = Path(__file__).parent / "data" / "golden_trajectories.json"


def trajectory_digest(traj) -> str:
    h = hashlib.sha256()
    for rec in traj.records:
        h.update(np.ascontiguousarray(rec.g.values, dtype=np.float64).tobytes())
        h.update(repr((rec.k, rec.objective, rec.escape_probability,
                       rec.expected_next_objective,
                       rec.profiles_changed)).encode())
    for x in traj.final_profiles:
        h.update(np.ascontiguousarray(x.values, dtype=np.float64).tobytes())
    h.update(traj.terminated_by.value.encode())
    return h.hexdigest()


def case_study():
    b, loads = build_case_study(FleetSpec(households=1000, penetration=1.0),
                                BaseLoadSpec(synth=SynthParams()), seed=0)
    return run(loads, b, EngineConfig(max_iterations=20, master_seed=0,
                                      stop_on_epsilon=False,
                                      record_diagnostics=True))


def convex_fleet():
    rng = np.random.default_rng(7)
    grid = TimeGrid(12.0, 24)
    loads = [LoadSpec(i, random_convex_set(rng, grid)) for i in range(12)]
    return run(loads, random_base(rng, grid),
               EngineConfig(epsilon=1e-9, max_iterations=300))


def track_run():
    rng = np.random.default_rng(8)
    grid = TimeGrid(6.0, 12)
    loads = [LoadSpec(0, random_convex_set(rng, grid))]
    loads += [LoadSpec(i, random_pulse_set(rng, grid, m_max=5)) for i in range(1, 7)]
    b = random_base(rng, grid)
    target = Profile(rng.uniform(1.0, 4.0, grid.slots), grid)
    obj = Objective(ObjectiveKind.TRACK, target)
    return run(loads, obj.effective_base(b),
               EngineConfig(max_iterations=40, master_seed=5, stop_on_epsilon=False))


CASES = {"case-study-seed-0": case_study,
         # acceptance criterion 9's fleets, named by their generators' seeds
         **{f"mixed-fleet-{90_000 + seed}": (lambda seed=seed: run(*mixed_fleet(seed)))
            for seed in range(10)},
         "convex-fleet": convex_fleet,
         "track": track_run}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert trajectory_digest(CASES[name]()) == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({name: trajectory_digest(make())
                                  for name, make in sorted(CASES.items())},
                                 indent=2) + "\n")
    print(f"wrote {GOLDEN}")
