"""Distributed load balancing with convex and finite-set constraints.

A simulator and library for valley-filling service scheduling: a
deterministic gradient-projection update for convex constraint sets, a
randomized hull-sampling update for finite nonconvex sets, exact
theory-verification oracles, and an in-process or networked
coordinator/agent runner.
"""

from .core import (Objective, ObjectiveKind, Profile, TimeGrid, aggregate, norm,
                   norm2)
from .engine import EngineConfig, LoadSpec, Termination, Trajectory, run
from .feasible import (ConvexChargeSet, FinitePulseSet, hull_minimize, make_pulse_set,
                       project_convex, sample)

__version__ = "0.1.0"
