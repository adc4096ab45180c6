"""Freeze/thaw heat flow with equilibrium, kinetic, and hysteretic closures."""

from .constitutive import (
    HysteresisEnvelope,
    ScaledMaterial,
    calibrate_envelope,
    capacity_energy,
    conductivity,
    equilibrium_fraction,
)
from .errors import (
    ConfigError,
    CryostefError,
    DegenerateCalibration,
    InfeasibleState,
    InvalidBounds,
    NonConvergence,
    SingularJacobian,
)
from .grid import Grid1D, StiffnessAssembly, assemble
from .play import ConstraintInterval, drive_play, play_step, resolvent
from .solve import SolverOptions, StepReport
from .stepper import Closure, TimeState, advance

__version__ = "0.1.0"

__all__ = [
    "Closure",
    "ConfigError",
    "ConstraintInterval",
    "CryostefError",
    "DegenerateCalibration",
    "Grid1D",
    "HysteresisEnvelope",
    "InfeasibleState",
    "InvalidBounds",
    "NonConvergence",
    "ScaledMaterial",
    "SingularJacobian",
    "SolverOptions",
    "StepReport",
    "StiffnessAssembly",
    "TimeState",
    "advance",
    "assemble",
    "calibrate_envelope",
    "capacity_energy",
    "conductivity",
    "drive_play",
    "equilibrium_fraction",
    "play_step",
    "resolvent",
]
