"""Branching Brownian motion with two-sided selection: simulation and
numerical verification of its hydrodynamic limit.

The package has three layers.  `particles` and `discrete` simulate the
N-particle system and its discrete-time bounding systems, and `discrete`
also holds the checks of the particles against the bounds; `density` and
`wave` handle the deterministic grid scheme and the closed-form travelling
wave of the limiting free boundary problem; `exits` cross-validates both
against killed Brownian motion.  `cli` exposes all of it as subcommands.
"""

__version__ = "0.3.0"

from .randomness import RandomSource
from .particles import (
    CouplingViolationError,
    SimulationStreams,
    TrajectoryRecord,
    SpeedEstimate,
    couple_simulate,
    estimate_speed,
    simulate,
)
from .discrete import (
    BoundStep,
    BoundsRun,
    ComparisonReport,
    hydrodynamic_report,
    run_bounds,
)
from .density import (
    GridDensity,
    GridSpec,
    GridTooSmallError,
    RefineResult,
    SchemeParams,
    cut_left_amount,
    cut_right_amount,
    dominates,
    gaussian_propagate,
    iterate_scheme,
    plan_grid,
    refine_limit,
    sample_from_density,
    scale,
    tail_mass,
)
from .wave import (
    Barrier,
    TravellingWave,
    ode_residual,
    travelling_wave,
    wave_barriers,
    wave_density,
    wave_speed,
)
from .exits import (
    ExitStats,
    FluxSequence,
    PathParams,
    RepresentationResult,
    exit_statistics,
    representation_check,
    small_delta_flux,
)

__all__ = [
    "__version__",
    "RandomSource",
    "CouplingViolationError",
    "SimulationStreams",
    "TrajectoryRecord",
    "SpeedEstimate",
    "couple_simulate",
    "estimate_speed",
    "simulate",
    "BoundStep",
    "BoundsRun",
    "ComparisonReport",
    "hydrodynamic_report",
    "run_bounds",
    "GridDensity",
    "GridSpec",
    "GridTooSmallError",
    "RefineResult",
    "SchemeParams",
    "cut_left_amount",
    "cut_right_amount",
    "dominates",
    "gaussian_propagate",
    "iterate_scheme",
    "plan_grid",
    "refine_limit",
    "sample_from_density",
    "scale",
    "tail_mass",
    "Barrier",
    "TravellingWave",
    "ode_residual",
    "travelling_wave",
    "wave_barriers",
    "wave_density",
    "wave_speed",
    "ExitStats",
    "FluxSequence",
    "PathParams",
    "RepresentationResult",
    "exit_statistics",
    "representation_check",
    "small_delta_flux",
]
