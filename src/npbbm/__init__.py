"""Branching Brownian motion with two-sided selection: simulation and
numerical verification of its hydrodynamic limit.

The package has three layers.  `particles` and `discrete` simulate the
N-particle system and its discrete-time bounding systems, and `discrete`
also holds the checks of the particles against the bounds; `density` and
`wave` handle the deterministic grid scheme and the closed-form travelling
wave of the limiting free boundary problem; `exits` cross-validates both
against killed Brownian motion.  `cli` exposes all of it as subcommands.
Each module's `__all__` is its list of public names, and `import npbbm`
re-exports them all.
"""

__version__ = "0.3.0"

from . import density, discrete, exits, particles, randomness, stats, wave
from .density import *
from .discrete import *
from .exits import *
from .particles import *
from .randomness import *
from .stats import *
from .wave import *

__all__ = [
    "__version__",
    *density.__all__,
    *discrete.__all__,
    *exits.__all__,
    *particles.__all__,
    *randomness.__all__,
    *stats.__all__,
    *wave.__all__,
]
