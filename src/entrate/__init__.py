"""Numerical laboratory for entangling rates of open bipartite systems.

Simulates GKSL dynamics on a ⊗ A ⊗ B ⊗ b, measures how fast entanglement
across the aA | Bb cut can grow, and certifies the closed-form rate caps by
randomized sweeps.  The package exports the ``__all__`` of each module.
"""

from . import certify, dynamics, linalg, measures, rates, states
from .certify import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .linalg import *  # noqa: F403
from .measures import *  # noqa: F403
from .rates import *  # noqa: F403
from .states import *  # noqa: F403

__all__ = [name for module in (certify, dynamics, linalg, measures, rates, states) for name in module.__all__]

__version__ = "0.1.0"
