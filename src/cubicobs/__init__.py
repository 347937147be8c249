"""Cubic observer toolkit.

Structural design (unknown-input decoupling), Lyapunov-based certification,
and delay-aware simulation of cubic state observers for Lipschitz and
one-sided Lipschitz nonlinear systems.

Public names live in the submodules, each listed in that module's
``__all__``: import them from there, e.g. ``from cubicobs import sim`` or
``from cubicobs.model import load_config``.
"""

from . import cert, design, exprlang, model, numlin, sim

__version__ = "0.1.0"
