"""Schur-complement analysis of symmetric indefinite 2x2 block operators.

The package computes the critical positivity constant c2 of the reduced
quadratic forms of H = [[P, T^t], [T, -S]], certifies the associated
scale-of-spaces inequalities, solves H(u, v) = (F1, F2) by explicit
elimination, and applies the machinery to discretized radial
Dirac-Coulomb operators up to the optimal coupling.  The public API is
each layer's __all__, re-exported here; the command line is not.
"""

__version__ = "0.1.0"

from . import blockop, dirac, errors, solver
from .blockop import *
from .dirac import *
from .errors import *
from .solver import *

__all__ = ["__version__", *blockop.__all__, *dirac.__all__, *errors.__all__, *solver.__all__]
