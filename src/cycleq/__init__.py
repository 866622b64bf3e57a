"""Counting equivalence classes of S_n under two-sided shifts by a full cycle.

Two permutations alpha and beta of {1..n} are equivalent when some powers of
a fixed full cycle sigma connect them, sigma^k * alpha == beta * sigma^l.
This package computes the number of such classes exactly for any n, builds
the divisor graph for export and verification, solves and enumerates the
underlying equations constructively, and cross-checks everything for small n
with a brute-force pass over the whole group.

Every name in a library module's __all__ is importable from here.
"""

from . import class_graph, counting, equation_solver, oracle, permutation, zn_ring
from .class_graph import *
from .counting import *
from .equation_solver import *
from .oracle import *
from .permutation import *
from .zn_ring import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += class_graph.__all__
__all__ += counting.__all__
__all__ += equation_solver.__all__
__all__ += oracle.__all__
__all__ += permutation.__all__
__all__ += zn_ring.__all__
