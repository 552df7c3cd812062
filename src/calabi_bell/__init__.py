"""Exact Bell-polynomial machinery for Ricci-flat metrics of Calabi type.

The package computes, in exact rational arithmetic: partial and complete
Bell polynomials, the Taylor derivatives of the radial potential of the
Ricci-flat metric on a negative line bundle over a compact Einstein base
(by two independent routes), the block-scale constants h_r of its
fiberwise expansion, the alternating-sum sign scan whose first negative
value obstructs a projectively induced metric, and the diastasis block
matrices of the projective-space demonstration. A small numeric layer
evaluates the closed form of the potential in double precision with
branch-residue guards.
"""

# Each star import also binds its submodule (``bell``, ...) in this namespace.
from .bell import *
from .diastasis import *
from .inequality import *
from .potential import *
from .rationals import *
from .series import *

__version__ = "0.1.0"

__all__ = (
    ["__version__"]
    + rationals.__all__
    + bell.__all__
    + series.__all__
    + potential.__all__
    + inequality.__all__
    + diastasis.__all__
)
