"""Numerical kernel for 3-space tangent geometry with a circulant metric,
its cyclic-shift isometry, and the indefinite metric the pair induces."""

from .core import *
from .frames import *
from .quadrics import *
from .conics import *
from .oracle import *

__version__ = "0.1.0"
