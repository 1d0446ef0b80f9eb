"""Interval halving with a continuously selected pivot.

The package provides the iteration and its exact-rational and float
backends (:mod:`interpbisect.core`), rational helpers
(:mod:`interpbisect.numerics`), a small expression language for the
functions being bracketed (:mod:`interpbisect.funcdsl`), mechanical
trace verification (:mod:`interpbisect.verifier`), and a command line
front end with SVG plotting (:mod:`interpbisect.cli`).
"""

from . import core, funcdsl, numerics, verifier
from .numerics import *
from .funcdsl import *
from .core import *
from .verifier import *

__version__ = "0.1.0"

__all__ = ["__version__", *numerics.__all__, *funcdsl.__all__, *core.__all__, *verifier.__all__]
