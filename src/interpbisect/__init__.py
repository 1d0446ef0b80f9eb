"""Interval halving with a continuously selected pivot.

The package provides the iteration and its exact-rational and float
backends (:mod:`interpbisect.core`), rational helpers
(:mod:`interpbisect.numerics`), a small expression language for the
functions being bracketed (:mod:`interpbisect.funcdsl`), mechanical
trace verification (:mod:`interpbisect.verifier`), and a command line
front end (:mod:`interpbisect.cli`) with SVG plotting
(:mod:`interpbisect.svg`).

The verifier loads on first use of one of its names (PEP 562), so a
process that checks no trace does not compile it.
"""

from . import core, funcdsl, numerics
from .numerics import *
from .funcdsl import *
from .core import *

__version__ = "0.1.0"

# interpbisect.verifier.__all__: the verifier loads on first use of one of them.
_VERIFIER_NAMES = (
    "WitnessFound", "SignsStraddle", "Violation", "ClaimOutcome", "WitnessKind", "WitnessCertificate",
    "ContinuityBudget", "check_claim", "extract_witness", "continuity_budget_check", "grid_oracle",
    "report_to_json",
)

__all__ = ["__version__", *numerics.__all__, *funcdsl.__all__, *core.__all__, *_VERIFIER_NAMES]


def __getattr__(name: str):
    if name == "verifier" or name in _VERIFIER_NAMES:
        # Not ``from . import verifier``: that looks the name up here again.
        from importlib import import_module

        verifier = import_module(".verifier", __name__)
        return verifier if name == "verifier" else getattr(verifier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
