"""charp: exact Frobenius-splitting computations over prime fields.

The kernel is a sparse grevlex Gröbner engine over F_p (ring, ideal);
on top of it sit the Frobenius pushforward operators (cartier), the
fixed-ideal theory of divisor pairs (fsing), graded section spaces and
stable trace images on projective schemes (proj), and a deterministic
scenario runner (scenario, projops, cli).

`import charp` loads the pair layer (ring, ideal, cartier, fsing).  The
projective layer loads on first use: the first access to `charp.proj`
or to one of its names exported here (PEP 562 `__getattr__`) imports
it, and the name is then cached in this module's globals.
"""

import importlib

from .cartier import apply_cartier, bracket_root, frob_expand
from .config import DEFAULT_CAPS, Caps, caps_scope, current_caps
from .errors import (CharpError, DomainError, ParseError, PreconditionError,
                     ResourceError, RingMismatchError, ScenarioError,
                     TestElementError, TheoremViolationError,
                     UnsupportedInputError)
from .fsing import (PairDivisor, is_compatible, is_sharply_f_pure,
                    is_strongly_f_regular, multiplicity,
                    multiplicity_containment, sigma, tau)
from .ideal import Ideal, buchberger, normal_form
from .ring import MultiPoly, PolyRing

__version__ = "0.1.0"

# the names exported from `proj`, resolved by `__getattr__`
_PROJ_NAMES = (
    "GradedSubspace", "ProjScheme", "degree_bound_pipeline", "graded_piece",
    "is_base_point_free", "is_globally_generated",
    "restriction_is_surjective", "separates", "space_from_polys",
    "stable_sections", "stable_sections_generate", "trivial_pair",
)

__all__ = [
    "apply_cartier", "bracket_root", "frob_expand", "Caps", "DEFAULT_CAPS", "caps_scope",
    "current_caps", "CharpError",
    "DomainError", "ParseError", "PreconditionError", "ResourceError",
    "RingMismatchError", "ScenarioError", "TestElementError",
    "TheoremViolationError", "UnsupportedInputError", "PairDivisor",
    "is_compatible", "is_sharply_f_pure",
    "is_strongly_f_regular", "multiplicity", "multiplicity_containment",
    "sigma", "tau", "Ideal", "buchberger",
    "normal_form", *_PROJ_NAMES, "MultiPoly", "PolyRing",
]


def __getattr__(name: str):
    if name == "proj":
        return importlib.import_module(".proj", __name__)
    if name not in _PROJ_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(".proj", __name__), name)
    globals()[name] = value
    return value
