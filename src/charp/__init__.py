"""charp: exact Frobenius-splitting computations over prime fields.

The kernel is a sparse grevlex Gröbner engine over F_p (ring, ideal);
on top of it sit the Frobenius pushforward operators (cartier), the
fixed-ideal theory of divisor pairs (fsing), graded section spaces and
stable trace images on projective schemes (proj), and a deterministic
scenario runner (scenario, cli).
"""

from .cartier import apply_cartier, bracket_root, frob_expand
from .config import DEFAULT_CAPS, Caps, caps_scope, current_caps
from .errors import (CharpError, DomainError, ParseError, PreconditionError,
                     ResourceError, RingMismatchError, ScenarioError,
                     TestElementError, TheoremViolationError,
                     UnsupportedInputError)
from .fsing import (PairDivisor, fedder_f_pure, is_compatible,
                    is_sharply_f_pure, is_strongly_f_regular, multiplicity,
                    multiplicity_containment, sigma, tau, twist_identity)
from .ideal import Ideal, buchberger, normal_form
from .proj import (GradedSubspace, ProjScheme, degree_bound_pipeline,
                   graded_piece, is_base_point_free, is_globally_generated,
                   restriction_is_surjective, separates, space_from_polys,
                   stable_sections, stable_sections_generate, trivial_pair)
from .ring import MultiPoly, PolyRing

__version__ = "0.1.0"

__all__ = [
    "apply_cartier", "bracket_root", "frob_expand", "Caps", "DEFAULT_CAPS", "caps_scope",
    "current_caps", "CharpError",
    "DomainError", "ParseError", "PreconditionError", "ResourceError",
    "RingMismatchError", "ScenarioError", "TestElementError",
    "TheoremViolationError", "UnsupportedInputError", "PairDivisor",
    "fedder_f_pure", "is_compatible", "is_sharply_f_pure",
    "is_strongly_f_regular", "multiplicity", "multiplicity_containment",
    "sigma", "tau", "twist_identity", "Ideal", "buchberger",
    "normal_form", "GradedSubspace", "ProjScheme",
    "degree_bound_pipeline", "graded_piece", "is_base_point_free",
    "is_globally_generated", "restriction_is_surjective", "separates",
    "space_from_polys", "stable_sections", "stable_sections_generate",
    "trivial_pair", "MultiPoly", "PolyRing",
]
