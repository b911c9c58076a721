"""Frobenius pushforward structure of a polynomial ring.

For q = p^e the monomials x^b with 0 <= b_i < q form a free basis of
S = F_p[x] over its subring of q-th powers, so every g has a unique
expansion g = sum_b g_b^q * x^b.  `frob_expand` is the one place that
splits exponents by q: bracket roots take every component, and the
trace operator reads the top slot b = (q-1, ..., q-1); this
normalization is fixed once and for all, which is harmless because
images of ideals are insensitive to unit factors.

Every p^{-e}-linear map of S is g -> Tr^e(u * g) for one u, and the
map is the divisor pair (u, 1, e) (`fsing.PairDivisor`); a pair
(f, a, e) is the map with u = f^a.  `apply_cartier` takes the pair, and
composites are `PairDivisor.rescale`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from .config import current_caps
from .errors import DomainError, ResourceError
from .ideal import Ideal
from .ring import MultiPoly, PolyRing

if TYPE_CHECKING:
    from .fsing import PairDivisor


def _check_level(ring: PolyRing, e: int) -> int:
    if e <= 0:
        raise DomainError(f"Frobenius level must be >= 1, got {e}")
    q = ring.p ** e
    limit = current_caps().frobenius_block
    if q > limit:
        raise ResourceError("frobenius_block", limit, f"p^e = {q}")
    return q


def frob_expand(g: MultiPoly, e: int) -> Dict[tuple, MultiPoly]:
    """The components {b: g_b} of g = sum_b g_b^q * x^b, 0 <= b_i < q,
    nonzero ones only and in ascending order of b: every exponent a
    splits as q*u + b, and coefficients pass through unchanged because
    Frobenius fixes F_p.  The split is a bijection, so no two terms of g
    land on the same term of a component."""
    q = _check_level(g.ring, e)
    buckets: Dict[tuple, dict] = {}
    for exps, c in g._terms.items():
        b = tuple(a % q for a in exps)
        buckets.setdefault(b, {})[tuple(a // q for a in exps)] = c
    return {b: MultiPoly(g.ring, buckets[b]) for b in sorted(buckets)}


def trace(g: MultiPoly, e: int) -> MultiPoly:
    """The component of the top basis monomial x^(q-1, ..., q-1).

    Monomial rule: x^a maps to x^((a - (q-1)*1)/q) when every coordinate
    of a is congruent to q-1 mod q, and to 0 otherwise.  The operator is
    p^{-e}-linear and surjective.
    """
    ring = g.ring
    components = frob_expand(g, e)
    return components.get((ring.p ** e - 1,) * ring.nvars, ring.zero())


def bracket_root(ideal: Ideal, e: int) -> Ideal:
    """Smallest ideal K with J ⊆ K^[q]: generated by all basis components
    of the generators.  Monotone in J."""
    if e <= 0:
        raise DomainError(f"bracket root needs e >= 1, got {e}")
    gens = []
    seen = set()
    for g in ideal.generators:
        for component in frob_expand(g, e).values():
            component = component.monic()
            if component not in seen:
                seen.add(component)
                gens.append(component)
    return Ideal(ideal.ring, gens)


def apply_cartier(pair: PairDivisor, ideal: Ideal) -> Ideal:
    """Image ideal of the pair's operator g -> Tr^e(f^a * g) on J:
    bracket_root(f^a * J).  Monotone in J and additive over ideal sums."""
    if ideal.ring != pair.ring:
        raise DomainError("pair and ideal live in different rings")
    u = pair.multiplier
    return bracket_root(Ideal(ideal.ring, [u * g for g in ideal.generators]),
                        pair.e)
