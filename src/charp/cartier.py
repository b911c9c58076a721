"""Frobenius pushforward structure of a polynomial ring.

For q = p^e the monomials x^b with 0 <= b_i < q form a free basis of
S = F_p[x] over its subring of q-th powers, so every g has a unique
expansion g = sum_b g_b^q * x^b.  `_split` is the one place that
splits exponents by q, on a term dict with `divmod`: `frob_expand`
wraps its components in polynomials, and bracket roots take every
component.  The trace Tr^e is the top slot b = (q-1, ..., q-1); this
normalization is fixed once and for all, which is harmless because
images of ideals are insensitive to unit factors.  No engine route
reads one slot alone, so the trace by itself lives in the tests.

Every p^{-e}-linear map of S is g -> Tr^e(u * g) for one u, and the
map is the divisor pair (u, 1, e) (`fsing.PairDivisor`); a pair
(f, a, e) is the map with u = f^a.  `apply_cartier` takes the pair, and
composites are `PairDivisor.rescale`.  Its image ideal is the bracket
root of u * J, formed in one pass over term dicts: each product u * g
is a term dict that is split at once.  Its generators are the
polynomial components, each made monic on its dict with its lead found
once and kept once, followed by the minimal one-term components: a
monomial component divisible by another generates nothing new
(Dickson; Cox–Little–O'Shea, *Ideals, Varieties, and Algorithms*,
§2.4).  The terms of a cone multiplier mostly lie in distinct residue
classes mod q, so most components are monomials, and most of those are
redundant.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from .config import current_caps
from .errors import DomainError, ResourceError
from .ideal import Ideal, _minimal_monomials
from .ring import MultiPoly, PolyRing, _mul_terms, grevlex_key

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


def _split(terms: dict, q: int) -> Dict[tuple, dict]:
    """The components {b: {u: c}} of a term dict: every exponent a splits
    as q*u + b with 0 <= b_i < q, and coefficients pass through unchanged
    because Frobenius fixes F_p.  The split is a bijection, so no two
    terms land on the same term of a component."""
    buckets: Dict[tuple, dict] = {}
    for exps, c in terms.items():
        u, b = zip(*map(divmod, exps, repeat(q)))
        component = buckets.get(b)
        if component is None:
            component = buckets[b] = {}
        component[u] = c
    return buckets


def frob_expand(g: MultiPoly, e: int) -> Dict[tuple, MultiPoly]:
    """The components {b: g_b} of g = sum_b g_b^q * x^b, 0 <= b_i < q,
    nonzero ones only and in ascending order of b."""
    buckets = _split(g._terms, _check_level(g.ring, e))
    return {b: MultiPoly(g.ring, buckets[b]) for b in sorted(buckets)}


def _root(ring: PolyRing, u: Optional[dict], generators: Iterable[MultiPoly],
          e: int) -> Ideal:
    """Bracket root of u * J for the term dict u (None for u = 1): the
    monic components of each u * g, generator by generator and in
    ascending order of b.  A polynomial component is made monic on its
    dict, kept once and comes with its leading exponent cached.  The
    one-term components, most of them, are collected as exponents, and
    only their minimal elements follow, grevlex-descending: a monomial
    that another divides adds nothing to the ideal (Dickson)."""
    q = _check_level(ring, e)
    p = ring.p
    gens = []
    seen = set()
    monomials = set()
    for g in generators:
        terms = g._terms if u is None else _mul_terms(u, g._terms, p)
        buckets = _split(terms, q)
        for b in sorted(buckets):
            component = buckets[b]
            if len(component) == 1:
                monomials.update(component)
                continue
            lead = max(component, key=grevlex_key)
            lc = component[lead]
            if lc != 1:
                inv = pow(lc, -1, p)
                component = {k: c * inv % p for k, c in component.items()}
            key = frozenset(component.items())
            if key not in seen:
                seen.add(key)
                poly = MultiPoly(ring, component)
                poly._lead = lead
                gens.append(poly)
    for lead in sorted(_minimal_monomials(monomials), key=grevlex_key,
                       reverse=True):
        poly = MultiPoly(ring, {lead: 1})
        poly._lead = lead
        gens.append(poly)
    return Ideal(ring, gens)


def bracket_root(ideal: Ideal, e: int) -> Ideal:
    """Smallest ideal K with J ⊆ K^[q]: generated by the basis components
    of the generators, the polynomial ones and the minimal monomial
    ones.  Monotone in J."""
    return _root(ideal.ring, None, ideal.generators, e)


def apply_cartier(pair: PairDivisor, ideal: Ideal) -> Ideal:
    """Image ideal of the pair's operator g -> Tr^e(f^a * g) on J:
    bracket_root(f^a * J), with no polynomial formed for f^a * g.
    Monotone in J and additive over ideal sums."""
    if ideal.ring != pair.ring:
        raise DomainError("pair and ideal live in different rings")
    return _root(ideal.ring, pair.multiplier._terms, ideal.generators,
                 pair.e)
