"""Frobenius pushforward structure of a polynomial ring.

For q = p^e the monomials x^b with 0 <= b_i < q form a free basis of
S = F_p[x] over its subring of q-th powers, so every g has a unique
expansion g = sum_b g_b^q * x^b.  Exponents are split by q with
`divmod`: `_split` splits a term dict for `frob_expand`, and bracket
roots split each product term as they form it and take every
component.  The trace Tr^e is the top slot b = (q-1, ..., q-1); this
normalization is fixed once and for all, which is harmless because
images of ideals are insensitive to unit factors.  No engine route
reads one slot alone, so the trace by itself lives in the tests.

Every p^{-e}-linear map of S is g -> Tr^e(u * g) for one u, and the
map is the divisor pair (u, 1, e) (`fsing.PairDivisor`); a pair
(f, a, e) is the map with u = f^a.  `apply_cartier` takes the pair, and
composites are `PairDivisor.rescale`.  Its image ideal is the bracket
root of u * J, formed in one pass over term dicts: each term of u * g
is split as it is formed and summed into its component.  Its generators
are the polynomial components, each made monic on its dict with its
lead found once and kept once, followed by the minimal one-term
components: a monomial component divisible by another generates
nothing new (Dickson; Cox–Little–O'Shea, *Ideals, Varieties, and
Algorithms*, §2.4).  The terms of a cone multiplier mostly lie in
distinct residue classes mod q, so most components are monomials, and
most of those are redundant.
"""

from __future__ import annotations

from itertools import repeat
from operator import add
from typing import TYPE_CHECKING, Dict, Iterable

from .config import current_caps
from .errors import DomainError, ResourceError
from .ideal import Ideal, _minimal_monomials
from .ring import MultiPoly, PolyRing, grevlex_key

if TYPE_CHECKING:
    from .fsing import PairDivisor


def _check_level(ring: PolyRing, e: int) -> int:
    """q = p^e, for a level e >= 1 whose q is within the frobenius_block
    cap.  Since p^e >= 2^e, a level past the cap's bit length by more
    than 64 is refused without forming p^e (at e = 10^9 over F_5 it
    would take about 290 MB) and named as the power; any other p^e is
    small enough to form and print."""
    if e <= 0:
        raise DomainError(f"Frobenius level must be >= 1, got {e}")
    limit = current_caps().frobenius_block
    if e > limit.bit_length() + 64:
        raise ResourceError("frobenius_block", limit, f"p^e = {ring.p}^{e}")
    q = ring.p ** e
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


def _root(ring: PolyRing, u: dict, generators: Iterable[MultiPoly],
          e: int) -> Ideal:
    """Bracket root of u * J for the term dict u: the monic components of
    each u * g, generator by generator and in ascending order of b.  Each
    product term is split by q as it is formed; the split is a bijection,
    so the components are those of the whole product.  A polynomial
    component is made monic on its dict, kept once and comes with its
    leading exponent cached.  The one-term components, most of them, are
    collected as exponents, and only their minimal elements follow,
    grevlex-descending: a monomial that another divides adds nothing to
    the ideal (Dickson)."""
    q = _check_level(ring, e)
    qs = repeat(q)
    p = ring.p
    gens = []
    seen = set()
    monomials = set()
    for g in generators:
        outer, inner = u, g._terms
        if len(outer) > len(inner):
            outer, inner = inner, outer
        buckets: Dict[tuple, dict] = {}
        for ea, ca in outer.items():
            for eb, cb in inner.items():
                v, b = zip(*map(divmod, map(add, ea, eb), qs))
                component = buckets.get(b)
                if component is None:
                    buckets[b] = {v: ca * cb % p}
                    continue
                c = (component.get(v, 0) + ca * cb) % p
                if c:
                    component[v] = c
                else:
                    # p is prime, so only a term already there can cancel
                    del component[v]
                    if not component:
                        del buckets[b]
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
    return _root(ideal.ring, ideal.ring.one()._terms, ideal.generators, e)


def apply_cartier(pair: PairDivisor, ideal: Ideal) -> Ideal:
    """Image ideal of the pair's operator g -> Tr^e(f^a * g) on J:
    bracket_root(f^a * J), with no polynomial formed for f^a * g.
    Monotone in J and additive over ideal sums."""
    if ideal.ring != pair.ring:
        raise DomainError("pair and ideal live in different rings")
    return _root(ideal.ring, pair.multiplier._terms, ideal.generators,
                 pair.e)
