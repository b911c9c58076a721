"""Frobenius pushforward structure of a polynomial ring.

For q = p^e the monomials x^b with 0 <= b_i < q form a free basis of
S = F_p[x] over its subring of q-th powers, so every g has a unique
expansion g = sum_b g_b^q * x^b.  The trace Tr^e is the top slot
b = (q-1, ..., q-1); this normalization is fixed once and for all,
which is harmless because images of ideals are insensitive to unit
factors.  No engine route reads one slot alone, so the trace by itself
lives in the tests.

Every p^{-e}-linear map of S is g -> Tr^e(u * g) for one u, and the
map is the divisor pair (u, 1, e) (`fsing.PairDivisor`); a pair
(f, a, e) is the map with u = f^a.  `apply_cartier` takes the pair, and
composites are `PairDivisor.rescale`.  Its image ideal is the bracket
root of u * J, formed in one pass: each term of u * g is split by q as
it is formed and summed into its component.  Its generators are the
monic polynomial components, each kept once, in ascending order of b,
then the minimal one-term components, grevlex-descending: a monomial
component divisible by another generates nothing new (Dickson;
Cox–Little–O'Shea, *Ideals, Varieties, and Algorithms*, §2.4).  The
terms of a cone multiplier mostly lie in distinct residue classes mod
q, so most components are monomials, and most of those are redundant.

The split runs on packed keys.  `_words` splits a term once into the
field words (`ring.Packing.direct`) of v and b in a = q*v + b: the
multiplier once per pair, each generator once per image.  A term of
u * g is then two word sums, and a residue field that reaches q
carries one into v: the residue fields sum to less than 2q, so adding
2^(w-1) - q to every field sets a field's guard bit exactly when it
carries.  `Packing.key` returns v to a key by one multiplication.  The
product's degree is checked against the packing's limit first, so
every word and key is exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable

from .config import current_caps
from .errors import DomainError, ResourceError
from .ideal import Ideal, _minimal_monomials
from .ring import MultiPoly, PolyRing

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


def _words(f: MultiPoly, q: int) -> list:
    """(v, b, coefficient) per term of f, for its exponents a = q*v + b
    with 0 <= b_i < q, v and b as field words."""
    packing = f.ring._packing
    mask, shift, offsets = packing.mask, packing.shift, packing._offsets
    top, w = packing._top, packing.width
    out = []
    for k, c in f._terms.items():
        fields = ((k >> shift) << top) - (k << w) + k  # packing.direct(k)
        if k >> shift < q:
            out.append((0, fields, c))  # every exponent is below q
            continue
        v = 0
        for at in offsets:
            v |= ((fields >> at) & mask) // q << at
        out.append((v, fields - q * v, c))
    return out


def frob_expand(g: MultiPoly, e: int) -> Dict[tuple, MultiPoly]:
    """The components {b: g_b} of g = sum_b g_b^q * x^b, 0 <= b_i < q,
    nonzero ones only and in ascending order of b.  The split is a
    bijection, and Frobenius fixes the coefficients."""
    packing = g.ring._packing
    buckets: Dict[tuple, dict] = {}
    for v, b, c in _words(g, _check_level(g.ring, e)):
        buckets.setdefault(packing.exponents(b), {})[packing.key(v)] = c
    return {b: MultiPoly(g.ring, buckets[b]) for b in sorted(buckets)}


def _root(ring: PolyRing, u: list, degree: int,
          generators: Iterable[MultiPoly], q: int) -> Ideal:
    """Bracket root of u * J for the `_words` u of a multiplier of this
    degree, generated as the module docstring says.  The split is a
    bijection, so the components of the product terms, each split as it
    is formed, are those of the whole product.  Polynomial components
    come with their leads cached; one-term components are collected as
    field words v, and only the minimal ones are kept."""
    packing = ring._packing
    p = ring.p
    guard, w = packing.guard, packing.width
    ones, keys = packing.ones, packing._keys  # v * ones & keys is key(v)
    carries = ones * max(packing.limit - q, 0)
    gens = []
    seen = set()
    monomials = set()
    for g in generators:
        packing.check(degree + g.degree(), "trace")
        outer, inner = u, _words(g, q)
        if len(outer) > len(inner):
            outer, inner = inner, outer
        buckets: Dict[int, dict] = {}
        for va, ba, ca in outer:
            for vb, bb, cb in inner:
                v, b = va + vb, ba + bb
                carry = (b + carries) & guard
                if carry:
                    carry >>= w - 1
                    v += carry
                    b -= q * carry
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
        monomials.update(*(c for c in buckets.values() if len(c) == 1))
        polys = [b for b, component in buckets.items() if len(component) > 1]
        for b in sorted(polys, key=packing.exponents):
            component = {v * ones & keys: c for v, c in buckets[b].items()}
            lead = max(component)
            lc = component[lead]
            if lc != 1:
                inv = pow(lc, -1, p)
                component = {k: c * inv % p for k, c in component.items()}
            frozen = frozenset(component.items())
            if frozen not in seen:
                seen.add(frozen)
                poly = MultiPoly(ring, component)
                poly._lead = lead
                gens.append(poly)
    minimal = [v * ones & keys for v in _minimal_monomials(monomials, guard)]
    for lead in sorted(minimal, reverse=True):
        poly = MultiPoly(ring, {lead: 1})
        poly._lead = lead
        gens.append(poly)
    return Ideal(ring, gens)


def bracket_root(ideal: Ideal, e: int) -> Ideal:
    """Smallest ideal K with J ⊆ K^[q]: generated by the basis components
    of the generators, the polynomial ones and the minimal monomial
    ones.  Monotone in J."""
    q = _check_level(ideal.ring, e)
    return _root(ideal.ring, [(0, 0, 1)], 0, ideal.generators, q)


def apply_cartier(pair: PairDivisor, ideal: Ideal) -> Ideal:
    """Image ideal of the pair's operator g -> Tr^e(f^a * g) on J:
    bracket_root(f^a * J), with no polynomial formed for f^a * g.
    Monotone in J and additive over ideal sums."""
    if ideal.ring != pair.ring:
        raise DomainError("pair and ideal live in different rings")
    q = _check_level(ideal.ring, pair.e)
    return _root(ideal.ring, pair._split_multiplier, pair.multiplier.degree(),
                 ideal.generators, q)
