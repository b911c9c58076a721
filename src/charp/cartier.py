"""Frobenius pushforward structure of a polynomial ring.

For q = p^e the monomials x^b with 0 <= b_i < q form a free basis of
S = F_p[x] over its subring of q-th powers, so every g has a unique
expansion g = sum_b g_b^q * x^b.  `frob_expand` is the one place that
splits exponents by q: bracket roots take every component, and the
trace operator reads the top slot b = (q-1, ..., q-1); this
normalization is fixed once and for all, which is harmless because
images of ideals are insensitive to unit factors.  Composites follow
the rule Tr^e(f * -) iterated n times = Tr^(ne)(f^(1+q+...+q^(n-1)) * -).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .config import current_caps
from .errors import DomainError, ResourceError
from .ideal import Ideal
from .ring import MultiPoly, PolyRing


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


@dataclass(frozen=True)
class CartierMap:
    """The p^{-e}-linear operator g -> Tr^e(multiplier * g)."""

    e: int
    multiplier: MultiPoly

    def __post_init__(self):
        if self.e <= 0:
            raise DomainError(f"Cartier map level must be >= 1, got {self.e}")
        if self.multiplier.is_zero:
            raise DomainError("Cartier map multiplier must be nonzero")

    @property
    def ring(self) -> PolyRing:
        return self.multiplier.ring

    @property
    def q(self) -> int:
        return self.ring.p ** self.e

    def iterate(self, n: int) -> "CartierMap":
        """n-fold composite: level n*e with multiplier
        f^(1 + q + ... + q^(n-1))."""
        if n <= 0:
            raise DomainError(f"composite needs n >= 1, got {n}")
        exponent = (self.q ** n - 1) // (self.q - 1)
        return CartierMap(self.e * n, self.multiplier ** exponent)

    def __call__(self, g: MultiPoly) -> MultiPoly:
        return trace(self.multiplier * g, self.e)


def apply_cartier(cmap: CartierMap, ideal: Ideal) -> Ideal:
    """Image ideal of the operator on J: bracket_root(multiplier * J).

    Monotone in J and additive over ideal sums.
    """
    if ideal.ring != cmap.ring:
        raise DomainError("Cartier map and ideal live in different rings")
    scaled = Ideal(ideal.ring, [cmap.multiplier * g for g in ideal.generators])
    return bracket_root(scaled, cmap.e)
