"""F-singularity ideals of pairs on affine space and cones.

A pair divisor (f, a, e) encodes the effective Q-divisor
Delta = (a/(p^e-1)) * div(f), whose log-discrepancy data is carried by
the p^{-e}-linear operator g -> Tr^e(f^a * g).  The pair is the
operator: every such map is a pair (u, 1, e), and `rescale` composes.
The non-F-pure ideal is the limit of the descending image chain from
the unit ideal; the test ideal is the stabilized ascending chain from a
test element.  Both land on operator-fixed ideals and the fixedness is
re-checked at the end of every run.

Every chain runs modulo an ideal, and every step adds it back in: on
affine space that is the zero ideal, and for a cone S/(h_1, ..., h_r)
it is (h_1, ..., h_r), and the chain runs the cone's pair
Delta + sum div(h_i), each h_i at coefficient 1, whose multiplier picks
up the adjunction factor prod h_i^(q-1) (F-adjunction).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .cartier import _check_level, _words, apply_cartier
from .config import Frozen, check_degree, current_caps, shown
from .errors import (DomainError, InternalInvariantError, PreconditionError,
                     ResourceError, TestElementError, UnsupportedInputError)
from .ideal import Ideal
from .ring import MultiPoly, PolyRing, _integer


class PairDivisor(Frozen):
    """Delta = (a/(p^e-1)) * div(f); the index of the pair is prime to p
    by construction."""

    FIELDS = ("f", "a", "e")

    def __init__(self, f: MultiPoly, a: int, e: int):
        if f.is_zero:
            raise DomainError("pair divisor needs a nonzero polynomial")
        a, e = _integer(a, "pair coefficient"), _integer(e, "pair level")
        if a < 0:
            raise DomainError(f"pair coefficient must be >= 0, got {a}")
        if e < 1:
            raise DomainError(f"pair level must be >= 1, got {e}")
        vars(self).update(f=f, a=a, e=e)

    @property
    def ring(self) -> PolyRing:
        return self.f.ring

    @property
    def q(self) -> int:
        """p^e, refused above the frobenius_block cap before it is formed."""
        return _check_level(self.ring, self.e)

    @property
    def coefficient(self) -> Fraction:
        return Fraction(self.a, self.q - 1)

    @cached_property
    def multiplier(self) -> MultiPoly:
        """f^a, the u of the operator g -> Tr^e(u * g); f itself at a = 1.
        Refused unformed when L = ceil((deg u - n(q-1))/q), n variables,
        passes the degree cap: the first image of a nonzero ideal, which
        every chain completes, has a generator of degree >= L."""
        q, n = self.q, self.ring.nvars
        check_degree(-(-(self.a * self.f.degree() - n * (q - 1)) // q),
                     "generator")
        return self.f if self.a == 1 else self.f ** self.a

    @cached_property
    def _split_multiplier(self) -> list:
        """The multiplier's terms split by q, as `cartier._root` reads
        them: once per pair, not once per image."""
        return _words(self.multiplier, self.q)

    def rescale(self, n: int) -> "PairDivisor":
        """Same divisor presented at level n*e, for n >= 1: the operator
        applied n times, since Tr^e(u * -) iterated n times is
        Tr^(ne)(u^(1+q+...+q^(n-1)) * -)."""
        if n < 1:
            raise DomainError(f"rescaling needs n >= 1, got {n}")
        q = self.q
        return PairDivisor(self.f, self.a * (q ** n - 1) // (q - 1), self.e * n)

    def default_test_element(self) -> MultiPoly:
        """f^max(1, ceil(a/(q-1))): f itself while a <= q-1, and beyond
        that a power of f deep enough to be a test element.  Refused
        unformed above the degree cap, as the chain it seeds would."""
        k = max(1, -(-self.a // (self.q - 1)))
        check_degree(k * self.f.degree(), "generator")
        return self.f ** k


class ChainResult:
    __slots__ = ("ideal", "steps")

    def __init__(self, ideal: Ideal, steps: int):
        self.ideal = ideal
        self.steps = steps


def descending_fixed_ideal(pair: PairDivisor, modulus: Ideal) -> ChainResult:
    """Largest operator-fixed ideal containing the modulus: iterate
    J -> image(J) + modulus from the unit ideal until two consecutive
    reduced bases agree.

    Each step must shrink or stall; growth signals a broken trace
    convention and raises InternalInvariantError.  Equal bases are
    checked first: an ideal is contained in itself, so the containment
    is tested only on steps where it could fail.
    """
    limit = current_caps().chain_steps
    current = Ideal.unit(pair.ring)
    for step in range(1, limit + 1):
        nxt = apply_cartier(pair, current) + modulus
        if nxt == current:
            return ChainResult(current, step)
        if not nxt.issubset(current):
            raise InternalInvariantError(
                "descending chain grew at step %d" % step)
        current = Ideal._from_groebner(pair.ring, nxt.groebner_basis)
    raise ResourceError("chain_steps", limit,
                        "descending fixed-ideal chain did not stabilize")


def ascending_fixed_ideal(pair: PairDivisor, seed: MultiPoly,
                          modulus: Ideal) -> ChainResult:
    """Smallest operator-fixed ideal containing the seed and the modulus
    M: iterate N -> N + image(N) + M until stable, then insist the result
    is genuinely fixed (image(N) + M == N); failure means the seed was
    not a test element and raises TestElementError.

    Precondition: image(M) ⊆ M, as for M = 0 and for I_X under a cone
    pair (Schwede, "F-adjunction", 2009).  The chain is semi-naive: the
    image is additive over ideal sums, so a step maps only the basis
    elements new since the step before (the first step, the seed alone)
    and still reaches N + image(N) + M.  At the stop, image(N) + M is
    generated by M and the images since the last step that mapped a
    whole basis, the seed counting as one.
    """
    ring = pair.ring
    if seed.is_zero:
        raise DomainError("test element must be nonzero")
    if modulus.contains(seed):
        raise DomainError("test element vanishes on the ambient quotient")
    fresh = Ideal(ring, (seed,))  # the generators the next step maps
    current = fresh + modulus
    whole = True  # whether they generate all of current
    limit = current_caps().chain_steps
    for step in range(1, limit + 1):
        image = apply_cartier(pair, fresh)
        # with the modulus, these generate image(current)
        images = (image.generators if whole
                  else images + image.generators)
        image += modulus
        nxt = current + image
        if nxt == current:
            fixed = image if whole else Ideal(ring, images) + modulus
            if fixed != current:
                raise TestElementError(
                    f"chain from {seed} stabilized on a non-fixed ideal; "
                    "the seed is not a test element for this pair")
            return ChainResult(current, step)
        # a reduced basis has one element per lead
        old = {g._lead_key(): g._terms for g in current.groebner_basis}
        basis = nxt.groebner_basis
        current = Ideal._from_groebner(ring, basis)
        added = [g for g in basis
                 if old.get(g._lead_key()) != g._terms]
        whole = len(added) == len(basis)
        fresh = current if whole else Ideal(ring, added)
    raise ResourceError("chain_steps", limit,
                        "ascending fixed-ideal chain did not stabilize")


# -- public operations on pairs ------------------------------------------


def sigma_chain(pair: PairDivisor) -> ChainResult:
    return descending_fixed_ideal(pair, Ideal.zero(pair.ring))


def sigma(pair: PairDivisor) -> Ideal:
    """Non-F-pure ideal of the pair (largest fixed ideal)."""
    return sigma_chain(pair).ideal


def tau_chain(pair: PairDivisor, c: Optional[MultiPoly] = None) -> ChainResult:
    seed = pair.default_test_element() if c is None else c
    return ascending_fixed_ideal(pair, seed, Ideal.zero(pair.ring))


def tau(pair: PairDivisor, c: Optional[MultiPoly] = None) -> Ideal:
    """Test ideal of the pair (smallest nonzero fixed ideal), computed
    from the test element c (default: `default_test_element`)."""
    return tau_chain(pair, c).ideal


def is_sharply_f_pure(pair: PairDivisor) -> bool:
    """Whether the operator is surjective, from its image of the unit
    ideal alone: sigma is fixed, so sigma = image(sigma) ⊆ image(S), and
    sigma is the unit ideal exactly when image(S) is (then the chain
    stops at its first step)."""
    return apply_cartier(pair, Ideal.unit(pair.ring)).is_unit


def is_strongly_f_regular(pair: PairDivisor,
                          c: Optional[MultiPoly] = None) -> bool:
    return tau(pair, c).is_unit


def is_compatible(center: Ideal, pair: PairDivisor) -> bool:
    """Whether the operator of the pair maps the center's ideal into
    itself; a compatible center along which the pair is generically
    sharply F-pure is an F-pure-center candidate."""
    return apply_cartier(pair, center).issubset(center)


# -- multiplicity and the codimension containment test ---------------------


def _validate_point(ring: PolyRing, point: Sequence) -> tuple:
    if len(point) != ring.nvars:
        raise DomainError(
            f"point has {len(point)} coordinates, ring has {ring.nvars}")
    coords = []
    for v in point:
        if v is None:
            coords.append(None)
        elif isinstance(v, int) and not isinstance(v, bool):
            coords.append(v % ring.p)
        else:
            raise UnsupportedInputError(
                f"point coordinates must be residues or None, got {v!r}")
    if all(v is None for v in coords):
        raise DomainError("point must constrain at least one coordinate")
    return tuple(coords)


def multiplicity(f: MultiPoly, point: Sequence) -> int:
    """Order of vanishing of f at a coordinate-subspace point.

    Constrained coordinates carry residues; None marks a free direction
    (a non-closed point along that coordinate subspace).  After moving
    the point to the origin, the multiplicity is the least total degree
    in the constrained variables over the terms of f.
    """
    if f.is_zero:
        raise DomainError("multiplicity of the zero polynomial is undefined")
    coords = _validate_point(f.ring, point)
    shifted = f.shift(coords)
    constrained = [i for i, c in enumerate(coords) if c is not None]
    return min(sum(exps[i] for i in constrained)
               for exps in map(f.ring._packing.unpack, shifted._terms))


class ContainmentReport:
    __slots__ = ("codim", "threshold", "pair_multiplicity", "test_ideal",
                 "holds")

    def __init__(self, codim: int, threshold: int,
                 pair_multiplicity: Fraction, test_ideal: Ideal, holds: bool):
        self.codim = codim
        self.threshold = threshold
        self.pair_multiplicity = pair_multiplicity
        self.test_ideal = test_ideal
        self.holds = holds


def multiplicity_containment(pair: PairDivisor, point: Sequence,
                             l: Optional[int] = None) -> ContainmentReport:
    """If the divisor has multiplicity >= l at a point of codimension l,
    its test ideal must land inside the point's prime ideal, that is,
    vanish there generator by generator.  The verdict is expected True on
    every admissible input (l >= 1, by default the codimension); False is
    a bug detector.  The test ideal's chain starts from the pair's default
    test element.
    """
    coords = _validate_point(pair.ring, point)
    codim = sum(1 for v in coords if v is not None)
    threshold = codim if l is None else l
    if threshold < 1:
        raise DomainError(f"multiplicity threshold must be >= 1, got {l}")
    mult = pair.coefficient * multiplicity(pair.f, coords)
    if mult < threshold:
        raise PreconditionError(
            f"divisor multiplicity {shown(mult)} at {coords} is below the "
            f"threshold {shown(threshold)}")
    t = tau(pair)
    inside = all(multiplicity(g, coords) >= 1 for g in t.groebner_basis)
    return ContainmentReport(codim=codim, threshold=threshold,
                             pair_multiplicity=mult, test_ideal=t,
                             holds=inside)
