"""Finitely generated ideals with cached reduced Gröbner bases.

The reduced basis is unique for the fixed grevlex order, so two Ideal
values are equal exactly when they generate the same ideal.  Basis
completion is plain Buchberger with the coprimality criterion and
normal-pair selection; degree and basis-size caps turn blowups into
ResourceErrors instead of hangs, and the degree cap binds on the input
generators before anything else.  At most one nonzero generator needs
no completion: one monic polynomial is a reduced basis.  Neither do
monomials: the reduced basis of a monomial ideal is its minimal
generators (Dickson; Cox–Little–O'Shea, *Ideals, Varieties, and
Algorithms*, §2.4), and a normal form by monomials drops the terms they
divide.  Monomial ideals are common, since the test ideal of a monomial
pair is one (Hara–Yoshida, Trans. AMS 355 (2003)).  A homogeneous
ideal is saturated by a variable in one completion, in grevlex after
moving that variable last (Bayer–Stillman).  The standard monomials
are a basis of S/I (Macaulay): the Hilbert series of a homogeneous ideal
is read off its basis's leads by pivot recursion (Bigatti), and its
graded pieces off normal forms of monomials (`proj._ideal_piece`).
A one-term polynomial needs no division to decide most of the time:
scanning the divisors' cached leads in order, it is its own normal form
when none divides it, and zero when the first that does is a monomial.

Reduction (`normal_form`) is heap division on packed monomial keys
(Monagan–Pearce): the polynomial being reduced is one mutable
accumulator from key to coefficient, its leading term is popped from a
heap of keys, and subtracting a multiple of a divisor adds one integer
to each of the divisor's cached keys.  Divisibility by a leading
monomial is one subtraction and one mask.  The digit width is the
narrowest of 16, 32, 64, ... bits whose degree limit exceeds the degree
of the input and of every divisor, picked before anything is packed;
grevlex is graded, so no term formed later exceeds the degree of the
term it cancels, and no exponent can overflow a digit.  Leading
exponents are cached on the polynomials, and a normal form by heap
division comes with its own, so the completion scans a polynomial's
terms for its lead at most once.

Ideals are immutable; the Gröbner basis is computed lazily and cached.
The degree and basis caps are the ones in force in the current context
(`config.current_caps`), read where they are enforced.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, le, sub
from typing import Iterable, Optional, Sequence

from .config import check_degree, check_piece, current_caps
from .errors import DomainError, ResourceError, RingMismatchError
from .ring import (MultiPoly, PolyRing, grevlex_key, grevlex_packing,
                   monomials_of_degree)


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _exp_sub(a, b):
    return tuple(map(sub, a, b))


def _exp_lcm(a, b):
    return tuple(map(max, a, b))


def _divisor(g: MultiPoly, packing):
    """g as a divisor under the packing, memoised on g: (keys descending,
    coefficients, lead fields, inverse of the leading coefficient).  The
    lead fields are `packing.direct` of the leading key.  The packing's
    limit must exceed g's degree (`normal_form` picks it so)."""
    memo = g._packed
    if memo is None:
        memo = g._packed = {}
    entry = memo.get(packing)
    if entry is None:
        pack = packing.pack
        items = sorted(((pack(e), c) for e, c in g._terms.items()),
                       reverse=True)
        keys = tuple(k for k, _ in items)
        coeffs = tuple(c for _, c in items)
        entry = memo[packing] = (keys, coeffs, packing.direct(keys[0])[0],
                                 pow(coeffs[0], -1, g.ring.p))
    return entry


def _divide(f: MultiPoly, divisors: Sequence[MultiPoly], packing):
    """Heap division of f by the divisors (Monagan–Pearce): one mutable
    accumulator from packed key to coefficient, and a heap of its keys
    from which the leading term is popped.  Subtracting c·x^m·g adds the
    key of x^m to each of g's cached keys.  A key cancelled and formed
    again is pushed twice; the copy popped second finds no coefficient.

    Returns the remainder's keys and coefficients, largest first.  The
    packing's limit must exceed the degrees of f and the divisors; then
    no term formed later reaches it: every term of x^m·g has degree at
    most that of its lead, the popped term, since grevlex is graded."""
    p = f.ring.p
    guard, direct = packing.guard, packing.direct
    reducers = [_divisor(g, packing) for g in divisors]
    pack = packing.pack
    acc = {pack(e): c for e, c in f._terms.items()}
    heap = [-k for k in acc]
    heapify(heap)
    out_keys, out_coeffs = [], []
    while heap:
        key = -heappop(heap)
        c = acc.get(key)
        if c is None:
            continue
        fields = direct(key)[0]
        for g_keys, g_coeffs, lead_fields, lc_inv in reducers:
            # the lead divides when no field borrows into its guard bit
            if (fields - lead_fields) & guard:
                continue
            shift = key - g_keys[0]
            factor = p - c * lc_inv % p
            # the lead cancels the popped term, which is still in acc
            for g_key, g_c in zip(g_keys, g_coeffs):
                k = g_key + shift
                old = acc.get(k)
                if old is None:
                    acc[k] = factor * g_c % p
                    heappush(heap, -k)
                else:
                    s = (old + factor * g_c) % p
                    if s:
                        acc[k] = s
                    else:
                        del acc[k]
            break
        else:
            del acc[key]
            out_keys.append(key)
            out_coeffs.append(c)
    return out_keys, out_coeffs


def normal_form(f: MultiPoly, basis: Sequence[MultiPoly]) -> MultiPoly:
    """Fully reduce f against the basis: no term of the result is
    divisible by any basis leading monomial.  When every divisor is a
    monomial, that is f without its terms some divisor divides (f itself
    when none is).  A one-term f is f when no lead divides it and zero
    when the first lead that does is a monomial's, as in `_divide`.
    Otherwise `_divide` runs at the narrowest width from 16 bits up,
    doubling, that holds the degrees of f and the divisors, and the
    result comes with its leading exponent cached."""
    divisors = [g for g in basis if not g.is_zero]
    if not divisors or f.is_zero:
        return f
    if len(f._terms) == 1:
        exps, = f._terms
        first = next((g for g in divisors
                      if _divides(g.leading_exponent(), exps)), None)
        if first is None:
            return f
        if first.num_terms() == 1:
            return MultiPoly(f.ring, {})
    elif all(g.num_terms() == 1 for g in divisors):
        leads = [g.leading_exponent() for g in divisors]
        kept = {e: c for e, c in f._terms.items()
                if not any(_divides(a, e) for a in leads)}
        return f if len(kept) == len(f._terms) else MultiPoly(f.ring, kept)
    # grevlex is graded: a degree is the sum of the leading exponent
    top = max(f.degree(), max(sum(g.leading_exponent()) for g in divisors))
    width = 16
    while top >= 1 << (width - 1):
        width *= 2
    packing = grevlex_packing(f.ring.nvars, width)
    return MultiPoly.from_packed(f.ring, packing,
                                 *_divide(f, divisors, packing))


def _lead_key(g: MultiPoly):
    return grevlex_key(g.leading_exponent())


def _s_poly(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """S-polynomial of two monic polynomials."""
    lf, lg = f.leading_exponent(), g.leading_exponent()
    lcm = _exp_lcm(lf, lg)
    return f.mul_monomial(_exp_sub(lcm, lf)) - g.mul_monomial(_exp_sub(lcm, lg))


def buchberger(generators: Iterable[MultiPoly]) -> tuple:
    """Reduced Gröbner basis of the given generators.

    Returns a tuple of monic polynomials sorted with the largest leading
    monomial first; the tuple is canonical, so equal ideals yield equal
    tuples.
    """
    raw = [g for g in generators if not g.is_zero]
    _check_input_degree(raw)
    if len(raw) <= 1:
        # one monic polynomial is already a reduced basis
        return tuple(g.monic() for g in raw)
    caps = current_caps()
    if all(g.num_terms() == 1 for g in raw):
        # every S-polynomial of two monomials is zero: the basis is the
        # minimal generators, and the completion would keep exactly these
        basis = _reduce(raw)
        if len(basis) > caps.max_basis:
            raise ResourceError("max_basis", caps.max_basis,
                                "too many pairwise-irreducible generators")
        return basis
    raw.sort(key=_lead_key)

    pairs: list = []
    counter = 0
    basis: list = []

    def push_pairs(new_index: int):
        nonlocal counter
        lm_new = basis[new_index].leading_exponent()
        monomial = basis[new_index].num_terms() == 1
        for i in range(new_index):
            if monomial and basis[i].num_terms() == 1:
                continue  # two monic monomials: the S-polynomial is zero
            lm_i = basis[i].leading_exponent()
            lcm = _exp_lcm(lm_i, lm_new)
            if lcm == tuple(map(add, lm_i, lm_new)):
                continue  # coprime leading monomials: S-poly reduces to zero
            heappush(pairs, (grevlex_key(lcm), counter, i, new_index))
            counter += 1

    # feed the input through the reducer so redundant generators
    # (frequent in bracket-root images) never enter the pair queue
    for g in raw:
        reduced = normal_form(g, basis) if basis else g
        if reduced.is_zero:
            continue
        basis.append(reduced.monic())
        if len(basis) > caps.max_basis:
            raise ResourceError("max_basis", caps.max_basis,
                                "too many pairwise-irreducible generators")
        push_pairs(len(basis) - 1)

    while pairs:
        _, _, i, j = heappop(pairs)
        s = _s_poly(basis[i], basis[j])
        if s.is_zero:
            continue
        check_degree(s.degree(), "S-polynomial")
        reduced = normal_form(s, basis)
        if reduced.is_zero:
            continue
        check_degree(reduced.degree(), "basis element")
        basis.append(reduced.monic())
        if len(basis) > caps.max_basis:
            raise ResourceError("max_basis", caps.max_basis,
                                "basis completion did not stay desk-scale")
        push_pairs(len(basis) - 1)

    return _reduce(basis)


def _check_input_degree(generators: Sequence[MultiPoly]):
    """Refuse a generator above the degree cap.  A completion may form no
    S-polynomial from a large input (one generator needs none), so the
    checks on S-polynomials would let it through; `buchberger` runs this
    first, and a Hilbert series runs it on its generators because their
    basis may be a cached one.  Grevlex is graded, so a degree is that of
    the leading monomial, which the completion caches and needs anyway."""
    check_degree(max((sum(g.leading_exponent()) for g in generators),
                     default=-1), "generator")


def _reduce(basis: list) -> tuple:
    """The reduced basis of an ideal from any Gröbner basis of it,
    sorted as `buchberger` returns it; no S-pairs are needed."""
    # minimalize: drop elements whose leading monomial is divisible by another's
    basis = sorted(basis, key=_lead_key)
    minimal: list = []
    leads: list = []
    for g in basis:
        lm = g.leading_exponent()
        if not any(_divides(h, lm) for h in leads):
            minimal.append(g)
            leads.append(lm)
    # inter-reduce tails; leading monomials are stable under this pass,
    # and a monomial is its lead, which no other minimal lead divides
    for k, g in enumerate(minimal):
        if g.num_terms() > 1:
            g = normal_form(g, minimal[:k] + minimal[k + 1:])
        minimal[k] = g.monic()
    # the leads are distinct and ascending
    return tuple(reversed(minimal))


def _minimal_monomials(monomials) -> list:
    """The minimal generators among exponent vectors."""
    minimal: list = []
    for a in sorted(set(monomials), key=sum):
        if not any(_divides(b, a) for b in minimal):
            minimal.append(a)
    return minimal


def monomial_hilbert_numerator(monomials, nvars: int) -> list:
    """Coefficients, constant term first and trailing zeros dropped, of
    N(t) with HS(S/M) = N(t)/(1-t)^nvars for the monomial ideal M the
    exponent vectors generate: [1] for none, [] for the unit ideal.

    Pivot recursion (Bayer–Stillman; Bigatti): the exact sequence
    0 -> S/(M : x_j^k)(-k) -> S/M -> S/(M + (x_j^k)) -> 0 gives
    N(M) = N(M + (x_j^k)) + t^k·N(M : x_j^k).  Pairwise coprime
    generators are a regular sequence, so there N is the product of
    (1 - t^deg).  The pivot variable x_j lies in the most generators and
    k is the lower median of its exponents there: at least two
    generators fold into x_j^k on one side, at least half of them lose
    x_j on the other, so both sides shrink by about half in x_j."""
    out: list = []
    stack = [(_minimal_monomials(monomials), 0)]
    while stack:
        gens, shift = stack.pop()
        counts = [sum(1 for a in gens if a[j]) for j in range(nvars)]
        j = max(range(nvars), key=counts.__getitem__)
        if counts[j] < 2:
            factor = [1]
            for a in gens:
                d = sum(a)
                factor = factor + [0] * d  # times (1 - t^d)
                for i in range(len(factor) - d - 1, -1, -1):
                    factor[i + d] -= factor[i]
            out.extend([0] * (shift + len(factor) - len(out)))
            for i, c in enumerate(factor):
                out[shift + i] += c
            continue
        k = sorted(a[j] for a in gens if a[j])[(counts[j] - 1) // 2]
        stack.append(([a for a in gens if a[j] < k]
                      + [(0,) * j + (k,) + (0,) * (nvars - j - 1)], shift))
        # generators that keep x_j lose the same x_j^k, so they stay
        # minimal among themselves; only those that lose x_j need a pass
        low = _minimal_monomials(a[:j] + (0,) + a[j + 1:]
                                 for a in gens if a[j] <= k)
        high = [b for b in (a[:j] + (a[j] - k,) + a[j + 1:]
                            for a in gens if a[j] > k)
                if not any(_divides(c, b) for c in low)]
        stack.append((low + high, shift + k))
    while out and not out[-1]:
        out.pop()
    return out


class Ideal:
    """Finitely generated ideal of a PolyRing."""

    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, ring: PolyRing, generators: Iterable[MultiPoly] = ()):
        gens = []
        for g in generators:
            if isinstance(g, int):
                g = ring.constant(g)
            if g.ring != ring:
                raise RingMismatchError(f"generator ring {g.ring} != {ring}")
            if not g.is_zero:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb: Optional[tuple] = None

    @classmethod
    def _from_groebner(cls, ring: PolyRing, basis: tuple) -> "Ideal":
        """Wrap an already-reduced basis without recomputing it."""
        ideal = cls(ring, basis)
        ideal._gb = tuple(basis)
        return ideal

    @classmethod
    def zero(cls, ring: PolyRing) -> "Ideal":
        return cls(ring, ())

    @classmethod
    def unit(cls, ring: PolyRing) -> "Ideal":
        return cls(ring, (ring.one(),))

    @classmethod
    def irrelevant(cls, ring: PolyRing) -> "Ideal":
        """The ideal generated by all the variables."""
        return cls(ring, ring.gens())

    @property
    def groebner_basis(self) -> tuple:
        if self._gb is None:
            self._gb = buchberger(self.generators)
        return self._gb

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.groebner_basis == ()

    @property
    def is_unit(self) -> bool:
        gb = self.groebner_basis
        return len(gb) == 1 and gb[0].is_constant

    def normal_form(self, f: MultiPoly) -> MultiPoly:
        if f.ring != self.ring:
            raise RingMismatchError(f"{f.ring} vs {self.ring}")
        return normal_form(f, self.groebner_basis)

    def contains(self, f: MultiPoly) -> bool:
        return self.normal_form(f).is_zero

    def __contains__(self, f: MultiPoly) -> bool:
        return self.contains(f)

    def issubset(self, other: "Ideal") -> bool:
        self._check_ring(other)
        return all(other.contains(g) for g in self.groebner_basis)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.groebner_basis == other.groebner_basis

    def __hash__(self):
        return hash((self.ring, self.groebner_basis))

    def _forms(self) -> Optional[tuple]:
        """Homogeneous generators, or None when the ideal is not
        homogeneous; the reduced basis of a homogeneous ideal is, and it
        is completed only when the generators are not."""
        if all(g.is_homogeneous() for g in self.generators):
            return self.generators
        if all(g.is_homogeneous() for g in self.groebner_basis):
            return self.groebner_basis
        return None

    def _check_ring(self, other: "Ideal"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    # -- constructions ----------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        """The sum; a side without generators returns the other side."""
        self._check_ring(other)
        if not other.generators:
            return self
        if not self.generators:
            return other
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other) -> "Ideal":
        if isinstance(other, MultiPoly):
            other = Ideal(self.ring, (other,))
        self._check_ring(other)
        gens = [f * g for f in self.generators for g in other.generators]
        return Ideal(self.ring, gens)

    __rmul__ = __mul__

    def chart(self, i: int) -> "Ideal":
        """(I : x_i^∞) of a homogeneous ideal, read off one Gröbner basis
        (Bayer–Stillman): move x_i last, so that grevlex makes it the
        cheapest variable and it divides a form exactly when it divides
        the leading monomial; then dividing each basis element by the
        largest power of x_i that divides it gives a Gröbner basis of
        the quotient.

        The generators returned are its reduced basis with x_i last,
        moved back, which is canonical: two charts at the same i are
        equal ideals exactly when their generator tuples are equal, and
        a chart is the unit ideal exactly when its generators are (1,).
        """
        forms = self._forms()
        if forms is None:
            raise DomainError("chart of a non-homogeneous ideal")
        names = self.ring.variables
        last = PolyRing(names[:i] + names[i + 1:] + names[i:i + 1],
                        self.ring.p)
        moved = [_move_variable(g, last, i, len(names) - 1) for g in forms]
        divided = [_divide_out_last(g) for g in buchberger(moved)]
        return Ideal(self.ring, [_move_variable(g, self.ring, len(names) - 1, i)
                                 for g in _reduce(divided)])

    def standard_monomials(self, m: int) -> tuple:
        """Degree-m monomials outside the leading-term ideal,
        grevlex-descending; a piece above the piece cap is refused
        before it is enumerated."""
        check_piece(self.ring.nvars, m)
        lts = [g.leading_exponent() for g in self.groebner_basis]
        return tuple(exps for exps in monomials_of_degree(self.ring.nvars, m)
                     if not any(_divides(lt, exps) for lt in lts))

    def hilbert_numerator(self) -> list:
        """N(t) with HS(S/I) = N(t)/(1-t)^nvars for a homogeneous ideal,
        as `monomial_hilbert_numerator` lists it, read off the leading
        monomials of the reduced basis (S/I and S/in(I) share their
        Hilbert function).  Homogeneous generators above the degree cap
        are refused also when their basis was cached."""
        forms = self._forms()
        if forms is None:
            raise DomainError("Hilbert series of a non-homogeneous ideal")
        _check_input_degree(forms)
        return monomial_hilbert_numerator(
            (g.leading_exponent() for g in self.groebner_basis),
            self.ring.nvars)

    def __str__(self):
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def __repr__(self):
        return f"Ideal{self}"


def _move_variable(f: MultiPoly, ring: PolyRing, source: int,
                   target: int) -> MultiPoly:
    """f in the ring whose variables are f's with the one at `source`
    moved to `target`."""
    out = {}
    for e, c in f._terms.items():
        rest = e[:source] + e[source + 1:]
        out[rest[:target] + e[source:source + 1] + rest[target:]] = c
    return MultiPoly(ring, out)


def _divide_out_last(f: MultiPoly) -> MultiPoly:
    """f divided by the largest power of the last variable dividing it."""
    k = min(e[-1] for e in f._terms)
    if not k:
        return f
    return MultiPoly(f.ring, {e[:-1] + (e[-1] - k,): c
                              for e, c in f._terms.items()})

