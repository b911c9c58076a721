"""Graded section spaces on subschemes of projective space and the
stable images of iterated trace maps inside them.

Everything happens on the affine cone: sections of O_X(m) for a
projectively normal X = V(h_1, ..., h_r) in P^n are the degree-m piece
of S/(h_1, ..., h_r).  The divisor pair on X is realized on the cone
by the pair Delta + sum div(h_i), each h_i at coefficient 1
(F-adjunction; Schwede, "F-adjunction", Algebra & Number Theory 3
(2009)): `ProjScheme.cone_pair` writes it as (u, 1, e) with
u = f^a * prod h_i^(q-1), the multiplier of its trace operator.  Its
level-n image inside the degree-m piece is the degree-m piece of J_n,
the n-th term of the operator's descending chain J_0 = S,
J_n = image(J_(n-1)) + I_X.
The chain stops on the largest fixed ideal sigma once J_s = J_(s-1),
an ideal equality that proves every later image equal, so the
canonical subsystem of the twist is the degree-m piece of sigma (for
the test-ideal variant, of tau, which the operator fixes).

Every graded-subspace basis comes from the Gröbner kernel: a piece of a
homogeneous ideal is read off its reduced basis (`_ideal_piece`), a span
of forms is reduced by normal forms (`space_from_polys`).  `linalg`
only solves for kernels and ranks, on lists of residue rows: chart meets
and `separates`, which load it (and `separates` also `extfield`) on
their first call, so importing this module loads neither.

Each question about X is answered on the cone, by one route.  The
Hilbert series of X is read off the degrees of its forms, as that of a
regular sequence: one form in the domain S always is one, and two or
more are checked against their computed series.  Away from the vertex
the cone is
locally X × A^1, so a rational point P of P^n is read at any
representative: a form's multiplicity at P is its multiplicity there,
and a homogeneous ideal lies in the ideal of P when its homogeneous
reduced basis vanishes there.  A compatible center Z's stable subsystem
is read off sigma_X + Z, the fixed ideal of its chain.

Degree bookkeeping for one level with multiplier u (homogeneous of
degree du): a source form of degree D maps to degree
(D + du - (q-1)*(n+1)) / q, so the source piece for target degree m at
level n is D_n = q^n*m + (q^n-1)*(n+1) - du*(q^n-1)/(q-1).  Since
du/(q-1) = deg(K_X + Delta) + n + 1, this is
D_n = m + (q^n-1)*(m - deg(K_X + Delta)): negative source degrees occur
only below the pair degree, and such levels are rejected.  With
deg(K_X + Delta) = K + a*deg(f)/(q-1) for the canonical twist K, and
q - 1 dividing q^n - 1, this is the integer
D_n = m + (q^n-1)*(m - K) - a*deg(f)*(q^n-1)/(q-1), computed with no
fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, filterfalse, zip_longest
from math import comb
from operator import mul
from typing import Iterable, Iterator, List, Optional, Sequence

from .config import (DEFAULT_CAPS, Frozen, check_degree, check_piece,
                     current_caps)
from .errors import (DomainError, PreconditionError, ResourceError,
                     TheoremViolationError)
from .fsing import (ChainResult, PairDivisor, ascending_fixed_ideal,
                    descending_fixed_ideal, is_compatible, multiplicity, tau)
from .ideal import Ideal, _reduce, monomial_hilbert_numerator, normal_form
from .ring import MultiPoly, PolyRing, _monomial_words


def trivial_pair(ring: PolyRing) -> PairDivisor:
    """The zero divisor, encoded as (1, 0, 1)."""
    return PairDivisor(ring.one(), 0, 1)


class ProjScheme(Frozen):
    """X in P^n cut out by homogeneous forms (empty for P^n itself),
    with the degree of the dualizing twist tracked by adjunction.

    The forms must be a complete intersection: r <= n forms of positive
    degrees d_1, ..., d_r forming a regular sequence, so that the cone
    they cut out is Cohen-Macaulay of dimension >= 1, the ideal is
    saturated and the adjunction bookkeeping (dimension, canonical
    twist, `hilbert_numerator`) holds.  S is a domain, so r <= 1 forms
    always are one; r >= 2 forms are one exactly when their ideal has
    the Hilbert series prod (1 - t^d_i) / (1-t)^(n+1) (Stanley), which
    the constructor checks.  Constant forms are refused first: their
    unit ideal would pass the series test.
    """

    FIELDS = ("ring", "forms")

    def __init__(self, ring: PolyRing, forms: tuple):
        for h in forms:
            if h.ring != ring:
                raise DomainError("defining form in the wrong ring")
            if h.is_zero or not h.is_homogeneous():
                raise DomainError("defining forms must be nonzero homogeneous")
        if any(h.is_constant for h in forms):
            raise DomainError("defining forms must have positive degree")
        vars(self).update(ring=ring, forms=forms)
        r = len(forms)
        if r <= self.n:
            check_degree(max(map(MultiPoly.degree, forms), default=0),
                         "generator")
        if r > self.n or (r > 1 and self.ideal.hilbert_numerator()
                          != self.hilbert_numerator):
            raise DomainError(
                f"the {r} defining forms are not a regular sequence of "
                f"length <= {self.n}; pass a complete intersection")

    @classmethod
    def projective_space(cls, ring: PolyRing) -> "ProjScheme":
        return cls(ring, ())

    @classmethod
    def from_forms(cls, ring: PolyRing, forms: Iterable[MultiPoly]) -> "ProjScheme":
        """The complete intersection of the forms (see the constructor)."""
        return cls(ring, tuple(forms))

    @property
    def n(self) -> int:
        return self.ring.nvars - 1

    @cached_property
    def ideal(self) -> Ideal:
        return Ideal(self.ring, self.forms)

    @cached_property
    def hilbert_numerator(self) -> list:
        """N(t) = prod (1 - t^d_i) with HS(S/I_X) = N(t)/(1-t)^(n+1),
        read off the degrees: the series of the model complete
        intersection (x_0^d_1, ..., x_(r-1)^d_r), which the regular
        sequence of forms shares."""
        packing = self.ring._packing
        model = [h.degree() << at
                 for h, at in zip(self.forms, packing._offsets)]
        return monomial_hilbert_numerator(model, packing)

    @property
    def canonical_twist(self) -> int:
        """omega_X = O_X(canonical_twist) for these complete intersections."""
        return sum(h.degree() for h in self.forms) - (self.n + 1)

    @property
    def dimension(self) -> int:
        return self.n - len(self.forms)

    @property
    def is_curve(self) -> bool:
        return self.dimension == 1

    def hilbert_function(self, m: int) -> int:
        """dim (S/I_X)_m, the size of `graded_piece(self, m)` without
        forming it: the t^m coefficient of N(t)/(1-t)^(n+1) for the
        Hilbert numerator N of the scheme ideal, where 1/(1-t)^(n+1) has
        t^k coefficient C(k+n, n).  On P^n, N = 1."""
        n = self.n
        return sum(c * comb(m - k + n, n)
                   for k, c in enumerate(self.hilbert_numerator) if k <= m)

    def cone_pair(self, pair: PairDivisor) -> PairDivisor:
        """The pair's F-adjunction pair on the cone, Delta plus each
        div(h) at coefficient 1: (f^a * prod h^(q-1), 1, e)."""
        if pair.ring != self.ring:
            raise DomainError("pair lives in a different ring than the scheme")
        if not pair.f.is_homogeneous():
            raise DomainError("pair polynomial must be homogeneous")
        u = pair.multiplier
        q = pair.q
        for h in self.forms:
            u = u * h ** (q - 1)
        return PairDivisor(u, 1, pair.e)

    def pair_degree(self, pair: PairDivisor) -> Fraction:
        """Degree of the twist K_X + Delta."""
        return self.canonical_twist + pair.coefficient * pair.f.degree()


class GradedSubspace(Frozen):
    """Subspace of the degree-m piece of S/modulus by its canonical basis:
    monic forms, largest lead first, whose other terms are standard
    monomials of the modulus and no basis form's lead: the span's reduced
    Gröbner basis, so equal subspaces have equal bases."""

    FIELDS = ("modulus", "degree", "basis")

    def __init__(self, modulus: Ideal, degree: int, basis: tuple):
        vars(self).update(modulus=modulus, degree=degree, basis=basis)

    @property
    def ring(self) -> PolyRing:
        return self.modulus.ring

    @property
    def dim(self) -> int:
        return len(self.basis)


def _rows_to_basis(ring: PolyRing, columns: tuple,
                   matrix: List[List[int]]) -> tuple:
    """The forms of the rows of a matrix over monomial key columns."""
    return tuple(MultiPoly(ring, {columns[j]: c
                                  for j, c in enumerate(row) if c})
                 for row in matrix)


def space_from_polys(modulus: Ideal, m: int,
                     polys: Iterable[MultiPoly]) -> GradedSubspace:
    """Subspace spanned by the polys, with no matrix: forward elimination
    by normal forms.  Each form is reduced by the modulus's basis and the
    forms kept so far, which have degree m, distinct leads and standard
    terms, so the remainder is its normal form modulo the modulus minus a
    combination of kept forms.  `_reduce` then clears the leads out of
    the tails and makes the forms monic: the canonical basis."""
    check_degree(m, "graded piece")
    check_piece(modulus.ring.nvars, m)
    divisors = list(modulus.groebner_basis)
    start = len(divisors)
    for f in polys:
        if f.is_zero:
            continue
        if f.degree() != m or not f.is_homogeneous():
            raise DomainError(f"{f} is not homogeneous of degree {m}")
        rest = normal_form(f, divisors)
        if not rest.is_zero:
            if rest.degree() != m or not rest.is_homogeneous():
                raise DomainError(f"{f} does not reduce into degree {m}")
            divisors.append(rest)
    return GradedSubspace(modulus=modulus, degree=m,
                          basis=_reduce(divisors[start:]))


def _ideal_piece(ideal: Ideal, modulus: Ideal, m: int) -> GradedSubspace:
    """The degree-m piece of a homogeneous ideal J ⊇ modulus, modulo the
    modulus, with no matrix: for each standard monomial x^a of the modulus
    in in(J), x^a - NF_J(x^a) is in J with lead x^a and other terms
    standard for J, hence for the modulus; these are the canonical basis."""
    check_degree(m, "graded piece")
    check_piece(ideal.ring.nvars, m)
    basis = ideal.groebner_basis
    if not all(g.is_homogeneous() for g in basis):
        raise DomainError("graded piece of a non-homogeneous ideal")
    ring, p = ideal.ring, ideal.ring.p
    packing = ring._packing
    guard, key_of = packing.guard, packing.key
    leads = [(g._lead_fields(), len(g._terms) == 1) for g in basis]
    forms = []
    for word in modulus._standard_words(m):
        # whether each basis element whose lead divides x^a is a monomial
        dividing = [one for lead, one in leads if not (word - lead) & guard]
        if not dividing:
            continue  # x^a is standard for J
        key = key_of(word)
        terms = {key: 1}
        if not any(dividing):  # else x^a is in J, and NF_J(x^a) = 0
            rest = normal_form(MultiPoly(ring, {key: 1}), basis)._terms
            terms.update((k, p - c) for k, c in rest.items())
        form = MultiPoly(ring, terms)
        form._lead = key
        forms.append(form)
    return GradedSubspace(modulus=modulus, degree=m, basis=tuple(forms))


def graded_piece(scheme: ProjScheme, m: int) -> GradedSubspace:
    """The full degree-m piece of the homogeneous coordinate ring, the
    unit ideal's: its basis is the standard monomials."""
    if m < 0:
        raise DomainError(f"graded pieces need m >= 0, got {m}")
    return _ideal_piece(Ideal.unit(scheme.ring), scheme.ideal, m)


# -- stable trace images -------------------------------------------------


class StableImageResult:
    __slots__ = ("space", "level", "fixed")

    def __init__(self, space: GradedSubspace, level: int, fixed: Ideal):
        self.space = space
        self.level = level
        # the cone's fixed ideal whose degree-m piece is the space
        self.fixed = fixed


def _stable_piece(scheme: ProjScheme, pair: PairDivisor, m: int,
                  level: int, fixed: Ideal) -> GradedSubspace:
    """The degree-m piece modulo the scheme ideal of a fixed ideal whose
    trace images are stable at `level`, once every source twist up to
    that level is checked to be nonnegative."""
    for n, degree in enumerate(_source_twists(scheme, pair, m, level), 1):
        if degree < 0:
            raise DomainError(
                f"source twist degree {degree} is negative at level {n}")
    return _ideal_piece(fixed, scheme.ideal, m)


def _source_twists(scheme: ProjScheme, pair: PairDivisor, m: int,
                   level: int) -> list:
    """D_1, ..., D_level from the module docstring, in integers: q - 1
    divides q^n - 1."""
    q = pair.q
    excess = m - scheme.canonical_twist
    weight = pair.a * pair.f.degree()
    return [m + (q ** n - 1) * excess - weight * ((q ** n - 1) // (q - 1))
            for n in range(1, level + 1)]


def graded_fixed_ideal(scheme: ProjScheme, pair: PairDivisor, which: str,
                       c: Optional[MultiPoly] = None) -> ChainResult:
    """Largest ('sigma') or smallest ('tau') operator-fixed homogeneous
    ideal of the cone pair, adjunction factors included.  The tau chain
    starts from c, by default the pair's test element; a seed that is not
    homogeneous is refused, and so is a unit seed on a cone singular at
    its vertex.  The cone pair maps I_X into itself (F-adjunction), as
    the semi-naive tau chain requires."""
    cone = scheme.cone_pair(pair)
    if which == "sigma":
        return descending_fixed_ideal(cone, scheme.ideal)
    if which == "tau":
        seed = pair.default_test_element() if c is None else c
        if not seed.is_homogeneous():
            raise DomainError(f"test element c = {seed} must be homogeneous")
        if (seed.is_constant and not seed.is_zero
                and any(h.degree() >= 2 for h in scheme.forms)):
            raise DomainError(
                f"test element c = {seed} is a unit: its chain cannot "
                "leave the unit ideal, and the cone of a form of degree "
                ">= 2 is singular at its vertex; pass a nonconstant c")
        return ascending_fixed_ideal(cone, seed, scheme.ideal)
    raise DomainError(f"unknown fixed-ideal kind {which!r}")


def stable_sections(scheme: ProjScheme, pair: PairDivisor, m: int,
                    which: str = "sigma",
                    c: Optional[MultiPoly] = None) -> StableImageResult:
    """Stable image of the level-n trace maps inside the degree-m piece.

    The level-n image is the degree-m piece of the n-th term of the
    cone operator's descending chain, so the stable image is the
    degree-m piece of the fixed ideal: sigma for which='sigma', and for
    which='tau' the test ideal, whose level-n images are all the same
    because it is operator-fixed.  The reported level is the first
    level >= 2 whose image provably equals the one before: a sigma
    chain with J_s = J_(s-1) has equal level-s and level-(s-1) images
    in every degree, and tau gives 2.  The result does not depend on
    the level used to present the pair.  A negative m is refused before
    any chain runs.
    """
    if m < 0:
        raise DomainError(f"target degree must be >= 0, got {m}")
    chain = graded_fixed_ideal(scheme, pair, which, c)
    level = max(chain.steps, 2) if which == "sigma" else 2
    space = _stable_piece(scheme, pair, m, level, chain.ideal)
    return StableImageResult(space=space, level=level, fixed=chain.ideal)


# -- positional checks ---------------------------------------------------


def _same_saturation(small: Ideal, big: Ideal) -> bool:
    """Whether homogeneous ideals small ⊆ big have the same saturation by
    the irrelevant ideal.  Given the containment this holds exactly when
    big/small has finite length, that is, when its Hilbert series
    (N_small(t) - N_big(t))/(1-t)^nvars is a polynomial (Macaulay;
    Bayer–Stillman).  A polynomial P is divisible by 1 - t when P(1) = 0,
    and then P/(1 - t) has the partial sums of P as coefficients.

    The big ideal goes first: every caller has its basis at hand (the
    user ideal's, the fixed ideal's or the unit ideal's), so both degree
    checks run before the one new basis, the small one's."""
    big_numerator = big.hilbert_numerator()
    gap = [a - b for a, b in zip_longest(small.hilbert_numerator(),
                                         big_numerator, fillvalue=0)]
    for _ in range(small.ring.nvars):
        if sum(gap):
            return False
        gap = list(accumulate(gap))[:-1]
    return True


def is_base_point_free(space: GradedSubspace) -> bool:
    """Whether the subspace has empty common zero locus on the scheme:
    the lifts of the subspace plus the scheme ideal saturate to the unit
    ideal, which contains them, that is, they cut out a finite-length
    quotient (Hilbert numerator divisible by (1-t)^(n+1))."""
    if space.dim == 0:
        raise DomainError("base-point check on the zero subspace")
    total = Ideal(space.ring, space.basis) + space.modulus
    return _same_saturation(total, Ideal.unit(space.ring))


class SeparationFailure:
    __slots__ = ("kind", "points", "detail")

    def __init__(self, kind: str, points: tuple, detail: str = ""):
        self.kind = kind  # 'base-point' | 'pair' | 'tangent'
        self.points = points
        self.detail = detail


class SeparationReport:
    __slots__ = ("extension_degree", "points_on_scheme", "pairs_checked",
                 "tangents_checked", "failures")

    def __init__(self, extension_degree: int, points_on_scheme: int,
                 pairs_checked: int, tangents_checked: int,
                 failures: List[SeparationFailure]):
        self.extension_degree = extension_degree
        self.points_on_scheme = points_on_scheme
        self.pairs_checked = pairs_checked
        self.tangents_checked = tangents_checked
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def coverage(self) -> str:
        return (f"separation verified on rational points of degree "
                f"<= {self.extension_degree} only; {self.points_on_scheme} "
                f"points, {self.pairs_checked} pairs, "
                f"{self.tangents_checked} tangent checks")


def separates(scheme: ProjScheme, space: GradedSubspace,
              ext_degree: int = 1) -> SeparationReport:
    """Point and tangent separation of the linear system on a curve.

    Pairs of distinct points are sampled over F_{p^k} for the requested
    k: two points fail when the sections' values at the first are
    nonzero and those at the second lie in their span.  Tangent
    directions are checked at rational points P: the first-order
    neighbourhood of P on the curve spans P(ker J(P)) for the Jacobian
    J(P) of the defining forms, so its degree-m piece (m >= 1) has
    dimension dim ker J(P), which is 2 exactly at smooth points, and
    the sections surject onto it when the values s(P) and the
    derivatives grad s(P) . v for v in ker J(P) have rank 2.  This is a
    partial, rational-point verification and the report says so.  More
    than `extfield.MAX_POINTS` points are refused before any is formed.
    """
    # the array layer loads on first use, so importing charp loads it
    # only for callers that sample points
    from .extfield import MAX_POINTS, _cached_field, projective_points
    from .linalg import null_space, rank

    if not scheme.is_curve:
        raise DomainError("separation checks are defined for curves only")
    if ext_degree < 1:
        raise DomainError(f"extension degree must be >= 1, got {ext_degree}")
    limit = current_caps().ext_degree
    if ext_degree > limit:
        raise ResourceError("ext_degree", limit, f"extension degree {ext_degree}")
    if space.dim == 0:
        raise DomainError("separation check on the zero subspace")

    ring = scheme.ring
    p, nvars = ring.p, ring.nvars
    q = p ** ext_degree
    count = (q ** nvars - 1) // (q - 1)
    if count > MAX_POINTS:
        raise DomainError(
            f"point sampling supports at most {MAX_POINTS} projective points, "
            f"got {count} in P^{scheme.n} over F_({p}^{ext_degree})")
    field = _cached_field(p, ext_degree)
    basis = space.basis

    points = projective_points(field, nvars)
    for h in scheme.forms:  # keep the points where h vanishes
        points = filterfalse(field.evaluator(h), points)
    points = list(points)
    sections = [field.evaluator(s) for s in basis]
    values = [tuple([s(point) for s in sections]) for point in points]
    npts = len(points)

    failures: List[SeparationFailure] = []

    def point_repr(i):
        return tuple(field.label(c) for c in points[i])

    zero_rows = [i for i, u in enumerate(values) if not any(u)]
    for i in zero_rows:
        failures.append(SeparationFailure(
            "base-point", (point_repr(i),), "all sections vanish"))

    # points i < j fail when u_i != 0 and u_j is zero or proportional to
    # u_i: group the nonzero value vectors by their scaling with first
    # nonzero entry 1
    keys: dict = {}
    members: dict = {}
    for i, u in enumerate(values):
        if any(u):
            scale = field.inv(next(c for c in u if c))
            keys[i] = key = tuple([field.mul(c, scale) for c in u])
            members.setdefault(key, []).append(i)
    for i, key in keys.items():
        later = sorted([j for j in members[key] if j > i]
                       + [j for j in zero_rows if j > i])
        for j in later:
            failures.append(SeparationFailure(
                "pair", (point_repr(i), point_repr(j))))

    # at a rational point every code is a residue
    rational = [i for i, point in enumerate(points) if max(point) < p]
    jacobian = [[h.derivative(x) for x in range(nvars)] for h in scheme.forms]
    gradients = [[s.derivative(x) for x in range(nvars)] for s in basis]
    for i in rational:
        point = points[i]
        kernel = null_space([[d.evaluate(point) for d in row]
                             for row in jacobian], p, nvars)
        target_dim = 1 if space.degree == 0 else len(kernel)
        if target_dim != 2:
            failures.append(SeparationFailure(
                "tangent", (point_repr(i),),
                f"double-point piece has dimension {target_dim}"))
            continue
        grads = [[d.evaluate(point) for d in row] for row in gradients]
        rows = [values[i]] + [[sum(map(mul, grad, v)) for grad in grads]
                              for v in kernel]
        if rank(rows, p) != 2:
            failures.append(SeparationFailure(
                "tangent", (point_repr(i),),
                "sections do not surject onto the doubled point"))
    return SeparationReport(extension_degree=ext_degree,
                            points_on_scheme=npts,
                            pairs_checked=npts * (npts - 1) // 2,
                            tangents_checked=len(rational),
                            failures=failures)


# -- global generation ----------------------------------------------------


def is_globally_generated(ideal: Ideal, m: int) -> bool:
    """Whether the degree-m piece of a homogeneous ideal generates the
    associated sheaf: the ideal generated by the piece, which lies in
    the ideal, has the same saturation, decided by the Hilbert series
    of the quotient of the two."""
    if m < 0:
        raise DomainError(f"target degree must be >= 0, got {m}")
    piece = _ideal_piece(ideal, Ideal.zero(ideal.ring), m)
    return _same_saturation(Ideal(ideal.ring, piece.basis), ideal)


def stable_sections_generate(scheme: ProjScheme, pair: PairDivisor, m: int,
                             which: str = "tau",
                             c: Optional[MultiPoly] = None) -> bool:
    """Whether the stable subsystem alone generates the fixed-ideal twist:
    the lifts of the subsystem plus the scheme ideal, which lie in the
    fixed ideal (it contains the scheme ideal), have the same saturation
    as the fixed ideal, decided by the Hilbert series of the quotient of
    the two.  For a unit fixed ideal this is base-point-freeness of the
    subsystem, and a zero subsystem generates nothing."""
    result = stable_sections(scheme, pair, m, which, c)
    generated = Ideal(scheme.ring, result.space.basis) + scheme.ideal
    return _same_saturation(generated, result.fixed)


# -- degree bound for points on hypersurfaces ------------------------------


def projective_multiplicity(form: MultiPoly, point: Sequence[int]) -> int:
    """Multiplicity of a hypersurface at a rational projective point: the
    form's multiplicity at any representative, since away from the
    vertex the cone A^(n+1) is locally P^n × A^1."""
    ring = form.ring
    if (len(point) != ring.nvars
            or not all(isinstance(c, int) and not isinstance(c, bool)
                       for c in point)
            or not any(c % ring.p for c in point)):
        raise DomainError(f"bad projective point {point}")
    return multiplicity(form, point)


class DegreeBoundReport:
    __slots__ = ("delta", "witness", "witness_degree", "pair", "test_ideal",
                 "multiplicities")

    def __init__(self, delta: int, witness: MultiPoly, witness_degree: int,
                 pair: PairDivisor, test_ideal: Ideal,
                 multiplicities: List[int]):
        self.delta = delta
        self.witness = witness
        self.witness_degree = witness_degree
        self.pair = pair
        self.test_ideal = test_ideal
        self.multiplicities = multiplicities


def _saturated_pieces(ideal: Ideal, top: int) -> Iterator[GradedSubspace]:
    """The degree-d pieces, d = 0, 1, ..., top, of the saturation
    (I : (x_0, ..., x_n)^∞) of a homogeneous ideal, as subspaces of the
    polynomial ring's pieces.

    The saturation is the intersection of the charts (I : x_i^∞), each
    one grevlex basis (`Ideal.chart`), and so is each of its pieces.  A
    chart's degree-d piece is spanned by the products x^b·g of its
    homogeneous generators g, |b| = d - deg g; two spans meet in the
    combinations x·A for which x·A + y·B = 0 (`linalg.null_space`), and
    the meet is made canonical once per degree (`space_from_polys`).  A
    chart's piece below its lowest degree is 0, and so is the
    saturation's.  The charts are computed, and `linalg` loaded, on the
    first piece asked for."""
    from .linalg import null_space

    ring, p = ideal.ring, ideal.ring.p
    packing = ring._packing
    zero = Ideal.zero(ring)
    charts = [ideal.chart(i).generators for i in range(ring.nvars)]
    shifts: dict = {}  # degree -> the keys of its monomials

    def monomial_keys(k: int) -> list:
        if k not in shifts:
            shifts[k] = list(map(packing.key, _monomial_words(packing, k)))
        return shifts[k]

    for d in range(top + 1):
        check_degree(d, "graded piece")
        check_piece(ring.nvars, d)
        packing.check(d, "graded piece")
        meet = ()
        for i, chart in enumerate(charts):
            piece = tuple(g._times_key(b) for g in chart
                          for b in monomial_keys(d - g.degree()))
            if i:
                forms = meet + piece
                columns = tuple({k: 0 for g in forms for k in g._terms})
                # one row per monomial, one column per form
                rows = [[g._terms.get(k, 0) for g in forms]
                        for k in columns]
                kernel = null_space(rows, p, len(forms))
                top_rows = [row[:len(meet)] for row in rows]
                combos = [[sum(map(mul, v, row)) % p for row in top_rows]
                          for v in kernel]
                piece = _rows_to_basis(ring, columns,
                                       [c for c in combos if any(c)])
            meet = piece
            if not meet:
                break
        yield space_from_polys(zero, d, meet)


def degree_bound_pipeline(points: Sequence[Sequence[int]], form: MultiPoly,
                          mult_threshold: int,
                          codim_bound: int) -> DegreeBoundReport:
    """Produce a low-degree hypersurface through a finite point set.

    Given a degree-d form with multiplicity >= l at every point of S and
    codimension bound e for S, the test ideal of the pair scaled by e/l
    lands inside I_S and its twist by floor(d*e/l) is globally generated,
    so a form of degree at most delta = floor(d*e/l) through S exists.
    The containment and existence checks are theorems; their failure
    raises TheoremViolationError, and these two raises decide a `thm46`
    verdict: a returned report is a true one.  The pair lives in the
    form's ring.
    """
    if form.is_zero or not form.is_homogeneous():
        raise DomainError("the pipeline needs a nonzero homogeneous form")
    if mult_threshold < 1 or codim_bound < 1:
        raise DomainError("thresholds must be positive")
    if not points:
        raise DomainError("the point set must be non-empty")
    d = form.degree()
    p = form.ring.p

    mults = []
    offenders = []
    for P in points:
        mp = projective_multiplicity(form, P)
        mults.append(mp)
        if mp < mult_threshold:
            offenders.append((tuple(P), mp))
    if offenders:
        raise PreconditionError(
            "multiplicity below threshold at: " +
            ", ".join(f"{pt} (mult {mv})" for pt, mv in offenders))

    t = Fraction(codim_bound, mult_threshold)
    max_level = 1
    while p ** (max_level + 1) <= DEFAULT_CAPS.frobenius_block:
        max_level += 1
    # round the coefficient up to a/(p^E - 1); the containment only
    # improves.  The error is never negative and ties keep the first E,
    # so the first level that writes t exactly wins when there is one.
    # The levels searched are fixed, so a lower frobenius_block cap makes
    # the test ideal below fail loudly instead of changing the pair.
    best = None
    for E in range(1, max_level + 1):
        denom = p ** E - 1
        a = -(-t.numerator * denom // t.denominator)  # ceil
        err = Fraction(a, denom) - t
        if best is None or err < best[0]:
            best = (err, a, E)
    pair = PairDivisor(form, best[1], best[2])

    tau_ideal = tau(pair)
    # tau lies in the ideal of the point set exactly when it lies in the
    # ideal of every point, and a homogeneous ideal lies in the ideal of
    # a projective point when its homogeneous reduced basis vanishes there
    if any(g.evaluate(P) for g in tau_ideal.groebner_basis for P in points):
        raise TheoremViolationError(
            "test ideal escapes the point ideal; multiplicity containment "
            "failed on admissible input")

    delta = (d * codim_bound) // mult_threshold
    witness = None
    for piece in _saturated_pieces(tau_ideal, delta):
        if piece.dim > 0:
            witness = piece.basis[0]
            break
    if witness is None:
        raise TheoremViolationError(
            f"no section of the test ideal in degree <= {delta}")
    return DegreeBoundReport(delta=delta, witness=witness,
                             witness_degree=witness.degree(), pair=pair,
                             test_ideal=tau_ideal, multiplicities=mults)


# -- restriction to compatible centers -------------------------------------


def restriction_is_surjective(scheme: ProjScheme, pair: PairDivisor,
                              center: Ideal, m: int) -> bool:
    """Whether the stable subsystem on X restricts onto the stable
    subsystem of the induced operator on a compatible center Z.

    Surjectivity is a theorem whenever the twist minus the pair's log
    divisor has positive degree, so False signals a bug rather than an
    admissible outcome.  On a compatible center the center's chain is
    J_n + Z term by term (the image of J + Z is image(J) + image(Z), and
    image(Z) lies in Z + I_X; Schwede, "F-adjunction", 2009), so its
    stable piece is that of sigma_X + Z, read with no second chain; the
    positive degree makes every source twist positive.  This check thus
    cannot answer False: it verifies compatibility and the image of the
    stable subsystem on X, not a surjectivity that could fail.
    """
    modulus = center + scheme.ideal
    if not is_compatible(modulus, scheme.cone_pair(pair)):
        raise PreconditionError("the center is not compatible with the pair")
    if m - scheme.pair_degree(pair) <= 0:
        raise PreconditionError(
            f"twist degree {m} does not dominate the pair degree "
            f"{scheme.pair_degree(pair)}")
    on_x = stable_sections(scheme, pair, m)
    restricted = _ideal_piece(on_x.fixed + center, modulus, m)
    return space_from_polys(modulus, m, on_x.space.basis) == restricted
