"""Shared fixtures, hypothesis profile, and the acceptance recorder."""

import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from charp.cartier import frob_expand
from charp.errors import DomainError, UnsupportedInputError
from charp.fsing import PairDivisor, tau
from charp.ideal import Ideal, normal_form
from charp.linalg import rref
from charp.proj import GradedSubspace
from charp.ring import MultiPoly, PolyRing

settings.register_profile(
    "charp",
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)
settings.load_profile("charp")


def random_poly(rng: random.Random, ring: PolyRing, max_degree: int = 3,
                max_terms: int = 4, nonzero: bool = False) -> MultiPoly:
    """Deterministic random sparse polynomial for seeded property loops."""
    while True:
        terms = {}
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            total = rng.randint(0, max_degree)
            exps = [0] * ring.nvars
            for _ in range(total):
                exps[rng.randrange(ring.nvars)] += 1
            terms[tuple(exps)] = rng.randint(1, ring.p - 1)
        poly = ring.poly(terms)
        if not nonzero or not poly.is_zero:
            return poly


def random_homogeneous(rng: random.Random, ring: PolyRing, degree: int,
                       max_terms: int = 3) -> MultiPoly:
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * ring.nvars
            for _ in range(degree):
                exps[rng.randrange(ring.nvars)] += 1
            terms[tuple(exps)] = rng.randint(1, ring.p - 1)
        poly = ring.poly(terms)
        if not poly.is_zero:
            return poly


# -- oracles for routes the engine no longer takes --------------------------


def trace(g: MultiPoly, e: int) -> MultiPoly:
    """The trace Tr^e: the component of the top basis monomial
    x^(q-1, ..., q-1) in `frob_expand`.

    Monomial rule: x^a maps to x^((a - (q-1)*1)/q) when every coordinate
    of a is congruent to q-1 mod q, and to 0 otherwise.  The operator is
    p^{-e}-linear and surjective.
    """
    ring = g.ring
    components = frob_expand(g, e)
    return components.get((ring.p ** e - 1,) * ring.nvars, ring.zero())


@dataclass
class TwistReport:
    holds: bool
    shifted: Ideal
    expected: Ideal


def twist_identity(pair: PairDivisor, g: MultiPoly) -> TwistReport:
    """Check tau(Delta + div(g)) == g * tau(Delta).

    The augmented pair is represented with the single polynomial
    f^a * g^(q-1) at coefficient 1 and the same level; the pair's chain
    is seeded with its default test element c and the augmented chain
    with g*c, so that both runs share test-element data.
    """
    if g.is_zero:
        raise DomainError("twisting polynomial must be nonzero")
    base_c = pair.default_test_element()
    q = pair.q
    augmented = PairDivisor(pair.multiplier * g ** (q - 1), 1, pair.e)
    lhs = tau(augmented, g * base_c)
    rhs = Ideal(pair.ring, (g,)) * tau(pair, base_c)
    return TwistReport(holds=(lhs == rhs), shifted=lhs, expected=rhs)


def fedder_f_pure(ideal: Ideal, maximal: Ideal) -> bool:
    """Fedder's criterion at a rational point for a hypersurface: the
    quotient ring S/I is F-pure at m exactly when (I^[p] : I) is not
    inside m^[p] (Fedder, "F-purity and rational singularity", Trans.
    AMS 278 (1983)).  For I = (h) the colon is (h^p : h) = (h^(p-1)),
    so the test is h^(p-1) not in m^[p].  An ideal whose reduced basis
    is not one element is refused.
    """
    if not ideal.issubset(maximal):
        raise DomainError("Fedder test needs I contained in the maximal ideal")
    basis = ideal.groebner_basis
    if len(basis) != 1:
        raise UnsupportedInputError(
            f"Fedder test needs a principal ideal, got a basis of "
            f"{len(basis)} elements")
    h = basis[0]
    return not maximal.bracket_power(1).contains(h ** (ideal.ring.p - 1))


def point_ideal(ring: PolyRing, point) -> Ideal:
    """Prime ideal of a coordinate-subspace point: (x_i - c_i) over the
    constrained coordinates, None marking a free one.  The route that
    `fsing.multiplicity_containment` replaced by vanishing: an ideal lies
    in it exactly when `issubset` says so."""
    gens = [ring.gen(i) - ring.constant(c % ring.p)
            for i, c in enumerate(point) if c is not None]
    return Ideal(ring, gens)


def rational_point_ideal(ring: PolyRing, coords) -> Ideal:
    """Homogeneous ideal of a rational projective point: the 2x2 minors
    x_i*c_j - x_j*c_i."""
    coords = [c % ring.p for c in coords]
    if len(coords) != ring.nvars or not any(coords):
        raise DomainError(f"bad projective point {coords}")
    gens = []
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            g = ring.gen(i).scale(coords[j]) - ring.gen(j).scale(coords[i])
            if not g.is_zero:
                gens.append(g)
    return Ideal(ring, gens)


def rref_span(modulus: Ideal, m: int, polys) -> GradedSubspace:
    """Subspace spanned by the polys, the matrix route that
    `proj.space_from_polys` replaced: their normal forms as rows over the
    standard monomials of the modulus, row-reduced."""
    ring = modulus.ring
    columns = modulus.standard_monomials(m)
    index = {exps: i for i, exps in enumerate(columns)}
    rows = []
    for f in polys:
        if f.is_zero:
            continue
        if f.degree() != m or not f.is_homogeneous():
            raise DomainError(f"{f} is not homogeneous of degree {m}")
        row = np.zeros(len(columns), dtype=np.int64)
        for exps, c in normal_form(f, modulus.groebner_basis)._terms.items():
            if exps not in index:
                raise DomainError(f"{f} does not reduce into degree {m}")
            row[index[exps]] = c
        if row.any():
            rows.append(row)
    basis = ()
    if rows:
        matrix, _ = rref(np.array(rows, dtype=np.int64), ring.p)
        basis = tuple(MultiPoly(ring, {columns[j]: int(row[j])
                                       for j in np.flatnonzero(row)})
                      for row in matrix)
    return GradedSubspace(modulus=modulus, degree=m, basis=basis)


def is_subspace(small, big) -> bool:
    """Whether one graded subspace lies in another: adding its basis to
    the other's leaves the canonical row-reduced form as it is."""
    return rref_span(big.modulus, big.degree, big.basis + small.basis) == big


def graded_generators_in_degree(ideal: Ideal, m: int, modulus: Ideal) -> list:
    """Spanning set of the degree-m piece of a homogeneous ideal modulo
    a homogeneous modulus (the zero ideal for the piece itself): each
    element g of the reduced basis times the degree-(m - deg g) standard
    monomials of the modulus.  Any other monomial x^a adds nothing,
    since x^a - NF(x^a) lies in the modulus and NF(x^a) is a combination
    of standard monomials.  With `rref_span` this is the span route that
    `proj._ideal_piece` replaced."""
    multipliers: dict = {}
    out = []
    for g in ideal.groebner_basis:
        d = g.degree()
        if d > m:
            continue
        if not g.is_homogeneous():
            raise DomainError("graded piece of a non-homogeneous ideal")
        if d not in multipliers:
            multipliers[d] = modulus.standard_monomials(m - d)
        out.extend(g.mul_monomial(exps) for exps in multipliers[d])
    return out


# -- acceptance criterion recording ----------------------------------------

_ACCEPTANCE: list = []


def record_criterion(number: int, description: str, ok: bool):
    _ACCEPTANCE.append((number, description, bool(ok)))


def check_criterion(number: int, description: str, ok: bool):
    record_criterion(number, description, ok)
    assert ok, f"acceptance criterion {number} failed: {description}"


@pytest.hookimpl
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, ok in sorted(_ACCEPTANCE):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"C{number:02d} {verdict}  {description}")
