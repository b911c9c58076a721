"""Frobenius expansion, trace, bracket roots and the operator calculus."""

import random
from operator import le

import pytest
from hypothesis import given, strategies as st

from charp.cartier import apply_cartier, bracket_root, frob_expand
from charp.config import DEFAULT_CAPS
from charp.errors import DomainError, ResourceError
from charp.fsing import PairDivisor
from charp.ideal import Ideal
from charp.ring import PolyRing

from conftest import (bracket_power, grevlex_key, random_homogeneous,
                      random_poly, trace)


@st.composite
def poly_and_level(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    ring = PolyRing(("x", "y"), p)
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        st.integers(1, p - 1), min_size=1, max_size=5))
    return ring.poly(terms), draw(st.sampled_from([1, 2]))


@pytest.fixture
def R2():
    return PolyRing(("x", "y"), 2)


def I(ring, *texts):
    return Ideal(ring, [ring.parse(t) for t in texts])


def reassemble(components, q):
    """sum_b g_b^q * x^b over an expansion's components."""
    return sum(((g_b ** q).mul_monomial(b)
                for b, g_b in components.items()),
               next(iter(components.values())).ring.zero())


# -- expansion ----------------------------------------------------------------


def test_expand_examples(R2):
    R1 = PolyRing(("x",), 2)
    assert frob_expand(R1.parse("x^3"), 1) == {(1,): R1.gen(0)}

    exp = frob_expand(R2.parse("x^2 + y^3"), 1)
    assert exp == {(0, 0): R2.gen(0), (0, 1): R2.gen(1)}
    assert list(frob_expand(R2.parse("x*y + y + 1"), 1)) == [
        (0, 0), (0, 1), (1, 1)]
    assert frob_expand(R2.zero(), 1) == {}

    for p in (2, 5):
        ring = PolyRing(("x",), p)
        assert frob_expand(ring.one(), 1) == {(0,): ring.one()}


def test_expand_rejects_bad_level(R2):
    with pytest.raises(DomainError):
        frob_expand(R2.gen(0), 0)
    with pytest.raises(DomainError):
        trace(R2.gen(0), -1)


def test_expand_block_cap():
    ring = PolyRing(("x",), 3)
    with pytest.raises(ResourceError) as err:
        frob_expand(ring.gen(0), 9)  # 3^9 > 256
    assert "frobenius_block" in str(err.value)


def test_reassembly_identity():
    # 100 random polynomials at levels 1 and 2 reassemble exactly
    rng = random.Random(101)
    cases = 0
    for p in (2, 3, 5):
        ring = PolyRing(("x", "y"), p)
        for _ in range(17):
            for e in (1, 2):
                g = random_poly(rng, ring, max_degree=6, max_terms=5)
                if not g.is_zero:
                    assert reassemble(frob_expand(g, e), p ** e) == g
                    cases += 1
    assert cases >= 100 - 20  # zero draws excluded


@given(poly_and_level())
def test_reassembly_identity_hypothesis(case):
    g, e = case
    if g.is_zero:
        return
    assert reassemble(frob_expand(g, e), g.ring.p ** e) == g


def test_expansion_unique_on_basis_monomials():
    ring = PolyRing(("x", "y"), 3)
    g = ring.parse("x^4*y^5")
    # 4 = 3*1+1, 5 = 3*1+2
    assert frob_expand(g, 1) == {(1, 2): ring.parse("x*y")}


# -- trace --------------------------------------------------------------------


def test_trace_examples(R2):
    assert trace(R2.parse("x*y"), 1) == R2.one()
    assert trace(R2.parse("x^3*y"), 1) == R2.gen(0)
    assert trace(R2.parse("x^2"), 1).is_zero


def test_trace_surjective_normalization():
    for p, e in ((2, 1), (3, 1), (5, 1), (2, 2)):
        ring = PolyRing(("x", "y"), p)
        q = p ** e
        top = ring.monomial((q - 1, q - 1))
        assert trace(top, e) == ring.one()


def test_p_e_linearity():
    # trace(h^q * g, e) = h * trace(g, e), 100+ random cases
    rng = random.Random(107)
    for p in (2, 3, 5):
        ring = PolyRing(("x", "y"), p)
        for e in (1, 2):
            q = p ** e
            for _ in range(20):
                h = random_poly(rng, ring, max_degree=3)
                g = random_poly(rng, ring, max_degree=5, max_terms=5)
                assert trace(h ** q * g, e) == h * trace(g, e)


def test_trace_additive(R2):
    rng = random.Random(109)
    for _ in range(20):
        g1 = random_poly(rng, R2, max_degree=5)
        g2 = random_poly(rng, R2, max_degree=5)
        assert trace(g1 + g2, 1) == trace(g1, 1) + trace(g2, 1)


# -- bracket roots -------------------------------------------------------------


def test_root_examples(R2):
    R1 = PolyRing(("x",), 3)
    assert bracket_root(I(R1, "x^3"), 1) == I(R1, "x")
    assert bracket_root(I(R2, "x^2*y^2"), 1) == I(R2, "x*y")
    assert bracket_root(I(R2, "x^2+y^3"), 1) == I(R2, "x", "y")


def test_root_power_adjunction():
    rng = random.Random(113)
    for p in (2, 3, 5):
        ring = PolyRing(("x", "y"), p)
        for _ in range(20):
            ideal = Ideal(ring, [random_poly(rng, ring, max_degree=5,
                                             nonzero=True)
                                 for _ in range(2)])
            for e in (1, 2):
                root = bracket_root(ideal, e)
                assert ideal.issubset(bracket_power(root, e))
            mono = Ideal(ring, [ring.monomial((rng.randint(0, 6),
                                               rng.randint(0, 6)))
                                for _ in range(2)])
            assert bracket_root(bracket_power(mono, 1), 1) == mono


def test_root_monotone(R2):
    rng = random.Random(127)
    for _ in range(25):
        small = Ideal(R2, [random_poly(rng, R2, nonzero=True)])
        big = small + Ideal(R2, [random_poly(rng, R2, nonzero=True)])
        assert bracket_root(small, 1).issubset(bracket_root(big, 1))


def test_root_smallest_ideal_property():
    # K = root(J) is the least K with J inside K^[q]: any monomial ideal
    # strictly below K fails the containment
    ring = PolyRing(("x",), 5)
    J = I(ring, "x^12")
    root = bracket_root(J, 1)
    assert root == I(ring, "x^2")
    too_small = I(ring, "x^3")
    assert not J.issubset(bracket_power(too_small, 1))


# -- the operator --------------------------------------------------------------


def test_apply_examples():
    R1 = PolyRing(("x",), 5)
    unit = Ideal.unit(R1)
    assert apply_cartier(PairDivisor(R1.parse("x^4"), 1, 1), unit).is_unit
    assert apply_cartier(PairDivisor(R1.one(), 1, 1), I(R1, "x^5")) == I(R1, "x")
    assert apply_cartier(PairDivisor(R1.parse("x^5"), 1, 1), unit) == I(R1, "x")


def test_zero_multiplier_rejected():
    R1 = PolyRing(("x",), 5)
    with pytest.raises(DomainError):
        PairDivisor(R1.zero(), 1, 1)


def test_apply_monotone_and_additive(R2):
    rng = random.Random(131)
    for _ in range(20):
        f = random_poly(rng, R2, nonzero=True)
        pair = PairDivisor(f, 1, 1)
        a = Ideal(R2, [random_poly(rng, R2, nonzero=True)])
        b = Ideal(R2, [random_poly(rng, R2, nonzero=True)])
        assert apply_cartier(pair, a).issubset(apply_cartier(pair, a + b))
        assert apply_cartier(pair, a + b) == \
            apply_cartier(pair, a) + apply_cartier(pair, b)


def test_composition_law():
    # twice at level e with multiplier f equals once at level 2e with
    # multiplier f^(1+q); 100+ random cases
    rng = random.Random(137)
    cases = 0
    for p in (2, 3, 5, 7):
        ring = PolyRing(("x", "y"), p)
        for _ in range(13):
            f = random_poly(rng, ring, max_degree=2, nonzero=True)
            ideal = Ideal(ring, [random_poly(rng, ring, max_degree=3,
                                             nonzero=True)])
            once = PairDivisor(f, 1, 1)
            twice = apply_cartier(once, apply_cartier(once, ideal))
            composite = once.rescale(2)
            assert composite.e == 2
            assert composite.multiplier == f ** (1 + p)
            assert twice == apply_cartier(composite, ideal)
            cases += 1
    assert cases >= 52


def test_rescale_validation(R2):
    # n < 1 presents no composite; -1 would give a float coefficient
    pair = PairDivisor(R2.gen(0), 1, 1)
    for n in (0, -1):
        with pytest.raises(DomainError, match="n >= 1"):
            pair.rescale(n)


# -- the one-pass image against the polynomial route ---------------------------


def polynomial_route_root(generators, u, e):
    """Bracket root generators of u * J the way the engine once formed
    them: the polynomial u * g, its expansion, each component made monic,
    and each kept once, in order."""
    gens, seen = [], set()
    for g in generators:
        for component in frob_expand(u * g, e).values():
            component = component.monic()
            if component not in seen:
                seen.add(component)
                gens.append(component)
    return gens


def minimalised(gens):
    """The polynomial generators in order, then the one-term ones that
    no other one-term generator divides, grevlex-descending."""
    monomials = {g.leading_exponent() for g in gens if g.num_terms() == 1}
    minimal = [a for a in monomials
               if not any(b != a and all(x <= y for x, y in zip(b, a))
                          for b in monomials)]
    ring = gens[0].ring
    return ([g for g in gens if g.num_terms() > 1]
            + [ring.monomial(a) for a in sorted(minimal, key=grevlex_key,
                                                reverse=True)])


def sparse_poly(rng, ring, top, max_terms):
    """A nonzero polynomial with a few terms of exponents up to top."""
    while True:
        poly = ring.poly({tuple(rng.randint(0, top) for _ in range(ring.nvars)):
                          rng.randint(1, ring.p - 1)
                          for _ in range(rng.randint(1, max_terms))})
        if not poly.is_zero:
            return poly


def test_one_pass_image_matches_polynomial_route():
    # every level up to the frobenius_block cap over F_2 ... F_7, with
    # exponents past q so that every slot and quotient gets used; the
    # engine keeps only the minimal monomial components
    rng = random.Random(139)
    cases = 0
    for p in (2, 3, 5, 7):
        q, e = p, 1
        while q <= DEFAULT_CAPS.frobenius_block:
            for nvars in (1, 2, 3):
                ring = PolyRing(("x", "y", "z")[:nvars], p)
                for _ in range(3):
                    gens = [sparse_poly(rng, ring, 2 * q + 1, 5)
                            for _ in range(rng.randint(1, 3))]
                    gens.append(gens[0].scale(rng.randint(1, p - 1)))
                    u = sparse_poly(rng, ring, q + 2, 3)
                    ideal = Ideal(ring, gens)
                    for got, want in (
                            (apply_cartier(PairDivisor(u, 1, e), ideal),
                             polynomial_route_root(gens, u, e)),
                            (bracket_root(ideal, e),
                             polynomial_route_root(gens, ring.one(), e))):
                        assert list(got.generators) == minimalised(want)
                        for g in got.generators:
                            assert g._lead == max(g._terms)
                    cases += 1
            q, e = q * p, e + 1
    assert cases == 9 * (8 + 5 + 3 + 2)


def test_minimal_monomial_image_of_cone_multipliers():
    # u = h^(q-1) * f^a for forms h and f, as on a cone: dropping the
    # monomial components that others divide keeps the ideal, and no
    # monomial generator left divides another
    rng = random.Random(421)
    checked = dropped = 0
    for p in (2, 3, 5):
        for e in (1, 2):
            q = p ** e
            if q > 9:
                continue
            ring = PolyRing(("x", "y", "z"), p)
            for _ in range(4):
                h = random_homogeneous(rng, ring, rng.randint(2, 3), 4)
                f = random_homogeneous(rng, ring, 1, 3)
                u = h ** (q - 1) * f ** rng.randint(0, q)
                gens = [random_homogeneous(rng, ring, rng.randint(1, q + 1), 3)
                        for _ in range(rng.randint(1, 3))] + [h]
                got = apply_cartier(PairDivisor(u, 1, e), Ideal(ring, gens))
                want = polynomial_route_root(gens, u, e)
                assert got.groebner_basis == Ideal(ring, want).groebner_basis
                assert list(got.generators) == minimalised(want)
                monomials = [g.leading_exponent() for g in got.generators
                             if g.num_terms() == 1]
                for i, a in enumerate(monomials):
                    for j, b in enumerate(monomials):
                        assert i == j or not all(map(le, a, b))
                dropped += len(want) - len(got.generators)
                checked += 1
    assert checked == 20 and dropped > 0


def test_one_pass_image_keeps_the_caps_and_ring_check():
    ring = PolyRing(("x",), 3)
    with pytest.raises(ResourceError, match="frobenius_block"):
        apply_cartier(PairDivisor(ring.gen(0), 1, 6), Ideal.unit(ring))
    with pytest.raises(ResourceError, match="frobenius_block"):
        bracket_root(Ideal.unit(ring), 6)
    other = PolyRing(("x",), 5)
    with pytest.raises(DomainError, match="different rings"):
        apply_cartier(PairDivisor(ring.gen(0), 1, 1), Ideal.unit(other))
    with pytest.raises(DomainError, match="e >= 1"):
        bracket_root(Ideal.unit(ring), 0)
