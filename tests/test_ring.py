"""Field and polynomial kernel: arithmetic, parsing, order conventions."""

import random

import pytest
from hypothesis import given, strategies as st

from charp.errors import DomainError, ParseError, RingMismatchError
from charp.ring import (PolyRing, grevlex_key, grevlex_packing,
                        monomials_of_degree)

from charp.ideal import normal_form

from conftest import random_poly


@pytest.fixture
def R57():
    return PolyRing(("x", "y"), 5)


def test_ring_validation():
    with pytest.raises(DomainError):
        PolyRing(("x",), 4)  # not prime
    with pytest.raises(DomainError):
        PolyRing(("x",), 1 << 17)  # too large
    with pytest.raises(DomainError):
        PolyRing(("x", "x"), 5)
    with pytest.raises(DomainError):
        PolyRing((), 5)
    PolyRing(("x",), 65521)  # largest prime below 2^16


@given(st.integers(), st.integers(), st.sampled_from([2, 3, 5, 7, 13]))
def test_field_arithmetic_closed_and_exact(a, b, p):
    ring = PolyRing(("x",), p)
    ca, cb = ring.constant(a), ring.constant(b)
    for value in (ca + cb, ca * cb, ca - cb, -ca):
        c = value.constant_value()
        assert 0 <= c < p
    assert (ca + cb).constant_value() == (a + b) % p
    assert (ca * cb).constant_value() == (a * b) % p


@given(st.integers(), st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_frobenius_fixes_prime_field(a, p):
    ring = PolyRing(("x",), p)
    c = ring.constant(a)
    assert c ** p == c  # a^p = a


def test_parser_round_trip(R57):
    f = R57.parse("x^2*y + 3*z" if False else "x^2*y + 3*y")
    assert f == R57.poly({(2, 1): 1, (0, 1): 3})
    assert R57.parse(str(f)) == f
    assert R57.parse("(x+y)^2") == R57.parse("x^2 + 2*x*y + y^2")
    assert R57.parse("-x") == -R57.gen(0)
    assert R57.parse("x**2") == R57.parse("x^2")
    assert R57.parse("7") == R57.constant(2)
    assert R57.parse("x - x").is_zero


def test_parser_errors(R57):
    with pytest.raises(ParseError):
        R57.parse("x + z")  # undeclared variable
    with pytest.raises(ParseError):
        R57.parse("x +")
    with pytest.raises(ParseError):
        R57.parse("x ^ y")
    with pytest.raises(ParseError):
        R57.parse("(x + y")
    with pytest.raises(ParseError):
        R57.parse("x $ y")


def test_no_zero_coefficients_stored(R57):
    f = R57.parse("x + 4*x")  # 5x = 0
    assert f.is_zero
    g = R57.parse("x*y + 2") - R57.parse("x*y")
    assert g.num_terms() == 1


def test_degree_additive_over_domain():
    rng = random.Random(7)
    ring = PolyRing(("x", "y"), 7)
    for _ in range(50):
        f = random_poly(rng, ring, nonzero=True)
        g = random_poly(rng, ring, nonzero=True)
        assert (f * g).degree() == f.degree() + g.degree()


def test_grevlex_conventions():
    # same degree: the last nonzero coordinate of the difference decides
    assert grevlex_key((1, 0)) > grevlex_key((0, 1))          # x > y
    assert grevlex_key((2, 0, 0)) > grevlex_key((1, 1, 0))    # x^2 > xy
    assert grevlex_key((1, 1, 0)) > grevlex_key((1, 0, 1))    # xy > xz
    assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))    # y^2 > xz
    assert grevlex_key((0, 0, 2)) < grevlex_key((0, 2, 0))    # z^2 < y^2
    # degree dominates
    assert grevlex_key((0, 0, 3)) > grevlex_key((2, 0, 0))
    ring = PolyRing(("x", "y", "z"), 7)
    f = ring.parse("z^3 + x*y + y^2")
    assert f.leading_exponent() == (0, 0, 3)


def test_monomial_enumeration_descending():
    mons = list(monomials_of_degree(3, 2))
    keys = [grevlex_key(m) for m in mons]
    assert keys == sorted(keys, reverse=True)
    assert len(mons) == 6  # C(4, 2)


def test_frobenius_power_matches_binary_power():
    rng = random.Random(11)
    for p in (2, 3, 5):
        ring = PolyRing(("x", "y"), p)
        for _ in range(20):
            f = random_poly(rng, ring)
            assert f.frobenius_power(p) == f ** p
            assert f.frobenius_power(p * p) == f ** (p * p)
    with pytest.raises(DomainError):
        PolyRing(("x",), 5).gen(0).frobenius_power(10)


def test_shift_and_evaluate():
    ring = PolyRing(("x", "y"), 7)
    f = ring.parse("x^2 + y^3 + 1")
    shifted = f.shift((1, 2))
    # f(x+1, y+2) at (0,0) equals f(1,2)
    assert shifted.evaluate((0, 0)) == f.evaluate((1, 2))
    partial = f.shift((3, None))
    assert partial.evaluate((0, 5)) == f.evaluate((3, 5))


def test_derivative():
    ring = PolyRing(("x", "y", "z"), 5)
    f = ring.parse("x^5*y + 3*x^2*z + y^3 + 2")
    # the x^5 term dies in characteristic 5
    assert f.derivative(0) == ring.parse("6*x*z")
    assert f.derivative(1) == ring.parse("x^5 + 3*y^2")
    assert f.derivative(2) == ring.parse("3*x^2")
    assert ring.constant(4).derivative(1).is_zero
    # Euler: sum x_i d_i h = deg(h) h for a form h
    h = ring.parse("x^3 + y^3 + z^3")
    euler = sum((ring.gen(i) * h.derivative(i) for i in range(3)), ring.zero())
    assert euler == h.scale(3)


def test_ring_mismatch_raises():
    a = PolyRing(("x",), 5).gen(0)
    b = PolyRing(("x",), 7).gen(0)
    with pytest.raises(RingMismatchError):
        a + b


def test_canonical_string(R57):
    f = R57.parse("y + x^2 + 3")
    assert str(f) == "x^2 + y + 3"
    assert str(R57.zero()) == "0"
    assert str(-R57.gen(0)) == "4*x"


# -- packed keys and the leading-term cache ----------------------------------


def _width_for(degree):
    width = 16
    while degree >= 1 << (width - 1):
        width *= 2
    return width


def _random_exponents(rng, nvars, top):
    return tuple(rng.choice((0, 1, rng.randint(0, top))) for _ in range(nvars))


@pytest.mark.parametrize("top", [7, 5000, 1 << 20, 1 << 40])
def test_packed_keys_follow_the_reference_order(top):
    # exponents up to 2^40 need 64-bit digits; 16-bit digits hold degree
    # < 2^15 only, so every width is exercised
    rng = random.Random(top)
    for nvars in (2, 3, 4):
        exps = {_random_exponents(rng, nvars, top) for _ in range(60)}
        exps |= {(top,) + (0,) * (nvars - 1), (0,) * (nvars - 1) + (top,)}
        width = _width_for(max(map(sum, exps)))
        packing = grevlex_packing(nvars, width)
        by_key = sorted(exps, key=grevlex_key)
        assert sorted(exps, key=packing.pack) == by_key, nvars
        for a in exps:
            assert packing.unpack(packing.pack(a)) == a
            fields, degree = packing.direct(packing.pack(a))
            assert degree == sum(a)
        for a, b in zip(by_key, by_key[1:] + by_key[:1]):
            ka, kb = packing.pack(a), packing.pack(b)
            divides = all(x <= y for x, y in zip(a, b))
            assert (not (packing.direct(kb)[0]
                         - packing.direct(ka)[0]) & packing.guard) == divides
            total = tuple(x + y for x, y in zip(a, b))
            if sum(total) < packing.limit:
                assert ka + kb == packing.pack(total)


def test_packed_keys_order_a_frobenius_power():
    # a Frobenius power of a degree-40 form: degree 10240 fits 16 bits
    R2 = PolyRing(("x", "y", "z"), 2)
    g = R2.parse("x^40 + x^13*y^20*z^7 + y*z^39").frobenius_power(256)
    packing = grevlex_packing(3, 16)
    assert g.degree() < packing.limit
    assert sorted(g._terms, key=packing.pack, reverse=True) == \
        [e for e, _ in g.iter_terms()]


def test_leading_term_cache_answers_grevlex():
    ring = PolyRing(("x", "y", "z"), 7)
    f = ring.parse("x*z + y^2 + 3*x^2")
    for _ in range(3):
        assert f.leading_exponent() == (2, 0, 0)
        assert f.leading_coefficient() == 3
    assert f._lead == (2, 0, 0)
    # a scaled copy shares the support, so it shares the answer
    g = f.scale(2).monic()
    assert g._lead == (2, 0, 0) and g.leading_coefficient() == 1
    # a normal form comes with its leading exponent cached
    h = normal_form(ring.parse("x^3 + y^2*z + z^3"), [ring.parse("x^2 - y*z")])
    assert h._lead == max(h._terms, key=grevlex_key) == (1, 1, 1)
    with pytest.raises(DomainError):
        ring.zero().leading_exponent()


def test_caches_never_enter_equality_or_hashing():
    rng = random.Random(13)
    ring = PolyRing(("x", "y", "z"), 5)
    for _ in range(30):
        f = random_poly(rng, ring, nonzero=True)
        fresh = ring.poly(dict(f._terms))
        before = hash(f)
        f.leading_exponent()
        normal_form(ring.gen(0) * f, [f])  # f as a divisor
        assert f._lead and f._packed
        assert f == fresh and hash(f) == hash(fresh) == before
        assert str(f) == str(fresh)
        assert {f: 1}[fresh] == 1
        assert f.monic() == fresh.monic()
