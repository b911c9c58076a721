"""Field and polynomial kernel: arithmetic, parsing, order conventions."""

import random

import pytest
from hypothesis import given, strategies as st

from charp.errors import DomainError, ParseError, RingMismatchError
from charp.ring import PolyRing, grevlex_key, monomials_of_degree

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


def test_dehomogenize():
    ring = PolyRing(("x", "y", "z"), 5)
    f = ring.parse("x^2*z + y^3")
    assert f.dehomogenize(2) == ring.parse("x^2 + y^3")


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
