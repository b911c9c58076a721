"""The packed-key kernels against the tuple-keyed reference routines of
`conftest.py`, the width checks that keep every key exact, and the
equality and hashing of polynomials."""

import random

import pytest

import charp.ring
from charp.cartier import apply_cartier, bracket_root, frob_expand
from charp.config import Caps, caps_scope
from charp.errors import UnsupportedInputError
from charp.fsing import PairDivisor
from charp.ideal import Ideal, buchberger, normal_form
from charp.proj import _saturated_pieces
from charp.ring import PolyRing

from conftest import (grevlex_key, oracle_buchberger, oracle_frob_expand,
                      oracle_frobenius, oracle_mul, oracle_normal_form,
                      oracle_pow, oracle_root, random_poly, terms)

PRIMES = (2, 3, 5, 7, 11, 13)


def _inputs(rng, ring):
    """Random polynomials of this ring, zero, constant and one-term ones
    among them."""
    p = ring.p
    polys = [ring.zero(), ring.constant(rng.randint(1, p - 1)),
             ring.monomial([rng.randint(0, 3) for _ in range(ring.nvars)],
                           rng.randint(1, p - 1))]
    polys += [random_poly(rng, ring, max_degree=4, max_terms=4)
              for _ in range(5)]
    return polys


def _same(a, b):
    """Equal polynomials with equal renderings and terms in equal order."""
    return (a == b and str(a) == str(b)
            and list(a.iter_terms()) == list(b.iter_terms()))


def _rings():
    for p in PRIMES:
        for nvars in range(1, 5):
            yield PolyRing(tuple(f"x{i}" for i in range(nvars)), p)


def test_products_and_powers_match_the_tuple_oracle():
    rng = random.Random(32)
    cases = 0
    for ring in _rings():
        p, n = ring.p, ring.nvars
        polys = _inputs(rng, ring)
        for f in polys:
            for g in polys:
                assert terms(f * g) == oracle_mul(terms(f), terms(g), p), (f, g)
            for k in (0, 1, 2, p - 1, p, p + 1, 2 * p * p + 1):
                assert terms(f ** k) == oracle_pow(terms(f), k, p, n), (f, k)
            for q in (p, p * p):
                assert terms(f ** q) == oracle_frobenius(terms(f), q), (f, q)
            if not f.is_zero:
                want = max(terms(f), key=grevlex_key)
                assert f.leading_exponent() == want
                assert f.degree() == sum(want)
            cases += 1
    assert cases == len(PRIMES) * 4 * 8


def test_frobenius_splits_and_roots_match_the_tuple_oracle():
    rng = random.Random(33)
    cases = 0
    for ring in _rings():
        p = ring.p
        polys = _inputs(rng, ring)
        for e in (1, 2) if p < 13 else (1,):
            q = p ** e
            for f in polys:
                got = frob_expand(f, e)
                want = oracle_frob_expand(terms(f), q)
                assert list(got) == list(want), (f, e)
                assert all(terms(got[b]) == want[b] for b in want), (f, e)
            ideal = Ideal(ring, [g for g in polys if rng.random() < 0.6])
            roots = [terms(g) for g in bracket_root(ideal, e).generators]
            assert roots == oracle_root({(0,) * ring.nvars: 1},
                                        [terms(g) for g in ideal.generators],
                                        q, p), (ideal, e)
            for f in filter(None, polys):
                pair = PairDivisor(f, rng.randint(1, q), e)
                images = apply_cartier(pair, ideal).generators
                assert [terms(g) for g in images] == oracle_root(
                    terms(pair.multiplier),
                    [terms(g) for g in ideal.generators], q, p), (pair, ideal)
                # a root's generators come with their leads cached right
                for g in images:
                    assert g._lead == max(g._terms)
                cases += 1
    assert cases > 200


def test_normal_forms_and_bases_match_the_tuple_oracle():
    rng = random.Random(34)
    cases = 0
    for ring in _rings():
        polys = _inputs(rng, ring)
        for _ in range(4):
            divisors = rng.sample(polys, rng.randint(1, 3))
            for f in polys:
                got = normal_form(f, divisors)
                assert _same(got, oracle_normal_form(f, divisors)), (f, divisors)
                if not got.is_zero:
                    assert got._lead_key() == max(got._terms)
            gens = [g for g in rng.sample(polys, rng.randint(1, 3))
                    if g.degree() <= 3]
            with caps_scope(Caps(max_basis=200)):
                got = buchberger(gens)
            want = oracle_buchberger(gens)
            assert len(got) == len(want) and all(map(_same, got, want)), gens
            cases += 1
    assert cases == len(PRIMES) * 4 * 4


# -- the width checks ----------------------------------------------------------


@pytest.fixture
def narrow(monkeypatch):
    """A ring whose keys have 8-bit digits: degrees below 128 are exact."""
    monkeypatch.setattr(charp.ring, "_KEY_WIDTH", 8)
    ring = PolyRing(("x", "y", "z"), 5)
    assert ring._packing.limit == 128
    return ring


def test_every_key_former_refuses_a_degree_past_the_limit(narrow):
    with caps_scope(Caps(max_degree=1000)):
        _refuse_past_the_limit(narrow)


def _refuse_past_the_limit(ring):
    f = ring.parse("x^100 + y*z")
    # a product, exact up to the limit
    assert terms(f * ring.parse("x^27")) == {(127, 0, 0): 1, (27, 1, 1): 1}
    with pytest.raises(UnsupportedInputError, match="product of degree 128"):
        f * ring.parse("x^28")
    with pytest.raises(UnsupportedInputError, match="product"):
        f.mul_monomial((0, 28, 0))
    # a power of one term and of several, and a Frobenius twist
    assert (ring.gen(0) ** 127).leading_exponent() == (127, 0, 0)
    with pytest.raises(UnsupportedInputError, match="power of degree 128"):
        ring.gen(1) ** 128
    with pytest.raises(UnsupportedInputError, match="power of degree 130"):
        ring.parse("x^2 + y*z") ** 65
    with pytest.raises(UnsupportedInputError, match="power of degree 250"):
        ring.parse("x^2 + y^2") ** 125
    # a monomial given as exponents or in text, and a power in text
    with pytest.raises(UnsupportedInputError, match="monomial"):
        ring.monomial((64, 64, 0))
    with pytest.raises(UnsupportedInputError, match="monomial"):
        ring.parse("x^64*y^64")
    with pytest.raises(UnsupportedInputError, match="power"):
        ring.parse("(x + y)^130")
    with pytest.raises(UnsupportedInputError, match="product"):
        ring.parse("(x^100 + y)*(x^28 + z)")
    # a trace: the multiplier is exact, the product by a generator is not
    pair = PairDivisor(ring.parse("x^3 + y^3"), 40, 1)
    assert pair.multiplier.degree() == 120
    apply_cartier(pair, Ideal(ring, [ring.parse("x^7 + z^2")]))
    with pytest.raises(UnsupportedInputError, match="trace of degree 128"):
        apply_cartier(pair, Ideal(ring, [ring.parse("x^8 + z^2")]))
    # a graded piece, of an ideal and of a saturation
    with pytest.raises(UnsupportedInputError, match="graded piece of degree 128"):
        Ideal(ring, [ring.gen(0)]).standard_monomials(128)
    line = PolyRing(("x",), ring.p)
    pieces = _saturated_pieces(Ideal(line, [line.gen(0)]), 200)
    assert [next(pieces).dim for _ in range(128)] == [1] * 128
    with pytest.raises(UnsupportedInputError, match="graded piece of degree 128"):
        next(pieces)
    # an S-polynomial whose lcm passes the limit
    with pytest.raises(UnsupportedInputError, match="S-polynomial of degree 128"):
        buchberger([ring.parse("x^100*y + z"), ring.parse("x*y*z^27 + x")])


def test_degrees_past_sixteen_bit_digits_stay_exact():
    ring = PolyRing(("x", "y", "z"), 3)
    top = (1 << 15) + 5
    with caps_scope(Caps(max_degree=1 << 17)):
        f = ring.parse(f"x^{top} + y^{top - 1}*z")
        g = ring.parse(f"x*y^{top} - z^{top + 1}")
        product = f * g
        assert terms(product) == oracle_mul(terms(f), terms(g), 3)
        power = ring.parse("x + y^2 + z") ** (3 ** 9 + 2)
        assert power.degree() == 2 * (3 ** 9 + 2) > 1 << 15
        assert terms(power) == oracle_pow(terms(ring.parse("x + y^2 + z")),
                                          3 ** 9 + 2, 3, 3)
        gens = [ring.parse(f"x^{top}*y - z^{top + 1}"), ring.parse("x*z - y^2")]
        got = buchberger(gens)
        want = oracle_buchberger(gens)
        assert len(got) == len(want) and all(map(_same, got, want))
        assert got[0].degree() > 1 << 15
        image = apply_cartier(PairDivisor(f, 1, 2), Ideal(ring, [g]))
        assert [terms(h) for h in image.generators] == oracle_root(
            terms(f), [terms(g)], 9, 3)
        assert any(h.degree() > (1 << 15) // 9 for h in image.generators)


# -- equality and hashing ------------------------------------------------------


def test_polynomials_never_equal_integers():
    ring = PolyRing(("x", "y"), 5)
    three = ring.constant(3)
    values = [three, ring.constant(8), ring.parse("3"), 3, 8, 0, ring.zero()]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert three != 3 and three != 8 and ring.zero() != 0
    assert 3 not in {three} and three not in {3}
    assert len({three, 3}) == 2 and len({three, ring.constant(8)}) == 1
