"""Field and polynomial kernel: arithmetic, parsing, order conventions."""

import itertools
import random
import re
import time

import pytest
from hypothesis import given, strategies as st

from charp.config import DEFAULT_CAPS, caps_scope
from charp.errors import DomainError, ParseError, ResourceError, RingMismatchError
from charp.ideal import Ideal
from charp.ring import (MAX_NESTING, PolyRing, grevlex_key, grevlex_packing,
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



# -- the operator-protocol parser, kept as the oracle --------------------------
#
# The former production parser: a token loop that matches at each
# position, and a recursive descent that builds a MultiPoly for every
# token and combines them with the ring operators.  Powers here are
# repeated products, so the oracle shares no power code with the engine.

_ORACLE_TOKEN_RE = re.compile(
    r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<pow>\*\*|\^)"
    r"|(?P<op>[-+*()])|(?P<ws>\s+)"
)


def _oracle_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", column=pos + 1)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            value = m.group()
            if kind == "pow":
                kind, value = "op", "^"
            tokens.append((kind, value, pos + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class OracleParser:
    def __init__(self, ring, text):
        self.ring = ring
        self.tokens = _oracle_tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def take(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op):
        kind, value, col = self.take()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value!r}", column=col)

    def parse(self):
        poly = self.expr()
        kind, value, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {value!r}", column=col)
        return poly

    def expr(self):
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self):
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.take()
                result = result * self.factor()
            else:
                return result

    def factor(self):
        kind, value, col = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            inner = self.factor()
            return inner if value == "+" else -inner
        base = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.take()
                nkind, nvalue, ncol = self.take()
                if nkind != "num":
                    raise ParseError("exponent must be a non-negative integer",
                                     column=ncol)
                power = self.ring.one()
                for _ in range(int(nvalue)):
                    power = power * base
                base = power
            else:
                return base

    def atom(self):
        kind, value, col = self.take()
        if kind == "num":
            return self.ring.constant(int(value))
        if kind == "name":
            if value not in self.ring.variables:
                raise ParseError(f"unknown variable {value!r}", column=col)
            return self.ring.gen(value)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input",
                         column=col)


def _fuzz_expr(rng, names, p, depth=0):
    """A random expression over the grammar: sums, products, powers by
    '^' or '**', unary signs, parentheses, constants up to past p, and
    whitespace; some sums cancel."""
    def pad():
        return rng.choice(["", "", " ", "  ", "\t", "\n"])

    def atom():
        # (text, largest exponent): powers of sums stay small, so that
        # the oracle's repeated products stay fast
        roll = rng.random()
        if depth < 3 and roll < 0.25:
            inner = _fuzz_expr(rng, names, p, depth + 1)
            return "(" + pad() + inner + pad() + ")", 2
        if roll < 0.5:
            return str(rng.choice([0, 1, 2, p - 1, p, p + 1, 2 * p + 3,
                                   rng.randrange(10 * p)])), 9
        return rng.choice(names), 9

    def factor():
        signs = "".join(rng.choice("+-") + pad()
                        for _ in range(rng.choice([0, 0, 0, 1, 2])))
        text, top = atom()
        text = signs + text
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            text += pad() + rng.choice(["^", "**"]) + pad() + str(rng.randint(0, top))
            top = 1
        return text

    def term():
        return (pad() + "*" + pad()).join(factor() for _ in range(rng.randint(1, 3)))

    terms = [term() for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        terms.append(rng.choice(terms))  # and subtract it below: cancels
        text = " + ".join(terms[:-1]) + " - (" + terms[-1] + ")"
    else:
        text = terms[0] + "".join(pad() + rng.choice("+-") + pad() + t
                                  for t in terms[1:])
    return text


def _garble(rng, text):
    """The text cut short, or with one character replaced or inserted."""
    pos = rng.randrange(len(text) + 1)
    roll = rng.random()
    junk = rng.choice(list("()+-*^$?.,;!@xyzqw0123456789 ") + ["**", "^^", "()"])
    if roll < 0.4:
        return text[:pos]
    if roll < 0.7:
        return text[:pos] + junk + text[pos + 1:]
    return text[:pos] + junk + text[pos:]


def _outcome(parse):
    try:
        return "ok", parse()
    except ParseError as err:
        return "error", (str(err), err.column)


def test_parser_matches_the_operator_oracle():
    rng = random.Random(2024)
    malformed = ["x + z", "x +", "x ^ y", "(x + y", "x $ y"]
    checked = errors = 0
    # a garbled digit can raise a power past the default degree cap;
    # the oracle knows no caps, so the comparison runs with it lifted
    with caps_scope(DEFAULT_CAPS.with_overrides(max_degree=10 ** 9)):
        for p in (2, 3, 5, 7, 65521):
            for names in (("x",), ("x", "y"), ("x", "y", "z")):
                ring = PolyRing(names, p)
                texts = [_fuzz_expr(rng, names, p) for _ in range(40)]
                for text in texts:
                    got = ring.parse(text)
                    want = OracleParser(ring, text).parse()
                    assert got == want and str(got) == str(want), text
                    checked += 1
                garbled = [_garble(rng, rng.choice(texts)) for _ in range(30)]
                for text in malformed + garbled:
                    got = _outcome(lambda: ring.parse(text))
                    want = _outcome(lambda: OracleParser(ring, text).parse())
                    assert got == want, text
                    errors += got[0] == "error"
    assert checked >= 500 and errors >= 200, (checked, errors)


def test_parser_caps_the_degree_of_a_power(R57):
    # the degree of a power is checked before the power is formed, so a
    # large one is refused at once; the cap in force decides
    start = time.perf_counter()
    with pytest.raises(ResourceError) as err:
        PolyRing(("x", "y", "z"), 65521).parse("x + (x+y+z)^200")
    assert time.perf_counter() - start < 1.0
    assert err.value.cap_name == "max_degree"
    assert str(err.value) == ("resource cap max_degree=64 exceeded: power of "
                              "degree 200 at column 12")
    assert R57.parse("(x*y)^32") == R57.parse("x^32*y^32")
    with pytest.raises(ResourceError, match="power of degree 66 at column 6"):
        R57.parse("(x*y)^33")
    with caps_scope(DEFAULT_CAPS.with_overrides(max_degree=8)):
        with pytest.raises(ResourceError, match="max_degree=8 "):
            R57.parse("x^9")
        assert R57.parse("x^8*y^8") == R57.parse("x^8") * R57.parse("y^8")


def test_parser_bounds_nesting(R57):
    # parentheses and unary signs count alike; the first token past the
    # bound is refused at its column
    x = R57.gen(0)
    assert R57.parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == x
    assert R57.parse("-" * MAX_NESTING + "x") == x  # an even count
    assert R57.parse("(-" * (MAX_NESTING // 2) + "x" + ")" * (MAX_NESTING // 2)) == x
    for text, column in [("(" * 2000 + "x" + ")" * 2000, MAX_NESTING + 1),
                         ("-" * 3000 + "x", MAX_NESTING + 1),
                         ("(-" * MAX_NESTING + "x", MAX_NESTING + 1),
                         ("x * ( " * 2 * MAX_NESTING + "x", 6 * MAX_NESTING + 5)]:
        with pytest.raises(ParseError) as err:
            R57.parse(text)
        assert err.value.column == column
        assert str(err.value) == (f"nesting deeper than {MAX_NESTING} levels "
                                  f"at column {column}")


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


def sorted_monomials(nvars, degree):
    """Every exponent tuple of the degree, from a recursive enumeration
    sorted by the grevlex key: the route the direct enumeration
    replaced."""
    def rec(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining, -1, -1):
            for rest in rec(remaining - first, slots - 1):
                yield (first,) + rest
    return sorted(rec(degree, nvars), key=grevlex_key, reverse=True)


def test_monomial_enumeration_descending():
    mons = list(monomials_of_degree(3, 2))
    keys = [grevlex_key(m) for m in mons]
    assert keys == sorted(keys, reverse=True)
    assert len(mons) == 6  # C(4, 2)
    for nvars in range(1, 6):
        for degree in range(9):
            assert list(monomials_of_degree(nvars, degree)) == \
                sorted_monomials(nvars, degree)
        assert list(monomials_of_degree(nvars, -1)) == []


def test_prime_power_powers_scale_exponents():
    # Frobenius is additive and fixes F_p: f^(p^e) multiplies every
    # exponent by p^e and keeps every coefficient
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        ring = PolyRing(("x", "y", "z"), p)
        for e in range(4):
            q = p ** e
            for _ in range(10):
                f = random_poly(rng, ring)
                scaled = ring.poly({tuple(a * q for a in exps): c
                                    for exps, c in f.iter_terms()})
                assert f ** q == scaled
                if q <= 9:  # and the product of q copies agrees
                    product = ring.one()
                    for _ in range(q):
                        product = product * f
                    assert product == scaled


def test_monomial_with_a_coefficient_divisible_by_p_is_zero():
    ring = PolyRing(("x", "y"), 5)
    for coeff in (0, 5, -10):
        zero = ring.monomial((1, 0), coeff)
        assert zero.is_zero and zero == ring.zero() and str(zero) == "0"
        assert Ideal(ring, [zero]).groebner_basis == ()
        assert Ideal(ring, [zero, ring.gen(1)]).groebner_basis == (ring.gen(1),)
    assert ring.monomial((1, 0), 7) == ring.gen(0).scale(2)


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


def test_equal_rings_built_apart_mix():
    R, S = PolyRing(("x", "y"), 5), PolyRing(("x", "y"), 5)
    assert R is not S and R == S and hash(R) == hash(S)
    f, g = R.parse("x^2 + y"), S.parse("x*y - 1")
    assert f + g == g + f and f * g == S.parse("x^3*y + x*y^2 - x^2 - y")
    assert (f * g).ring == R
    ideal = Ideal(R, [f, g]) + Ideal(S, [g])
    assert ideal == Ideal(S, [f, g])
    assert ideal.contains(S.parse("x^3*y + x*y^2"))
    assert Ideal(S, [g]).issubset(ideal)


def test_unequal_rings_refuse_to_mix():
    R = PolyRing(("x", "y"), 5)
    for other in (PolyRing(("x", "y"), 7), PolyRing(("y", "x"), 5)):
        assert R != other and other != R
        f, g = R.gen(0), other.gen(0)
        for combine in (lambda: f + g, lambda: f * g, lambda: g - f,
                        lambda: Ideal(R, [g]), lambda: Ideal(R, [f]) + Ideal(other, [g]),
                        lambda: Ideal(R, [f]).contains(g)):
            with pytest.raises(RingMismatchError):
                combine()
    assert R != ("x", "y") and R != 5


def _repeated_products(f, top):
    power = f.ring.one()
    for _ in range(top + 1):
        yield power
        power = power * f


def test_powers_match_repeated_products():
    for p in (2, 3, 5, 7, 13):
        ring = PolyRing(("x", "y"), p)
        cases = [ring.zero(), ring.constant(p - 1), ring.constant(3),
                 ring.monomial((2, 1), p - 1), ring.monomial((0, 3), 2),
                 ring.parse("x + 2*y"), ring.parse("3*x^2 + x + 2")]
        for f in cases:
            for n, want in enumerate(_repeated_products(f, 3 * p * p)):
                got = f ** n
                assert got == want and str(got) == str(want), (p, f, n)
            with pytest.raises(DomainError):
                f ** -1


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
    g = R2.parse("x^40 + x^13*y^20*z^7 + y*z^39") ** 256
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
        while f.num_terms() < 2:  # a normal form by monomials packs nothing
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


def test_shift_is_substitution_at_every_point():
    # f(x + c) at every point of F_p^n, a free coordinate shifted by 0;
    # the top-degree part of f is unchanged, which evaluation alone
    # cannot see once exponents reach p
    rng = random.Random(97)
    for p in (2, 3, 5):
        for nvars in (1, 2, 3):
            ring = PolyRing(("x", "y", "z")[:nvars], p)
            points = list(itertools.product(range(p), repeat=nvars))
            for _ in range(8):
                f = random_poly(rng, ring, max_degree=2 * p + 1, max_terms=6,
                                nonzero=True)
                point = tuple(rng.choice([None, *range(2 * p)])
                              for _ in range(nvars))
                g = f.shift(point)
                top = f.degree()
                assert g.degree() == top
                assert ({e: c for e, c in g._terms.items() if sum(e) == top}
                        == {e: c for e, c in f._terms.items() if sum(e) == top})
                for x in points:
                    moved = tuple(v + (c or 0) for v, c in zip(x, point))
                    assert g.evaluate(x) == f.evaluate(moved)
