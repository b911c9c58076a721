"""Gröbner engine and ideal operations, cross-checked against sympy."""

import collections
import heapq
import itertools
import math
import operator
import random

import numpy as np
import pytest
import sympy as sp

from charp.config import Caps, caps_scope
from charp.errors import DomainError, ResourceError
from charp.ideal import (Ideal, _divide, buchberger,
                         monomial_hilbert_numerator, normal_form)
from charp.ring import (MultiPoly, PolyRing, grevlex_key, grevlex_packing,
                        monomials_of_degree)

from conftest import bracket_power, random_homogeneous, random_poly


def I(ring, *texts):
    return Ideal(ring, [ring.parse(t) for t in texts])


@pytest.fixture
def R5():
    return PolyRing(("x", "y"), 5)


# -- reduced-basis examples -------------------------------------------------


def test_already_reduced(R5):
    assert I(R5, "x").groebner_basis == (R5.gen(0),)


def test_linear_change(R5):
    gb = I(R5, "x+y", "x-y").groebner_basis
    assert gb == (R5.gen(0), R5.gen(1))


def test_hand_buchberger_run():
    # S-polynomial of x^2+y^2 and xy yields y^3; basis leading terms
    # then generate (x^2, xy, y^3)
    ring = PolyRing(("x", "y"), 7)
    gb = I(ring, "x^2+y^2", "x*y").groebner_basis
    lts = {g.leading_exponent() for g in gb}
    assert lts == {(2, 0), (1, 1), (0, 3)}
    assert ring.parse("y^3") in I(ring, "x^2+y^2", "x*y")


def test_zero_and_unit_ideals(R5):
    assert Ideal(R5, []).groebner_basis == ()
    assert Ideal.zero(R5).is_zero
    assert Ideal.unit(R5).is_unit
    assert I(R5, "2").groebner_basis == (R5.one(),)
    assert I(R5, "x", "x+1").is_unit


def test_each_generator_reduces_to_zero(R5):
    rng = random.Random(3)
    for _ in range(25):
        gens = [random_poly(rng, R5) for _ in range(3)]
        ideal = Ideal(R5, gens)
        for g in gens:
            assert ideal.contains(g)


def test_groebner_idempotent(R5):
    rng = random.Random(5)
    for _ in range(25):
        ideal = Ideal(R5, [random_poly(rng, R5) for _ in range(3)])
        again = Ideal(R5, ideal.groebner_basis)
        assert again.groebner_basis == ideal.groebner_basis


# -- sympy as an independent oracle -----------------------------------------


def _sympy_reduced_gb(ring: PolyRing, gens):
    symbols = sp.symbols(" ".join(ring.variables))
    if ring.nvars == 1:
        symbols = (symbols,)
    polys = []
    for g in gens:
        expr = 0
        for exps, c in g.iter_terms():
            term = sp.Integer(c)
            for s, e in zip(symbols, exps):
                term *= s ** e
            expr += term
        polys.append(sp.Poly(expr, *symbols, modulus=ring.p))
    gb = sp.groebner(polys, *symbols, order="grevlex", modulus=ring.p)
    out = set()
    for g in gb.polys:
        terms = {tuple(int(e) for e in exps): int(c) % ring.p
                 for exps, c in g.terms()}
        out.add(ring.poly(terms).monic())
    return out


def test_reduced_basis_matches_sympy():
    rng = random.Random(17)
    for p in (2, 3, 5, 7):
        ring = PolyRing(("x", "y"), p)
        for _ in range(15):
            gens = [random_poly(rng, ring, max_degree=3, max_terms=3)
                    for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            mine = set(Ideal(ring, gens).groebner_basis)
            assert mine == _sympy_reduced_gb(ring, gens)


def test_reduced_basis_matches_sympy_three_vars():
    rng = random.Random(23)
    ring = PolyRing(("x", "y", "z"), 5)
    for _ in range(10):
        gens = [random_poly(rng, ring, max_degree=2, max_terms=3)
                for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        assert set(Ideal(ring, gens).groebner_basis) == \
            _sympy_reduced_gb(ring, gens)


# -- the elimination oracle ----------------------------------------------------
#
# The former production routes for intersections, quotients and
# saturations, kept as the oracle: each eliminates one auxiliary variable
# t on the dict-copy kernel below (`oracle_buchberger`), in the block
# order that compares t's degree first and breaks ties by grevlex.


def _elimination_key(exps):
    return (exps[0], grevlex_key(exps[1:]))


def oracle_eliminate(ring, build):
    """The ideal of k[x] left after eliminating t: `build(t, lift)`
    lists generators in k[t, x], where lift(f, k) is t^k * f.  Its
    generators are the t-free part of the block-order basis, which is
    the reduced grevlex basis."""
    aux = "t_elim"
    while aux in ring.variables:
        aux += "_"
    ext = PolyRing((aux,) + ring.variables, ring.p)

    def lift(f, t_shift=0):
        return ext.poly({(t_shift,) + e: c for e, c in f._terms.items()})

    basis = oracle_buchberger(build(ext.gen(0), lift), _elimination_key)
    return Ideal(ring, [ring.poly({e[1:]: c for e, c in g._terms.items()})
                        for g in basis if all(e[0] == 0 for e in g._terms)])


def oracle_intersect(a, b):
    """I ∩ J = (t·I + (1-t)·J) ∩ k[x]."""
    return oracle_eliminate(a.ring, lambda t, lift: (
        [lift(g, 1) for g in a.generators]
        + [(1 - t) * lift(g) for g in b.generators]))


def _oracle_exact_div(f, g):
    """f/g by long division, asserting that g divides f."""
    ring = f.ring
    lead_g = _oracle_lead(g, grevlex_key)
    inv = pow(g.coefficient(lead_g), -1, ring.p)
    quotient, rest = ring.zero(), f
    while not rest.is_zero:
        lead = _oracle_lead(rest, grevlex_key)
        shift = tuple(a - b for a, b in zip(lead, lead_g))
        assert min(shift) >= 0, f"{g} does not divide {f}"
        step = ring.monomial(shift, rest.coefficient(lead) * inv)
        quotient, rest = quotient + step, rest - step * g
    return quotient


def oracle_quotient(ideal, other):
    """(I : J), the intersection over the generators g of J of
    (I ∩ (g))/g; the unit ideal when J has none."""
    result = None
    for g in other.generators:
        meet = oracle_intersect(ideal, Ideal(ideal.ring, [g]))
        part = Ideal(ideal.ring, [_oracle_exact_div(h, g)
                                  for h in meet.generators])
        result = part if result is None else oracle_intersect(result, part)
    return Ideal.unit(ideal.ring) if result is None else result


def oracle_saturate(ideal, other):
    """(I : J^∞), the intersection over the generators g of J of the
    Rabinowitsch eliminations (I + (1 - t·g)) ∩ k[x]."""
    result = None
    for g in other.generators:
        part = oracle_eliminate(ideal.ring, lambda t, lift: (
            [lift(h) for h in ideal.generators] + [1 - t * lift(g)]))
        result = part if result is None else oracle_intersect(result, part)
    return Ideal.unit(ideal.ring) if result is None else result


def test_quotient_examples(R5):
    assert oracle_quotient(I(R5, "x^2"), I(R5, "x")) == I(R5, "x")
    assert oracle_quotient(I(R5, "x*y"), I(R5, "x")) == I(R5, "y")
    assert oracle_quotient(I(R5, "x^2", "x*y"), I(R5, "x", "y")) == I(R5, "x")


def test_quotient_contains_ideal_and_unit_rule(R5):
    rng = random.Random(29)
    for _ in range(20):
        ideal = Ideal(R5, [random_poly(rng, R5, nonzero=True)
                           for _ in range(2)])
        other = Ideal(R5, [random_poly(rng, R5, nonzero=True)])
        quot = oracle_quotient(ideal, other)
        assert ideal.issubset(quot)
        # (I : (1)) = I
        assert oracle_quotient(ideal, Ideal.unit(R5)) == ideal
        # (I : J) * J is inside I
        assert (quot * other).issubset(ideal)


# -- saturation ---------------------------------------------------------------


def test_saturation_examples(R5):
    assert oracle_saturate(I(R5, "x^2*y"), I(R5, "y")) == I(R5, "x^2")
    assert oracle_saturate(I(R5, "x"), I(R5, "x")).is_unit
    assert oracle_saturate(I(R5, "x^2", "x*y"), I(R5, "x", "y")) == I(R5, "x")


def test_saturation_properties(R5):
    rng = random.Random(31)
    for _ in range(20):
        ideal = Ideal(R5, [random_poly(rng, R5, nonzero=True)
                           for _ in range(2)])
        other = Ideal(R5, [random_poly(rng, R5, nonzero=True)])
        assert oracle_saturate(ideal, Ideal.unit(R5)) == ideal
        assert ideal.issubset(oracle_saturate(ideal * other, other))


# -- saturation against the quotient loop ------------------------------------


def quotient_loop_saturate(ideal, other, steps=64):
    """(I : J^inf) by quotients (I : J^n) for growing n until two
    consecutive reduced bases agree, each quotient by the elimination
    oracle."""
    current = ideal
    for _ in range(steps):
        nxt = oracle_quotient(current, other)
        if nxt == current:
            return current
        current = nxt
    raise AssertionError(f"quotients of {ideal} did not settle in {steps} rounds")


def _random_homogeneous_ideal(rng, ring):
    # monomial multipliers make x_i-torsion, so many saturations move
    return Ideal(ring, [random_homogeneous(rng, ring, rng.randint(1, 3))
                        * ring.monomial([rng.randint(0, 1)
                                         for _ in range(ring.nvars)])
                        for _ in range(rng.randint(1, 3))])


def test_saturation_matches_quotient_loop_on_homogeneous_ideals():
    # a single variable: one chart; the irrelevant ideal: the charts'
    # intersection, which the elimination oracle forms
    rng = random.Random(47)
    moved = 0
    for p in (5, 7):
        ring = PolyRing(("x", "y", "z"), p)
        for _ in range(12):
            ideal = _random_homogeneous_ideal(rng, ring)
            charts = [ideal.chart(i) for i in range(3)]
            meet = charts[0]
            for chart in charts[1:]:
                meet = oracle_intersect(meet, chart)
            i = rng.randrange(3)
            for other, got in ((Ideal.irrelevant(ring), meet),
                               (Ideal(ring, [ring.gen(i)]), charts[i])):
                want = quotient_loop_saturate(ideal, other)
                assert got == want, (ideal, other)
                moved += want != ideal
            # the elimination hands on the reduced grevlex basis
            assert meet.generators == buchberger(meet.generators)
    assert moved >= 10


def test_saturation_matches_quotient_loop_on_inhomogeneous_ideals():
    # I carries powers of J's first generator, so the Rabinowitsch
    # elimination has torsion to remove
    rng = random.Random(53)
    moved = 0
    for p in (5, 7):
        ring = PolyRing(("x", "y"), p)
        for _ in range(15):
            js = [random_poly(rng, ring, max_degree=2, nonzero=True)
                  for _ in range(rng.randint(1, 2))]
            ideal = Ideal(ring, [random_poly(rng, ring, max_degree=2,
                                             nonzero=True)
                                 * js[0] ** rng.randint(0, 2)
                                 for _ in range(2)])
            other = Ideal(ring, js)
            want = quotient_loop_saturate(ideal, other)
            got = oracle_saturate(ideal, other)
            assert got == want, (ideal, other)
            # the elimination hands on the reduced grevlex basis
            assert got.generators == buchberger(got.generators)
            moved += want != ideal
    assert moved >= 5


def test_chart_matches_saturation_by_the_variable():
    rng = random.Random(59)
    for p in (5, 7):
        ring = PolyRing(("x", "y", "z"), p)
        for _ in range(8):
            ideal = _random_homogeneous_ideal(rng, ring)
            for i in range(3):
                want = quotient_loop_saturate(ideal, Ideal(ring, [ring.gen(i)]))
                chart = ideal.chart(i)
                assert chart == want, (ideal, i)
                assert chart.is_unit == (chart.generators == (ring.one(),))


def test_chart_needs_a_homogeneous_ideal(R5):
    with pytest.raises(DomainError):
        I(R5, "x^2+y").chart(0)
    # homogeneous although its generators are not: (x, y^2)
    assert I(R5, "x+y^2", "y^2").chart(0) == I(R5, "x", "y^2").chart(0)
    assert I(R5, "x+y^2", "y^2").chart(1).is_unit


# -- Hilbert numerators of monomial ideals ------------------------------------


def _series_coefficient(numerator, nvars, d):
    """Coefficient of t^d in N(t)/(1-t)^nvars."""
    return sum(c * math.comb(d - i + nvars - 1, nvars - 1)
               for i, c in enumerate(numerator) if i <= d)


def _counts_outside(gens, nvars, top):
    """Number of monomials of each degree <= top that no generator
    divides, by listing every exponent vector of degree <= top."""
    rows = np.zeros((1, 0), dtype=np.int64)
    for _ in range(nvars):
        room = top - rows.sum(axis=1)
        rows = np.column_stack([np.repeat(rows, room + 1, axis=0),
                                np.concatenate([np.arange(r + 1) for r in room])])
    divisors = np.array(gens, dtype=np.int64).reshape(-1, nvars)
    divided = (rows[:, None, :] >= divisors[None, :, :]).all(axis=2).any(axis=1)
    return np.bincount(rows.sum(axis=1)[~divided], minlength=top + 1)


def test_hilbert_numerator_counts_standard_monomials():
    rng = random.Random(61)
    cases = [((), 2), (((0, 0, 0),), 3), (((0, 0, 0), (1, 2, 0)), 3),
             (((3, 0), (0, 2)), 2), (((2, 0, 0), (0, 2, 0), (0, 0, 2)), 3),
             (((0, 0, 0, 5),), 4), (((1, 1, 0), (1, 1, 0)), 3)]
    for _ in range(150):
        nvars = rng.randint(2, 4)
        cases.append((tuple(tuple(rng.randint(0, 4) for _ in range(nvars))
                            for _ in range(rng.randint(1, 7))), nvars))
    for gens, nvars in cases:
        numerator = monomial_hilbert_numerator(gens, nvars)
        assert not numerator or numerator[-1], numerator
        top = 3 * max((sum(g) for g in gens), default=2)
        counts = _counts_outside(gens, nvars, top)
        for d in range(top + 1):
            assert _series_coefficient(numerator, nvars, d) == counts[d], \
                (gens, d)
    assert monomial_hilbert_numerator((), 3) == [1]
    assert monomial_hilbert_numerator([(0, 0, 0), (1, 0, 0)], 3) == []


def test_hilbert_numerator_at_the_size_of_the_caps():
    # all 455 monomials of degree 12 in 4 variables: S/M has every
    # monomial of degree < 12 and nothing above
    gens = [tuple(chosen.count(i) for i in range(4)) for chosen in
            itertools.combinations_with_replacement(range(4), 12)]
    numerator = monomial_hilbert_numerator(gens, 4)
    for d in range(40):
        want = math.comb(d + 3, 3) if d < 12 else 0
        assert _series_coefficient(numerator, 4, d) == want, d


def test_ideal_hilbert_numerator_is_the_hilbert_function(R5):
    rng = random.Random(67)
    for p in (2, 5):
        ring = PolyRing(("x", "y", "z"), p)
        for _ in range(6):
            ideal = _random_homogeneous_ideal(rng, ring)
            numerator = ideal.hilbert_numerator()
            for d in range(8):
                assert (_series_coefficient(numerator, 3, d)
                        == len(ideal.standard_monomials(d))), (ideal, d)
    with pytest.raises(DomainError):
        I(R5, "x^2+y").hilbert_numerator()
    # homogeneous although its generators are not: (x, y^2)
    assert I(R5, "x+y^2", "y^2").hilbert_numerator() == [1, -1, -1, 1]
    with caps_scope(Caps(max_degree=2)), pytest.raises(ResourceError) as err:
        I(R5, "x^3", "y").hilbert_numerator()
    assert err.value.cap_name == "max_degree"


# -- bracket powers -----------------------------------------------------------


def test_bracket_power_examples():
    R2 = PolyRing(("x", "y"), 2)
    assert bracket_power(Ideal.irrelevant(R2), 1) == I(R2, "x^2", "y^2")
    assert bracket_power(Ideal.irrelevant(R2), 2) == I(R2, "x^4", "y^4")
    R3 = PolyRing(("x", "y"), 3)
    assert bracket_power(I(R3, "x+y"), 1) == I(R3, "x^3+y^3")
    with pytest.raises(DomainError):
        bracket_power(I(R3, "x"), -1)
    assert bracket_power(I(R3, "x", "y^2"), 0) == I(R3, "x", "y^2")


def test_bracket_power_generating_set_independent(R5):
    rng = random.Random(37)
    for _ in range(20):
        ideal = Ideal(R5, [random_poly(rng, R5, nonzero=True)
                           for _ in range(2)])
        regenerated = Ideal(R5, ideal.groebner_basis)
        assert bracket_power(ideal, 1) == bracket_power(regenerated, 1)


def _random_monomial_ideal(rng, ring, count=3, max_degree=4):
    gens = []
    for _ in range(count):
        exps = tuple(rng.randint(0, max_degree) for _ in range(ring.nvars))
        gens.append(ring.monomial(exps))
    return Ideal(ring, gens)


def test_bracket_power_of_intersection_on_monomial_ideals():
    # containment always; equality on monomial ideals, checked against
    # the exponent-arithmetic oracle
    rng = random.Random(41)
    ring = PolyRing(("x", "y"), 3)
    for _ in range(50):
        a = _random_monomial_ideal(rng, ring)
        b = _random_monomial_ideal(rng, ring)
        meet_power = bracket_power(oracle_intersect(a, b), 1)
        power_meet = oracle_intersect(bracket_power(a, 1), bracket_power(b, 1))
        assert meet_power.issubset(power_meet)
        assert meet_power == power_meet
        # oracle: monomial intersections are componentwise max of exponents
        q = 3
        lhs_lts = {g.leading_exponent() for g in meet_power.groebner_basis}
        oracle = set()
        for ga in a.generators:
            for gb in b.generators:
                lcm = tuple(max(x, y) * q for x, y in
                            zip(ga.leading_exponent(), gb.leading_exponent()))
                oracle.add(lcm)
        oracle_ideal = Ideal(ring, [ring.monomial(e) for e in oracle])
        assert meet_power == oracle_ideal
        assert {g.leading_exponent() for g in oracle_ideal.groebner_basis} \
            == lhs_lts


# -- membership is ideal-theoretic -------------------------------------------


def test_membership_linear_combinations(R5):
    rng = random.Random(43)
    for _ in range(30):
        ideal = Ideal(R5, [random_poly(rng, R5, nonzero=True)
                           for _ in range(2)])
        f = random_poly(rng, R5)
        g = random_poly(rng, R5)
        h = random_poly(rng, R5)
        sf = sum((gen * random_poly(rng, R5) for gen in ideal.generators),
                 R5.zero())
        sg = sum((gen * random_poly(rng, R5) for gen in ideal.generators),
                 R5.zero())
        assert ideal.contains(sf) and ideal.contains(sg)
        assert ideal.contains(sf + sg)
        assert ideal.contains(h * sf)


def test_normal_form_is_canonical(R5):
    ideal = I(R5, "x^2 - y", "y^2 - x")
    f = R5.parse("x^4")
    nf = ideal.normal_form(f)
    # x^4 = (x^2)^2 -> y^2 -> x modulo the ideal
    assert nf == R5.gen(0)
    assert ideal.contains(f - nf)


def test_degree_cap_fires():
    ring = PolyRing(("x", "y"), 5)
    with caps_scope(Caps(max_degree=3)), pytest.raises(ResourceError) as err:
        buchberger([ring.parse("x^4 + y"), ring.parse("x*y^4 + x")])
    assert "max_degree" in str(err.value)


# -- the packed heap kernel against the dict-copy kernel ----------------------
#
# The former production kernel, kept as the oracle: every step rescans the
# terms for the leading one under a tuple sort key (grevlex, or the
# elimination oracle's block key) and copies the whole dict, and no cache
# is read.


def _oracle_lead(f, key):
    return max(f._terms, key=key)


def oracle_normal_form(f, basis, key=grevlex_key):
    ring = f.ring
    reducers = []
    for g in basis:
        if not g.is_zero:
            lead = _oracle_lead(g, key)
            reducers.append((lead, pow(g._terms[lead], -1, ring.p), g))
    remainder = ring.zero()
    work = f
    while not work.is_zero:
        lead = _oracle_lead(work, key)
        coeff = work.coefficient(lead)
        for lm, lc_inv, g in reducers:
            if all(x <= y for x, y in zip(lm, lead)):
                shift = tuple(y - x for x, y in zip(lm, lead))
                work = work - ring.poly({tuple(a + b for a, b in zip(e, shift)):
                                         c * coeff * lc_inv
                                         for e, c in g._terms.items()})
                break
        else:
            remainder = remainder + ring.monomial(lead, coeff)
            work = work - ring.monomial(lead, coeff)
    return remainder


def _oracle_monic(f, key):
    return f.scale(pow(f._terms[_oracle_lead(f, key)], -1, f.ring.p))


def oracle_buchberger(generators, key=grevlex_key, nf=oracle_normal_form):
    """The former `buchberger` and `_reduce`: normal pair selection on
    tuple keys, the coprimality criterion, then minimalize and
    inter-reduce, all through the dict-copy normal form (or `nf(f,
    basis, key)`)."""
    raw = sorted((g for g in generators if not g.is_zero),
                 key=lambda g: key(_oracle_lead(g, key)))
    basis, pairs, counter = [], [], itertools.count()

    def push_pairs(new):
        lm_new = _oracle_lead(basis[new], key)
        for i in range(new):
            lm_i = _oracle_lead(basis[i], key)
            lcm = tuple(map(max, lm_i, lm_new))
            if lcm != tuple(a + b for a, b in zip(lm_i, lm_new)):
                heapq.heappush(pairs, (key(lcm), next(counter), i, new))

    for g in raw:
        g = nf(g, basis, key)
        if not g.is_zero:
            basis.append(_oracle_monic(g, key))
            push_pairs(len(basis) - 1)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        f, g = basis[i], basis[j]
        lf, lg = _oracle_lead(f, key), _oracle_lead(g, key)
        lcm = tuple(map(max, lf, lg))
        s = (f.mul_monomial(tuple(a - b for a, b in zip(lcm, lf)))
             - g.mul_monomial(tuple(a - b for a, b in zip(lcm, lg))))
        s = nf(s, basis, key)
        if not s.is_zero:
            basis.append(_oracle_monic(s, key))
            push_pairs(len(basis) - 1)
    basis.sort(key=lambda g: key(_oracle_lead(g, key)))
    minimal = []
    for g in basis:
        lm = _oracle_lead(g, key)
        if not any(all(x <= y for x, y in zip(_oracle_lead(h, key), lm))
                   for h in minimal):
            minimal.append(g)
    for k, g in enumerate(minimal):
        minimal[k] = _oracle_monic(
            nf(g, minimal[:k] + minimal[k + 1:], key), key)
    return tuple(sorted(minimal, key=lambda g: key(_oracle_lead(g, key)),
                        reverse=True))


def _same(a, b):
    """Byte-equal polynomials: the same terms in the same rendering."""
    return a == b and str(a) == str(b) and a._terms == b._terms


def _kernel_cases(seed):
    # nvars + 2 draws per ring
    rng = random.Random(seed)
    for p in (2, 3, 5, 7, 11, 13):
        for nvars in (2, 3, 4):
            ring = PolyRing(("x", "y", "z", "w")[:nvars], p)
            for _ in range(nvars + 2):
                yield rng, ring


def test_normal_forms_match_the_dict_copy_oracle():
    # arbitrary divisor lists, not only Gröbner bases: both kernels take
    # the first divisor whose lead divides the current leading term
    for rng, ring in _kernel_cases(61):
        for _ in range(3):
            divisors = [random_poly(rng, ring, max_degree=3, max_terms=3)
                        for _ in range(rng.randint(1, 3))]
            f = random_poly(rng, ring, max_degree=5, max_terms=6)
            got = normal_form(f, divisors)
            want = oracle_normal_form(f, divisors)
            assert _same(got, want), (f, divisors)
            if not got.is_zero:
                assert got.leading_exponent() == _oracle_lead(got, grevlex_key)


def test_reduced_bases_match_the_tuple_key_oracle():
    # random inputs are often the unit ideal; forms never are
    for rng, ring in _kernel_cases(67):
        for gens in ([random_poly(rng, ring, max_degree=3, max_terms=3)
                      for _ in range(rng.randint(1, 3))],
                     [random_homogeneous(rng, ring, rng.randint(2, 3))
                      for _ in range(rng.randint(2, 3))]):
            got = buchberger(gens)
            want = oracle_buchberger([g for g in gens if not g.is_zero])
            assert len(got) == len(want), gens
            assert all(map(_same, got, want)), gens
            for f in (random_poly(rng, ring, max_degree=4, max_terms=5)
                      for _ in range(2)):
                assert _same(normal_form(f, got), oracle_normal_form(f, want))


def test_one_generator_needs_no_completion():
    # at most one nonzero generator: the basis is that generator, monic
    assert buchberger([]) == () and buchberger([PolyRing(("x",), 5).zero()]) == ()
    for rng, ring in _kernel_cases(71):
        g = random_poly(rng, ring, max_degree=4, max_terms=5, nonzero=True)
        g = g.scale(rng.randint(1, ring.p - 1))
        for gens in ([g], [ring.zero(), g, ring.zero()]):
            got = buchberger(gens)
            assert len(got) == 1 and _same(got[0], g.monic())
            assert all(map(_same, got, oracle_buchberger([g])))


# -- monomial ideals by divisibility against the heap route ------------------


def heap_normal_form(f, basis, key=grevlex_key):
    """`_divide` at 32-bit digits, whatever the divisors are."""
    assert key is grevlex_key
    packing = grevlex_packing(f.ring.nvars, 32)
    return MultiPoly.from_packed(f.ring, packing, *_divide(
        f, [g for g in basis if not g.is_zero], packing))


def _monomial_inputs(rng, ring):
    """Monomials of degree 0 to 4 with random coefficients, then
    duplicates, scalar multiples and zeros among them, shuffled."""
    gens = []
    for _ in range(rng.randint(1, 6)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(ring.nvars)] += 1
        gens.append(ring.monomial(exps, rng.randint(1, ring.p - 1)))
    if rng.random() < 0.2:
        gens.append(ring.constant(rng.randint(1, ring.p - 1)))
    for _ in range(rng.randint(0, 3)):
        g = rng.choice(gens)
        gens.append(rng.choice([g, g.scale(rng.randint(1, ring.p - 1)),
                                ring.zero()]))
    rng.shuffle(gens)
    return gens


def _monomial_cases(seed):
    rng = random.Random(seed)
    for p in (2, 3, 5, 7):
        for nvars in (1, 2, 3, 4):
            ring = PolyRing(("x", "y", "z", "w")[:nvars], p)
            for _ in range(12):
                yield rng, ring


def test_monomial_bases_match_the_heap_route():
    mixed = 0
    for rng, ring in _monomial_cases(73):
        gens = _monomial_inputs(rng, ring)
        if rng.random() < 0.4:  # the completion, with monomial divisors
            gens += [random_poly(rng, ring, max_degree=3, max_terms=3)
                     for _ in range(rng.randint(1, 2))]
            mixed += any(g.num_terms() > 1 for g in gens)
        got = buchberger(gens)
        want = oracle_buchberger([g for g in gens if not g.is_zero],
                                 nf=heap_normal_form)
        assert len(got) == len(want) and all(map(_same, got, want)), gens
        for f in (random_poly(rng, ring, max_degree=5, max_terms=6)
                  for _ in range(2)):
            assert _same(normal_form(f, got), heap_normal_form(f, got)), (f, got)
    assert mixed >= 30


def test_normal_forms_by_monomials_match_the_heap_route():
    for rng, ring in _monomial_cases(79):
        divisors = _monomial_inputs(rng, ring)
        for f in [random_poly(rng, ring, max_degree=6, max_terms=8)
                  for _ in range(3)] + [ring.zero(), ring.one()]:
            got = normal_form(f, divisors)
            assert _same(got, heap_normal_form(f, divisors)), (f, divisors)
            assert not any(all(map(operator.le, g.leading_exponent(), e))
                           for g in divisors if not g.is_zero
                           for e in got._terms)


def test_one_term_normal_forms_match_the_heap_route():
    # mixed divisor lists in any order: the first lead dividing the
    # monomial belongs to a monomial, to a polynomial, or there is none
    seen = collections.Counter()
    for rng, ring in _monomial_cases(83):
        divisors = _monomial_inputs(rng, ring)[:rng.randint(1, 4)]
        divisors += [random_poly(rng, ring, max_degree=3, max_terms=3)
                     for _ in range(rng.randint(1, 3))]
        rng.shuffle(divisors)
        for _ in range(4):
            exps = [rng.randint(0, 4) for _ in range(ring.nvars)]
            f = ring.monomial(exps, rng.randint(1, ring.p - 1))
            first = next((g for g in divisors if not g.is_zero and all(
                map(operator.le, g.leading_exponent(), exps))), None)
            seen["none" if first is None else
                 "monomial" if first.num_terms() == 1 else "polynomial"] += 1
            got = normal_form(f, divisors)
            assert _same(got, heap_normal_form(f, divisors)), (f, divisors)
            if first is None:
                assert got is f
    assert min(seen.values()) >= 50 and len(seen) == 3, seen


def test_monomial_bases_keep_the_completions_basis_cap():
    # the completion fed its inputs in ascending order and refused the
    # (max_basis + 1)-st one no earlier one divides; redundant inputs
    # never counted
    ring = PolyRing(("x", "y", "z"), 5)
    for degree in (1, 2, 3):
        minimal = list(monomials_of_degree(3, degree))
        redundant = [ring.monomial(e).mul_monomial((1, 0, 2)).scale(3)
                     for e in minimal]
        gens = [ring.monomial(e, 2) for e in minimal] + redundant + redundant[:1]
        with caps_scope(Caps(max_basis=len(minimal))):
            assert buchberger(gens) == tuple(map(ring.monomial, sorted(
                minimal, key=grevlex_key, reverse=True)))
        with caps_scope(Caps(max_basis=len(minimal) - 1)), \
                pytest.raises(ResourceError) as err:
            buchberger(gens)
        assert err.value.cap_name == "max_basis"
        assert str(err.value) == (
            f"resource cap max_basis={len(minimal) - 1} exceeded: "
            "too many pairwise-irreducible generators")


def test_monomial_bases_are_the_minimal_generators():
    # brute force: a lead stays when no other lead divides it; repeated
    # leads, scalar multiples and non-unit coefficients collapse to one
    # monic monomial
    for rng, ring in _monomial_cases(83):
        gens = _monomial_inputs(rng, ring)
        leads = {g.leading_exponent() for g in gens if not g.is_zero}
        minimal = [a for a in leads
                   if not any(b != a and all(map(operator.le, b, a))
                              for b in leads)]
        want = tuple(ring.monomial(a) for a in
                     sorted(minimal, key=grevlex_key, reverse=True))
        got = buchberger(gens)
        assert len(got) == len(want) and all(map(_same, got, want)), gens


def test_kernel_widens_past_any_digit_width():
    # x^(2^20) needs 32-bit digits and x^(2^40) 64-bit ones
    ring = PolyRing(("x", "y", "z"), 7)
    for top in (1 << 20, 1 << 40):
        f = ring.monomial((top, 1, 0)) + ring.monomial((3, 0, top))
        divisors = [ring.monomial((top - 2, 0, 0)) - ring.monomial((0, 0, top - 1)),
                    ring.parse("x*y - z^2")]
        assert _same(normal_form(f, divisors),
                     oracle_normal_form(f, divisors)), top
    # the width is picked before anything is packed, so a divisor that
    # does not fit 16-bit digits is packed at 32 bits only
    wide = ring.monomial((1 << 20, 0, 0)) + ring.gen(1)
    assert _same(normal_form(ring.parse("x*y + z"), [wide]),
                 ring.parse("x*y + z"))
    assert list(wide._packed) == [grevlex_packing(3, 32)]
    # only the input is wide
    f = ring.monomial((1 << 20, 1, 0))
    assert _same(normal_form(f, [ring.parse("y - z")]),
                 ring.monomial((1 << 20, 0, 1)))
    # a Frobenius power of a degree-40 form over F_2 (degree 10240)
    R2 = PolyRing(("x", "y", "z"), 2)
    form = R2.parse("x^40 + x^13*y^20*z^7 + x^2*y*z^37 + y^40")
    big = form ** 256
    divisors = [R2.monomial((256, 0, 0)) - R2.monomial((0, 1, 255))]
    assert _same(normal_form(big, divisors), oracle_normal_form(big, divisors))


def test_digit_width_is_the_narrowest_that_holds_every_degree():
    # 16-bit digits hold degrees below 2^15; degree 2^15 needs 32 bits,
    # whether the input or a divisor reaches it
    ring = PolyRing(("x", "y", "z"), 5)
    for top, width in (((1 << 15) - 1, 16), (1 << 15, 32)):
        inputs = [
            (ring.monomial((top - 2, 2, 0)) + ring.monomial((0, top, 0)),
             ring.parse("x*y - z^2")),
            (ring.monomial((3, 2, 0)) + ring.monomial((0, 0, 5)),
             ring.monomial((top, 0, 0)) - ring.monomial((1, top - 3, 2))
             + ring.parse("x*y - z^2")),
        ]
        for f, divisor in inputs:
            other = ring.parse("x^2 - y*z")
            got = normal_form(f, [divisor, other])
            assert _same(got, oracle_normal_form(f, [divisor, other])), top
            for g in (divisor, other):
                assert list(g._packed) == [grevlex_packing(3, width)], top
