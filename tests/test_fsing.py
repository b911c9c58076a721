"""Fixed-ideal theory of divisor pairs: chains, purity, Fedder,
multiplicity containment."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from charp import fsing as fsing_module
from charp.cartier import apply_cartier, bracket_root
from charp.config import Caps, caps_scope
from charp.errors import (DomainError, InternalInvariantError,
                          PreconditionError, ResourceError, TestElementError,
                          UnsupportedInputError)
from charp.fsing import (PairDivisor, ascending_fixed_ideal, is_compatible,
                         is_sharply_f_pure, is_strongly_f_regular,
                         multiplicity, multiplicity_containment, sigma, tau)
from charp.ideal import Ideal
from charp.proj import ProjScheme
from charp.ring import PolyRing
from charp.scenario import execute, parse_scenario

import conftest
from conftest import (bracket_power, fedder_f_pure, naive_ascending_chain,
                      point_ideal, random_homogeneous, random_poly,
                      twist_identity)
from test_ideal import oracle_quotient


def I(ring, *texts):
    return Ideal(ring, [ring.parse(t) for t in texts])


@pytest.fixture
def R5x():
    return PolyRing(("x",), 5)


@pytest.fixture
def R7xy():
    return PolyRing(("x", "y"), 7)


# -- pair plumbing -------------------------------------------------------------


def test_pair_validation(R5x):
    with pytest.raises(DomainError):
        PairDivisor(R5x.zero(), 1, 1)
    with pytest.raises(DomainError):
        PairDivisor(R5x.gen(0), -1, 1)
    with pytest.raises(DomainError):
        PairDivisor(R5x.gen(0), 1, 0)
    pair = PairDivisor(R5x.gen(0), 3, 1)
    assert pair.q == 5 and pair.coefficient == Fraction(3, 4)
    assert pair.multiplier == R5x.parse("x^3")


def test_pair_data_are_integers(R5x):
    # refused when the pair is built, not when sigma first reads a or e
    x = R5x.gen(0)
    for a, e in ((2.5, 1), (2, 1.0), ("2", 1), (Fraction(1, 2), 1)):
        with pytest.raises(DomainError):
            PairDivisor(x, a, e)
    pair = PairDivisor(x, np.int64(3), np.uint8(1))
    assert pair == PairDivisor(x, 3, 1) and type(pair.a) is type(pair.e) is int


def test_multiplier_is_formed_once(R5x):
    pair = PairDivisor(R5x.parse("x+1"), 3, 1)
    assert pair.multiplier is pair.multiplier
    # at a = 1 the multiplier is f itself, not a copy
    f = R5x.parse("x+1")
    assert PairDivisor(f, 1, 1).multiplier is f


def test_pair_rescaling_preserves_divisor(R5x):
    pair = PairDivisor(R5x.gen(0), 3, 1)
    double = pair.rescale(2)
    assert (double.a, double.e) == (3 * 6, 2)
    assert Fraction(double.a, double.q - 1) == pair.coefficient


# -- the non-F-pure ideal -------------------------------------------------------


def test_sigma_examples(R5x):
    x = R5x.gen(0)
    assert sigma(PairDivisor(x, 4, 1)).is_unit
    assert sigma(PairDivisor(x, 5, 1)) == I(R5x, "x")
    R2 = PolyRing(("x", "y"), 5)
    assert sigma(PairDivisor(R2.one(), 0, 1)).is_unit


def test_sigma_is_fixed_point(R7xy):
    rng = random.Random(211)
    for _ in range(20):
        f = random_poly(rng, R7xy, max_degree=3, nonzero=True)
        a = rng.randint(0, 8)
        pair = PairDivisor(f, a, 1)
        fixed = sigma(pair)
        assert apply_cartier(pair, fixed) == fixed


def test_sigma_unit_iff_surjective_on_unit():
    # sigma is fixed, so sigma ⊆ image((1)): the first image decides
    # whether the whole chain ends at the unit ideal
    rng = random.Random(31)
    for p in (2, 3, 5, 7):
        ring = PolyRing(("x", "y"), p)
        for _ in range(15):
            e = rng.choice([1, 2]) if p < 5 else 1
            q = p ** e
            f = random_poly(rng, ring, max_degree=3, nonzero=True)
            pair = PairDivisor(f, rng.randint(0, q), e)
            assert is_sharply_f_pure(pair) == sigma(pair).is_unit


def test_sharp_f_purity_runs_no_chain(monkeypatch):
    def refuse(*args):
        raise AssertionError("fpure ran the sigma chain")

    monkeypatch.setattr(fsing_module, "descending_fixed_ideal", refuse)
    ring = PolyRing(("x", "y", "z"), 7)
    cubic = ring.parse("x^3+y^3+z^3")
    assert is_sharply_f_pure(PairDivisor(cubic, 4, 1))
    assert not is_sharply_f_pure(PairDivisor(cubic, 7, 1))
    report, _ = execute(parse_scenario({
        "p": 7, "vars": ["x", "y", "z"],
        "jobs": [{"op": "fpure", "pair": {"f": "x^3+y^3+z^3", "a": 6, "e": 1},
                  "expect": {"verdict": True}}]}))
    assert report["summary"]["ok"]


def test_sigma_step_cap():
    ring = PolyRing(("x",), 5)
    with pytest.raises(ResourceError):
        with caps_scope(Caps(chain_steps=1)):
            sigma(PairDivisor(ring.gen(0), 5, 1))


@pytest.mark.parametrize("outside", ["y", "1", "x+y"])
def test_descending_chain_refuses_growth(R7xy, monkeypatch, outside):
    # an operator whose second image leaves the first: the chain must not
    # step to it, and the guard runs although the two bases differ
    def grows(pair, current):
        if current.is_unit:
            return I(R7xy, "x")
        return I(R7xy, outside)

    monkeypatch.setattr(fsing_module, "apply_cartier", grows)
    with pytest.raises(InternalInvariantError, match="grew at step 2"):
        sigma(PairDivisor(R7xy.gen(0), 1, 1))


# -- the test ideal --------------------------------------------------------------


def test_tau_examples(R5x, R7xy):
    assert tau(PairDivisor(R5x.gen(0), 4, 1)) == I(R5x, "x")
    cusp = R7xy.parse("x^2+y^3")
    assert tau(PairDivisor(cusp, 6, 1)) == I(R7xy, "x^2+y^3")
    assert tau(PairDivisor(cusp, 5, 1)) == I(R7xy, "x", "y")


def test_tau_brute_force_oracle(R7xy):
    # independent route: stable sum of single-shot level-n root images;
    # level 3 at p=7 needs a frobenius block above the default cap
    cusp = R7xy.parse("x^2+y^3")
    pair = PairDivisor(cusp, 5, 1)
    c = Ideal(R7xy, [cusp])
    total = c
    images = []
    for n in (1, 2, 3):
        exponent = 5 * (7 ** n - 1) // 6
        with caps_scope(Caps(frobenius_block=512)):
            level_image = bracket_root(
                Ideal(R7xy, [cusp ** exponent * g for g in c.generators]), n)
        images.append(level_image)
        total = total + level_image
    assert images[1] + images[0] + c == total  # level 3 added nothing
    assert total == tau(pair)
    assert total == I(R7xy, "x", "y")


def test_cusp_threshold_structure_across_characteristics():
    # the cusp's F-pure threshold is 5/6 when p = 1 mod 6 and
    # 5/6 - 1/(6p) otherwise; over F_5 that is 4/5, which level-2 pairs
    # bracket as 19/24 < 4/5 < 20/24
    R5 = PolyRing(("x", "y"), 5)
    cusp5 = R5.parse("x^2+y^3")
    assert tau(PairDivisor(cusp5, 19, 2)).is_unit
    assert tau(PairDivisor(cusp5, 20, 2)) == I(R5, "x", "y")
    assert tau(PairDivisor(cusp5, 3, 1)).is_unit
    R7 = PolyRing(("x", "y"), 7)
    cusp7 = R7.parse("x^2+y^3")
    assert tau(PairDivisor(cusp7, 4, 1)).is_unit       # 4/6 < 5/6
    assert tau(PairDivisor(cusp7, 5, 1)) == I(R7, "x", "y")


def test_default_test_element_beyond_coefficient_one(R5x):
    # tau(x^(a/4)) = (x^floor(a/4)) over F_5; for a > q-1 the default
    # seed f^ceil(a/(q-1)) is needed: f alone stalls on (x) at a = 8 and
    # is rejected at a = 9
    x = R5x.gen(0)
    for a in (8, 9):
        pair = PairDivisor(x, a, 1)
        assert pair.default_test_element() == x ** -(-a // 4)
        assert tau(pair) == Ideal(R5x, (x ** (a // 4),))
    for a in (0, 1, 4):
        assert PairDivisor(x, a, 1).default_test_element() == x


def test_tau_rejects_zero_seed(R5x):
    with pytest.raises(DomainError):
        tau(PairDivisor(R5x.gen(0), 4, 1), R5x.zero())


def test_tau_flags_bad_test_element(R5x):
    # coefficient 10/4 = 2.5: the chain from (x) stalls on (x) while the
    # image is (x^2), so x is not a test element
    pair = PairDivisor(R5x.gen(0), 10, 1)
    with pytest.raises(TestElementError):
        tau(pair, R5x.gen(0))
    assert tau(pair, pair.default_test_element()) == I(R5x, "x^2")


def test_tau_is_least_fixed_ideal_containing_seed(R7xy):
    # against 20 harness-built fixed ideals containing the seed
    rng = random.Random(227)
    built = 0
    while built < 20:
        f = random_poly(rng, R7xy, max_degree=3, nonzero=True)
        a = rng.randint(0, 6)
        pair = PairDivisor(f, a, 1)
        seed = f
        ideal = tau(pair, seed)
        extra = random_poly(rng, R7xy, max_degree=2, nonzero=True)
        bigger = ascending_fixed_ideal(pair, seed, Ideal.zero(R7xy)).ideal
        enlarged = Ideal(R7xy, (seed, extra))
        # close the enlarged seed up to a fixed ideal
        current = enlarged
        for _ in range(64):
            nxt = current + apply_cartier(pair, current)
            if nxt == current:
                break
            current = nxt
        assert apply_cartier(pair, current).issubset(current)
        assert ideal.issubset(current)
        assert ideal.issubset(bigger) and bigger.issubset(ideal)
        built += 1


# -- the semi-naive chain against the naive one -------------------------------


def _affine_chain_cases(rng):
    """(pair, seed, zero modulus) over F_2 ... F_7: the default test
    element or a random seed, which need not be a test element."""
    for p in (2, 3, 5, 7):
        ring = PolyRing(("x", "y"), p)
        for _ in range(25):
            f = random_poly(rng, ring, max_degree=3, nonzero=True)
            e = rng.choice((1, 2)) if p < 5 else 1
            pair = PairDivisor(f, rng.randint(0, 3 * (p ** e - 1)), e)
            seed = (pair.default_test_element() if rng.random() < 0.4
                    else random_poly(rng, ring, max_degree=2, nonzero=True))
            yield pair, seed, Ideal.zero(ring)


def _cone_chain_cases(rng):
    """(cone pair, homogeneous seed, I_X) on plane cubics and quartics."""
    for p in (2, 3, 5, 7):
        plane = PolyRing(("x", "y", "z"), p)
        for degree in (3, 4):
            scheme = ProjScheme.from_forms(
                plane, [random_homogeneous(rng, plane, degree, max_terms=6)])
            for _ in range(5):
                f = random_homogeneous(rng, plane, rng.randint(1, 2))
                pair = PairDivisor(f, rng.randint(0, p - 1), 1)
                seed = random_homogeneous(rng, plane, rng.randint(1, 3))
                if not scheme.ideal.contains(seed):
                    yield scheme.cone_pair(pair), seed, scheme.ideal


def _chain_outcome(chain, pair, seed, modulus):
    """(reduced basis, steps), or TestElementError."""
    try:
        result = chain(pair, seed, modulus)
    except TestElementError:
        return TestElementError
    return result.ideal.groebner_basis, result.steps


def test_chain_matches_the_naive_chain(R5x):
    # the same ideal in the same number of steps, and a refused seed
    # exactly where mapping every generator at every step refuses it,
    # as x is for (x, 10, 1) in test_tau_flags_bad_test_element
    rng = random.Random(241)
    x = R5x.gen(0)
    cases = refused = 0
    for pair, seed, modulus in itertools.chain(
            [(PairDivisor(x, 10, 1), x, Ideal.zero(R5x))],
            _affine_chain_cases(rng), _cone_chain_cases(rng)):
        want = _chain_outcome(naive_ascending_chain, pair, seed, modulus)
        got = _chain_outcome(ascending_fixed_ideal, pair, seed, modulus)
        assert got == want, (pair.f, pair.a, pair.e, seed, modulus)
        cases += 1
        refused += want is TestElementError
    assert cases >= 130 and 10 <= refused <= cases - 60, (cases, refused)


def test_cone_pair_maps_the_scheme_into_itself():
    # the chain's precondition: the cone pair's operator maps I_X into
    # itself (F-adjunction), on random plane curves and space curves
    rng = random.Random(251)
    for p in (2, 3, 5, 7):
        plane = PolyRing(("x", "y", "z"), p)
        space = PolyRing(("x", "y", "z", "w"), p)
        for ring, degrees in ((plane, (3,)), (plane, (4,)), (space, (2, 2))):
            while True:
                try:
                    scheme = ProjScheme.from_forms(ring, [
                        random_homogeneous(rng, ring, d, max_terms=5)
                        for d in degrees])
                    break
                except DomainError:
                    continue
            f = random_homogeneous(rng, ring, rng.randint(1, 2))
            pair = PairDivisor(f, rng.randint(0, 2 * (p - 1)), 1)
            assert is_compatible(scheme.ideal, scheme.cone_pair(pair))


def test_chain_maps_each_generator_once(monkeypatch):
    # the first step maps the seed alone; later steps map only basis
    # elements new since the step before, never a modulus generator
    mapped = []

    def recording(pair, ideal):
        mapped.append(ideal.generators)
        return apply_cartier(pair, ideal)

    monkeypatch.setattr(fsing_module, "apply_cartier", recording)
    monkeypatch.setattr(conftest, "apply_cartier", recording)
    rng = random.Random(257)
    naive = semi_naive = 0
    for pair, seed, modulus in itertools.chain(_affine_chain_cases(rng),
                                               _cone_chain_cases(rng)):
        del mapped[:]
        try:
            ascending_fixed_ideal(pair, seed, modulus)
        except TestElementError:
            pass
        assert mapped[0] == (seed,)
        seen = {g.monic() for g in modulus.generators}
        for g in itertools.chain.from_iterable(mapped):
            assert g.monic() not in seen, (g, pair.f, seed)
            seen.add(g.monic())
        semi_naive += sum(map(len, mapped))
        del mapped[:]
        try:
            naive_ascending_chain(pair, seed, modulus)
        except TestElementError:
            pass
        naive += sum(map(len, mapped))
    assert semi_naive < naive, (semi_naive, naive)


def test_tau_inside_sigma(R7xy):
    rng = random.Random(229)
    for _ in range(20):
        f = random_poly(rng, R7xy, max_degree=3, nonzero=True)
        a = rng.randint(0, 6)
        pair = PairDivisor(f, a, 1)
        assert tau(pair).issubset(sigma(pair))


def test_monotone_in_coefficient(R7xy):
    rng = random.Random(233)
    for _ in range(15):
        f = random_poly(rng, R7xy, max_degree=3, nonzero=True)
        a2 = rng.randint(0, 5)
        a1 = a2 + rng.randint(0, 6 - a2)
        small = PairDivisor(f, a1, 1)  # bigger divisor
        large = PairDivisor(f, a2, 1)
        assert tau(small).issubset(tau(large))
        assert sigma(small).issubset(sigma(large))


def test_level_normalization(R7xy):
    rng = random.Random(239)
    for _ in range(15):
        f = random_poly(rng, R7xy, max_degree=2, nonzero=True)
        a = rng.randint(0, 6)
        pair = PairDivisor(f, a, 1)
        assert sigma(pair) == sigma(pair.rescale(2))
        assert tau(pair) == tau(pair.rescale(2))


def test_purity_classification(R5x):
    x = R5x.gen(0)
    pair = PairDivisor(x, 4, 1)
    assert is_sharply_f_pure(pair) and not is_strongly_f_regular(pair)
    R2 = PolyRing(("x", "y"), 5)
    trivial = PairDivisor(R2.one(), 0, 1)
    assert is_sharply_f_pure(trivial) and is_strongly_f_regular(trivial)
    assert not is_sharply_f_pure(PairDivisor(x, 5, 1))


# -- twist rule -------------------------------------------------------------------


def test_twist_examples(R5x, R7xy):
    trivial = PairDivisor(R5x.one(), 0, 1)
    report = twist_identity(trivial, R5x.gen(0))
    assert report.holds and report.shifted == I(R5x, "x")
    assert twist_identity(trivial, R5x.one()).holds
    cusp_pair = PairDivisor(R7xy.parse("x^2+y^3"), 5, 1)
    report = twist_identity(cusp_pair, R7xy.gen(0))
    assert report.holds
    assert report.shifted == I(R7xy, "x^2", "x*y")


def test_twist_rejects_zero(R5x):
    with pytest.raises(DomainError):
        twist_identity(PairDivisor(R5x.gen(0), 1, 1), R5x.zero())


# -- Fedder ------------------------------------------------------------------------


def test_fedder_examples():
    R7 = PolyRing(("x", "y", "z"), 7)
    m7 = Ideal.irrelevant(R7)
    assert fedder_f_pure(I(R7, "x^3+y^3+z^3"), m7)
    R2 = PolyRing(("x", "y", "z"), 2)
    assert not fedder_f_pure(I(R2, "x^3+y^3+z^3"), Ideal.irrelevant(R2))
    for p in (2, 3, 5, 7):
        ring = PolyRing(("x", "y"), p)
        assert fedder_f_pure(I(ring, "x"), Ideal.irrelevant(ring))


def test_fedder_requires_containment():
    ring = PolyRing(("x", "y"), 5)
    with pytest.raises(DomainError):
        fedder_f_pure(I(ring, "x+1"), Ideal.irrelevant(ring))


def test_fedder_takes_principal_ideals_only():
    ring = PolyRing(("x", "y"), 5)
    m = Ideal.irrelevant(ring)
    with pytest.raises(UnsupportedInputError):
        fedder_f_pure(I(ring, "x", "y"), m)
    with pytest.raises(UnsupportedInputError):
        fedder_f_pure(Ideal.zero(ring), m)
    # redundant generators of a principal ideal: its reduced basis is (h)
    for h in ("x^2+y^3", "x*y"):
        redundant = I(ring, h, f"x*({h})", f"(x+y^2)*({h})")
        assert fedder_f_pure(redundant, m) == fedder_f_pure(I(ring, h), m)
    assert fedder_f_pure(I(ring, "x*y", "x^2*y"), m)
    assert not fedder_f_pure(I(ring, "x^2+y^3", "2*x^2+2*y^3"), m)


def test_fedder_hypersurface_shortcut_agrees():
    # Fedder's colon (h^[p] : h) from the elimination oracle against the
    # verdict of the hypersurface route
    rng = random.Random(241)
    for p in (2, 3, 5):
        ring = PolyRing(("x", "y"), p)
        m = Ideal.irrelevant(ring)
        mp = bracket_power(m, 1)
        for _ in range(10):
            h = random_poly(rng, ring, max_degree=3, nonzero=True)
            if not m.contains(h):
                continue
            ideal = Ideal(ring, [h])
            colon = oracle_quotient(bracket_power(ideal, 1), ideal)
            assert fedder_f_pure(ideal, m) == (not colon.issubset(mp))


def test_fedder_agrees_with_localized_purity():
    # sharp F-purity of (S, div h) at the origin equals Fedder's verdict
    rng = random.Random(251)
    checked = 0
    while checked < 20:
        p = rng.choice([2, 3, 5, 7])
        ring = PolyRing(("x", "y"), p)
        h = random_poly(rng, ring, max_degree=4, nonzero=True)
        m = Ideal.irrelevant(ring)
        if not m.contains(h):
            continue
        pair = PairDivisor(h, p - 1, 1)
        pure_at_origin = not sigma(pair).issubset(m)
        assert pure_at_origin == fedder_f_pure(Ideal(ring, [h]), m)
        checked += 1


# -- compatibility ------------------------------------------------------------------


def test_compatibility_examples():
    for p in (2, 3, 5):
        ring = PolyRing(("x", "y"), p)
        x, y = ring.gens()
        assert is_compatible(I(ring, "x"), PairDivisor(x, p - 1, 1))
        assert not is_compatible(I(ring, "x"), PairDivisor(ring.one(), 0, 1))
        assert is_compatible(Ideal.irrelevant(ring),
                             PairDivisor(x * y, p - 1, 1))


# -- multiplicity and the containment lemma -------------------------------------------


def test_multiplicity_examples(R7xy):
    assert multiplicity(R7xy.parse("x^2+y^3"), (0, 0)) == 2
    ring = PolyRing(("x", "y"), 5)
    assert multiplicity(ring.gen(0), (1, 0)) == 0
    assert multiplicity(ring.parse("(x-1)^3"), (1, 0)) == 3
    # non-closed point: order along the x-axis
    R3 = PolyRing(("x", "y", "z"), 5)
    assert multiplicity(R3.parse("x^2 + z*y^2"), (0, 0, None)) == 2


def test_multiplicity_input_validation(R7xy):
    with pytest.raises(DomainError):
        multiplicity(R7xy.zero(), (0, 0))
    with pytest.raises(DomainError):
        multiplicity(R7xy.gen(0), (0,))
    with pytest.raises(DomainError):
        multiplicity(R7xy.gen(0), (None, None))
    from charp.errors import UnsupportedInputError
    with pytest.raises(UnsupportedInputError):
        multiplicity(R7xy.gen(0), (0.5, 0))


def test_containment_example():
    ring = PolyRing(("x", "y"), 5)
    pair = PairDivisor(ring.parse("x^2+y^2+x*y"), 4, 1)
    report = multiplicity_containment(pair, (0, 0), 2)
    assert report.holds and report.pair_multiplicity == 2


def test_containment_precondition():
    ring = PolyRing(("x", "y"), 5)
    pair = PairDivisor(ring.gen(0), 4, 1)  # multiplicity 1 at origin
    with pytest.raises(PreconditionError):
        multiplicity_containment(pair, (0, 0), 2)


def test_containment_rejects_a_threshold_below_one():
    # l = 0 is not admissible: at a = 0 every multiplicity clears it, and
    # the trivial pair's test ideal (1) escapes every point ideal
    ring = PolyRing(("x", "y", "z"), 5)
    for a, l in ((0, 0), (4, 0), (4, -1)):
        with pytest.raises(DomainError):
            multiplicity_containment(PairDivisor(ring.gen(0), a, 1),
                                     (0, None, None), l)


def _random_point(rng, ring):
    """Residues, some coordinates None (free), at least one constrained."""
    while True:
        point = tuple(None if rng.random() < 0.3 else rng.randrange(ring.p)
                      for _ in range(ring.nvars))
        if any(c is not None for c in point):
            return point


def test_containment_verdict_matches_the_point_ideal_route(monkeypatch):
    # on random pairs the verdict is the theorem's, True; with tau replaced
    # by random ideals, each built inside the point's prime or not, it is
    # `issubset` of the point ideal either way
    rng = random.Random(2311)
    real = outside = 0
    for p in (2, 3, 5, 7):
        ring = PolyRing(("x", "y", "z"), p)
        for case in range(30):
            point = _random_point(rng, ring)
            through = point_ideal(ring, point).generators
            f = random_poly(rng, ring, 2, 2, nonzero=True)
            for _ in range(len(through)):
                f = f * rng.choice(through)
            pair = PairDivisor(f, rng.randint(p - 1, 2 * (p - 1)), 1)
            if case < 10:
                report = multiplicity_containment(pair, point)
                assert report.holds and report.test_ideal.issubset(
                    point_ideal(ring, point))
                real += 1
                continue
            inside = rng.random() < 0.5
            gens = [sum((random_poly(rng, ring, 2, 2) * g for g in through),
                        ring.zero()) if inside
                    else random_poly(rng, ring, 2, 3)
                    for _ in range(rng.randint(1, 3))]
            ideal = Ideal(ring, gens + [rng.choice(through)] * inside)
            monkeypatch.setattr(fsing_module, "tau", lambda pair: ideal)
            report = multiplicity_containment(pair, point)
            assert report.test_ideal is ideal
            assert report.holds == ideal.issubset(point_ideal(ring, point)), \
                (ideal, point)
            outside += not report.holds
            monkeypatch.undo()
    assert real == 40 and 20 <= outside <= 60, (real, outside)


def test_point_ideal_shapes():
    ring = PolyRing(("x", "y", "z"), 5)
    closed = point_ideal(ring, (1, 2, 0))
    assert closed == I(ring, "x-1", "y-2", "z")
    line = point_ideal(ring, (0, 0, None))
    assert line == I(ring, "x", "y")
