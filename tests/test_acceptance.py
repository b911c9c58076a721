"""Acceptance gate: one test per shipped criterion, each at its stated
tolerance (exact algebra throughout) and time budget.

Every test records a PASS/FAIL line that pytest prints in the terminal
summary; run with `pytest tests/test_acceptance.py -v`.
"""

import random
import time

import pytest

from charp.cartier import apply_cartier, bracket_root
from charp.config import Caps, caps_scope
from charp.fsing import PairDivisor, multiplicity_containment, sigma, tau
from charp.ideal import Ideal
from charp.proj import (ProjScheme, _same_saturation, degree_bound_pipeline,
                        graded_piece, is_base_point_free,
                        restriction_is_surjective, separates,
                        stable_sections, stable_sections_generate,
                        trivial_pair)
from charp.ring import PolyRing

from conftest import (bracket_power, check_criterion, fedder_f_pure,
                      is_subspace, random_homogeneous, random_poly,
                      rational_point_ideal, trace, twist_identity)

_PROPERTY_SECONDS = []


# -- C1: the descending recursion against a hand-iterated oracle ---------------


def test_c01_sigma_recursion_fixture():
    started = time.monotonic()
    ring = PolyRing(("x",), 5)
    x = ring.gen(0)
    ok = True
    for a in range(1, 11):
        # oracle: univariate monomial ideals are exponents; one image step
        # sends (x^n) to (x^floor((a+n)/5))
        n = 0
        for _ in range(64):
            nxt = (a + n) // 5
            if nxt == n:
                break
            n = nxt
        oracle = Ideal(ring, [x ** n])
        computed = sigma(PairDivisor(x, a, 1))
        ok = ok and computed.groebner_basis == oracle.groebner_basis
        if a == 4:
            ok = ok and computed.is_unit
        if a == 5:
            ok = ok and computed == Ideal(ring, [x])
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    check_criterion(1, f"descending recursion matches the exponent oracle "
                       f"for a=1..10 ({elapsed:.2f}s)", ok)


# -- C2: the twist law on random pairs ------------------------------------------


def test_c02_twist_law_random_pairs():
    started = time.monotonic()
    rng = random.Random(20250809)
    checked = 0
    ok = True
    while checked < 25:
        p = rng.choice([2, 3, 5, 7])
        ring = PolyRing(("x", "y"), p)
        f = random_poly(rng, ring, max_degree=4, max_terms=3, nonzero=True)
        a = rng.randint(0, p - 1)  # coefficient <= 1 keeps c = f admissible
        g = random_poly(rng, ring, max_degree=2, nonzero=True)
        report = twist_identity(PairDivisor(f, a, 1), g)
        ok = ok and report.holds
        checked += 1
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    check_criterion(2, f"twist law holds on 25 random pairs "
                       f"({elapsed:.1f}s)", ok)


# -- C3: the cusp boundary value, two independent routes -------------------------


def test_c03_cusp_boundary_two_ways():
    ring = PolyRing(("x", "y"), 7)
    cusp = ring.parse("x^2+y^3")
    pair = PairDivisor(cusp, 5, 1)
    expected = Ideal(ring, [ring.gen(0), ring.gen(1)])

    chain_route = tau(pair, cusp)

    # brute force: stable sum of the single-shot level-n root images of
    # f^(5*(7^n-1)/6) * c, n <= 3 (needs a wide frobenius block)
    total = Ideal(ring, [cusp])
    partials = [total]
    for n in (1, 2, 3):
        exponent = 5 * (7 ** n - 1) // 6
        with caps_scope(Caps(frobenius_block=512)):
            image = bracket_root(Ideal(ring, [cusp ** exponent * cusp]), n)
        total = total + image
        partials.append(total)
    stable = partials[2] == partials[3]

    ok = (chain_route == expected and total == expected and stable)
    check_criterion(3, "cusp pair at coefficient 5/6 gives the maximal "
                       "ideal via chain and brute-force routes", ok)


# -- C4: Fedder as a cross-oracle -------------------------------------------------


def test_c04_fedder_cross_oracle():
    rng = random.Random(40404)
    agreements = 0
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
        fedder = fedder_f_pure(Ideal(ring, [h]), m)
        agreements += int(pure_at_origin == fedder)
        checked += 1
    check_criterion(4, f"sharp F-purity at the origin agrees with the "
                       f"Fedder oracle on {agreements}/20 hypersurfaces",
                    agreements == 20)


# -- C5: multiplicity forces containment in the point ideal ------------------------


def test_c05_multiplicity_containment_instances():
    plane5 = PolyRing(("x", "y"), 5)
    plane7 = PolyRing(("x", "y"), 7)
    space5 = PolyRing(("x", "y", "z"), 5)
    space3 = PolyRing(("x", "y", "z"), 3)
    instances = [
        (PairDivisor(plane5.parse("x^2+y^2+x*y"), 4, 1), (0, 0), 2),
        (PairDivisor(plane5.parse("x^3+y^3"), 4, 1), (0, 0), 2),
        (PairDivisor(plane5.parse("(x-1)^2+(x-1)*y+y^2"), 4, 1), (1, 0), 2),
        (PairDivisor(plane5.parse("x^2*y^2"), 2, 1), (0, 0), 2),
        (PairDivisor(plane7.parse("x^2+y^3"), 12, 1), (0, 0), 2),
        (PairDivisor(space5.parse("x^3+y^3+z^3"), 4, 1), (0, 0, 0), 3),
        (PairDivisor(space5.parse("x^2+z*y^2"), 4, 1), (0, 0, None), 2),
        (PairDivisor(space5.parse("x^2+x*y+y^2"), 4, 1), (0, 0, None), 2),
        (PairDivisor(space5.parse("(x-1)^3+y^3+z^3"), 4, 1), (1, 0, 0), 3),
        (PairDivisor(space3.parse("x*y*z"), 2, 1), (0, 0, 0), 3),
    ]
    holds = 0
    for pair, point, l in instances:
        report = multiplicity_containment(pair, point, l)
        holds += int(report.holds)
    check_criterion(5, f"test ideal lands in the point ideal on "
                       f"{holds}/10 high-multiplicity instances", holds == 10)


# -- C6: completeness of the subsystem in large degrees -----------------------------


def _first_complete_window(scheme, span=5, scan=9):
    pair = trivial_pair(scheme.ring)
    complete = []
    for m in range(scan + span):
        space = stable_sections(scheme, pair, m).space
        complete.append(space.dim == graded_piece(scheme, m).dim)
    for m0 in range(scan):
        if all(complete[m0:m0 + span]):
            return m0
    return None


def test_c06_stable_subsystem_complete_eventually():
    line = ProjScheme.projective_space(PolyRing(("x", "y"), 5))
    plane = ProjScheme.projective_space(PolyRing(("x", "y", "z"), 5))
    ring7 = PolyRing(("x", "y", "z"), 7)
    fermat = ProjScheme.from_forms(ring7, [ring7.parse("x^3+y^3+z^3")])
    windows = {}
    for name, scheme, scan in (("line", line, 9), ("plane", plane, 1),
                               ("fermat-cubic", fermat, 9)):
        windows[name] = _first_complete_window(scheme, scan=scan)
    ok = all(m0 is not None and m0 <= 8 for m0 in windows.values())
    check_criterion(6, f"subsystems complete for 5 consecutive degrees "
                       f"past m0={windows}", ok)


# -- C7: plane cubics: free and separating ------------------------------------------


CUBICS = ["x^3+y^3+z^3", "y^2*z-x^3-x*z^2", "y^2*z-x^3-z^3"]


def test_c07_plane_cubic_systems():
    started = time.monotonic()
    ok = True
    details = []
    for p in (5, 7):
        ring = PolyRing(("x", "y", "z"), p)
        for text in CUBICS:
            curve = ProjScheme.from_forms(ring, [ring.parse(text)])
            # smoothness of the fixture: empty Jacobian locus, that is,
            # the Jacobian ideal has the unit ideal's saturation
            h = curve.forms[0]
            jac = Ideal(ring, [h] + [h.derivative(i) for i in range(3)])
            assert _same_saturation(jac, Ideal.unit(ring)), text
            space = stable_sections(curve, trivial_pair(ring), 1).space
            free = is_base_point_free(space)
            report = separates(curve, space, 2)
            ok = ok and space.dim == 3 and free and report.ok
            details.append(f"p={p} {text}: dim {space.dim}, "
                           f"{report.points_on_scheme} pts")
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 120.0
    check_criterion(7, f"six plane cubics: canonical-plus-line subsystem "
                       f"is free and separating over p^2 points "
                       f"({elapsed:.1f}s)", ok)


# -- C8: subsystem global generation at the dimension bound --------------------------


def test_c08_subsystem_global_generation():
    ring = PolyRing(("x", "y", "z"), 7)
    plane = ProjScheme.projective_space(ring)
    # L - (dualizing twist) - Delta ample, target degree deg L + 2
    flat = stable_sections_generate(plane, trivial_pair(ring), 3, "tau")
    cusp = PairDivisor(ring.parse("x^2*z+y^3"), 5, 1)
    cuspy = stable_sections_generate(plane, cusp, 2, "tau")
    check_criterion(8, "subsystem generates the test-ideal twist at "
                       "n = dim X for both divisor fixtures",
                    flat and cuspy)


# -- C9: the closed-form degree bound -------------------------------------------------


def test_c09_degree_bound_number():
    started = time.monotonic()
    ring = PolyRing(("x", "y", "z"), 7)
    report = degree_bound_pipeline(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)], ring.parse("(x*y*z)^2"),
        4, 2)
    elapsed = time.monotonic() - started
    ok = (report.delta == 3                      # floor(6*2/4)
          and report.witness_degree <= 3
          and report.witness.degree() == 3
          and all(report.test_ideal.issubset(rational_point_ideal(ring, P))
                  and report.witness.evaluate(P) == 0
                  for P in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
          and elapsed < 60.0)
    check_criterion(9, f"three-point plane instance: delta = "
                       f"{report.delta} with witness {report.witness} "
                       f"({elapsed:.2f}s)", ok)


# -- C10: restriction onto a compatible center ----------------------------------------


def test_c10_restriction_surjective():
    ring = PolyRing(("x", "y", "z"), 5)
    plane = ProjScheme.projective_space(ring)
    pair = PairDivisor(ring.gen(2), 4, 1)
    line = Ideal(ring, [ring.gen(2)])
    onto_line = restriction_is_surjective(plane, pair, line, 3)
    crossing = PairDivisor(ring.parse("x*y"), 4, 1)
    point = Ideal(ring, [ring.gen(0), ring.gen(1)])
    onto_point = restriction_is_surjective(plane, crossing, point, 3)
    check_criterion(10, "subsystem restriction onto line and point "
                        "centers is surjective", onto_line and onto_point)


# -- C11: randomized property suites, 100+ cases each ----------------------------------


def _timed(fn):
    start = time.monotonic()
    fn()
    _PROPERTY_SECONDS.append(time.monotonic() - start)


def test_c11a_bracket_root_adjunction_100():
    def run():
        rng = random.Random(111001)
        for case in range(100):
            p = rng.choice([2, 3, 5])
            ring = PolyRing(("x", "y"), p)
            ideal = Ideal(ring, [random_poly(rng, ring, max_degree=5,
                                             nonzero=True)
                                 for _ in range(2)])
            e = rng.choice([1, 2])
            root = bracket_root(ideal, e)
            assert ideal.issubset(bracket_power(root, e))
            mono = Ideal(ring, [ring.monomial((rng.randint(0, 5),
                                               rng.randint(0, 5)))
                                for _ in range(2)])
            assert bracket_root(bracket_power(mono, e), e) == mono
    _timed(run)


def test_c11b_trace_linearity_100():
    def run():
        rng = random.Random(111002)
        for case in range(100):
            p = rng.choice([2, 3, 5])
            e = rng.choice([1, 2])
            ring = PolyRing(("x", "y"), p)
            h = random_poly(rng, ring, max_degree=3)
            g = random_poly(rng, ring, max_degree=6, max_terms=5)
            q = p ** e
            assert trace(h ** q * g, e) == h * trace(g, e)
    _timed(run)


def test_c11c_composition_law_100():
    def run():
        rng = random.Random(111003)
        for case in range(100):
            p = rng.choice([2, 3, 5, 7])
            ring = PolyRing(("x", "y"), p)
            f = random_poly(rng, ring, max_degree=2, nonzero=True)
            ideal = Ideal(ring, [random_poly(rng, ring, max_degree=3,
                                             nonzero=True)])
            once = PairDivisor(f, 1, 1)
            twice = apply_cartier(once, apply_cartier(once, ideal))
            assert twice == apply_cartier(once.rescale(2), ideal)
    _timed(run)


def test_c11d_subsystem_monotonicity_100():
    def run():
        rng = random.Random(111004)
        for case in range(100):
            p = rng.choice([2, 3, 5])
            ring = PolyRing(("x", "y"), p)
            scheme = ProjScheme.projective_space(ring)
            f = random_homogeneous(rng, ring, rng.randint(1, 2))
            a2 = rng.randint(0, p - 1)
            a1 = a2 + rng.randint(0, p - 1 - a2)
            m = rng.randint(0, 3)
            big = stable_sections(scheme, PairDivisor(f, a1, 1), m).space
            small = stable_sections(scheme, PairDivisor(f, a2, 1), m).space
            assert is_subspace(big, small)
    _timed(run)


def test_c11e_tau_inside_sigma_100():
    def run():
        rng = random.Random(111005)
        for case in range(100):
            p = rng.choice([2, 3, 5, 7])
            ring = PolyRing(("x", "y"), p)
            f = random_poly(rng, ring, max_degree=3, nonzero=True)
            pair = PairDivisor(f, rng.randint(0, p - 1), 1)
            assert tau(pair).issubset(sigma(pair))
    _timed(run)


def test_c11f_level_independence_100():
    def run():
        rng = random.Random(111006)
        for case in range(100):
            p = rng.choice([2, 3, 5])
            ring = PolyRing(("x", "y"), p)
            f = random_poly(rng, ring, max_degree=3, nonzero=True)
            pair = PairDivisor(f, rng.randint(0, p - 1), 1)
            assert sigma(pair) == sigma(pair.rescale(2))
            assert tau(pair) == tau(pair.rescale(2))
    _timed(run)


def test_c11_property_suites_summary():
    total = sum(_PROPERTY_SECONDS)
    ok = len(_PROPERTY_SECONDS) == 6 and total < 600.0
    check_criterion(11, f"six property suites, 100 cases each, zero "
                        f"failures ({total:.1f}s)", ok)
