"""Shared fixtures, hypothesis profile, and the acceptance recorder."""

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count, repeat
from operator import add, le, neg

import pytest
from hypothesis import HealthCheck, settings

from charp.cartier import apply_cartier, frob_expand
from charp.config import current_caps
from charp.errors import (DomainError, ResourceError, TestElementError,
                          UnsupportedInputError)
from charp.fsing import ChainResult, PairDivisor, tau
from charp.ideal import Ideal, normal_form
from charp.linalg import rref
from charp.proj import GradedSubspace
from charp.ring import MultiPoly, PolyRing, _monomial_words, grevlex_packing

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


def bracket_power(ideal: Ideal, e: int) -> Ideal:
    """The Frobenius bracket power I^[p^e]: the ideal generated by g^(p^e)
    over the generators g of I, the ideal itself at e = 0.  It does not
    depend on the generating set, because Frobenius is flat over the
    (regular) ambient polynomial ring."""
    if e < 0:
        raise DomainError(f"bracket power needs e >= 0, got {e}")
    if e == 0:
        return ideal
    q = ideal.ring.p ** e
    return Ideal(ideal.ring, [g ** q for g in ideal.generators])


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
    return not bracket_power(maximal, 1).contains(h ** (ideal.ring.p - 1))


def naive_ascending_chain(pair: PairDivisor, seed: MultiPoly,
                          modulus: Ideal) -> ChainResult:
    """The route that `fsing.ascending_fixed_ideal` replaced by
    semi-naive evaluation: every step maps every generator of N, the
    modulus's among them at the first step, and the fixedness check
    compares the last full image with N."""
    ring = pair.ring
    if seed.is_zero:
        raise DomainError("test element must be nonzero")
    if modulus.contains(seed):
        raise DomainError("test element vanishes on the ambient quotient")
    current = Ideal(ring, (seed,)) + modulus
    limit = current_caps().chain_steps
    for step in range(1, limit + 1):
        image = apply_cartier(pair, current) + modulus
        nxt = current + image
        if nxt == current:
            if image != current:
                raise TestElementError(
                    f"chain from {seed} stabilized on a non-fixed ideal; "
                    "the seed is not a test element for this pair")
            return ChainResult(current, step)
        current = Ideal._from_groebner(ring, nxt.groebner_basis)
    raise ResourceError("chain_steps", limit,
                        "ascending fixed-ideal chain did not stabilize")


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
        row = [0] * len(columns)
        for exps, c in normal_form(f, modulus.groebner_basis).iter_terms():
            if exps not in index:
                raise DomainError(f"{f} does not reduce into degree {m}")
            row[index[exps]] = c
        if any(row):
            rows.append(row)
    matrix, _ = rref(rows, ring.p)
    basis = tuple(ring.poly({columns[j]: c for j, c in enumerate(row) if c})
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


# -- the tuple-keyed kernel, the reference of the packed keys -----------------
#
# The engine's routines as they ran on exponent tuples before every
# monomial became one packed integer key: products, powers by base-p
# digits with Frobenius twists, the Frobenius split, the one-pass bracket
# root, and the dict-copy normal form and completion.  The first four
# take and return term dicts {exponents: residue}; `terms` is a
# polynomial's, read off its tuple view.


def grevlex_key(exps):
    """Sort key: larger key means larger monomial in grevlex."""
    return (sum(exps), tuple(map(neg, reversed(exps))))


def terms(f: MultiPoly) -> dict:
    """f's terms by exponent tuple."""
    return dict(f.iter_terms())


def monomials_of_degree(nvars: int, degree: int) -> list:
    """The exponent tuples of `ring._monomial_words`, in its order."""
    packing = grevlex_packing(nvars, 64)
    return [packing.exponents(w) for w in _monomial_words(packing, degree)]


def oracle_add(a: dict, b: dict, p: int, sign: int = 1) -> dict:
    """a + sign * b, term by term."""
    return {e: s for e in a.keys() | b.keys()
            if (s := (a.get(e, 0) + sign * b.get(e, 0)) % p)}


def oracle_mul(a: dict, b: dict, p: int) -> dict:
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (ea, ca), = a.items()
        return {tuple(map(add, ea, eb)): ca * cb % p for eb, cb in b.items()}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            ne = tuple(map(add, ea, eb))
            s = (out.get(ne, 0) + ca * cb) % p
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
    return out


def oracle_frobenius(terms: dict, q: int) -> dict:
    """The terms raised to a power q of the characteristic: exponents
    times q, coefficients fixed."""
    return {tuple(a * q for a in exps): c for exps, c in terms.items()}


def _oracle_square_and_multiply(terms: dict, n: int, p: int) -> dict:
    result = None
    while True:
        if n & 1:
            result = terms if result is None else oracle_mul(result, terms, p)
        n >>= 1
        if not n:
            return result
        terms = oracle_mul(terms, terms, p)


def oracle_pow(terms: dict, n: int, p: int, nvars: int) -> dict:
    """terms^n: one term directly, otherwise prod_i (f^(n_i))^[p^i] over
    the base-p digits n_i of n."""
    one = (0,) * nvars
    if len(terms) <= 1:
        if not n:
            return {one: 1}
        return {tuple(a * n for a in exps): pow(c, n, p)
                for exps, c in terms.items()}
    result: dict = {one: 1}
    digit_powers: dict = {}
    q = 1
    while n:
        n, digit = divmod(n, p)
        if digit:
            power = digit_powers.get(digit)
            if power is None:
                power = digit_powers[digit] = _oracle_square_and_multiply(
                    terms, digit, p)
            result = oracle_mul(result, oracle_frobenius(power, q) if q > 1
                                else power, p)
        q *= p
    return result


def oracle_frob_expand(terms: dict, q: int) -> dict:
    """{b: {u: c}} with every exponent a = q*u + b, ascending in b."""
    buckets: dict = {}
    for exps, c in terms.items():
        u, b = zip(*map(divmod, exps, repeat(q)))
        buckets.setdefault(b, {})[u] = c
    return {b: buckets[b] for b in sorted(buckets)}


def oracle_root(u: dict, generators, q: int, p: int) -> list:
    """The generators of the bracket root of u * J, as term dicts and in
    the engine's order: each product u * g split by q term by term, its
    polynomial components made monic and kept once in ascending order
    of b, then the minimal one-term components, grevlex-descending."""
    gens, seen, monomials = [], set(), set()
    for g in generators:
        outer, inner = u, g
        if len(outer) > len(inner):
            outer, inner = inner, outer
        buckets: dict = {}
        for ea, ca in outer.items():
            for eb, cb in inner.items():
                v, b = zip(*map(divmod, map(add, ea, eb), repeat(q)))
                component = buckets.setdefault(b, {})
                c = (component.get(v, 0) + ca * cb) % p
                if c:
                    component[v] = c
                else:
                    del component[v]
                    if not component:
                        del buckets[b]
        for b in sorted(buckets):
            component = buckets[b]
            if len(component) == 1:
                monomials.update(component)
                continue
            inv = pow(component[max(component, key=grevlex_key)], -1, p)
            component = {k: c * inv % p for k, c in component.items()}
            key = frozenset(component.items())
            if key not in seen:
                seen.add(key)
                gens.append(component)
    minimal: list = []
    for a in sorted(monomials, key=sum):
        if not any(all(map(le, b, a)) for b in minimal):
            minimal.append(a)
    return gens + [{a: 1} for a in sorted(minimal, key=grevlex_key,
                                          reverse=True)]


# The dict-copy Gröbner kernel: every step rescans the terms for the
# leading one under a tuple sort key (grevlex, or the elimination oracle's
# block key) and copies the whole dict, and no cache is read.


def _oracle_lead(f, key):
    return max(terms(f), key=key)


def oracle_normal_form(f, basis, key=grevlex_key):
    ring = f.ring
    reducers = []
    for g in basis:
        if not g.is_zero:
            lead = _oracle_lead(g, key)
            reducers.append((lead, pow(terms(g)[lead], -1, ring.p), g))
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
                                         for e, c in terms(g).items()})
                break
        else:
            remainder = remainder + ring.monomial(lead, coeff)
            work = work - ring.monomial(lead, coeff)
    return remainder


def _oracle_monic(f, key):
    return f.scale(pow(terms(f)[_oracle_lead(f, key)], -1, f.ring.p))


def oracle_buchberger(generators, key=grevlex_key, nf=oracle_normal_form):
    """The former `buchberger` and `_reduce`: normal pair selection on
    tuple keys, the coprimality criterion, then minimalize and
    inter-reduce, all through the dict-copy normal form (or `nf(f,
    basis, key)`)."""
    raw = sorted((g for g in generators if not g.is_zero),
                 key=lambda g: key(_oracle_lead(g, key)))
    basis, pairs, counter = [], [], count()

    def push_pairs(new):
        lm_new = _oracle_lead(basis[new], key)
        for i in range(new):
            lm_i = _oracle_lead(basis[i], key)
            lcm = tuple(map(max, lm_i, lm_new))
            if lcm != tuple(a + b for a, b in zip(lm_i, lm_new)):
                heappush(pairs, (key(lcm), next(counter), i, new))

    for g in raw:
        g = nf(g, basis, key)
        if not g.is_zero:
            basis.append(_oracle_monic(g, key))
            push_pairs(len(basis) - 1)
    while pairs:
        _, _, i, j = heappop(pairs)
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
