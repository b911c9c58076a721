"""Row reduction over F_p and the adjoined-root field extensions."""

import random
from itertools import product

import pytest

from charp import extfield
from charp.errors import DomainError
from charp.extfield import ExtField, projective_points
from charp.linalg import null_space, rank, rref
from charp.ring import PolyRing


def test_rref_canonical_and_idempotent():
    rng = random.Random(401)
    for p in (2, 5, 7):
        for _ in range(20):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = [[rng.randrange(p) for _ in range(cols)]
                 for _ in range(rows)]
            reduced, pivots = rref(m, p)
            again, pivots2 = rref(reduced, p)
            assert reduced == again and pivots == pivots2
            # pivot columns are unit vectors, and no row is zero
            for r, c in enumerate(pivots):
                col = [row[c] for row in reduced]
                assert col[r] == 1 and not any(col[:r] + col[r + 1:])
            assert all(any(row) for row in reduced)
            assert len(reduced) == len(pivots)


def test_row_space_membership():
    p = 5
    basis, _ = rref([[1, 2, 0], [0, 0, 1]], p)
    # a vector lies in the row space when adding it keeps the RREF
    inside, _ = rref(basis + [[2, 4, 3]], p)
    outside, _ = rref(basis + [[0, 1, 0]], p)
    assert inside == basis
    assert len(outside) == 3 and all(len(row) == 3 for row in outside)
    assert rank([[1, 2], [2, 4]], p) == 1


def _residue(poly, modulus):
    """Remainder of a polynomial in t on division by the monic modulus."""
    k = modulus.degree()
    while not poly.is_zero and poly.degree() >= k:
        lead = poly.leading_exponent()
        shift = (lead[0] - k,)
        poly = poly - modulus.mul_monomial(shift).scale(poly.coefficient(lead))
    return poly


def _digits(code, p, k):
    return [(code // p ** i) % p for i in range(k)]


def _poly(ring, coeffs):
    """The polynomial in t with these coefficients, lowest degree first."""
    return ring.poly({(i,): c for i, c in enumerate(coeffs) if c})


def _residue_field(p, k):
    """Oracle for ExtField(p, k): the residue in F_p[t]/(mu) of every
    code, the code of every residue, and mu itself."""
    ring = PolyRing(("t",), p)
    mu = _poly(ring, extfield._find_irreducible(p, k) + [1])
    residues = [_poly(ring, _digits(code, p, k)) for code in range(p ** k)]
    code_of = {r: code for code, r in enumerate(residues)}
    return residues, code_of, mu


def _root_test_search(p, k):
    """The search before trial division: the first tail, in code order,
    whose monic polynomial has no root in F_p (irreducible for k <= 3)."""
    for tail in range(p ** k):
        coeffs = _digits(tail, p, k)
        if all((pow(v, k, p) + sum(c * pow(v, i, p) for i, c in enumerate(coeffs)))
               % p for v in range(p)):
            return coeffs


def _primes_up_to(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


FIELDS = ((5, 2), (7, 2), (2, 3), (3, 3), (2, 4), (3, 4))


def test_extension_field_arithmetic():
    # inverses of every nonzero code; zero has none, and kills products
    for p, k in FIELDS:
        field = ExtField(p, k)
        nonzero = range(1, field.order)
        assert all(field.mul(a, field.inv(a)) == 1 for a in nonzero)
        assert all(field.mul(a, 0) == field.mul(0, a) == 0
                   for a in range(field.order))
        with pytest.raises(DomainError):
            field.inv(0)


def test_extension_degree_bounds():
    # k is limited only by the table size p^k <= MAX_ORDER
    with pytest.raises(DomainError):
        ExtField(5, 0)
    with pytest.raises(DomainError):
        ExtField(2, 17)
    with pytest.raises(DomainError):
        ExtField(3, 11)
    assert ExtField(5, 4).order == 625
    assert ExtField(2, 8).order == 256


def test_modulus_irreducible():
    # trial division by factors of degree <= k/2 picks the same mu as the
    # root test wherever that test decides irreducibility (k <= 3)
    for k in (2, 3):
        for p in _primes_up_to(int(extfield.MAX_ORDER ** (1 / k)) + 1):
            if p ** k <= extfield.MAX_ORDER:
                assert extfield._find_irreducible(p, k) == _root_test_search(p, k), (p, k)
    # for larger k: the first tail whose polynomial is no product of two
    # monic polynomials of positive degree
    for p, k in ((2, 4), (3, 4), (5, 4), (2, 5), (2, 6)):
        ring = PolyRing(("t",), p)

        def monic(tail, d):
            return _poly(ring, _digits(tail, p, d) + [1])
        reducible = {monic(f, d) * monic(g, k - d) for d in range(1, k // 2 + 1)
                     for f in range(p ** d) for g in range(p ** (k - d))}
        first = next(tail for tail in range(p ** k)
                     if monic(tail, k) not in reducible)
        assert extfield._find_irreducible(p, k) == _digits(first, p, k), (p, k)


def _times_t(digits, modulus, p):
    """Residue of t * (residue) modulo t^k + modulus (low-order terms)."""
    top = digits[-1]
    shifted = [0] + digits[:-1]
    return [(d - top * c) % p for d, c in zip(shifted, modulus)]


def _mul_digits(a, b, modulus, p):
    """Product of two residues, by Horner's rule in the digits of a."""
    out = [0] * len(a)
    for coeff in reversed(a):
        out = _times_t(out, modulus, p)
        out = [(x + coeff * y) % p for x, y in zip(out, b)]
    return out


def _digit_walk_tables(p, k):
    """Oracle for the log tables: (antilog, log) of the first primitive
    element in code order, walking its powers one digit-list product at
    a time."""
    modulus = extfield._find_irreducible(p, k)
    order = p ** k
    for g in range(1, order):
        antilog, power = [1], _digits(1, p, k)
        while True:
            power = _mul_digits(power, _digits(g, p, k), modulus, p)
            code = sum(d * p ** i for i, d in enumerate(power))
            if code == 1:
                break
            antilog.append(code)
        if len(antilog) == order - 1:
            log = [0] * order
            for i, code in enumerate(antilog):
                log[code] = i
            return antilog, log


def test_log_tables_match_the_digit_walk():
    # every field of order <= 2^12 with k >= 2, and prime fields up to 101
    fields = [(p, k) for p in _primes_up_to(64) for k in range(2, 13)
              if p ** k <= 1 << 12]
    fields += [(p, 1) for p in _primes_up_to(101)]
    for p, k in fields:
        field = ExtField(p, k)
        antilog, log = _digit_walk_tables(p, k)
        assert field._exp == antilog, (p, k)
        assert field._log == log, (p, k)


def test_projective_point_counts():
    def count(field, nvars):
        return sum(1 for _ in projective_points(field, nvars))
    assert count(ExtField(5, 1), 2) == 6           # P^1(F_5)
    assert count(ExtField(5, 1), 3) == 31          # P^2(F_5)
    assert count(ExtField(5, 2), 2) == 26          # P^1(F_25)
    assert count(ExtField(2, 4), 3) == 16 ** 2 + 16 + 1


def test_evaluate_forms_over_extension():
    # powers and prime-field coefficients of a form against residues
    ring = PolyRing(("x", "y"), 5)
    f = ring.parse("x^2 + 2*y^3")
    field = ExtField(5, 2)
    residues, code_of, mu = _residue_field(5, 2)
    value_at = field.evaluator(f)
    for x, y in projective_points(field, 2):
        value = value_at((x, y))
        rx, ry = residues[x], residues[y]
        assert value == code_of[_residue(rx * rx + (ry * ry * ry).scale(2), mu)]


def test_table_arithmetic_matches_polynomial_residues():
    # the log/antilog and digit tables against arithmetic of residues in
    # F_p[t]/(mu), through evaluation on every pair of codes, and the
    # printed element against the printed residue; prime fields take the
    # modular route
    for p, k in FIELDS + ((5, 1), (7, 1)):
        field = ExtField(p, k)
        residues, code_of, mu = _residue_field(p, k)
        ring = PolyRing(("x", "y"), p)
        codes = range(field.order)
        pairs = list(product(codes, repeat=2))
        sums = map(field.evaluator(ring.parse("x + y")), pairs)
        products = map(field.evaluator(ring.parse("x*y")), pairs)
        negatives = map(field.evaluator(ring.parse("-x")), pairs)
        for (a, b), s, m, n in zip(pairs, sums, products, negatives):
            assert m == field.mul(a, b)
            assert s == code_of[residues[a] + residues[b]]
            assert m == code_of[_residue(residues[a] * residues[b], mu)]
            assert n == code_of[-residues[a]]
        assert [field.label(c) for c in codes] == [str(r) for r in residues]


def test_element_rendering():
    field = ExtField(5, 2)
    assert field.label(2 + 1 * 5) == "t + 2"
    assert field.label(3 * 5) == "3*t"
    assert field.label(0) == "0" and field.label(1) == "1"
    assert ExtField(3, 3).label(1 + 2 * 9) == "2*t^2 + 1"
    assert ExtField(2, 4).label(1 + 2 + 8) == "t^3 + t + 1"


def test_points_keep_the_enumeration_order():
    # first nonzero coordinate 1, grouped by it, later coordinates in code
    # order with the leftmost varying slowest
    field = ExtField(3, 2)
    want = [(0,) * pivot + (1,) + tail for pivot in range(4)
            for tail in product(range(9), repeat=3 - pivot)]
    assert list(projective_points(field, 4)) == want


def test_points_are_a_brute_force_canonical_enumeration():
    # every nonzero vector scaled by the inverse of its first nonzero
    # coordinate, once each, sorted by the position of that coordinate
    # and then by codes: the points yielded, in order, for P^1..P^3 over
    # F_2, F_4, F_5 and F_9
    for p, k in ((2, 1), (2, 2), (5, 1), (3, 2)):
        field = ExtField(p, k)
        for nvars in (2, 3, 4):
            seen = {}
            for vector in product(range(field.order), repeat=nvars):
                if not any(vector):
                    continue
                pivot = next(i for i, c in enumerate(vector) if c)
                scale = field.inv(vector[pivot])
                point = tuple(field.mul(c, scale) for c in vector)
                seen.setdefault(point, (pivot, point))
            want = sorted(seen, key=seen.get)
            got = list(projective_points(field, nvars))
            assert got == want, (p, k, nvars)
            q = field.order
            assert len(got) == (q ** nvars - 1) // (q - 1)


def test_field_order_cap():
    with pytest.raises(DomainError):
        ExtField(257, 2)
    assert ExtField(65521, 1).order == 65521


def test_null_space():
    rng = random.Random(97)
    for p in (2, 5, 7):
        for _ in range(20):
            rows = rng.randint(0, 4)
            cols = rng.randint(1, 5)
            m = [[rng.randrange(p) for _ in range(cols)]
                 for _ in range(rows)]
            kernel = null_space(m, p, cols)
            assert len(kernel) == cols - rank(m, p)
            assert all(len(v) == cols for v in kernel)
            assert not any(sum(a * b for a, b in zip(row, v)) % p
                           for row in m for v in kernel)
            assert rank(kernel, p) == len(kernel)
