"""Row reduction over F_p and the adjoined-root field extensions."""

import random

import numpy as np
import pytest

from charp import extfield
from charp.errors import DomainError
from charp.extfield import ExtField, evaluate_poly, projective_points
from charp.linalg import in_row_space, null_space, rank, reduce_vector, rref
from charp.ring import PolyRing


def test_rref_canonical_and_idempotent():
    rng = random.Random(401)
    for p in (2, 5, 7):
        for _ in range(20):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = np.array([[rng.randrange(p) for _ in range(cols)]
                          for _ in range(rows)])
            reduced, pivots = rref(m, p)
            again, pivots2 = rref(reduced, p)
            assert (reduced == again).all() and pivots == pivots2
            # pivot columns are unit vectors
            for r, c in enumerate(pivots):
                col = reduced[:, c]
                assert col[r] == 1 and (np.delete(col, r) == 0).all()


def test_row_space_membership():
    p = 5
    basis, pivots = rref(np.array([[1, 2, 0], [0, 0, 1]]), p)
    assert in_row_space(np.array([2, 4, 3]), basis, pivots, p)
    assert not in_row_space(np.array([0, 1, 0]), basis, pivots, p)
    assert rank(np.array([[1, 2], [2, 4]]), p) == 1


def test_residual_vector_is_reduced():
    p = 7
    basis, pivots = rref(np.array([[1, 3, 5], [0, 1, 2]]), p)
    residual = reduce_vector(np.array([4, 2, 6]), basis, pivots, p)
    for c in pivots:
        assert residual[c] == 0


def test_extension_field_arithmetic():
    for p, k in ((5, 2), (7, 2), (2, 3), (3, 3)):
        field = ExtField(p, k)
        elements = list(field.elements())
        assert len(elements) == p ** k
        nonzero = [a for a in elements if not a.is_zero]
        for a in nonzero[:20]:
            assert (a * a.inverse()) == field.one
            assert (a ** (p ** k - 1)) == field.one
        with pytest.raises(DomainError):
            field.zero.inverse()


def test_extension_degree_bounds():
    with pytest.raises(DomainError):
        ExtField(5, 0)
    with pytest.raises(DomainError):
        ExtField(5, 4)


def test_modulus_irreducible():
    for p, k in ((2, 2), (3, 2), (5, 3)):
        field = ExtField(p, k)
        mu = field.modulus
        assert mu.degree() == k
        assert all(mu.evaluate((v,)) != 0 for v in range(p))


def test_projective_point_counts():
    field = ExtField(5, 1)
    assert len(list(projective_points(field, 2))) == 6       # P^1(F_5)
    assert len(list(projective_points(field, 3))) == 31      # P^2(F_5)
    ext = ExtField(5, 2)
    assert len(list(projective_points(ext, 2))) == 26        # P^1(F_25)


def test_evaluate_poly_over_extension():
    ring = PolyRing(("x", "y"), 5)
    f = ring.parse("x^2 + 2*y^2")
    field = ExtField(5, 2)
    for coords in list(projective_points(field, 2))[:10]:
        direct = (coords[0] ** 2) + (field.from_int(2) * coords[1] ** 2)
        assert evaluate_poly(f, coords, field) == direct


def _residue(poly, modulus):
    """Remainder of a polynomial in t on division by the monic modulus."""
    ring = poly.ring
    k = modulus.degree()
    while not poly.is_zero and poly.degree() >= k:
        lead = poly.leading_exponent()
        shift = (lead[0] - k,)
        poly = poly - modulus.mul_monomial(shift, poly.coefficient(lead))
    return poly


def test_table_arithmetic_matches_polynomial_residues():
    # the log/antilog and digit tables against arithmetic of residues in
    # F_p[t]/(mu), and the printed element against the printed residue
    for p, k in ((5, 2), (7, 2), (2, 3), (3, 3)):
        field = ExtField(p, k)
        ring = PolyRing(("t",), p)
        mu = field.modulus
        residues = []
        for code in range(field.order):
            digits = [(code // p ** i) % p for i in range(k)]
            residues.append(ring.poly({(i,): c for i, c in enumerate(digits) if c}))
        code_of = {r: code for code, r in enumerate(residues)}
        elements = list(field.elements())
        for a, ra in zip(elements, residues):
            assert str(a) == str(ra)
            assert (-a).code == code_of[-ra]
            for b, rb in zip(elements, residues):
                assert (a + b).code == code_of[ra + rb]
                assert (a * b).code == code_of[_residue(ra * rb, mu)]
        codes = np.arange(field.order)
        products = field.mul(codes[:, None], codes[None, :])
        for a, ra in zip(elements, residues):
            want = [code_of[_residue(ra * rb, mu)] for rb in residues]
            assert products[a.code].tolist() == want


def test_element_rendering():
    field = ExtField(5, 2)
    assert str(field.element([2, 1])) == "t + 2"
    assert str(field.element([0, 3])) == "3*t"
    assert str(field.zero) == "0" and str(field.one) == "1"
    cube = ExtField(3, 3)
    assert str(cube.element([1, 0, 2])) == "2*t^2 + 1"
    with pytest.raises(DomainError):
        field.element([1, 2, 3])


def test_point_blocks_keep_the_enumeration_order(monkeypatch):
    field = ExtField(3, 2)
    whole = [tuple(map(str, P)) for P in projective_points(field, 4)]
    assert len(whole) == 9 ** 3 + 9 ** 2 + 9 + 1
    monkeypatch.setattr(extfield, "BLOCK_ROWS", 10)
    blocks = list(extfield.projective_point_blocks(field, 4))
    assert max(len(b) for b in blocks) <= 10
    assert [tuple(map(str, P)) for P in projective_points(field, 4)] == whole


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
            m = np.array([[rng.randrange(p) for _ in range(cols)]
                          for _ in range(rows)], dtype=np.int64).reshape(rows, cols)
            kernel = null_space(m, p)
            assert kernel.shape == (cols - rank(m, p), cols)
            assert not ((m @ kernel.T) % p).any()
            assert rank(kernel, p) == len(kernel)
