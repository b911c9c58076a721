"""Exact row reduction over a prime field, on lists of residue rows.

A matrix is a list of rows, each a list of canonical residues in
[0, p) of one common length.  The engine solves only for kernels and
ranks here (chart meets, separation checks); graded-subspace bases
come from the Gröbner kernel.  Matrices returned here are treated as
immutable by the callers.
"""

from __future__ import annotations

from typing import List, Sequence


def rref(matrix: Sequence[Sequence[int]], p: int) -> tuple:
    """Reduced row echelon form over F_p.

    Returns (reduced rows without zero rows, pivot column indices).
    Row r is the pivot row of the r-th pivot column c; every row at or
    below it is zero left of c, so each step works on columns c.. only.
    """
    m = [[x % p for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        lead = next((i for i in range(r, rows) if m[i][c]), None)
        if lead is None:
            continue
        m[r], m[lead] = m[lead], m[r]
        pivot = m[r]
        inv = pow(pivot[c], -1, p)
        if inv != 1:
            pivot[c:] = [x * inv % p for x in pivot[c:]]
        tail = pivot[c:]
        for i in range(rows):
            f = m[i][c]
            if f and i != r:
                row = m[i]
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return m[:r], tuple(pivots)


def rank(matrix: Sequence[Sequence[int]], p: int) -> int:
    return len(rref(matrix, p)[0])


def null_space(matrix: Sequence[Sequence[int]], p: int,
               cols: int) -> List[List[int]]:
    """Basis of {v : matrix . v = 0} over F_p for a matrix of `cols`
    columns (any number of rows, none included), one vector per free
    column of the RREF, in column order."""
    reduced, pivots = rref(matrix, p)
    taken = set(pivots)
    basis = []
    for c in range(cols):
        if c in taken:
            continue
        v = [0] * cols
        v[c] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[c] % p
        basis.append(v)
    return basis
