"""Exact row reduction over a prime field (numpy int64 matrices).

Matrices hold canonical residues in [0, p).  The engine solves only for
kernels and ranks here (chart meets, separation checks); graded-subspace
bases come from the Gröbner kernel.  Matrices returned here are treated
as immutable by the callers.
"""

from __future__ import annotations

import numpy as np


def rref(matrix: np.ndarray, p: int) -> tuple:
    """Reduced row echelon form over F_p.

    Returns (reduced matrix without zero rows, pivot column indices).
    """
    m = np.array(matrix, dtype=np.int64) % p
    if m.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        lead = r + int(nz[0])
        if lead != r:
            m[[r, lead]] = m[[lead, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r].copy(), tuple(pivots)


def rank(matrix: np.ndarray, p: int) -> int:
    return rref(matrix, p)[0].shape[0]


def null_space(matrix: np.ndarray, p: int) -> np.ndarray:
    """Basis of {v : matrix @ v = 0} over F_p, one vector per row: the
    vector of each free column of the RREF."""
    reduced, pivots = rref(matrix, p)
    cols = reduced.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, c in enumerate(free):
        basis[i, c] = 1
        basis[i, list(pivots)] = (-reduced[:, c]) % p
    return basis
