"""Finite extensions F_{p^k} as lookup tables, and projective points
over them.

The extension is F_p[t]/(mu) for a monic irreducible mu of degree k,
the first one in a fixed search order.  An element is the integer code
c_0 + c_1*p + ... + c_(k-1)*p^(k-1) of its canonical residue
c_0 + c_1*t + ... + c_(k-1)*t^(k-1), so the prime field is the codes
0..p-1 and the codes enumerate the field in a fixed order.  Each field
builds its tables once: the base-p digits of every code (addition is
digit-wise mod p) and the log/antilog tables of a primitive element
(multiplication adds logs mod p^k - 1).  The arithmetic works on numpy
arrays of codes, so a form is evaluated at every point in one pass.
The tables are capped at p^k <= MAX_ORDER, and the points one check
enumerates at MAX_POINTS.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, List

import numpy as np

from .errors import DomainError
from .ring import MultiPoly

MAX_ORDER = 1 << 16   # largest p^k given tables; every prime field fits
BLOCK_ROWS = 1 << 16  # points enumerated per array, to bound memory
MAX_POINTS = 1 << 24  # most projective points one check enumerates


def _digits(code: int, p: int, k: int) -> List[int]:
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return out


def _divides(g: List[int], f: List[int], p: int) -> bool:
    """Whether the monic g divides f (coefficients, lowest degree first)."""
    rest = list(f)
    d = len(g) - 1
    for top in range(len(rest) - 1, d - 1, -1):
        c = rest[top]
        for i, gi in enumerate(g):
            rest[top - d + i] = (rest[top - d + i] - c * gi) % p
    return not any(rest)


def _find_irreducible(p: int, k: int) -> List[int]:
    """Low-order coefficients c_0..c_(k-1) of the first monic
    mu = t^k + c_(k-1)*t^(k-1) + ... + c_0, searched by the code of its
    tail, with no monic factor of degree <= k/2 (found by trial
    division; for k <= 3 this says mu has no root in F_p)."""
    for tail in range(p ** k):
        mu = _digits(tail, p, k) + [1]
        if not any(_divides(_digits(g, p, d) + [1], mu, p)
                   for d in range(1, k // 2 + 1) for g in range(p ** d)):
            return mu[:-1]
    raise DomainError(f"no irreducible polynomial of degree {k} found")  # unreachable


def _log_tables(p: int, k: int, modulus: List[int],
                digits: np.ndarray, place: np.ndarray) -> tuple:
    """(antilog, log) of the first primitive element in code order.

    `digits` holds the base-p digits of every code.  Shifting them up and
    folding the top one back with the modulus gives the code of t * c for
    every code c, and composing that map the codes of t^i * c.  A
    candidate g = sum g_i t^i then multiplies every code at once as
    sum g_i * (t^i * c), and the powers of g are the orbit of 1."""
    order = p ** k
    shifted = np.concatenate(
        [np.zeros((order, 1), dtype=np.int64), digits[:, :-1]], axis=1)
    times_t = ((shifted - digits[:, -1:] * modulus) % p) @ place
    tower = [np.arange(order)]
    for _ in range(k - 1):
        tower.append(times_t[tower[-1]])
    for g in range(1, order):
        times_g = (sum(int(gi) * digits[t] for gi, t in zip(digits[g], tower))
                   % p) @ place
        step = times_g.tolist()
        antilog = [1]
        power = step[1]
        while power != 1 and len(antilog) < order:
            antilog.append(power)
            power = step[power]
        if len(antilog) == order - 1:
            exp = np.array(antilog, dtype=np.int64)
            log = np.zeros(order, dtype=np.int64)
            log[exp] = np.arange(order - 1, dtype=np.int64)
            return exp, log
    raise DomainError(f"F_{order} has no primitive element")  # unreachable


class ExtField:
    """F_{p^k} with its elements coded as integers in [0, p^k)."""

    def __init__(self, p: int, k: int):
        if k < 1:
            raise DomainError(f"extension degree must be >= 1, got {k}")
        if p ** k > MAX_ORDER:
            raise DomainError(
                f"point sampling supports fields of order <= {MAX_ORDER}, "
                f"got {p}^{k}")
        self.p = p
        self.k = k
        self._place = np.array([p ** i for i in range(k)], dtype=np.int64)
        codes = np.arange(self.order, dtype=np.int64)
        self._digits = (codes[:, None] // self._place) % p
        self._exp, self._log = _log_tables(p, k, _find_irreducible(p, k),
                                           self._digits, self._place)

    @property
    def order(self) -> int:
        return self.p ** self.k

    # -- arithmetic on arrays of codes -------------------------------------

    def mul(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        logs = (self._log[a] + self._log[b]) % (self.order - 1)
        return np.where((a == 0) | (b == 0), 0, self._exp[logs])

    def inv(self, a):
        """Inverses of nonzero codes."""
        a = np.asarray(a)
        if (a == 0).any():
            raise DomainError("zero has no inverse")
        return self._exp[(-self._log[a]) % (self.order - 1)]

    def evaluate(self, f: MultiPoly, points: np.ndarray) -> np.ndarray:
        """Values of f at every row of a (points x nvars) code array."""
        points = np.asarray(points, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != f.ring.nvars:
            raise DomainError("wrong number of coordinates")
        logs = self._log[points]
        vanishing = points == 0
        total = np.zeros((points.shape[0], self.k), dtype=np.int64)
        for exps, c in f._terms.items():
            used = [i for i, e in enumerate(exps) if e]
            weights = np.array([exps[i] for i in used], dtype=np.int64)
            term = (logs[:, used] @ weights + self._log[c]) % (self.order - 1)
            value = np.where(vanishing[:, used].any(axis=1), 0, self._exp[term])
            total += self._digits[value]
        return (total % self.p) @ self._place

    def label(self, code: int) -> str:
        """The residue of a code written as a polynomial in t, highest
        degree first, as MultiPoly prints it."""
        digits = _digits(int(code), self.p, self.k)
        chunks = []
        for i in reversed(range(self.k)):
            c = digits[i]
            power = "t" if i == 1 else f"t^{i}"
            if c:
                chunks.append(str(c) if i == 0 else
                              power if c == 1 else f"{c}*{power}")
        return " + ".join(chunks) or "0"


def projective_point_blocks(field: ExtField,
                            nvars: int) -> Iterator[np.ndarray]:
    """Canonical representatives of the projective points, as
    (points x nvars) code arrays of at most BLOCK_ROWS rows: first
    nonzero coordinate equal to 1, grouped by that coordinate, later
    coordinates in code order with the leftmost varying slowest."""
    q = field.order
    for pivot in range(nvars):
        slots = nvars - pivot - 1
        free = 0  # trailing coordinates enumerated inside one block
        while free < slots and q ** (free + 1) <= BLOCK_ROWS:
            free += 1
        if free:
            tails = np.indices((q,) * free, dtype=np.int64).reshape(free, -1).T
        else:
            tails = np.zeros((1, 0), dtype=np.int64)
        for head in product(range(q), repeat=slots - free):
            block = np.zeros((len(tails), nvars), dtype=np.int64)
            block[:, pivot] = 1
            block[:, pivot + 1:nvars - free] = head
            block[:, nvars - free:] = tails
            yield block
