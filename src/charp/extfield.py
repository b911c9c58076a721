"""Finite extensions F_{p^k} as lookup tables, and projective points
over them.

The extension is F_p[t]/(mu) for a monic irreducible mu of degree k,
the first one in a fixed search order.  An element is the integer code
c_0 + c_1*p + ... + c_(k-1)*p^(k-1) of its canonical residue
c_0 + c_1*t + ... + c_(k-1)*t^(k-1), so the prime field is the codes
0..p-1 and the codes enumerate the field in a fixed order.  Each field
builds its tables once, as lists: the log/antilog tables of a primitive
element (multiplication adds logs mod p^k - 1) and, for k >= 2, the
digits of every code packed into one integer, WIDTH bits a digit, so
that adding packed codes adds digits with no carry between them.  A
form is evaluated one point at a time (`ExtField.evaluator`): over F_p
by `MultiPoly.evaluate`, over F_{p^k} in the log domain with packed
sums.  The tables are capped at p^k <= MAX_ORDER, and the points one
check enumerates at MAX_POINTS.  A field is never changed once built,
so `_cached_field` keeps the last few for reuse.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import mul
from typing import Callable, Iterator, List, Sequence

from .errors import DomainError
from .ring import MultiPoly

MAX_ORDER = 1 << 16   # largest p^k given tables; every prime field fits
MAX_POINTS = 1 << 24  # most projective points one check enumerates
WIDTH = 40            # bits of a packed digit: 2^32 digits below 2^8 sum
                      # below 2^40, and k >= 2 gives p < 2^8


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


def _log_tables(p: int, k: int, modulus: List[int]) -> tuple:
    """(antilog, log) of the first primitive element in code order.

    A candidate g multiplies a residue a = sum a_j t^j as
    sum a_j * (g t^j), so the digits of g t^j (g shifted up j times,
    the top digit folded back with the modulus) are all a step needs;
    the powers of g are the orbit of 1, and g is primitive when that
    orbit holds every nonzero code.  For k >= 2 the codes below p are
    F_p, whose units have order dividing p - 1 < p^k - 1, so the search
    starts at p."""
    order = p ** k
    place = [p ** i for i in range(k)]
    for g in range(1 if k == 1 else p, order):
        columns = [_digits(g, p, k)]
        for _ in range(k - 1):
            top = columns[-1][-1]
            shifted = [0] + columns[-1][:-1]
            columns.append([(d - top * c) % p
                            for d, c in zip(shifted, modulus)])
        rows = list(zip(*columns))  # digit i of g t^j, by i then j
        antilog = [1]
        power = columns[0]
        while True:
            code = sum(map(mul, power, place))
            if code == 1:
                break
            antilog.append(code)
            power = [sum(map(mul, power, row)) % p for row in rows]
        if len(antilog) == order - 1:
            log = [0] * order
            for i, code in enumerate(antilog):
                log[code] = i
            return antilog, log
    raise DomainError(f"F_{order} has no primitive element")  # unreachable


class ExtField:
    """F_{p^k} with its elements coded as integers in [0, p^k); for
    k = 1 the codes are the residues mod p, as MultiPoly stores them."""

    def __init__(self, p: int, k: int):
        if k < 1:
            raise DomainError(f"extension degree must be >= 1, got {k}")
        if p ** k > MAX_ORDER:
            raise DomainError(
                f"point sampling supports fields of order <= {MAX_ORDER}, "
                f"got {p}^{k}")
        self.p = p
        self.k = k
        self._exp, self._log = _log_tables(p, k, _find_irreducible(p, k))
        if k > 1:
            self._packed = [sum(d << (WIDTH * i)
                                for i, d in enumerate(_digits(c, p, k)))
                            for c in self._exp]

    @property
    def order(self) -> int:
        return self.p ** self.k

    # -- arithmetic on codes ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        """The inverse of a nonzero code."""
        if not a:
            raise DomainError("zero has no inverse")
        return self._exp[-self._log[a] % (self.order - 1)]

    def evaluator(self, f: MultiPoly) -> Callable[[Sequence[int]], int]:
        """The map from a point's codes (one per variable) to the code of
        f's value there.  Over F_p the codes are residues, and this is
        `MultiPoly.evaluate`.  Over F_{p^k} a term is zero when a
        variable it uses is, else the antilog of
        log c + sum e_i log x_i; the terms' packed digits are summed and
        each digit is reduced mod p once."""
        p, k = self.p, self.k
        if k == 1:
            return f.evaluate
        terms = [(c, [(i, e) for i, e in enumerate(exps) if e])
                 for exps, c in f._terms.items()]
        nvars = f.ring.nvars
        n = self.order - 1
        packed = self._packed
        # zero's log is below minus every sum of the other logs in a term,
        # so a term is nonzero exactly when its sum of logs is >= 0
        log = self._log[:]
        log[0] = -n * (1 + max((sum(e for _, e in used) for _, used in terms),
                               default=0))
        logs = [(log[c], used) for c, used in terms]
        mask = (1 << WIDTH) - 1
        shifts = [(WIDTH * i, p ** i) for i in range(k)]

        def value(point: Sequence[int]) -> int:
            if len(point) != nvars:
                raise DomainError("wrong number of coordinates")
            total = 0
            for s, used in logs:
                for i, e in used:
                    s += e * log[point[i]]
                if s >= 0:
                    total += packed[s % n]
            return sum((total >> shift & mask) % p * w for shift, w in shifts)
        return value

    def label(self, code: int) -> str:
        """The residue of a code written as a polynomial in t, highest
        degree first, as MultiPoly prints it."""
        digits = _digits(code, self.p, self.k)
        chunks = []
        for i in reversed(range(self.k)):
            c = digits[i]
            power = "t" if i == 1 else f"t^{i}"
            if c:
                chunks.append(str(c) if i == 0 else
                              power if c == 1 else f"{c}*{power}")
        return " + ".join(chunks) or "0"


@lru_cache(maxsize=4)
def _cached_field(p: int, k: int) -> ExtField:
    """ExtField(p, k), built once per (p, k) among the last few asked for."""
    return ExtField(p, k)


def projective_points(field: ExtField, nvars: int) -> Iterator[tuple]:
    """Canonical representatives of the projective points, as tuples of
    codes: first nonzero coordinate equal to 1, grouped by that
    coordinate, later coordinates in code order with the leftmost
    varying slowest."""
    codes = range(field.order)
    for pivot in range(nvars):
        head = (0,) * pivot + (1,)
        for tail in product(codes, repeat=nvars - pivot - 1):
            yield head + tail
