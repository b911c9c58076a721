"""Sparse multivariate polynomials over a prime field F_p.

Coefficients are canonical integer residues in [0, p); exponent vectors
are tuples of non-negative ints, one slot per declared variable.  The
ring descriptor fixes the variable names and the characteristic.  The
one monomial order is graded reverse lexicographic (grevlex); a
computation that needs another variable last permutes the variables.

A `Packing` turns a monomial into an integer key whose integer order is
grevlex and which adds under multiplication (Monagan–Pearce, packed
exponent vectors), one per number of variables and digit width.  A key
is exact only while the total degree stays below the packing's limit,
so nothing packs a monomial without checking that first; the Gröbner
kernel in `ideal.py` picks the width from the degrees before it packs.

Products, powers and the parser work on term dicts {exponents: residue}
and wrap a `MultiPoly` around the result once.  A power raises a
one-term polynomial by scaling its exponent; any other polynomial is
raised digit by digit in base p, f^n = prod_i (f^(n_i))^[p^i] for
n = sum_i n_i p^i, since the Frobenius f -> f^p only scales exponents
over F_p.  The parser tokenizes in one `findall` pass and evaluates
its recursive descent on term dicts.  A product folds its runs of
variables and numbers, each with at most one numeric exponent, into one
exponent vector and one coefficient; parentheses, unary signs and
stacked powers take the general factor rule.  It bounds the nesting of
parentheses and unary signs by MAX_NESTING, and refuses a power whose
degree would pass the `max_degree` cap before forming it.  A token's
column is computed only when an error message names it.

Values are immutable after construction and safe to share across
threads.  A polynomial memoises its leading exponent, and the division
kernel its packed terms per packing, on first use.  Both are functions
of the terms alone and never enter equality or hashing; two threads
that fill the same slot at once store equal values.
"""

from __future__ import annotations

import re
from functools import cache
from operator import add, neg
from typing import Iterator, Mapping, Optional, Sequence, Union

from .config import Frozen, check_degree, current_caps
from .errors import DomainError, ParseError, RingMismatchError

Exponents = tuple  # tuple[int, ...]

MAX_CHARACTERISTIC = 1 << 16

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def grevlex_key(exps: Exponents):
    """Sort key: larger key means larger monomial in grevlex."""
    return (sum(exps), tuple(map(neg, reversed(exps))))


class Packing:
    """Packed integer keys of grevlex monomials at one digit width.

    Exponents (e_0, ..., e_(n-1)) give the digits s_(n-1), ..., s_0,
    most significant first, where s_j = e_0 + ... + e_j: s_(n-1) is the
    degree, and a larger s_(j-1) at equal s_j means a smaller e_j, which
    is how grevlex breaks ties.  The key is these digits in base
    B = 2^width, so comparing keys as integers compares monomials in
    grevlex.  Every digit is linear in the exponents and at most the
    degree, so while the degree stays below `limit` = B/2:

      * pack(a) + pack(b) = pack(a + b): multiplying by a monomial adds
        its key;
      * the key is exact, and `direct` recovers the exponents field by
        field, each field with a spare top bit, so a monomial a divides
        b exactly when (direct(b) - direct(a)) & guard == 0 (no field
        borrows).

    Keys are only ever formed below the limit: the kernel in `ideal.py`
    picks the narrowest width above every degree before it packs.
    """

    def __init__(self, nvars: int, width: int):
        self.width = width
        self.limit = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.guard = sum(self.limit << (width * i) for i in range(nvars))
        self._top = width * nvars           # just above the degree digit
        self._degree_shift = self._top - width
        self._nvars = nvars

    def pack(self, exps: Exponents) -> int:
        w, key, s = self.width, 0, sum(exps)
        for e in reversed(exps):
            key = (key << w) | s
            s -= e
        return key

    def direct(self, key: int):
        """(exponents packed one field per variable, degree).

        (B - 1) * (the digits) = d * B^n - (the fields) for the degree d,
        so the fields are a few integer operations away from the key."""
        degree = key >> self._degree_shift
        return (degree << self._top) - (key << self.width) + key, degree

    def unpack(self, key: int) -> Exponents:
        fields, _ = self.direct(key)
        w, mask = self.width, self.mask
        return tuple((fields >> (w * v)) & mask for v in range(self._nvars))


@cache
def grevlex_packing(nvars: int, width: int) -> Packing:
    """The packing of monomials in nvars variables at this digit width,
    built once per pair."""
    return Packing(nvars, width)


class PolyRing(Frozen):
    """Descriptor for F_p[variables] with the fixed grevlex order."""

    FIELDS = ("variables", "p")

    def __init__(self, variables: tuple, p: int):
        if not (2 <= p <= MAX_CHARACTERISTIC and is_prime(p)):
            raise DomainError(f"characteristic must be a prime <= 2^16, got {p}")
        if not variables:
            raise DomainError("a polynomial ring needs at least one variable")
        seen = set()
        for name in variables:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise DomainError(f"invalid variable name {name!r}")
            if name in seen:
                raise DomainError(f"duplicate variable name {name!r}")
            seen.add(name)
        vars(self).update(variables=variables, p=p)

    def __eq__(self, other):
        # rings are shared far more often than rebuilt: identity first
        if self is other:
            return True
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.p == other.p and self.variables == other.variables

    def __hash__(self):
        return hash((self.variables, self.p))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.constant(1)

    def constant(self, c: int) -> "MultiPoly":
        c %= self.p
        zero_exp = (0,) * self.nvars
        return MultiPoly(self, {zero_exp: c} if c else {})

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "MultiPoly":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise DomainError(f"bad exponent vector {exps} for {self}")
        coeff %= self.p
        return MultiPoly(self, {exps: coeff} if coeff else {})

    def gen(self, which: Union[int, str]) -> "MultiPoly":
        if isinstance(which, str):
            try:
                which = self.variables.index(which)
            except ValueError:
                raise DomainError(f"no variable {which!r} in {self}") from None
        exps = tuple(1 if i == which else 0 for i in range(self.nvars))
        return MultiPoly(self, {exps: 1})

    def gens(self) -> tuple:
        return tuple(self.gen(i) for i in range(self.nvars))

    def poly(self, terms: Mapping[Exponents, int]) -> "MultiPoly":
        out = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise DomainError(f"bad exponent vector {exps} for {self}")
            c = int(c) % self.p
            if c:
                out[exps] = (out.get(exps, 0) + c) % self.p
                if not out[exps]:
                    del out[exps]
        return MultiPoly(self, out)

    def parse(self, text: str) -> "MultiPoly":
        return _parse_poly(self, text)

    def __str__(self):
        return f"F_{self.p}[{', '.join(self.variables)}]"


# -- term dicts {exponents: residue} ------------------------------------


def _mul_terms(a: dict, b: dict, p: int) -> dict:
    """The product of two term dicts; a one-term factor shifts the other's
    exponents.  Never returns an input."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (ea, ca), = a.items()
        # p is prime, so no product of nonzero residues vanishes
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


def _frobenius_terms(terms: dict, q: int) -> dict:
    """The terms raised to a power q of the characteristic: exponents
    times q, coefficients fixed (Frobenius fixes F_p)."""
    return {tuple(a * q for a in exps): c for exps, c in terms.items()}


def _pow_terms(terms: dict, n: int, p: int, one: Exponents) -> dict:
    """terms^n for n >= 0, `one` the zero exponent vector.

    A one-term dict (or none) raises its exponent and coefficient
    directly.  Otherwise f^n = prod_i (f^(n_i))^[p^i] over the base-p
    digits n_i of n: each distinct digit is one power by squaring below
    p, and the rest is exponent scaling.  Never returns an input."""
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
                power = digit_powers[digit] = _square_and_multiply(terms, digit, p)
            result = _mul_terms(result, _frobenius_terms(power, q) if q > 1
                                else power, p)
        q *= p
    return result


def _square_and_multiply(terms: dict, n: int, p: int) -> dict:
    """terms^n for n >= 1 by binary powering; for n = 1 the input itself."""
    result = None
    while True:
        if n & 1:
            result = terms if result is None else _mul_terms(result, terms, p)
        n >>= 1
        if not n:
            return result
        terms = _mul_terms(terms, terms, p)


class MultiPoly:
    """Immutable sparse polynomial: dict from exponent tuples to residues.

    No zero coefficients are stored; arithmetic is exact.  The leading
    exponent, and the division kernel in `ideal.py` its packed terms per
    `Packing`, are memoised on first use; they depend only on the terms,
    so they never enter equality or hashing.
    """

    __slots__ = ("ring", "_terms", "_lead", "_packed")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self._terms = terms
        self._lead = None     # leading exponent
        self._packed = None   # Packing -> divisor record, see ideal._divisor

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self._terms)

    def constant_value(self) -> int:
        """The coefficient of the constant term."""
        return self._terms.get((0,) * self.ring.nvars, 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(map(sum, self._terms))

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self._terms))) <= 1

    def num_terms(self) -> int:
        return len(self._terms)

    def iter_terms(self) -> Iterator:
        """(exponents, coefficient) pairs in descending grevlex order."""
        for exps in sorted(self._terms, key=grevlex_key, reverse=True):
            yield exps, self._terms[exps]

    def coefficient(self, exps: Exponents) -> int:
        return self._terms.get(tuple(exps), 0)

    def leading_exponent(self) -> Exponents:
        lead = self._lead
        if lead is None:
            if not self._terms:
                raise DomainError("zero polynomial has no leading term")
            lead = self._lead = max(self._terms, key=grevlex_key)
        return lead

    def leading_coefficient(self) -> int:
        return self._terms[self.leading_exponent()]

    @classmethod
    def from_packed(cls, ring: PolyRing, packing: Packing,
                    keys: Sequence[int], coeffs: Sequence[int]) -> "MultiPoly":
        """The polynomial with these packed terms, keys descending; its
        leading exponent comes cached."""
        exps = [packing.unpack(k) for k in keys]
        poly = cls(ring, dict(zip(exps, coeffs)))
        if exps:
            poly._lead = exps[0]
        return poly

    def monic(self) -> "MultiPoly":
        if not self._terms:
            return self
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        inv = pow(lc, -1, self.ring.p)
        return self.scale(inv)

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def _coerce(self, other) -> Optional["MultiPoly"]:
        if isinstance(other, MultiPoly):
            self._check_ring(other)
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ring.p
        out = dict(self._terms)
        for exps, c in other._terms.items():
            s = (out.get(exps, 0) + c) % p
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return MultiPoly(self.ring, {e: (-c) % p for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def scale(self, c: int) -> "MultiPoly":
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        p = self.ring.p
        scaled = MultiPoly(self.ring, {e: (k * c) % p for e, k in self._terms.items()})
        scaled._lead = self._lead  # same terms, same leading exponent
        return scaled

    def mul_monomial(self, exps: Exponents) -> "MultiPoly":
        return MultiPoly(self.ring, _mul_terms({exps: 1}, self._terms,
                                               self.ring.p))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly(self.ring, _mul_terms(self._terms, other._terms,
                                               self.ring.p))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise DomainError("negative polynomial powers are not defined")
        ring = self.ring
        return MultiPoly(ring, _pow_terms(self._terms, n, ring.p,
                                          (0,) * ring.nvars))

    # -- substitution --------------------------------------------------

    def evaluate(self, values: Sequence[int]) -> int:
        """Evaluate at a rational point (tuple of residues)."""
        if len(values) != self.ring.nvars:
            raise DomainError("wrong number of coordinates")
        p = self.ring.p
        total = 0
        for exps, c in self._terms.items():
            term = c
            for v, e in zip(values, exps):
                if e:
                    term = (term * pow(v % p, e, p)) % p
            total = (total + term) % p
        return total

    def shift(self, point: Sequence[Optional[int]]) -> "MultiPoly":
        """Substitute x_i -> x_i + c_i for every constrained coordinate.

        Coordinates given as None are left untouched.  Each shifted term
        is folded into one term dict, and each power (x_i + c_i)^e is
        formed once."""
        if len(point) != self.ring.nvars:
            raise DomainError("wrong number of coordinates")
        ring = self.ring
        p = ring.p
        one = (0,) * ring.nvars
        shifts = [None if c is None or c % p == 0
                  else {one[:i] + (1,) + one[i + 1:]: 1, one: c % p}
                  for i, c in enumerate(point)]
        powers: dict = {}
        out: dict = {}
        for exps, coeff in self._terms.items():
            plain = tuple(0 if shifts[i] else e for i, e in enumerate(exps))
            term = {plain: coeff}
            for i, e in enumerate(exps):
                if e and shifts[i]:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = _pow_terms(shifts[i], e, p, one)
                    term = _mul_terms(term, power, p)
            for k, c in term.items():
                s = (out.get(k, 0) + c) % p
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return MultiPoly(ring, out)

    def derivative(self, index: int) -> "MultiPoly":
        """Formal partial derivative in the given variable."""
        p = self.ring.p
        out = {}
        for exps, c in self._terms.items():
            coeff = (c * exps[index]) % p
            if coeff:
                ne = list(exps)
                ne[index] -= 1
                out[tuple(ne)] = coeff
        return MultiPoly(self.ring, out)

    # -- comparison / hashing / display --------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        if not self._terms:
            return "0"
        names = self.ring.variables
        chunks = []
        for exps, c in self.iter_terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                chunks.append(str(c))
            elif c == 1:
                chunks.append("*".join(factors))
            else:
                chunks.append(f"{c}*" + "*".join(factors))
        return " + ".join(chunks)

    def __repr__(self):
        return f"MultiPoly({self})"


# -- parsing -----------------------------------------------------------

# one token; once `_BAD_RE` finds nothing, every character outside the
# tokens is whitespace, which `findall` steps over
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|\*\*|[-+*()^]")
# a character that starts no token
_BAD_RE = re.compile(r"[^\s\dA-Za-z_*^+\-()]")
_POWER = ("^", "**")

# Open parentheses plus pending unary signs; the descent recurses about
# four frames per parenthesis, so this stays far below Python's limit.
MAX_NESTING = 100


def _tokenize(text: str) -> list:
    """The tokens of the text as strings, with '' appended for the end of
    input; the first character no token starts with is refused at its
    column."""
    bad = _BAD_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}",
                         column=bad.start() + 1)
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


def _shown(token: str) -> str:
    """A token as messages show it: both power operators read '^'."""
    return "^" if token == "**" else token


class _Parser:
    """Recursive-descent parser for '+', '-', '*', '^' and parentheses.

    Every rule returns a term dict {exponents: residue} that the parser
    owns, so sums and signs update it in place; `parse` wraps the final
    one in a MultiPoly.  A product folds its runs of variables and
    numbers, each with at most one numeric exponent, into one exponent
    vector and one coefficient; parentheses, unary signs and stacked
    powers go through `factor`.  Tokens are plain strings, and a
    token's column is computed only for a message that names it."""

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.p = ring.p
        self.one = (0,) * ring.nvars
        self.index = {name: i for i, name in enumerate(ring.variables)}
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0

    def column(self, index: int) -> int:
        """The column of the token at this index."""
        for k, m in enumerate(_TOKEN_RE.finditer(self.text)):
            if k == index:
                return m.start() + 1
        return len(self.text) + 1

    def nest(self, index: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             column=self.column(index))

    def check_power(self, degree: int, index: int):
        """The degree cap on a power whose '^' is the token at this index."""
        if degree > current_caps().max_degree:
            check_degree(degree, "power", f" at column {self.column(index)}")

    def parse(self) -> MultiPoly:
        terms = self.expr()
        token = self.tokens[self.idx]
        if token:
            raise ParseError(f"unexpected trailing {_shown(token)!r}",
                             column=self.column(self.idx))
        return MultiPoly(self.ring, terms)

    def expr(self) -> dict:
        result = self.term()
        tokens, p = self.tokens, self.p
        while True:
            token = tokens[self.idx]
            if token != "+" and token != "-":
                return result
            self.idx += 1
            rhs = self.term()
            sign = 1 if token == "+" else -1
            for exps, c in rhs.items():
                s = (result.get(exps, 0) + sign * c) % p
                if s:
                    result[exps] = s
                else:
                    result.pop(exps, None)

    def term(self) -> dict:
        tokens, p, index = self.tokens, self.p, self.index
        exps = list(self.one)
        coeff = 1
        product = None  # the factors that do not fold
        while True:
            i = self.idx
            token = tokens[i]
            var = index.get(token)
            end = None
            if var is not None or token.isdecimal():
                if tokens[i + 1] not in _POWER:
                    n, end = 1, i + 1
                elif tokens[i + 2].isdecimal() and tokens[i + 3] not in _POWER:
                    n, end = int(tokens[i + 2]), i + 3
                    self.check_power(0 if var is None else n, i + 1)
            if end is None:
                factor = self.factor()
                product = (factor if product is None
                           else _mul_terms(product, factor, p))
            else:
                if var is None:
                    coeff = coeff * pow(int(token), n, p) % p
                else:
                    exps[var] += n
                self.idx = end
            if tokens[self.idx] != "*":
                break
            self.idx += 1
        if not coeff:
            return {}
        monomial = {tuple(exps): coeff}
        if product is None:
            return monomial
        return _mul_terms(monomial, product, p)

    def factor(self) -> dict:
        # unary signs bind looser than '^': -x^2 is -(x^2)
        tokens = self.tokens
        outer, negate = self.depth, False
        token = tokens[self.idx]
        while token == "+" or token == "-":
            self.nest(self.idx)
            negate ^= token == "-"
            self.idx += 1
            token = tokens[self.idx]
        base = self.atom()
        while tokens[self.idx] in _POWER:
            at = self.idx
            self.idx += 2
            exponent = tokens[at + 1]
            if not exponent.isdecimal():
                raise ParseError("exponent must be a non-negative integer",
                                 column=self.column(at + 1))
            n = int(exponent)
            self.check_power(n * max(map(sum, base), default=0), at)
            base = _pow_terms(base, n, self.p, self.one)
        self.depth = outer
        if negate:
            p = self.p
            for exps, c in base.items():
                base[exps] = p - c
        return base

    def atom(self) -> dict:
        i = self.idx
        token = self.tokens[i]
        self.idx += 1
        if token.isdecimal():
            c = int(token) % self.p
            return {self.one: c} if c else {}
        var = self.index.get(token)
        if var is not None:
            return {self.one[:var] + (1,) + self.one[var + 1:]: 1}
        if token == "(":
            self.nest(i)
            inner = self.expr()
            j = self.idx
            self.idx += 1
            if self.tokens[j] != ")":
                raise ParseError(f"expected ')', found {_shown(self.tokens[j])!r}",
                                 column=self.column(j))
            self.depth -= 1
            return inner
        if token[:1] == "_" or token[:1].isalpha():
            raise ParseError(f"unknown variable {token!r}", column=self.column(i))
        raise ParseError(f"unexpected {_shown(token)!r}" if token
                         else "unexpected end of input", column=self.column(i))


def _parse_poly(ring: PolyRing, text: str) -> MultiPoly:
    if not isinstance(text, str):
        raise ParseError(f"polynomial must be a string, got {type(text).__name__}")
    return _Parser(ring, text).parse()


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Exponents]:
    """All exponent tuples of the given total degree, grevlex-descending,
    with no sort: grevlex puts a smaller last exponent first and breaks
    ties by the same order on the other variables, so the monomials are
    the last exponent ascending, each followed by the monomials of the
    remaining degree in one variable fewer.  Those are built once per
    degree, variable by variable."""
    if degree < 0:
        return
    # pieces[d]: the monomials of degree d in the variables so far
    pieces = [[()]] + [[] for _ in range(degree)]
    for _ in range(nvars - 1):
        pieces = [[head + (last,) for last in range(d + 1)
                   for head in pieces[d - last]] for d in range(degree + 1)]
    for last in range(degree + 1):
        for head in pieces[degree - last]:
            yield head + (last,)
