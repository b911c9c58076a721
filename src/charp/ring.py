"""Sparse multivariate polynomials over a prime field F_p.

Coefficients are canonical integer residues in [0, p).  The ring
descriptor fixes the variable names and the characteristic.  The one
monomial order is graded reverse lexicographic (grevlex); a computation
that needs another variable last permutes the variables.

The one exponent representation is the packed key of `Packing`
(Monagan–Pearce): a polynomial is one dict {key: residue} under its
ring's packing, and the kernels here, in `ideal.py` and in `cartier.py`
run on the keys.  Integer order is grevlex and keys add under
multiplication, so a product adds keys, a Frobenius twist multiplies
them by q, a lead is the largest key, every sort is an integer sort and
the constant monomial is key 0.  Exponent tuples appear only where a
value enters or leaves: `PolyRing.monomial`/`poly`, `coefficient`,
`mul_monomial` and the parser pack them, `iter_terms` and
`leading_exponent` unpack keys, and `evaluate`, `shift` and
`fsing.multiplicity` read the tuple view `_tuples`, derived from the
keys once per polynomial.

The width proof.  Every ring packs at _KEY_WIDTH = 64 bits per digit:
Python integers have no fixed size, and a product of two 15-term
polynomials takes the same time at 16-, 32- and 64-bit digits, so one
width serves every ring and no key is ever repacked.  A key is exact
while its degree is below the limit 2^63: there no digit carries, so
the sum of two exact keys is the exact key of the product.  No cap
bounds the degrees a computation reaches (`max_degree` does not bound a
cone multiplier f^a * prod h^(q-1), and caps can be raised), so every
operation that forms a key first checks the degree of its result, read
off the cached leads, and refuses it at the limit with an
UnsupportedInputError: products, powers with their twists, packed
tuples and the parser's folded runs, and in `ideal.py`, `proj.py` and
`cartier.py` S-pairs, graded pieces and traces.  Division forms no key above the
degree of the term it cancels.

A power raises a one-term polynomial by scaling its key; any other
polynomial is raised digit by digit in base p,
f^n = prod_i (f^(n_i))^[p^i] for n = sum_i n_i p^i, since the Frobenius
f -> f^p only scales exponents over F_p.  The parser tokenizes in one
`findall` pass and evaluates its recursive descent on term dicts.  A
product folds its runs of variables and numbers, each with at most one
numeric exponent, into one key and one coefficient; parentheses, unary
signs and stacked powers take the general factor rule.  It bounds the
nesting of parentheses and unary signs by MAX_NESTING, and refuses a
power whose degree would pass the `max_degree` cap before forming it.
A token's column is computed only when an error message names it.

Values are immutable after construction and safe to share across
threads.  A polynomial memoises its leading key, that key's field word
and its tuple view on first use.  They are functions of the terms
alone and never enter equality or hashing; two threads that fill the
same slot at once store equal values.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Iterator, Mapping, Optional, Sequence, Union

from .config import Frozen, check_degree, current_caps, shown
from .errors import (DomainError, ParseError, RingMismatchError,
                     UnsupportedInputError)

Exponents = tuple  # tuple[int, ...]

MAX_CHARACTERISTIC = 1 << 16

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_KEY_WIDTH = 64  # of every ring's packing, see the width proof


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Packing:
    """Packed integer keys of grevlex monomials at one digit width.

    Exponents (e_0, ..., e_(n-1)) give the digits s_(n-1), ..., s_0,
    most significant first, where s_j = e_0 + ... + e_j: s_(n-1) is the
    degree, and a larger s_(j-1) at equal s_j means a smaller e_j, which
    is how grevlex breaks ties.  The key is these digits in base
    B = 2^width, so integer order is grevlex.  Every digit is linear in
    the exponents and at most the degree, so while the degree stays
    below `limit` = B/2, pack(a) + pack(b) = pack(a + b), and the degree
    is the key shifted down by `shift`.  `direct` turns a key into its
    field word, variable i's exponent in field i, each field with a
    spare top bit: a monomial a divides b exactly when
    (direct(b) - direct(a)) & guard == 0 (no field borrows).  `key`
    turns a field word back by one multiplication, which forms the
    prefix sums s_j.
    """

    def __init__(self, nvars: int, width: int):
        self.width = width
        self.limit = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.ones = sum(1 << (width * i) for i in range(nvars))
        self.guard = self.ones << (width - 1)
        self.shift = width * (nvars - 1)  # the degree digit
        # each variable's key: digits s_j = 1 for j >= i
        self.units = tuple(self.ones >> (width * i) << (width * i)
                           for i in range(nvars))
        self._top = width * nvars
        self._keys = (1 << self._top) - 1
        self._offsets = range(0, self._top, width)

    def check(self, degree: int, what: str):
        """Refuse `what` of this degree when its key would not be exact."""
        if degree >= self.limit:
            raise UnsupportedInputError(
                f"{what} of degree {shown(degree)} reaches the monomial key "
                f"limit {shown(self.limit)}")

    def pack(self, exps: Exponents) -> int:
        w, key, s = self.width, 0, sum(exps)
        self.check(s, "monomial")
        for e in reversed(exps):
            key = (key << w) | s
            s -= e
        return key

    def direct(self, key: int) -> int:
        """The key's field word: (B - 1) * (the digits) is the degree
        times B^n less the fields."""
        return ((key >> self.shift) << self._top) - (key << self.width) + key

    def key(self, fields: int) -> int:
        """The key of a field word below the limit: times 1 + B + ...
        + B^(n-1), digit j of the product is s_j."""
        return fields * self.ones & self._keys

    def exponents(self, fields: int) -> Exponents:
        """The exponent tuple of a field word."""
        mask = self.mask
        return tuple([(fields >> at) & mask for at in self._offsets])

    def unpack(self, key: int) -> Exponents:
        return self.exponents(self.direct(key))


@cache
def grevlex_packing(nvars: int, width: int) -> Packing:
    """The packing of monomials in nvars variables at this digit width,
    built once per pair."""
    return Packing(nvars, width)


class PolyRing(Frozen):
    """Descriptor for F_p[variables] with the fixed grevlex order.  Its
    `_packing` keys the monomials; being a function of the number of
    variables, it never enters equality or hashing."""

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
        vars(self).update(variables=variables, p=p,
                          _packing=grevlex_packing(len(variables), _KEY_WIDTH))

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
        return MultiPoly(self, {0: c} if c else {})

    def _key(self, exps: Sequence[int]) -> int:
        if len(exps) != self.nvars or min(exps) < 0:
            raise DomainError(f"bad exponent vector {tuple(exps)} for {self}")
        return self._packing.pack(exps)

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "MultiPoly":
        key = self._key(exps)
        coeff %= self.p
        return MultiPoly(self, {key: coeff} if coeff else {})

    def gen(self, which: Union[int, str]) -> "MultiPoly":
        if isinstance(which, str):
            try:
                which = self.variables.index(which)
            except ValueError:
                raise DomainError(f"no variable {which!r} in {self}") from None
        return MultiPoly(self, {self._packing.units[which]: 1})

    def gens(self) -> tuple:
        return tuple(self.gen(i) for i in range(self.nvars))

    def poly(self, terms: Mapping[Exponents, int]) -> "MultiPoly":
        out = {}
        p = self.p
        for exps, c in terms.items():
            key = self._key(exps)
            c = int(c) % p
            if c:
                c = (out.get(key, 0) + c) % p
                if c:
                    out[key] = c
                else:
                    del out[key]
        return MultiPoly(self, out)

    def parse(self, text: str) -> "MultiPoly":
        return _parse_poly(self, text)

    def __str__(self):
        return f"F_{self.p}[{', '.join(self.variables)}]"


# -- term dicts {key: residue} --------------------------------------------
#
# The callers check the degree of a result against the packing's limit
# before forming it.


def _mul_terms(a: dict, b: dict, p: int) -> dict:
    """The product of two term dicts; a one-term factor shifts the other's
    keys.  Never returns an input."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (ka, ca), = a.items()
        # p is prime, so no product of nonzero residues vanishes
        return {ka + kb: ca * cb % p for kb, cb in b.items()}
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = (out.get(k, 0) + ca * cb) % p
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _pow_terms(terms: dict, n: int, p: int) -> dict:
    """terms^n for n >= 0.

    A one-term dict (or none) raises its key and coefficient directly.
    Otherwise f^n = prod_i (f^(n_i))^[p^i] over the base-p digits n_i
    of n: each distinct digit is one power by squaring below p, and its
    Frobenius twist multiplies the keys by p^i, coefficients fixed
    (Frobenius fixes F_p).  Never returns an input."""
    if len(terms) <= 1:
        if not n:
            return {0: 1}
        return {k * n: pow(c, n, p) for k, c in terms.items()}
    result: dict = {0: 1}
    digit_powers: dict = {}
    q = 1
    while n:
        n, digit = divmod(n, p)
        if digit:
            power = digit_powers.get(digit)
            if power is None:
                power = digit_powers[digit] = _square_and_multiply(terms, digit, p)
            if q > 1:
                power = {k * q: c for k, c in power.items()}
            result = _mul_terms(result, power, p)
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
    """Immutable sparse polynomial: dict from packed monomial keys to
    residues.

    No zero coefficients are stored; arithmetic is exact.  The leading
    key, its field word and the tuple view are memoised on first use;
    they depend only on the terms, so they never enter equality or
    hashing.
    """

    __slots__ = ("ring", "_terms", "_lead", "_fields", "_view")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self._terms = terms
        self._lead = None    # leading key
        self._fields = None  # its field word, see _lead_fields
        self._view = None    # see _tuples

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not any(self._terms)

    def constant_value(self) -> int:
        """The coefficient of the constant term."""
        return self._terms.get(0, 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial.  Grevlex is graded,
        so it is the lead's."""
        if not self._terms:
            return -1
        return self._lead_key() >> self.ring._packing.shift

    def is_homogeneous(self) -> bool:
        shift = self.ring._packing.shift
        return len({k >> shift for k in self._terms}) <= 1

    def num_terms(self) -> int:
        return len(self._terms)

    def _tuples(self) -> dict:
        """The terms as {exponents: residue}: the view the edges read,
        derived from the keys once."""
        view = self._view
        if view is None:
            unpack = self.ring._packing.unpack
            view = self._view = {unpack(k): c for k, c in self._terms.items()}
        return view

    def iter_terms(self) -> Iterator:
        """(exponents, coefficient) pairs in descending grevlex order."""
        terms, unpack = self._terms, self.ring._packing.unpack
        return ((unpack(k), terms[k]) for k in sorted(terms, reverse=True))

    def coefficient(self, exps: Exponents) -> int:
        return self._terms.get(self.ring._key(exps), 0)

    def _lead_key(self) -> int:
        lead = self._lead
        if lead is None:
            if not self._terms:
                raise DomainError("zero polynomial has no leading term")
            lead = self._lead = max(self._terms)
        return lead

    def _lead_fields(self) -> int:
        """The leading key's field word (`Packing.direct`), which the
        divisibility tests of `ideal.py` read."""
        fields = self._fields
        if fields is None:
            fields = self._fields = self.ring._packing.direct(self._lead_key())
        return fields

    def leading_exponent(self) -> Exponents:
        return self.ring._packing.unpack(self._lead_key())

    def leading_coefficient(self) -> int:
        return self._terms[self._lead_key()]

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
        for k, c in other._terms.items():
            s = (out.get(k, 0) + c) % p
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return MultiPoly(self.ring, {k: p - c for k, c in self._terms.items()})

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
        scaled = MultiPoly(self.ring,
                           {k: t * c % p for k, t in self._terms.items()})
        # same terms, same leading key
        scaled._lead, scaled._fields = self._lead, self._fields
        return scaled

    def mul_monomial(self, exps: Exponents) -> "MultiPoly":
        return self._times_key(self.ring._key(exps))

    def _times_key(self, shift: int) -> "MultiPoly":
        """The product by the monomial of this key: it shifts every key
        and the lead."""
        if not self._terms:
            return self
        ring = self.ring
        lead = self._lead_key() + shift
        ring._packing.check(lead >> ring._packing.shift, "product")
        out = MultiPoly(ring, {k + shift: c for k, c in self._terms.items()})
        out._lead = lead
        return out

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ring
        ring._packing.check(self.degree() + other.degree(), "product")
        return MultiPoly(ring, _mul_terms(self._terms, other._terms, ring.p))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise DomainError("negative polynomial powers are not defined")
        ring = self.ring
        # every intermediate power and twist has degree at most n * deg
        ring._packing.check(n * self.degree(), "power")
        return MultiPoly(ring, _pow_terms(self._terms, n, ring.p))

    # -- substitution --------------------------------------------------

    def evaluate(self, values: Sequence[int]) -> int:
        """Evaluate at a rational point (tuple of residues)."""
        if len(values) != self.ring.nvars:
            raise DomainError("wrong number of coordinates")
        p = self.ring.p
        total = 0
        for exps, c in self._tuples().items():
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
        formed once.  No term passes the degree of the polynomial."""
        if len(point) != self.ring.nvars:
            raise DomainError("wrong number of coordinates")
        ring = self.ring
        p = ring.p
        units = ring._packing.units
        shifts = [None if c is None or c % p == 0 else {units[i]: 1, 0: c % p}
                  for i, c in enumerate(point)]
        powers: dict = {}
        out: dict = {}
        for exps, coeff in self._tuples().items():
            term = {sum(e * unit for e, unit, s in zip(exps, units, shifts)
                        if not s): coeff}
            for i, e in enumerate(exps):
                if e and shifts[i]:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = _pow_terms(shifts[i], e, p)
                    term = _mul_terms(term, power, p)
            for k, c in term.items():
                s = (out.get(k, 0) + c) % p
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return MultiPoly(ring, out)

    def derivative(self, index: int) -> "MultiPoly":
        """Formal partial derivative in the given variable: the exponent
        is read off the key's field word, and the key loses the
        variable's."""
        packing = self.ring._packing
        p = self.ring.p
        unit, direct = packing.units[index], packing.direct
        at, mask = packing.width * index, packing.mask
        out = {}
        for k, c in self._terms.items():
            coeff = c * ((direct(k) >> at) & mask) % p
            if coeff:
                out[k - unit] = coeff
        return MultiPoly(self.ring, out)

    # -- comparison / hashing / display --------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        terms = self._terms
        if not terms:
            return "0"
        packing = self.ring._packing
        fields_of, mask = packing.direct, packing.mask
        names = tuple(zip(self.ring.variables, packing._offsets))
        chunks = []
        for k in sorted(terms, reverse=True):
            c, fields = terms[k], fields_of(k)
            factors = []
            for name, at in names:
                e = (fields >> at) & mask
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

    Every rule returns a term dict {key: residue} that the parser owns,
    so sums and signs update it in place; `parse` wraps the final one in
    a MultiPoly.  A product folds its runs of variables and numbers,
    each with at most one numeric exponent, into one key, the sum of
    its variables' keys, and one coefficient; parentheses, unary signs and
    stacked powers go through `factor`.  Every product and power is
    checked against the packing's limit before it is formed.  Tokens
    are plain strings, and a token's column is computed only for a
    message that names it."""

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.p = ring.p
        self.packing = ring._packing
        # each variable's key
        self.units = dict(zip(ring.variables, ring._packing.units))
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
        """The degree cap on a power whose '^' is the token at this index,
        then the packing's limit."""
        if degree > current_caps().max_degree:
            check_degree(degree, "power", f" at column {self.column(index)}")
        self.packing.check(degree, "power")

    def product(self, a: dict, b: dict) -> dict:
        shift = self.packing.shift
        self.packing.check((max(a, default=0) >> shift)
                           + (max(b, default=0) >> shift), "product")
        return _mul_terms(a, b, self.p)

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
            for k, c in rhs.items():
                s = (result.get(k, 0) + sign * c) % p
                if s:
                    result[k] = s
                else:
                    result.pop(k, None)

    def term(self) -> dict:
        tokens, p, units = self.tokens, self.p, self.units
        key = degree = 0  # of the folded monomial
        coeff = 1
        product = None  # the factors that do not fold
        while True:
            i = self.idx
            token = tokens[i]
            unit = units.get(token)
            end = None
            if unit is not None or token.isdecimal():
                if tokens[i + 1] not in _POWER:
                    n, end = 1, i + 1
                elif tokens[i + 2].isdecimal() and tokens[i + 3] not in _POWER:
                    n, end = int(tokens[i + 2]), i + 3
                    self.check_power(0 if unit is None else n, i + 1)
            if end is None:
                factor = self.factor()
                product = (factor if product is None
                           else self.product(product, factor))
            else:
                if unit is None:
                    coeff = coeff * pow(int(token), n, p) % p
                else:
                    key += n * unit
                    degree += n
                self.idx = end
            if tokens[self.idx] != "*":
                break
            self.idx += 1
        if not coeff:
            return {}
        # keys add exactly while the degree is below the limit
        self.packing.check(degree, "monomial")
        monomial = {key: coeff}
        if product is None:
            return monomial
        return self.product(monomial, product)

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
            self.check_power(
                n * (max(base, default=0) >> self.packing.shift), at)
            base = _pow_terms(base, n, self.p)
        self.depth = outer
        if negate:
            p = self.p
            for k, c in base.items():
                base[k] = p - c
        return base

    def atom(self) -> dict:
        i = self.idx
        token = self.tokens[i]
        self.idx += 1
        if token.isdecimal():
            c = int(token) % self.p
            return {0: c} if c else {}
        unit = self.units.get(token)
        if unit is not None:
            return {unit: 1}
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


def _monomial_words(packing: Packing, degree: int) -> list:
    """The field words of all monomials of the given total degree,
    grevlex-descending, with no sort: grevlex puts a smaller last
    exponent first and breaks ties by the same order on the other
    variables, so the monomials are the last exponent ascending, each
    followed by the monomials of the remaining degree in one variable
    fewer.  Those are built once per degree, variable by variable."""
    offsets = packing._offsets
    # pieces[d]: the monomials of degree d in the variables so far
    pieces = [[0]] + [[] for _ in range(degree)]
    for at in offsets[:-1]:
        pieces = [[head | (last << at) for last in range(d + 1)
                   for head in pieces[d - last]] for d in range(degree + 1)]
    return [head | (last << offsets[-1]) for last in range(degree + 1)
            for head in pieces[degree - last]]
