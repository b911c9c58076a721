"""Polynomial arithmetic over F_p kept apart from charp.

The benchmark builds its inputs and checks the program's outputs with
this module (and sympy), never with charp itself, so a fault in the
program cannot hide behind the same fault in its checker.  A polynomial
is a dict {exponent tuple: residue in [1, p)}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb


def add(f: dict, g: dict, p: int) -> dict:
    out = dict(f)
    for e, c in g.items():
        s = (out.get(e, 0) + c) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def power(f: dict, n: int, p: int, nvars: int) -> dict:
    result = {(0,) * nvars: 1}
    base = f
    while n:
        if n & 1:
            result = mul(result, base, p)
        n >>= 1
        if n:
            base = mul(base, base, p)
    return result


def monomial(exps, coeff: int = 1) -> dict:
    return {tuple(exps): coeff}


def linear(coeffs, p: int) -> dict:
    """The linear form sum coeffs[i] * x_i."""
    n = len(coeffs)
    return {tuple(int(j == i) for j in range(n)): c % p
            for i, c in enumerate(coeffs) if c % p}


def degree(f: dict) -> int:
    return max((sum(e) for e in f), default=-1)


def evaluate(f: dict, point, p: int) -> int:
    total = 0
    for e, c in f.items():
        term = c
        for v, k in zip(point, e):
            term = term * pow(v, k, p) % p
        total = (total + term) % p
    return total


def scale_variables(f: dict, scales, p: int) -> dict:
    """f(s_0 x_0, ..., s_n x_n) for nonzero residues s_i."""
    out = {}
    for e, c in f.items():
        for s, k in zip(scales, e):
            c = c * pow(s, k, p) % p
        out[e] = c
    return out


# -- text in the program's input syntax and out of its reports -------------


def to_text(f: dict, names) -> str:
    if not f:
        return "0"
    chunks = []
    for e, c in sorted(f.items(), reverse=True):
        factors = [n if k == 1 else f"{n}^{k}"
                   for n, k in zip(names, e) if k]
        if not factors:
            chunks.append(str(c))
        elif c == 1:
            chunks.append("*".join(factors))
        else:
            chunks.append(f"{c}*" + "*".join(factors))
    return " + ".join(chunks)


def from_text(text: str, names, p: int) -> dict:
    """Parse a sum of terms 'c*x^a*y' joined by '+', the shape in which
    the program writes polynomials into its reports."""
    index = {n: i for i, n in enumerate(names)}
    out: dict = {}
    if text.strip() == "0":
        return out
    for chunk in text.split("+"):
        coeff = 1
        exps = [0] * len(names)
        for factor in chunk.strip().split("*"):
            factor = factor.strip()
            if factor.isdigit():
                coeff = coeff * int(factor) % p
                continue
            name, _, k = factor.partition("^")
            exps[index[name]] += int(k) if k else 1
        key = tuple(exps)
        out[key] = (out.get(key, 0) + coeff) % p
    return {e: c for e, c in out.items() if c}


# -- Frobenius components --------------------------------------------------


def frobenius_components(h: dict, q: int, p: int) -> list:
    """The polynomials h_b with h = sum_b h_b^q x^b, 0 <= b_i < q.

    The image of an ideal under g -> Tr^e(u g) is generated by the
    components of u*g over the generators g: the trace of x^beta * h is
    the component in slot (q-1) - beta.
    """
    slots: dict = {}
    for e, c in h.items():
        b = tuple(k % q for k in e)
        u = tuple(k // q for k in e)
        comp = slots.setdefault(b, {})
        comp[u] = (comp.get(u, 0) + c) % p
    out = []
    for b in sorted(slots):
        comp = {u: c for u, c in slots[b].items() if c}
        if comp:
            out.append(comp)
    return out


def image_generators(multiplier: dict, gens, q: int, p: int) -> list:
    out = []
    for g in gens:
        out.extend(frobenius_components(mul(multiplier, g, p), q, p))
    return out


# -- monomial pairs ----------------------------------------------------------


def monomial_tau(alpha, a: int, q: int) -> tuple:
    """Exponent of the test ideal of (x^alpha, a/(q-1)): floor(t*alpha)."""
    t = Fraction(a, q - 1)
    return tuple((t * k).numerator // (t * k).denominator for k in alpha)


def monomial_sigma(alpha, a: int, q: int) -> tuple:
    """Exponent of the non-F-pure ideal: max(ceil(t*alpha) - 1, 0)."""
    t = Fraction(a, q - 1)
    return tuple(max(-((-(t * k).numerator) // (t * k).denominator) - 1, 0)
                 for k in alpha)


def safe_seed_power(a: int, q: int) -> int:
    """ceil(a/(q-1)): f to this power is a test element of the pair."""
    return -(-a // (q - 1))


# -- multiplicity at coordinate-subspace points ------------------------------


def order_at(f: dict, point, p: int) -> int:
    """Least total degree in the constrained variables after moving the
    point to the origin (x_i -> x_i + c_i for constrained i)."""
    nvars = len(point)
    shifted: dict = {}
    for e, c in f.items():
        # expand prod (x_i + c_i)^{e_i} over constrained coordinates
        parts = []
        for i, k in enumerate(e):
            if point[i] is None or point[i] % p == 0:
                parts.append([(k, 1)])
            else:
                parts.append([(j, comb(k, j) * pow(point[i], k - j, p) % p)
                              for j in range(k + 1)])
        for choice in product(*parts):
            coeff = c
            for _, w in choice:
                coeff = coeff * w % p
            if coeff:
                key = tuple(j for j, _ in choice)
                shifted[key] = (shifted.get(key, 0) + coeff) % p
    constrained = [i for i in range(nvars) if point[i] is not None]
    return min(sum(e[i] for i in constrained)
               for e, c in shifted.items() if c)


# -- plane cubics --------------------------------------------------------------


def hasse_invariant(h: dict, p: int) -> int:
    """Coefficient of (xyz)^(p-1) in h^(p-1); nonzero exactly when the
    smooth plane cubic V(h) is ordinary."""
    return power(h, p - 1, p, 3).get((p - 1,) * 3, 0)


def rational_points(forms, p: int, nvars: int) -> list:
    """Projective F_p-points (first nonzero coordinate 1) on which every
    form vanishes."""
    return [P for P in projective_space(p, nvars)
            if all(evaluate(f, P, p) == 0 for f in forms)]


def projective_space(p: int, nvars: int):
    for pivot in range(nvars):
        for tail in product(range(p), repeat=nvars - pivot - 1):
            yield (0,) * pivot + (1,) + tail


# -- F_{p^k} points by brute force, k = 1 or 2 -------------------------------


def _non_residue(p: int) -> int:
    squares = {x * x % p for x in range(1, p)}
    return next(r for r in range(2, p) if r not in squares)


class Fp2:
    """F_p or F_{p^2} = F_p[s]/(s^2 - r) for an odd prime p; elements are
    pairs (a, b) meaning a + b*s."""

    def __init__(self, p: int, k: int):
        if k not in (1, 2) or p == 2:
            raise ValueError("brute-force fields cover odd p and k <= 2")
        self.p, self.k = p, k
        self.r = _non_residue(p) if k == 2 else 0

    def elements(self):
        if self.k == 1:
            return [(a, 0) for a in range(self.p)]
        return [(a, b) for b in range(self.p) for a in range(self.p)]

    def mul(self, u, v):
        p = self.p
        return ((u[0] * v[0] + self.r * u[1] * v[1]) % p,
                (u[0] * v[1] + u[1] * v[0]) % p)

    def pow(self, u, n: int):
        out = (1, 0)
        while n:
            if n & 1:
                out = self.mul(out, u)
            n >>= 1
            u = self.mul(u, u)
        return out

    def evaluate(self, f: dict, point):
        a = b = 0
        for e, c in f.items():
            term = (c, 0)
            for v, k in zip(point, e):
                if k:
                    term = self.mul(term, self.pow(v, k))
            a += term[0]
            b += term[1]
        return (a % self.p, b % self.p)

    def count_points(self, forms, nvars: int) -> int:
        zero, one = (0, 0), (1, 0)
        elements = self.elements()
        count = 0
        for pivot in range(nvars):
            for tail in product(elements, repeat=nvars - pivot - 1):
                P = (zero,) * pivot + (one,) + tail
                if all(self.evaluate(f, P) == zero for f in forms):
                    count += 1
        return count


# -- monomial ideals -----------------------------------------------------------


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimalize(gens) -> frozenset:
    gens = set(gens)
    return frozenset(g for g in gens
                     if not any(h != g and _divides(h, g) for h in gens))


def monomial_intersection(I, J) -> frozenset:
    return minimalize(tuple(max(x, y) for x, y in zip(a, b))
                      for a in I for b in J)


def monomial_saturation(I, nvars: int) -> frozenset:
    """I : (x_0, ..., x_n)^inf = intersection over i of I with x_i = 1."""
    out = None
    for i in range(nvars):
        part = minimalize(tuple(0 if j == i else k for j, k in enumerate(g))
                          for g in I)
        out = part if out is None else monomial_intersection(out, part)
    return out


def monomials_of_degree(nvars: int, m: int):
    if nvars == 1:
        yield (m,)
        return
    for k in range(m, -1, -1):
        for rest in monomials_of_degree(nvars - 1, m - k):
            yield (k,) + rest


def monomial_piece(I, m: int, nvars: int) -> frozenset:
    """Monomials of degree m in the monomial ideal I."""
    return minimalize(e for e in monomials_of_degree(nvars, m)
                      if any(_divides(g, e) for g in I))


def monomial_globally_generated(I, m: int, nvars: int) -> bool:
    return (monomial_saturation(monomial_piece(I, m, nvars), nvars)
            == monomial_saturation(minimalize(I), nvars))
