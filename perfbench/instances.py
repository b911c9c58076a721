"""Seeded instance lists for the three workloads.

Every workload has a fixed skeleton: the number of instances, and for
each slot the op, the field, the scheme kind, the shape of the pair and
the twist.  The seed draws only what varies inside a slot (exponents,
coefficients, coordinate scalings and permutations, the curve inside its
class), so every seed yields the same job mix at a similar cost.

An instance is a JSON-ready dict:
  name         unique within the list
  p, vars      the scenario header
  job          the one job handed to the program
  check        what the checker needs to judge the result
  known_fault  true for jobs that fail because of a known program fault
"""

from __future__ import annotations

import random

from . import algebra as alg

WORKLOADS = ("pairs", "sections", "geometry")

V2 = ["x", "y"]
V3 = ["x", "y", "z"]

# (p, e) with q = p^e <= 256
PAIR_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 8), (3, 1), (3, 2),
               (3, 3), (3, 5), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2),
               (11, 1), (11, 2), (13, 1), (13, 2)]
SMALL_FIELDS = [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                (3, 2), (2, 3)]
MULT_FIELDS = [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1)]

PAIR_SLOTS = 40  # of each kind: monomial, general, mult, compatible

# tau with the default test element f and a > q-1 on monomial pairs: the
# chain either returns a fixed ideal that is not the smallest one or
# raises TestElementError.  Fixed inputs, counted as failed.
KNOWN_FAULTS = [(5, V2, (1, 0), 8), (5, V2, (1, 0), 9),
                (3, V2, (1, 1), 4), (2, V2, (2, 1), 3)]


def instances(workload: str, seed: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return {"pairs": _pairs, "sections": _sections,
            "geometry": _geometry}[workload](rng)


def _inst(name, p, names, job, check, known_fault=False) -> dict:
    return {"name": name, "p": p, "vars": list(names), "job": job,
            "check": check, "known_fault": known_fault}


def _pair(f: dict, names, a: int, e: int) -> dict:
    return {"f": alg.to_text(f, names), "a": a, "e": e}


def _random_poly(rng, nvars: int, p: int, terms: int, max_degree: int) -> dict:
    while True:
        f = {}
        for _ in range(terms):
            d = rng.randint(1, max_degree)
            exps = [0] * nvars
            for _ in range(d):
                exps[rng.randrange(nvars)] += 1
            f[tuple(exps)] = rng.randint(1, p - 1)
        if len(f) == terms:
            return f


# -- pairs ------------------------------------------------------------------


def _pairs(rng) -> list:
    out = []
    for i in range(PAIR_SLOTS):
        out.extend(_monomial_pair(rng, i))
    for i in range(PAIR_SLOTS):
        out.extend(_general_pair(rng, i))
    for i in range(PAIR_SLOTS):
        out.append(_mult(rng, i))
    for i in range(PAIR_SLOTS):
        out.append(_compatible(rng, i))
    for i, (p, names, alpha, a) in enumerate(KNOWN_FAULTS):
        f = alg.monomial(alpha)
        out.append(_inst(f"pairs-fault{i}-tau", p, names,
                         {"op": "tau", "pair": _pair(f, names, a, 1)},
                         {"kind": "monomial", "alpha": list(alpha), "a": a,
                          "q": p}, known_fault=True))
    return out


def _monomial_pair(rng, i: int) -> list:
    p, e = PAIR_FIELDS[i % len(PAIR_FIELDS)]
    q = p ** e
    names = V2 if i % 2 == 0 else V3
    while True:
        alpha = tuple(rng.randint(0, 3) for _ in names)
        if any(alpha):
            break
    a = rng.randint(0, 2 * (q - 1))
    f = alg.monomial(alpha)
    pair = _pair(f, names, a, e)
    seed = alg.to_text(alg.monomial([k * alg.safe_seed_power(a, q)
                                     for k in alpha]), names)
    check = {"kind": "monomial", "alpha": list(alpha), "a": a, "q": q}
    tag = f"pairs-mono{i:02d}"
    return [_inst(f"{tag}-sigma", p, names, {"op": "sigma", "pair": pair}, check),
            _inst(f"{tag}-tau", p, names,
                  {"op": "tau", "pair": pair, "c": seed}, check),
            _inst(f"{tag}-fpure", p, names, {"op": "fpure", "pair": pair}, check),
            _inst(f"{tag}-sfr", p, names,
                  {"op": "sfr", "pair": pair, "c": seed}, check)]


def _shape(kind: str, i: int) -> random.Random:
    """The slot's own generator for what fixes a job's cost: supports,
    coordinates, coefficients a.  It does not depend on the seed."""
    return random.Random(f"shape:{kind}:{i}")


def _reweigh(rng, f: dict, p: int) -> dict:
    """Same support, seeded nonzero coefficients."""
    return {e: rng.randint(1, p - 1) for e in f}


def _general_pair(rng, i: int) -> list:
    p, e = SMALL_FIELDS[i % len(SMALL_FIELDS)]
    q = p ** e
    names = V2 if i % 3 else V3
    shape = _shape("general", i)
    f = _reweigh(rng, _random_poly(shape, len(names), p, 2 + i % 2, 3), p)
    a = shape.randint(1, min(q - 1, 6))
    pair = _pair(f, names, a, e)
    seed = alg.to_text(alg.power(f, alg.safe_seed_power(a, q), p, len(names)),
                       names)
    check = {"kind": "general", "f": pair["f"], "a": a, "q": q,
             "group": f"pairs-gen{i:02d}"}
    tag = f"pairs-gen{i:02d}"
    return [_inst(f"{tag}-sigma", p, names, {"op": "sigma", "pair": pair}, check),
            _inst(f"{tag}-tau", p, names,
                  {"op": "tau", "pair": pair, "c": seed}, dict(check, c=seed)),
            _inst(f"{tag}-fpure", p, names, {"op": "fpure", "pair": pair}, check),
            _inst(f"{tag}-sfr", p, names,
                  {"op": "sfr", "pair": pair, "c": seed}, dict(check, c=seed))]


def _mult(rng, i: int) -> dict:
    """A pair with multiplicity >= codim at a coordinate-subspace point.

    f is a monomial in the point's local coordinates, one of which is
    shifted by a nonzero residue, times an optional free variable; a is
    the least coefficient (or one more) that reaches the threshold.  The
    seed draws the shift and the coefficient.
    """
    p, e = MULT_FIELDS[i % len(MULT_FIELDS)]
    q = p ** e
    names = V2 if i % 2 == 0 else V3
    n = len(names)
    shape = _shape("mult", i)
    codim = 1 + (i // 2) % 2
    constrained = sorted(shape.sample(range(n), codim))
    shifted = shape.choice(constrained)
    point = [None] * n
    for j in constrained:
        point[j] = rng.randint(1, p - 1) if j == shifted else 0
    exps = [0] * n
    for _ in range(codim + shape.randint(0, 1)):
        exps[shape.choice(constrained)] += 1
    free = [j for j in range(n) if j not in constrained]
    if free and shape.random() < 0.5:
        exps[shape.choice(free)] += 1
    local = {tuple(exps): rng.randint(1, p - 1)}
    f = _shift(local, [None if c is None else -c for c in point], p)
    order = alg.order_at(f, point, p)
    a = -(-codim * (q - 1) // order) + shape.randint(0, 1)
    job = {"op": "mult", "pair": _pair(f, names, a, e), "point": point}
    return _inst(f"pairs-mult{i:02d}", p, names, job,
                 {"kind": "mult", "f": job["pair"]["f"], "a": a, "q": q,
                  "point": point, "codim": codim})


def _shift(f: dict, point, p: int) -> dict:
    """f(x + c) for the constrained coordinates c of the point."""
    out: dict = {}
    n = len(point)
    for e, c in f.items():
        term = {(0,) * n: c}
        for j, k in enumerate(e):
            if point[j] is None or point[j] % p == 0:
                factor = alg.monomial([k if i == j else 0 for i in range(n)])
            else:
                lin = alg.add(alg.monomial([int(i == j) for i in range(n)]),
                              {(0,) * n: point[j] % p}, p)
                factor = alg.power(lin, k, p, n)
            term = alg.mul(term, factor, p)
        out = alg.add(out, term, p)
    return out


def _compatible(rng, i: int) -> dict:
    p, e = SMALL_FIELDS[i % len(SMALL_FIELDS)]
    q = p ** e
    names = V2 if i % 2 == 0 else V3
    n = len(names)
    shape = _shape("compatible", i)
    # centres: a coordinate hyperplane, a coordinate point, a shifted line
    j = shape.randrange(n)
    x_j = alg.monomial([int(t == j) for t in range(n)])
    if i % 3 == 0:
        centre = [x_j]
    elif i % 3 == 1:
        other = (j + 1 + shape.randrange(n - 1)) % n
        centre = [x_j, alg.monomial([int(t == other) for t in range(n)])]
    else:
        centre = [alg.add(x_j, {(0,) * n: rng.randint(1, p - 1)}, p)]
    g = _reweigh(rng, _random_poly(shape, n, p, 1 + i % 2, 2), p)
    # half of the pairs contain the centre's first generator in f
    f = alg.mul(centre[0], g, p) if shape.random() < 0.5 else g
    a = shape.randint(1, min(q - 1, 6))
    job = {"op": "compatible", "pair": _pair(f, names, a, e),
           "I_Z": [alg.to_text(h, names) for h in centre]}
    return _inst(f"pairs-compat{i:02d}", p, names, job,
                 {"kind": "compatible", "f": job["pair"]["f"], "a": a, "q": q,
                  "centre": job["I_Z"]})


# -- sections ---------------------------------------------------------------


# Three-term smooth cubic shapes by (p, ordinary).  y^2 z = x^3 + a x z^2
# has j = 1728 and is ordinary exactly when p = 1 mod 4; y^2 z = x^3 + b z^3
# and the Fermat cubic have j = 0 and are ordinary exactly when p = 1 mod 3.
FERMAT = ((3, 0, 0), (0, 3, 0), (0, 0, 3))
J1728 = ((0, 2, 1), (3, 0, 0), (1, 0, 2))
J0 = ((0, 2, 1), (3, 0, 0), (0, 0, 3))
CUBIC_SHAPES = {(5, True): (J1728,), (5, False): (FERMAT, J0),
                (7, True): (FERMAT, J0), (7, False): (J1728,)}

# The C07 fixtures: x^3+y^3+z^3, y^2 z-x^3-x z^2, y^2 z-x^3-z^3.
C07_CUBICS = ({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1},
              {(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): -1},
              {(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -1})


def _cubic(rng, p: int, ordinary: bool) -> dict:
    """A smooth plane cubic over F_p of the requested class: a three-term
    shape with seeded nonzero coefficients, its class confirmed by the
    Hasse invariant."""
    while True:
        shape = rng.choice(CUBIC_SHAPES[(p, ordinary)])
        h = {e: rng.randint(1, p - 1) for e in shape}
        if (alg.hasse_invariant(h, p) != 0) == ordinary:
            return h


def _boundary(rng, n: int, p: int, degree: int, terms: int) -> dict:
    """A boundary form of the given degree with one or two terms."""
    i, j = rng.sample(range(n), 2)
    if degree == 1:
        f = {tuple(int(t == i) for t in range(n)): 1}
        second = tuple(int(t == j) for t in range(n))
    else:
        f = {tuple(int(t == i) + int(t == j) for t in range(n)): 1}
        second = tuple(2 * int(t == rng.randrange(n)) for t in range(n))
    if terms == 2:
        f[second] = rng.randint(1, p - 1)
    return f


def _source_twist_ok(n: int, du: int, q: int, m: int, levels: int = 8) -> bool:
    """Source degrees q^l m + (q^l - 1)(n+1) - du (q^l-1)/(q-1) stay >= 0."""
    return all(q ** l * m + (q ** l - 1) * (n + 1) - du * (q ** l - 1) // (q - 1)
               >= 0 for l in range(1, levels + 1))


# (p, scheme, pair shape, a, m values, which values).  Pair shapes:
# 'trivial', or (degree, number of terms) of a boundary form.
SECTION_SLOTS = [
    (5, "P1", "trivial", 0, range(5), ("sigma", "tau")),
    (7, "P1", "trivial", 0, range(5), ("sigma", "tau")),
    (5, "P1", (1, 2), 4, range(5), ("sigma", "tau")),
    (7, "P1", (2, 1), 6, range(5), ("sigma", "tau")),
    (5, "P2", "trivial", 0, (0, 1, 2), ("sigma", "tau")),
    (5, "P2", (1, 1), 4, (1, 2), ("sigma", "tau")),
    (5, "P2", (2, 1), 2, (2,), ("sigma", "tau")),
    (7, "P2", "trivial", 0, (0, 1), ("sigma",)),
    (5, "ordinary", "trivial", 0, range(5), ("sigma",)),
    (5, "ordinary", "trivial", 0, (0, 1), ("tau",)),
    (5, "supersingular", "trivial", 0, range(5), ("sigma",)),
    (5, "supersingular", "trivial", 0, (0, 1), ("tau",)),
    (7, "ordinary", "trivial", 0, (0, 1, 2), ("sigma",)),
    (7, "ordinary", "trivial", 0, (0,), ("tau",)),
    (7, "supersingular", "trivial", 0, (0, 1, 2), ("sigma",)),
    (7, "supersingular", "trivial", 0, (0,), ("tau",)),
    (5, "ordinary", (1, 1), 4, (1, 2), ("sigma",)),
    (5, "supersingular", (1, 2), 2, (1, 2), ("sigma",)),
    (5, "ordinary", (1, 1), 2, (1,), ("tau",)),
    (7, "ordinary", (2, 1), 3, (2,), ("sigma",)),
]


def _sections(rng) -> list:
    out = []
    for s, (p, kind, shape, a, ms, whiches) in enumerate(SECTION_SLOTS):
        if kind == "P1":
            names, n, forms = V2, 1, []
        else:
            names, n = V3, 2
            forms = [] if kind == "P2" else [_cubic(rng, p, kind == "ordinary")]
        if shape == "trivial":
            f = {(0,) * (n + 1): 1}
        else:
            f = _boundary(rng, n + 1, p, *shape)
        scheme = {"n": n, "hypersurfaces": [alg.to_text(h, names) for h in forms]}
        du = a * alg.degree(f) + sum(3 * (p - 1) for _ in forms)
        for m in ms:
            if not _source_twist_ok(n, du, p, m):
                continue
            for which in whiches:
                job = {"op": "s0", "scheme": scheme, "m": m, "which": which,
                       "pair": _pair(f, names, a, 1)}
                check = {"kind": kind, "trivial": shape == "trivial", "n": n,
                         "m": m, "which": which,
                         "cubic": scheme["hypersurfaces"][0] if forms else None}
                if which == "tau":
                    # f is the safe seed (a <= q-1); on a cubic cone the
                    # seed also carries a variable so it avoids the vertex
                    j = rng.randrange(n + 1)
                    x_j = alg.monomial([int(t == j) for t in range(n + 1)])
                    c = alg.mul(f, x_j, p) if forms else f
                    job["c"] = alg.to_text(c, names)
                    check["extra_var"] = rng.randrange(n + 1)
                out.append(_inst(f"sections-{s:02d}-m{m}-{which}", p, names,
                                 job, check))
    return out


# -- geometry ---------------------------------------------------------------


def _motion(rng, p: int) -> list:
    """Seeded scalings of the three coordinates.  Scaling maps a reduced
    Gröbner basis onto one with the same leading monomials, so a moved
    job differs in its coefficients but costs about the same; permuting
    the variables would change the grevlex work."""
    return [rng.randint(1, p - 1) for _ in range(3)]


def _moved(rng, f: dict, p: int) -> dict:
    return alg.scale_variables(f, _motion(rng, p), p)


def _moved_c07(rng, p: int, index: int) -> dict:
    """A C07 cubic moved by a seeded coordinate scaling; the moved curve
    is isomorphic, so its point counts do not change."""
    return _moved(rng, {e: c % p for e, c in C07_CUBICS[index].items()}, p)


def _curve_scheme(h: dict) -> dict:
    return {"n": 2, "hypersurfaces": [alg.to_text(h, V3)]}


# separation slots: (p, C07 cubic, extension degree, explicit forms x, y, z)
SEPARATION_SLOTS = [(5, 1, 2, False), (5, 2, 1, True), (7, 1, 1, False)]


def _geometry(rng) -> list:
    out = []
    for idx, (p, which, ext, explicit) in enumerate(SEPARATION_SLOTS):
        scheme = _curve_scheme(_moved_c07(rng, p, which))
        job = {"op": "separates", "scheme": scheme, "m": 1, "ext_degree": ext}
        if explicit:
            job["forms"] = ["x", "y", "z"]
        out.append(_inst(f"geometry-sep{idx}", p, V3, job,
                         {"kind": "separates",
                          "cubic": scheme["hypersurfaces"][0], "ext": ext}))
    # base-point freeness of explicit forms, on cubics and on the plane:
    # a fixed configuration per slot, moved with its curve
    for idx in range(14):
        p = (5, 7)[idx % 2]
        curve = [] if idx in (6, 11) else [
            {e: c % p for e, c in C07_CUBICS[idx % 3].items()}]
        forms = _bpf_forms(p, idx, curve)
        scales = _motion(rng, p)
        curve, forms = [[alg.scale_variables(f, scales, p) for f in fs]
                        for fs in (curve, forms)]
        scheme = {"n": 2, "hypersurfaces": [alg.to_text(h, V3) for h in curve]}
        job = {"op": "bpf", "scheme": scheme, "m": alg.degree(forms[0]),
               "forms": [alg.to_text(g, V3) for g in forms]}
        out.append(_inst(f"geometry-bpf{idx:02d}", p, V3, job,
                         {"kind": "bpf", "scheme": scheme["hypersurfaces"],
                          "forms": job["forms"]}))
    # base-point freeness of the stable subsystem of lines on a cubic
    for idx, (p, which) in enumerate(((5, 1), (7, 2))):
        job = {"op": "bpf", "scheme": _curve_scheme(_moved_c07(rng, p, which)),
               "m": 1}
        out.append(_inst(f"geometry-bpfs0{idx}", p, V3, job, {"kind": "verdict"}))
    # global generation of monomial ideals
    for idx in range(10):
        gens, m = _monomial_ideal(rng, idx)
        job = {"op": "gg", "m": m,
               "ideal": [alg.to_text(alg.monomial(g), V3) for g in gens]}
        out.append(_inst(f"geometry-ggmono{idx}", (5, 7)[idx % 2], V3, job,
                         {"kind": "gg-monomial", "gens": [list(g) for g in gens],
                          "m": m}))
    # global generation by the stable subsystem (the C08 fixtures, moved)
    for idx, (p, f, a, m) in enumerate(
            [(5, {(0, 0, 0): 1}, 0, 3), (5, {(0, 0, 0): 1}, 0, 2),
             (5, {(2, 0, 1): 1, (0, 3, 0): 1}, 3, 2),
             (7, {(2, 0, 1): 1, (0, 3, 0): 1}, 5, 2)]):
        job = {"op": "gg", "scheme": {"n": 2},
               "pair": _pair(_moved(rng, f, p), V3, a, 1), "m": m, "which": "tau"}
        out.append(_inst(f"geometry-ggpair{idx}", p, V3, job, {"kind": "verdict"}))
    # restriction onto compatible centres (the C10 fixtures, moved)
    for idx, (p, f, centre, m) in enumerate(
            [(5, (0, 0, 1), [(0, 0, 1)], 3),
             (5, (1, 1, 0), [(1, 0, 0), (0, 1, 0)], 3),
             (7, (0, 0, 1), [(0, 0, 1)], 2),
             (5, (1, 1, 0), [(1, 0, 0), (0, 1, 0)], 2)]):
        scales = _motion(rng, p)
        move = lambda e: alg.scale_variables({e: 1}, scales, p)  # noqa: E731
        job = {"op": "restrict", "scheme": {"n": 2},
               "pair": _pair(move(f), V3, p - 1, 1),
               "I_Z": [alg.to_text(move(c), V3) for c in centre], "m": m}
        out.append(_inst(f"geometry-restrict{idx}", p, V3, job, {"kind": "verdict"}))
    # degree bound through high-multiplicity points (the C09 fixture, moved)
    for idx in range(8):
        p = (5, 7)[idx % 2]
        points, A, l, e = _thm46(rng, p, idx)
        job = {"op": "thm46", "scheme": {"n": 2}, "points": points,
               "A": alg.to_text(A, V3), "l": l, "e": e}
        out.append(_inst(f"geometry-thm46-{idx}", p, V3, job,
                         {"kind": "thm46", "points": points,
                          "d": alg.degree(A), "l": l, "e": e}))
    return out


def _permuted(exps, perm) -> tuple:
    out = [0, 0, 0]
    for i, k in enumerate(exps):
        out[perm[i]] = k
    return tuple(out)


def _lines_through(P, p: int) -> list:
    """Two independent linear forms x_i P_j - x_j P_i vanishing at P."""
    lines = []
    for i in range(3):
        for j in range(i + 1, 3):
            row = [0, 0, 0]
            row[i], row[j] = P[j] % p, -P[i] % p
            if any(row) and not (lines and _proportional(lines[0], row, p)):
                lines.append(row)
    return [alg.linear(r, p) for r in lines[:2]]


def _proportional(u, v, p: int) -> bool:
    return all((u[i] * v[j] - u[j] * v[i]) % p == 0
               for i in range(3) for j in range(3))


def _bpf_forms(p: int, idx: int, scheme_forms) -> list:
    """Forms whose common zeros, if any, are F_p-rational points, with the
    verdict fixed by the slot: two lines through a point on the scheme
    (not free), two lines through a point off it (free), or x_i^2,
    x_j^2, x_i x_j, whose common zero is the third coordinate point,
    taken on or off the scheme where the scheme allows the choice."""
    slot = idx // 3
    if idx % 3 == 2:
        coord = [tuple(int(t == k) for t in range(3)) for k in range(3)]
        want_on = slot % 2 == 0
        ks = [k for k in range(3) if all(alg.evaluate(h, coord[k], p) == 0
                                         for h in scheme_forms) == want_on]
        k = (ks or [0, 1, 2])[slot % len(ks or [0, 1, 2])]
        i, j = [t for t in range(3) if t != k]
        e_i = [int(t == i) for t in range(3)]
        e_j = [int(t == j) for t in range(3)]
        return [alg.monomial([2 * x for x in e_i]), alg.monomial([2 * x for x in e_j]),
                alg.monomial([x + y for x, y in zip(e_i, e_j)])]
    on = alg.rational_points(scheme_forms, p, 3)
    pool = on if idx % 3 == 0 else [P for P in alg.projective_space(p, 3)
                                    if P not in on]
    return _lines_through(pool[(5 * slot + 1) % len(pool)], p)


# monomial ideal templates (generators, m); the seed permutes variables
MONOMIAL_IDEALS = [
    (((1, 0, 0), (0, 1, 0)), 1),
    (((2, 0, 0), (1, 1, 0), (0, 2, 0)), 1),
    (((2, 0, 0), (1, 1, 0), (0, 2, 0)), 2),
    (((2, 0, 1), (0, 3, 0), (1, 1, 1)), 3),
    (((1, 1, 0), (0, 1, 1), (1, 0, 1)), 2),
    (((3, 0, 0), (0, 2, 1), (1, 1, 1), (0, 0, 2)), 3),
    (((1, 0, 0), (0, 2, 0)), 2),
    (((2, 1, 0), (0, 2, 1), (1, 0, 2)), 3),
    (((1, 0, 1), (0, 1, 1)), 2),
    (((2, 0, 0), (0, 2, 0), (0, 0, 2)), 3),
]


def _monomial_ideal(rng, idx: int):
    gens, m = MONOMIAL_IDEALS[idx]
    perm = rng.sample(range(3), 3)
    return sorted(_permuted(g, perm) for g in gens), m


def _thm46(rng, p: int, idx: int):
    """Coordinate points of P^2 and a monomial form A with multiplicity
    >= l at each of them; points have codimension 2, so e >= 2."""
    if idx % 2 == 0:
        points = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        exps = (2, 2, 2)  # multiplicity 4 at every coordinate point
        l, e = rng.choice([(4, 2), (2, 2), (4, 3)])
    else:
        points = [P for P in ([1, 0, 0], [0, 1, 0], [0, 0, 1])
                  if rng.random() < 0.7] or [[1, 0, 0]]
        # any arrangement of (1, 1, 2), raised, has multiplicity >= 2
        exps = tuple(k + rng.randint(0, 1) for k in rng.sample((1, 1, 2), 3))
        l, e = 2, 2
    return points, {exps: rng.randint(1, p - 1)}, l, e
