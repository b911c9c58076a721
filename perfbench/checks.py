"""Checks of the program's outputs against computations made apart from it.

Each check takes an instance and the program's result for it and returns
None when the result is right, or a one-line reason when it is not.  The
checks use only `algebra` (the benchmark's own arithmetic) and sympy's
Gröbner bases modulo p; they never call into charp, except that a `tau`
section result is recomputed through the same scenario path with the
test element multiplied by a variable, to confirm it does not depend on
the test element.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import algebra as alg


class Checker:
    """Judges results in instance order; `rerun(instance, job)` runs a
    variant job through the program and returns its report entry."""

    def __init__(self, rerun):
        self._rerun = rerun
        self._results: dict = {}
        self._sympy = None

    def check(self, inst: dict, result: dict):
        self._results[inst["name"]] = result
        kind = inst["check"]["kind"]
        op = inst["job"]["op"]
        if op == "s0":
            return self._s0(inst, result)
        handler = {
            "monomial": self._monomial, "general": self._general,
            "mult": self._mult, "compatible": self._compatible,
            "separates": self._separates, "bpf": self._bpf,
            "gg-monomial": self._gg_monomial, "thm46": self._thm46,
            "verdict": self._verdict,
        }[kind]
        return handler(inst, result)

    # -- pairs ------------------------------------------------------------

    def _monomial(self, inst, result):
        c = inst["check"]
        names, p = inst["vars"], inst["p"]
        op = inst["job"]["op"]
        sigma = alg.monomial_sigma(c["alpha"], c["a"], c["q"])
        tau = alg.monomial_tau(c["alpha"], c["a"], c["q"])
        if op in ("sigma", "tau"):
            want = sigma if op == "sigma" else tau
            got = [alg.from_text(g, names, p) for g in result["generators"]]
            if got != [{want: 1}]:
                return f"{op}: got {result['generators']}, want x^{list(want)}"
            return None
        want = not any(sigma if op == "fpure" else tau)
        if result["verdict"] != want:
            return f"{op}: verdict {result['verdict']}, want {want}"
        return None

    def _general(self, inst, result):
        c = inst["check"]
        names, p, q = inst["vars"], inst["p"], c["q"]
        op = inst["job"]["op"]
        n = len(names)
        group = c["group"]
        if op in ("fpure", "sfr"):
            base = self._results.get(f"{group}-{'sigma' if op == 'fpure' else 'tau'}")
            if base is None:
                return f"{op}: no verified ideal to compare with"
            want = base["generators"] == ["1"]
            if result["verdict"] != want:
                return f"{op}: verdict {result['verdict']}, want {want}"
            return None
        ideal = [alg.from_text(g, names, p) for g in result["generators"]]
        u = alg.power(alg.from_text(c["f"], names, p), c["a"], p, n)
        image = alg.image_generators(u, ideal, q, p)
        if self._basis(image, p, n) != self._basis(ideal, p, n):
            return f"{op}: {result['generators']} is not fixed by the trace map"
        if op == "tau":
            if not self._contains(ideal, [alg.from_text(c["c"], names, p)], p, n):
                return "tau: the test element is not in the test ideal"
            sigma = self._results.get(f"{group}-sigma")
            if sigma is None:
                return "tau: no sigma result to compare with"
            big = [alg.from_text(g, names, p) for g in sigma["generators"]]
            if not self._contains(big, ideal, p, n):
                return "tau: the test ideal is not inside sigma"
        return None

    def _mult(self, inst, result):
        c = inst["check"]
        names, p = inst["vars"], inst["p"]
        f = alg.from_text(c["f"], names, p)
        mult = Fraction(c["a"], c["q"] - 1) * alg.order_at(f, c["point"], p)
        want = {"multiplicity": str(mult), "codim": c["codim"],
                "threshold": c["codim"], "verdict": True}
        got = {k: result[k] for k in want}
        return None if got == want else f"mult: got {got}, want {want}"

    def _compatible(self, inst, result):
        c = inst["check"]
        names, p, q = inst["vars"], inst["p"], c["q"]
        n = len(names)
        centre = [alg.from_text(g, names, p) for g in c["centre"]]
        u = alg.power(alg.from_text(c["f"], names, p), c["a"], p, n)
        want = self._contains(centre, alg.image_generators(u, centre, q, p), p, n)
        if result["verdict"] != want:
            return f"compatible: verdict {result['verdict']}, want {want}"
        return None

    # -- sections -----------------------------------------------------------

    def _s0(self, inst, result):
        c = inst["check"]
        n, m = c["n"], c["m"]
        if c["cubic"] is None:
            hilbert = comb(m + n, n)
        else:
            hilbert = 3 * m if m else 1
        if result["full_dim"] != hilbert:
            return f"s0: full_dim {result['full_dim']}, Hilbert function {hilbert}"
        if not 0 <= result["dim"] <= hilbert or len(result["basis"]) != result["dim"]:
            return f"s0: dim {result['dim']} outside [0, {hilbert}]"
        complete = c["trivial"] and (c["cubic"] is None or m >= 1)
        if complete and result["dim"] != hilbert:
            return f"s0: trivial pair gives dim {result['dim']}, want {hilbert}"
        if c["trivial"] and c["cubic"] and m == 0 and c["which"] == "sigma":
            h = alg.from_text(c["cubic"], inst["vars"], inst["p"])
            want = int(alg.hasse_invariant(h, inst["p"]) != 0)
            if result["dim"] != want:
                return f"s0: dim {result['dim']} at m=0, Hasse invariant says {want}"
        if c["which"] == "tau":
            names, p = inst["vars"], inst["p"]
            seed = alg.from_text(inst["job"]["c"], names, p)
            x_i = alg.monomial([int(t == c["extra_var"]) for t in range(n + 1)])
            job = dict(inst["job"], c=alg.to_text(alg.mul(seed, x_i, p), names))
            other = self._rerun(inst, job)
            if other["status"] != "ok" or other["result"]["basis"] != result["basis"]:
                return "s0: tau result changes when the test element gains a variable"
        return None

    # -- geometry -------------------------------------------------------------

    def _separates(self, inst, result):
        c = inst["check"]
        p = inst["p"]
        h = alg.from_text(c["cubic"], inst["vars"], p)
        points = alg.Fp2(p, c["ext"]).count_points([h], 3)
        rational = len(alg.rational_points([h], p, 3))
        want = {"verdict": True, "points": points,
                "pairs": points * (points - 1) // 2, "tangents": rational}
        got = {k: result[k] for k in want}
        return None if got == want else f"separates: got {got}, want {want}"

    def _bpf(self, inst, result):
        c = inst["check"]
        p, names = inst["p"], inst["vars"]
        forms = [alg.from_text(g, names, p) for g in c["scheme"] + c["forms"]]
        want = not alg.rational_points(forms, p, 3)
        if result["verdict"] != want:
            return f"bpf: verdict {result['verdict']}, brute force says {want}"
        return None

    def _gg_monomial(self, inst, result):
        c = inst["check"]
        want = alg.monomial_globally_generated([tuple(g) for g in c["gens"]],
                                               c["m"], 3)
        if result["verdict"] != want:
            return f"gg: verdict {result['verdict']}, saturation rule says {want}"
        return None

    def _thm46(self, inst, result):
        c = inst["check"]
        p, names = inst["p"], inst["vars"]
        delta = c["d"] * c["e"] // c["l"]
        witness = alg.from_text(result["witness"], names, p)
        if result["delta"] != delta or result["verdict"] is not True:
            return f"thm46: delta {result['delta']}, want {delta}"
        if alg.degree(witness) != result["witness_degree"] or \
                result["witness_degree"] > delta:
            return f"thm46: witness degree {result['witness_degree']} > {delta}"
        if any(alg.evaluate(witness, P, p) for P in c["points"]):
            return "thm46: the witness misses a point"
        return None

    def _verdict(self, inst, result):
        if result["verdict"] is not True:
            return f"{inst['job']['op']}: verdict {result['verdict']}, want True"
        return None

    # -- Gröbner bases modulo p through sympy -----------------------------------

    def _gb(self, polys, p: int, n: int):
        if self._sympy is None:
            import sympy
            self._sympy = sympy
        sp = self._sympy
        gens = sp.symbols(f"v0:{n}")
        exprs = [sp.Poly.from_dict(f, *gens, modulus=p).as_expr() for f in polys]
        return sp.groebner(exprs, *gens, modulus=p, order="grevlex"), gens

    def _basis(self, polys, p: int, n: int) -> frozenset:
        """The reduced grevlex basis as a set of monic term sets."""
        gb, gens = self._gb(polys, p, n)
        out = set()
        for g in gb.exprs:
            poly = self._sympy.Poly(g, *gens, modulus=p).monic()
            out.add(frozenset((e, int(c) % p) for e, c in poly.as_dict().items()))
        return frozenset(out)

    def _contains(self, ideal, polys, p: int, n: int) -> bool:
        gb, gens = self._gb(ideal, p, n)
        sp = self._sympy
        return all(gb.reduce(sp.Poly.from_dict(f, *gens, modulus=p).as_expr())[1] == 0
                   for f in polys)
