#!/usr/bin/env python3
"""Scan divisor coefficients a/(p-1) for a fixed polynomial and report
where the pair stops being strongly F-regular and what the test ideal
jumps to.  A small staircase experiment over several small primes.

Usage: python scripts/fpt_scan.py [-h|--help] [poly] [primes...]
  poly defaults to the cuspidal cubic x^2+y^3 and the primes to
  5 7 11 13.  A bad polynomial or prime prints its error and exits 2.
"""

import sys
from fractions import Fraction

from charp.errors import CharpError
from charp.fsing import PairDivisor, tau
from charp.ring import PolyRing


def scan(poly_text: str, p: int) -> None:
    ring = PolyRing(("x", "y"), p)
    f = ring.parse(poly_text)
    print(f"p = {p}, f = {f}")
    previous = None
    for a in range(0, p):
        pair = PairDivisor(f, a, 1)
        ideal = tau(pair)
        basis = ", ".join(str(g) for g in ideal.groebner_basis)
        marker = ""
        if previous is not None and ideal != previous:
            marker = "   <- jump"
        print(f"  t = {str(Fraction(a, p - 1)):>6}  tau = ({basis}){marker}")
        previous = ideal
    print()


def fail(exc: Exception) -> int:
    print(f"fpt_scan: {exc}", file=sys.stderr)
    return 2


def main() -> int:
    args = sys.argv[1:]
    if args[:1] in (["-h"], ["--help"]):
        print(__doc__.strip())
        return 0
    poly_text = args[0] if args else "x^2+y^3"
    try:
        primes = [int(v) for v in args[1:]] or [5, 7, 11, 13]
    except ValueError as exc:
        return fail(exc)
    try:
        for p in primes:
            scan(poly_text, p)
    except CharpError as exc:
        return fail(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
