"""Resource caps.

Gröbner-type computations can blow up; the caps make them fail loudly
with a ResourceError instead of hanging.  The caps in force live in one
context variable: `scenario.execute` runs its jobs inside
`caps_scope(caps)`, library callers may do the same, and every limit is
read with `current_caps()` where it is enforced, so one setting binds
in every completion, chain and check below it.  Outside any scope the
caps are DEFAULT_CAPS.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from math import comb
from typing import Iterator

from .errors import ResourceError


@dataclass(frozen=True)
class Caps:
    max_degree: int = 64          # each power in polynomial text, completions
                                  # and their inputs, f^a, seeds, graded pieces
    max_basis: int = 512          # generators tracked during basis completion
    chain_steps: int = 64         # iterations allowed in fixed-ideal chains
    frobenius_block: int = 256    # largest p^e handled by basis expansion
    ext_degree: int = 3           # largest field extension used for point sampling
    max_piece: int = 1_000_000    # monomials in one graded piece, counted
                                  # before it is enumerated

    def with_overrides(self, **kwargs: int) -> "Caps":
        unknown = set(kwargs) - set(self.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown cap names: {sorted(unknown)}")
        return replace(self, **kwargs)


DEFAULT_CAPS = Caps()

_CAPS: ContextVar[Caps] = ContextVar("charp_caps", default=DEFAULT_CAPS)


def current_caps() -> Caps:
    """The caps in force in the current context."""
    return _CAPS.get()


@contextmanager
def caps_scope(caps: Caps) -> Iterator[Caps]:
    """Run the body with `caps` in force; the previous caps come back on
    exit, also when the body raises."""
    token = _CAPS.set(caps)
    try:
        yield caps
    finally:
        _CAPS.reset(token)


def check_degree(degree: int, what: str, where: str = ""):
    """Refuse `what` of this total degree above the degree cap in force."""
    limit = current_caps().max_degree
    if degree > limit:
        raise ResourceError("max_degree", limit,
                            f"{what} of degree {degree}{where}")


def check_piece(nvars: int, degree: int):
    """Refuse a graded piece with more monomials than the piece cap in
    force, from their count C(degree + nvars - 1, nvars - 1) and before
    any of them is formed."""
    count = comb(degree + nvars - 1, nvars - 1) if degree >= 0 else 0
    limit = current_caps().max_piece
    if count > limit:
        raise ResourceError("max_piece", limit,
                            f"graded piece of degree {degree} in {nvars} "
                            f"variables has {count} monomials")
