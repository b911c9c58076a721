"""Resource caps.

Gröbner-type computations can blow up; the caps make them fail loudly
with a ResourceError instead of hanging.  The caps in force live in one
context variable: `scenario.execute` runs its jobs inside
`caps_scope(caps)`, library callers may do the same, and every limit is
read with `current_caps()` where it is enforced, so one setting binds
in every completion, chain and check below it.  Outside any scope the
caps are DEFAULT_CAPS.

`Frozen` is the base of the engine's value types (`Caps`, `PolyRing`,
`PairDivisor`, `ProjScheme`, `GradedSubspace`).  They, like the engine's
records, are plain classes whose methods are written out by hand, so
that loading a module runs no generated code: a class decorator that
generates `__init__`, `__eq__` and the rest writes out their source and
`exec`s it each time its module loads.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import comb, log10
from typing import Iterator, Union

from .errors import ResourceError


class Frozen:
    """A value equal to, and hashed like, another of its class with the
    same fields, those named in FIELDS.  Its `__init__` fills the
    instance dict directly, as a `cached_property` does on first use;
    every assignment after that is refused."""

    __slots__ = ()
    FIELDS: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.FIELDS])

    def __eq__(self, other):
        if self is other:  # values are shared far more than rebuilt
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.FIELDS, self._values()))
        return f"{type(self).__name__}({fields})"


class Caps(Frozen):
    """The resource caps, named in FIELDS:

    max_degree       each power in polynomial text, completions and
                     their inputs, f^a, seeds, graded pieces
    max_basis        generators tracked during basis completion
    chain_steps      iterations allowed in fixed-ideal chains
    frobenius_block  largest p^e handled by basis expansion
    ext_degree       largest field extension used for point sampling
    max_piece        monomials in one graded piece, counted before it
                     is enumerated
    """

    FIELDS = ("max_degree", "max_basis", "chain_steps", "frobenius_block",
              "ext_degree", "max_piece")

    def __init__(self, max_degree: int = 64, max_basis: int = 512,
                 chain_steps: int = 64, frobenius_block: int = 256,
                 ext_degree: int = 3, max_piece: int = 1_000_000):
        vars(self).update(max_degree=max_degree, max_basis=max_basis,
                          chain_steps=chain_steps,
                          frobenius_block=frobenius_block,
                          ext_degree=ext_degree, max_piece=max_piece)

    def with_overrides(self, **kwargs: int) -> "Caps":
        unknown = set(kwargs) - set(self.FIELDS)
        if unknown:
            raise ValueError(f"unknown cap names: {sorted(unknown)}")
        return Caps(**dict(zip(self.FIELDS, self._values()), **kwargs))


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


SHOWN_BITS = 14_000  # integers below 2^14000 < 10^4215 print in decimal


def shown(x: Union[int, Fraction]) -> str:
    """An integer or fraction as a message prints it: in decimal up to
    SHOWN_BITS bits, well inside the 4300 digits the interpreter turns
    into text, and past that as its order of magnitude `~10^k`, so that
    building the message of an error never fails.  The integers that
    messages print can grow past what the job's fields hold (a product
    or a power of them); `cartier._check_level` names a level too large
    to form as the power `p^e` instead."""
    if x.denominator != 1:
        return f"{shown(x.numerator)}/{shown(x.denominator)}"
    n = int(x)
    if n.bit_length() <= SHOWN_BITS:
        return str(n)
    return f"{'-' if n < 0 else ''}~10^{int(log10(abs(n)))}"


def check_degree(degree: int, what: str, where: str = ""):
    """Refuse `what` of this total degree above the degree cap in force."""
    limit = current_caps().max_degree
    if degree > limit:
        raise ResourceError("max_degree", limit,
                            f"{what} of degree {shown(degree)}{where}")


def check_piece(nvars: int, degree: int):
    """Refuse a graded piece with more monomials than the piece cap in
    force, from their count C(degree + nvars - 1, nvars - 1) and before
    any of them is formed."""
    count = comb(degree + nvars - 1, nvars - 1) if degree >= 0 else 0
    limit = current_caps().max_piece
    if count > limit:
        raise ResourceError("max_piece", limit,
                            f"graded piece of degree {shown(degree)} in "
                            f"{nvars} variables has {shown(count)} monomials")
