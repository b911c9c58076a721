"""Exception types shared across the package."""


class CharpError(Exception):
    """Base class for every error raised by this package."""


class RingMismatchError(CharpError):
    """Operands belong to different polynomial rings."""


class DomainError(CharpError):
    """An argument lies outside an operation's domain."""


class UnsupportedInputError(DomainError):
    """Input shape is valid JSON/python but not supported by the engine."""


class TestElementError(DomainError):
    """The supplied chain seed is not a test element for the pair."""

    __test__ = False  # keep pytest from collecting the class


class PreconditionError(CharpError):
    """A documented precondition of an operation does not hold."""


class TheoremViolationError(CharpError):
    """A verified theorem failed on admissible input; signals a bug."""


class InternalInvariantError(CharpError):
    """An internal invariant broke; signals a convention or logic bug."""


class ResourceError(CharpError):
    """A resource cap fired.  The message names the cap and its value."""

    def __init__(self, cap_name: str, cap_value: int, detail: str = ""):
        self.cap_name = cap_name
        self.cap_value = cap_value
        msg = f"resource cap {cap_name}={cap_value} exceeded"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ParseError(CharpError):
    """Malformed polynomial or scenario text; carries a position."""

    def __init__(self, message: str, column: int | None = None):
        self.column = column
        super().__init__(message if column is None
                         else f"{message} at column {column}")


class ScenarioError(CharpError):
    """A scenario file is structurally invalid."""
