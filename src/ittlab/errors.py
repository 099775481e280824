"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class IttError(Exception):
    """Base class for every error raised by this package."""


class ParseError(IttError):
    """Malformed source text; carries a position when one is known."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)


class UndeclaredConstant(IttError):
    """A type constant is used but not declared by the theory."""


class NaturalShapeViolation(IttError):
    """A theory marked natural breaks the characteristic-set shape rules."""


class UniverseTooLarge(IttError):
    """The finite type universe exceeded its member bound, subtyping.DEFAULT_CAP."""

    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(f"universe exceeded {bound} members")


class UndefinedConstant(IttError):
    """A constant was looked up in an axiom set that does not define it."""


class InvalidInput(IttError, ValueError):
    """An operation's precondition on its arguments does not hold."""


class PreconditionFailed(IttError):
    """A certificate-producing operation was called without its evidence."""
