"""Exception hierarchy.

Every error deliberately raised by this library derives from
:class:`SidepadError`, so callers can catch one type at the boundary.
The CLI maps subclasses onto exit codes (see ``sidepad.cli``).
"""

from __future__ import annotations


class SidepadError(Exception):
    """Base class for all errors raised by sidepad."""


class InputError(SidepadError, ValueError):
    """A document, token, label, or argument value is malformed."""


class DimensionMismatchError(SidepadError, ValueError):
    """A scheme and an instance do not share shape or labels."""


class InfeasibleError(SidepadError):
    """Construction was requested for an instance that violates the
    column condition.  ``violations`` holds the offending column indices."""

    def __init__(self, message: str, violations: tuple[int, ...] = ()):
        super().__init__(message)
        self.violations = tuple(violations)


class OffSupportError(SidepadError):
    """Encode or decode was asked about an event the scheme never produces."""


class CapExceededError(SidepadError):
    """An operation refused a size above its cap: an exact search's
    alphabet or node budget, or a rational too long to print."""


class UnverifiedSchemeError(SidepadError):
    """The operation requires a scheme that passes verification first."""


class InternalInvariantError(SidepadError):
    """An internal arithmetic invariant broke.

    Seeing this means a bug in the library, never bad user input: the
    algorithms that raise it operate on values already validated upstream.
    """
