"""Exception hierarchy shared across the workbench."""

from __future__ import annotations


class PitcError(Exception):
    """Base class for all workbench errors."""


class ParseError(PitcError):
    """Raised on malformed concrete syntax; carries source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnknownIdentifier(PitcError):
    """A process identifier has no definition in the environment."""


class BadDefinition(PitcError):
    """A definition violates its well-formedness constraints."""


class UnguardedRecursion(PitcError):
    """Identifier unfolding exceeded the guard depth without hitting a prefix."""


class InternalError(PitcError):
    """A broken internal invariant: a bug in the workbench, not in the input."""


class StateBudgetExceeded(PitcError):
    """Unfolding or equivalence checking exceeded the configured node budget."""


class NotWeaklyGuarded(PitcError):
    """An identifier used by the prover is not weakly guardedly defined."""


class DepthExceeded(PitcError):
    """The prover's unfold cap bound before a verdict could be reached."""
