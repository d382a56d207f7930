"""Exception types shared across the package, and the formatter for the
(component, prime) annotation keys their messages list."""

from __future__ import annotations

from typing import Iterable


def format_pairs(pairs: Iterable[tuple[int, int]]) -> str:
    """(component, prime) annotation keys as one human-readable list."""
    return ", ".join(f"(component {i}, prime {p})" for i, p in pairs)


class TorusembedError(Exception):
    """Base class for errors raised by this package."""


class ComponentValidationError(TorusembedError, ValueError):
    """An algebra component description does not define a valid field component."""


class InputDocumentError(TorusembedError, ValueError):
    """A problem document is malformed; carries a JSON-path style position."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class NeedAnnotations(TorusembedError):
    """A computation abstained; splitting annotations are required to proceed.

    ``pending`` lists (component_index, prime) pairs that would resolve it.
    """

    def __init__(self, pending: tuple[tuple[int, int], ...]):
        self.pending = tuple(sorted(set(pending)))
        super().__init__(
            f"splitting annotations needed at: {format_pairs(self.pending)}"
        )


class AuditError(TorusembedError, RuntimeError):
    """An internal consistency audit failed; indicates a bug, not bad input."""
