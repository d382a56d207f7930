"""Exception types shared across the package, the formatter for the
(component, prime) annotation keys their messages list, and ``echo``, the
one rule for how much of an input value a message repeats."""

from __future__ import annotations

from typing import Iterable

_ECHO_CHARS = 32  # how much of an input value an error message repeats


def echo(value: object) -> str:
    """``value`` as an error message repeats it: the first ``_ECHO_CHARS``
    characters of its text, then ``...`` if there are more.  A nonnegative
    int past the interpreter's digit limit for ``str`` shows its leading
    digits."""
    try:
        text = str(value)
    except ValueError:
        # log10(2) > 0.3, so this drops trailing digits but keeps more than
        # _ECHO_CHARS leading ones.
        return echo(value // 10 ** (value.bit_length() * 3 // 10 - _ECHO_CHARS))
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."


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
