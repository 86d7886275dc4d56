"""Exception hierarchy shared across the package.

Each class carries the exit code the CLI returns for it: 2 for parse and
validation problems, 3 for scope or resource refusals, 4 for cross-method
disagreement, and 1 for any other package error. `_echo` words the input
an error message quotes.
"""

# Characters of a token, line or id of the input that an error message
# quotes; a longer one is cut there and marked with "…".
_ECHO_CHARS = 40


def _echo(value) -> str:
    """value as an error message quotes it: its repr, cut to _ECHO_CHARS
    characters and "…" when longer. An int with more digits than Python
    writes out (4,300 by default) is named by its bit length, since repr()
    refuses it."""
    try:
        text = repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "…"


class ZqError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class EdgeListParseError(ZqError):
    """Malformed edge-list input. Carries the 1-based line number."""

    exit_code = 2

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class GraphValidationError(ZqError):
    """Structurally invalid graph or graph argument (self-loop, bad vertex,
    bad family parameters)."""

    exit_code = 2


class ScopeError(ZqError):
    """Input outside the scope a solver supports: wrong graph class, size
    above a configured cap, or a parameter regime whose value this package
    deliberately does not compute."""

    exit_code = 3


class ResourceLimitError(ZqError):
    """An input or a solver exceeded a size, state or memo budget. Raised
    instead of allocating past the budget or ever returning an unverified
    value."""

    exit_code = 3


class OracleProtocolError(ZqError):
    """An oracle policy returned an illegal reveal during trace extraction."""


class VerificationMismatch(ZqError):
    """Two applicable methods disagreed on a value during cross-verification."""

    exit_code = 4
