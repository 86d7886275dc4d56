"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: parse/validation problems exit with 2,
scope or resource refusals with 3, cross-method disagreement with 4.
"""


class ZqError(Exception):
    """Base class for all errors raised by this package."""


class EdgeListParseError(ZqError):
    """Malformed edge-list input. Carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class GraphValidationError(ZqError):
    """Structurally invalid graph or graph argument (self-loop, bad vertex,
    bad family parameters)."""


class ScopeError(ZqError):
    """Input outside the scope a solver supports: wrong graph class, size
    above a configured cap, or a parameter regime whose value this package
    deliberately does not compute."""


class ResourceLimitError(ZqError):
    """An input or a solver exceeded a size, state or memo budget. Raised
    instead of allocating past the budget or ever returning an unverified
    value."""


class OracleProtocolError(ZqError):
    """An oracle policy returned an illegal reveal during trace extraction."""


class VerificationMismatch(ZqError):
    """Two applicable methods disagreed on a value during cross-verification."""
