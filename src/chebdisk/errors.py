"""Exception hierarchy shared across the package.

Every error the package raises derives from ChebdiskError.  None of them
is a size limit: an input is refused for its domain or its precision,
never for its degree alone.
"""


class ChebdiskError(Exception):
    """Base class for all package errors."""


class DomainError(ChebdiskError):
    """Input outside the mathematical domain of an operation."""


class PrecisionError(ChebdiskError):
    """Requested tolerance could not be met."""


class PoleError(ChebdiskError):
    """Evaluation at (or numerically indistinguishable from) a pole."""


class SingularSystemError(ChebdiskError):
    """Linear system pivot below the trust threshold."""


class NoCriticalValues(ChebdiskError):
    """Degree-1 products have no critical point in the disk."""


class RootFindingError(ChebdiskError):
    """A critical value missed +-sqrt(k(n tau)) beyond its relative tolerance."""


class NotTransitiveError(ChebdiskError):
    """Operation requires a transitive monodromy representation."""


class NotTreeError(ChebdiskError):
    """Operation requires a tree monodromy representation."""


class DenominatorNearZero(ChebdiskError):
    """An identity's closed-form denominator is numerically degenerate."""


class ParseError(ChebdiskError):
    """Malformed textual input; carries a position when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
