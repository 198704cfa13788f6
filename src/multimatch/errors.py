"""Exception types shared across the package."""


class MatchingError(ValueError):
    """Base class for errors raised on invalid inputs or infeasible requests."""


class DimensionMismatch(MatchingError):
    """A matrix shape disagrees with the declared candidate counts."""


class InfeasibleK(MatchingError):
    """Requested selection size exceeds available candidates or rows."""


class NonFiniteEntry(MatchingError):
    """An input matrix contains NaN or infinite entries."""


class InstanceTooLarge(MatchingError):
    """Exhaustive enumeration would exceed its fixed labeling budget."""


class ParseError(MatchingError):
    """A problem, labeling, or ground-truth document is malformed."""
