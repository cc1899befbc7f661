"""Exception types shared across the package."""


class GsyncError(Exception):
    """Base class for all package errors."""


class NonFiniteError(GsyncError):
    """A computation produced NaN or Inf (e.g. a diverging integration)."""


class RoundTripFailure(GsyncError):
    """inverse_step(step(m)) disagreed with m beyond the round-trip tolerance."""


class DimensionMismatch(GsyncError, ValueError):
    """Operand shapes are inconsistent with the declared dimensions."""


class DomainViolation(GsyncError, ValueError):
    """An evaluation point lies outside the map's admissible domain."""


class NotAContraction(GsyncError):
    """A construction required a state-contraction constant below one."""


class NotConverged(GsyncError):
    """An iteration stopped at its sweep limit before reaching its tolerance."""


class RegionEscape(GsyncError):
    """A recorded driven state left its declared invariant region."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DisjointRanges(GsyncError):
    """Two sampled synchronizations share no recorded time indices."""


class LengthMismatch(GsyncError, ValueError):
    """Windows passed to a weighted comparison have different lengths."""


class InsufficientPairs(GsyncError):
    """Too few near pairs were found to estimate a regularity statistic."""


class ConfigError(GsyncError):
    """A run configuration file is missing, malformed, or inconsistent."""
