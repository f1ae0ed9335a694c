"""Exception types raised by the compute modules."""


class QStreamError(Exception):
    """Base class for all package errors."""


class AllBelowThreshold(QStreamError):
    """Density is below the node threshold everywhere; phase is undefined."""


class StabilityViolation(QStreamError):
    """Time step violates the configured stability/accuracy bound."""


class LeftDomain(QStreamError):
    """A trajectory or path left the computational domain."""


class NodeEncounter(QStreamError):
    """Trajectory integration hit an invalid (sub-threshold) region."""


class ZeroDensity(QStreamError):
    """Cannot sample positions from a density that integrates to zero."""


class ResolutionViolation(QStreamError):
    """Transverse grid cannot resolve the finest fringe at the nearest plane."""


class ManifestWriteError(QStreamError):
    """A run's manifest.json could not be written after its stages ran."""


class ParseError(QStreamError):
    """Scenario text could not be parsed."""

    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidationError(QStreamError):
    """Scenario parsed but violates a constraint."""

    def __init__(self, key, constraint):
        super().__init__(f"{key}: {constraint}")
        self.key = key
        self.constraint = constraint
