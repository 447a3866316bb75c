"""Exception types shared across the package."""


class MagpsidoError(Exception):
    """Base class for all package errors."""


class UnsupportedOrderError(MagpsidoError):
    """Requested derivative order exceeds the supported budget."""


class NotApplicableError(MagpsidoError):
    """Operation preconditions not met for this symbol (e.g. no analytic data)."""


class StripViolationError(MagpsidoError):
    """Complex frequency argument leaves the analyticity strip."""


class AssemblyError(MagpsidoError):
    """Operator assembly hit a non-finite symbol value."""


class BudgetError(MagpsidoError):
    """Requested computation exceeds the configured size budget."""


class InsufficientWindowError(MagpsidoError):
    """Too few usable samples in a fit window."""


class ConfigError(MagpsidoError):
    """Scenario configuration invalid."""


class FormatError(MagpsidoError):
    """Operator file malformed or truncated."""


class OverflowGuardError(MagpsidoError):
    """Weight evaluation would overflow; reduce epsilon."""

    def __init__(self, msg, suggested_max_eps=None):
        super().__init__(msg)
        self.suggested_max_eps = suggested_max_eps
