"""Exception types shared across the package."""


class AuxFieldError(Exception):
    """Base class for all package errors."""


class DomainError(AuxFieldError, ValueError):
    """Argument lies outside the mathematical domain of an operation."""


class NoBoundState(AuxFieldError):
    """No bound state exists for the requested quantum numbers.

    ``reason`` is a machine-readable code:

    * ``"state-not-allowed"`` -- the Lambert argument falls below -1/e,
      so the energy formula has no real value.
    * ``"nonnegative-energy"`` -- a real energy exists but is >= 0.
    * ``"not-supported"`` -- the numeric eigensolver found fewer bound
      states than requested.
    """

    def __init__(self, reason: str, message: str | None = None):
        self.reason = reason
        super().__init__(message or reason)


class NumericalFailure(AuxFieldError, RuntimeError):
    """A numeric procedure failed, or refused an under-resolved result."""
