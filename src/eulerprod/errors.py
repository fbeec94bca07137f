"""Exception types shared across the package.

Every numeric failure raises a subclass of EulerProductError so that callers
(and the CLI) can distinguish usage mistakes from evaluation failures.
"""


class EulerProductError(Exception):
    """Base class for all numeric errors raised by this package."""


class ResourceLimitError(EulerProductError):
    """Requested sieve limit exceeds the sieve's maximum, DEFAULT_MAX_LIMIT.

    The CLI reports it as a usage error (exit 2), like x below 2.
    """


class DomainError(EulerProductError):
    """Argument lies outside the supported domain of an operation."""


class SingularityError(EulerProductError):
    """Evaluation requested exactly at a pole, branch point or empty product."""


class SingularFactorError(EulerProductError):
    """An Euler factor vanishes at the requested point."""

    def __init__(self, message: str, prime: int):
        super().__init__(message)
        self.prime = prime


class ConvergenceError(EulerProductError):
    """An iterative scheme failed to converge within its iteration cap."""


class PoleProximityError(EulerProductError):
    """Reference zeta evaluation requested too close to the pole at s = 1."""


class InsufficientDataError(EulerProductError):
    """Too few usable data points survive for a least-squares decay fit."""
