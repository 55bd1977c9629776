"""Exception and warning types shared across the package."""


class TunnelTimesError(Exception):
    """Base of the package's errors; each also keeps a builtin base."""


class DomainError(TunnelTimesError, ValueError):
    """A physical parameter is outside the domain of the requested quantity."""


class NonConvergenceError(TunnelTimesError, RuntimeError):
    """A numerical scheme cannot reach its tolerance: budget, non-finite values,
    or a missing symmetry the route needs."""


class CountMismatchError(TunnelTimesError, RuntimeError):
    """Root harvest disagrees with the argument-principle count over a region."""


class InsufficientFluxError(TunnelTimesError, RuntimeError):
    """Too little probability reached the detector to form a meaningful average."""


class ValidityWarning(UserWarning):
    """The closed-form expressions are being used outside their validity regime."""
