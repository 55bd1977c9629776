"""Exception and warning types shared across the package."""


class TunnelTimesError(Exception):
    """Base of the package's errors; each also keeps a builtin base."""


class DomainError(TunnelTimesError, ValueError):
    """A physical parameter is outside the domain of the requested quantity."""


class NonConvergenceError(TunnelTimesError, RuntimeError):
    """An adaptive numerical scheme exhausted its budget before reaching tolerance."""


class ImaginaryResidueError(TunnelTimesError, ArithmeticError):
    """A quantity that must be real came out with a non-negligible imaginary part."""


class CountMismatchError(TunnelTimesError, RuntimeError):
    """Root harvest disagrees with the argument-principle count over a region."""


class GridTooSmallError(TunnelTimesError, ValueError):
    """The simulation grid cannot hold the requested initial state."""


class InsufficientFluxError(TunnelTimesError, RuntimeError):
    """Too little probability reached the detector to form a meaningful average."""


class ValidityWarning(UserWarning):
    """The closed-form expressions are being used outside their validity regime."""
