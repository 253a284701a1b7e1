"""Exception types shared across the package."""


class StableTauError(Exception):
    """Base class for all package errors."""


class PointOutsideError(StableTauError):
    """A point that must lie inside the domain does not."""


class OnBoundaryError(StableTauError):
    """A point sits on the boundary within tolerance where a side is required."""


class NonConvexError(StableTauError):
    """The support function fails strict convexity (h + h'' <= 0 somewhere)."""


class NotInUnitBallError(StableTauError):
    """The domain is not contained in the unit ball (max h > 1)."""


class OutsideBallError(StableTauError):
    """|x| exceeds the ball radius where the closed form requires |x| <= r."""


class BadGeometryError(StableTauError):
    """Kernel arguments violate the inside/outside preconditions."""


class OriginSingularError(StableTauError):
    """The half-space kernel was evaluated at its singular point x = 0."""


class BelowPoleError(StableTauError):
    """The shifted kernel was evaluated at or below its pole plane."""


class UndefinedOnCutError(StableTauError):
    """Evaluation requested on the exterior cut (int D^c) x {0}."""


class GridTooCoarseError(StableTauError):
    """Requested lattice spacing leaves too few interior nodes."""


class InsufficientRangeError(StableTauError):
    """Probe h-values span less than the required factor."""


class DomainFileError(StableTauError):
    """A domain or field file is malformed."""


class NewtonError(StableTauError):
    """A Newton iteration did not reach its tolerance within its step budget."""


class NonConvergedError(StableTauError):
    """Adaptive quadrature exhausted its cell budget.

    Carries the best available value and error estimate.
    """

    def __init__(self, value, err_estimate, message="quadrature budget exhausted"):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate
