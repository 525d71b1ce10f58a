"""Exception types shared across the package."""


class IsscertError(Exception):
    """Base class for all package errors."""


class OutOfRangeError(IsscertError):
    """A query time lies outside [t0, horizon]."""


class DomainError(IsscertError):
    """Argument outside the valid domain of a rate or transform."""


class OutOfImageError(IsscertError):
    """Requested inverse value lies outside the attained image.

    Carries the attained image interval so callers can decide whether
    clamping is appropriate.
    """

    def __init__(self, y, lo, hi):
        super().__init__(f"value {y} outside attained image [{lo}, {hi}]")
        self.y = y
        self.image = (lo, hi)


class SignAmbiguousError(IsscertError):
    """A rate function changes sign on the sampled range."""


class NonFiniteError(IsscertError):
    """State left the finite range during simulation.

    ``partial`` holds the trajectory integrated up to the failure, when
    available, so callers can flush diagnostics.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class StepTooLargeError(IsscertError):
    """Integration step exceeds the shortest inter-switch gap."""


class DegenerateGapError(IsscertError):
    """Converted and original linear rates coincide; no threshold margin."""


class ImageNotFullError(IsscertError):
    """A transform's image is not all of R, so the construction fails."""


class DegenerateGammaError(IsscertError):
    """The gap u + C - m in the decay interpolant is negative."""


class AsymmetricError(IsscertError):
    """A matrix violates the symmetry invariant."""


class NumericalFailureError(IsscertError):
    """Ill-conditioned linear-algebra subproblem."""


class ConfigError(IsscertError):
    """Malformed or inconsistent run configuration."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
