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


class SignAmbiguousError(DomainError, ValueError):
    """A tabulated rate changes sign, so it is in neither P nor -P."""


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


class StructuralError(IsscertError):
    """A structural precondition of a construction fails (exit 4 in the CLI)."""


class ImageNotFullError(StructuralError):
    """A transform's image is not all of R, so the construction fails."""


class DegenerateGammaError(StructuralError):
    """The gap u + C - m in the decay interpolant is negative."""


class DwellPreconditionError(IsscertError, ValueError):
    """The signal breaks the certificate's dwell conditions or exceeds its
    declared slack, so the decreasing function cannot be built."""


class AsymmetricError(IsscertError):
    """A matrix violates the symmetry invariant."""


class ConfigError(IsscertError):
    """Malformed or inconsistent run configuration."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
