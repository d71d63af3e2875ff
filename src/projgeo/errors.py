"""Exception types shared across the package."""


class ProjGeoError(Exception):
    """Base class for every error raised by projgeo."""


class IllConditioned(ProjGeoError):
    """Condition estimate exceeds the configured cap."""


class RankDeficientToZero(ProjGeoError):
    """Every input column is zero, or under the rank cutoff."""


class ZeroVector(ProjGeoError):
    """A nonzero vector was required."""


class NotCanonical(ProjGeoError, ValueError):
    """A representative projgeo computed failed its canonical-form check."""


class InvalidInput(ProjGeoError, ValueError):
    """An input document or value that is missing or malformed."""


class DimensionMismatch(ProjGeoError):
    """Operands live in different dimensions."""


class NotSquare(DimensionMismatch):
    """A square matrix was required."""


class FieldMismatch(ProjGeoError):
    """Operands live over different fields, or the wrong field was supplied."""


class ShapeMismatch(ProjGeoError):
    """Array has the wrong shape for the operation."""


class InvalidRange(ProjGeoError):
    """Integer argument outside its allowed range."""


class SamePoint(ProjGeoError):
    """Two distinct points were required."""


class Unresolved(ProjGeoError):
    """A discretization too coarse to resolve the input it was given."""


class DegenerateProjection(ProjGeoError):
    """No usable stereographic pole was found; indicates a bug."""


class SingularCoefficients(ProjGeoError):
    """Mobius coefficients whose determinant vanishes."""
