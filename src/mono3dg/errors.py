"""Exception types shared across the package, and the check that raises
them for the first failing entry of a batch."""


def reject_first(bad, values, error: type, message: str) -> None:
    """Raise error(message.format(v)) for the first value v whose entry of
    bad holds; the message is built only then.

    bad and values are both scalars, or both arrays of the same length, so
    one check serves a single query and a batch of them alike.
    """
    if getattr(bad, "ndim", 0):
        if bad.any():
            raise error(message.format(values[int(bad.argmax())]))
    elif bad:
        raise error(message.format(values))


class Mono3DGError(Exception):
    """Base class for all domain errors raised by this package."""


# -- camera geometry --------------------------------------------------------

class NonPositiveDepth(Mono3DGError):
    """A depth value was zero or negative where a positive one is required."""


class DegenerateHeight(Mono3DGError):
    """2D height too small (or 3D height non-positive) for height-based depth."""


class MissingHeight2D(Mono3DGError):
    """Fused depth reasoning was requested without a 2D height."""


# -- rotations ---------------------------------------------------------------

class DegenerateSixD(Mono3DGError):
    """6D rotation input cannot be orthonormalized (zero or parallel columns)."""


class NotARotation(Mono3DGError):
    """Matrix fails orthonormality or determinant checks."""


class GimbalLockRegion(Mono3DGError):
    """Euler extraction attempted at or numerically near pitch = +/- pi/2."""


class NotYawOnly(Mono3DGError):
    """The yaw-only IoU fast path received a rotation with pitch/roll terms."""


class BehindCamera(Mono3DGError, ValueError):
    """A viewing ray was requested toward a center that is not in front of the camera."""


# -- feature / decoder numerics ---------------------------------------------

class ShapeMismatch(Mono3DGError):
    """Tensor arguments have incompatible shapes."""


class EmptyValidMask(Mono3DGError):
    """A depth-map loss was requested with no valid cells."""


class MalformedSequence(Mono3DGError):
    """Token sequence violates the pos-marker / query-slot structure."""


class EmptyDataset(Mono3DGError):
    """Training was requested on an empty dataset."""


# -- harness -----------------------------------------------------------------

class InvalidRanges(Mono3DGError):
    """Synthetic generation ranges are empty, inverted, or non-positive."""


class UnmatchedPrediction(Mono3DGError):
    """A prediction references an (image_id, object_id) absent from ground truth."""


class ParseError(Mono3DGError):
    """A JSONL line is not valid JSON. Carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SchemaError(Mono3DGError):
    """A parsed record violates the schema. Names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field
