"""Exception types shared across the pipeline stages."""


class EyeheadError(Exception):
    """Base class for all library errors."""


# --- ingest ---------------------------------------------------------------

class TraceSchemaError(EyeheadError, ValueError):
    """A trace CSV violates the canonical schema."""


class MissingColumnError(TraceSchemaError):
    def __init__(self, column: str, path: str = "") -> None:
        self.column = column
        self.path = path
        super().__init__(f"missing column {column!r}" + (f" in {path}" if path else ""))


class EmptyFileError(TraceSchemaError):
    def __init__(self, path: str = "") -> None:
        self.path = path
        super().__init__(f"no data rows" + (f" in {path}" if path else ""))


class NonMonotonicTimeError(EyeheadError, ValueError):
    """Timestamps are not strictly increasing."""

    def __init__(self, index: int, timestamp: float, context: str = "") -> None:
        self.index = index
        self.timestamp = timestamp
        msg = f"timestamp {timestamp!r} at row {index} does not strictly increase"
        super().__init__(msg + (f" ({context})" if context else ""))


class NoOverlapError(EyeheadError, ValueError):
    """Gaze and head streams share no time window."""


# --- events ---------------------------------------------------------------

class TooFewSamplesError(EyeheadError, ValueError):
    """Operation needs more samples than the series provides."""


class TooFewFixationsError(EyeheadError, ValueError):
    """Shift extraction needs at least two fixations."""


# --- models ---------------------------------------------------------------

class DomainError(EyeheadError, ValueError):
    """Eccentricity outside the supported 0..50 degree domain."""


class TooFewPointsError(EyeheadError, ValueError):
    """Regression needs more points beyond the breakpoint."""


# --- fitting --------------------------------------------------------------

class EmptyDataError(EyeheadError, ValueError):
    """Fit requested on an empty shift set."""


class MismatchedDataError(EyeheadError, ValueError):
    """A fit's eccentricities x and head contributions y differ in shape."""


# --- fpca -----------------------------------------------------------------

class TooFewCurvesError(EyeheadError, ValueError):
    """Spectrum decomposition needs at least two curves."""


class GridMismatchError(EyeheadError, ValueError):
    """Curve is not sampled on the model's eccentricity grid."""


class IndexOutOfRangeError(EyeheadError, IndexError):
    """Requested component was not retained in the spectrum model."""


class EmptyReferenceError(EyeheadError, ValueError):
    """Percentile rank needs a non-empty reference score set."""


# --- stats ----------------------------------------------------------------

class LengthMismatchError(EyeheadError, ValueError):
    """Paired statistics need equal-length inputs."""


class ZeroSpreadError(EyeheadError, ValueError):
    """Density estimation needs values with nonzero spread."""


class OneSidedDataError(EyeheadError, ValueError):
    """Symmetry analysis needs shifts on both sides of the midline."""


# --- cli ------------------------------------------------------------------

class MissingInputError(EyeheadError, ValueError):
    """A pipeline stage received no usable input."""
