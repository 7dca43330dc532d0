"""Exception hierarchy.

Two branches matter to callers (and to the CLI's exit codes): input/format
problems and computation problems. Everything raised by this package derives
from SkelgestError.
"""


class SkelgestError(Exception):
    pass


class InputFormatError(SkelgestError):
    """Malformed input data or files (CLI exit code 2)."""


class ComputationError(SkelgestError):
    """Valid input that cannot be processed (CLI exit code 3)."""


# --- skeleton stream parsing ---

class MalformedStreamError(InputFormatError):
    """Token count not divisible by 60."""

    def __init__(self, count):
        self.count = count
        super().__init__(f"stream holds {count} tokens, not a multiple of 60")


class BadTokenError(InputFormatError):
    """A token that does not parse as a finite float."""

    def __init__(self, position, token):
        self.position = position
        super().__init__(f"token {position} is not a finite float: {token!r}")


class EmptyStreamError(InputFormatError):
    def __init__(self):
        super().__init__("stream holds zero frames")


# --- feature extraction ---

class DegenerateDepthError(ComputationError):
    """Mean depth of a centroid/spine pair is not positive."""

    def __init__(self, mean_depth, triangle=None, frame=None):
        self.mean_depth = mean_depth
        self.triangle = triangle
        self.frame = frame
        where = f" (triangle {triangle}, frame {frame})" if triangle is not None else ""
        super().__init__(f"non-positive mean depth {mean_depth}{where}")


class DegenerateDirectionError(ComputationError):
    """Direction cosines of the zero vector are undefined."""

    def __init__(self, mean_joint=None, frame=None):
        self.mean_joint = mean_joint
        self.frame = frame
        where = f" (mean joint {mean_joint}, frame {frame})" if mean_joint is not None else ""
        super().__init__(f"zero-length vector has no direction{where}")


class FeatureOverflowError(ComputationError):
    """A length or depth sum overflows float64 (coordinates from about 1e154)."""

    def __init__(self, frame=None, **part):
        self.frame, self.part = frame, part  # triangle=k or mean_joint="Jk"
        where = "".join(f" ({k.replace('_', ' ')} {v}, frame {frame})" for k, v in part.items())
        super().__init__(f"coordinates too large: a vector length overflows float64{where}")


# --- classifiers ---

class DimensionMismatchError(ComputationError):
    def __init__(self, expected, got):
        super().__init__(f"feature vector length {got}, model expects {expected}")


class TrainingDegenerateError(ComputationError):
    pass


class ConvergenceFailureError(ComputationError):
    pass


class InvalidBootstrapError(ComputationError):
    def __init__(self, fraction, size):
        super().__init__(
            f"bootstrap_fraction {fraction} on {size} samples draws an empty sample"
        )


class ModelFormatError(InputFormatError):
    """Model file is corrupt, truncated, or of an unknown version."""


# --- harness ---

class DepthRangeViolationError(ComputationError):
    def __init__(self, template, z, lo, hi):
        super().__init__(
            f"template {template!r} leaves sensor depth range: z={z:.3f} not in [{lo}, {hi}]"
        )


class StratifyError(ComputationError):
    def __init__(self, label, count):
        super().__init__(f"class {label!r} has {count} sample(s); need at least 2 to split")
