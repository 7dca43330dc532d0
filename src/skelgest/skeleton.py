"""Skeleton joint streams: the 20-joint flat-float text format.

A recording is a plain-text file of whitespace-separated decimal floats,
60 per frame, ordered frame-major, then joint-major, then x, y, z. Joint
order is fixed (HIP_CENTER first, FOOT_RIGHT last). Coordinates are meters;
z is the depth measured by the sensor. Two-person recordings use two files,
one per person.
"""

import enum
import io
from dataclasses import dataclass

import numpy as np

from .errors import BadTokenError, EmptyStreamError, InputFormatError, MalformedStreamError

N_JOINTS = 20
FLOATS_PER_FRAME = 3 * N_JOINTS


class Joint(enum.IntEnum):
    """The twenty joints, numbered 1..20 in file order."""

    HIP_CENTER = 1
    SPINE = 2
    SHOULDER_CENTER = 3
    HEAD = 4
    SHOULDER_LEFT = 5
    ELBOW_LEFT = 6
    WRIST_LEFT = 7
    HAND_LEFT = 8
    SHOULDER_RIGHT = 9
    ELBOW_RIGHT = 10
    WRIST_RIGHT = 11
    HAND_RIGHT = 12
    HIP_LEFT = 13
    KNEE_LEFT = 14
    ANKLE_LEFT = 15
    FOOT_LEFT = 16
    HIP_RIGHT = 17
    KNEE_RIGHT = 18
    ANKLE_RIGHT = 19
    FOOT_RIGHT = 20

    @property
    def row(self):
        """0-based row of this joint inside a frame array."""
        return self.value - 1


@dataclass(frozen=True)
class Frame:
    """One time sample: a (20, 3) array of joint positions in meters."""

    joints: np.ndarray

    def __post_init__(self):
        # copy so freezing never reaches back into a caller's buffer
        arr = np.array(self.joints, dtype=np.float64)
        if arr.shape != (N_JOINTS, 3):
            raise ValueError(f"frame must be ({N_JOINTS}, 3), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("frame contains NaN or Inf")
        arr.setflags(write=False)
        object.__setattr__(self, "joints", arr)

    def position(self, joint):
        """Stored (x, y, z) of one joint."""
        return self.joints[Joint(joint).row]


@dataclass(frozen=True)
class SkeletonSequence:
    """Ordered frames of one person, as a (T, 20, 3) array."""

    joints: np.ndarray

    def __post_init__(self):
        arr = np.array(self.joints, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1:] != (N_JOINTS, 3):
            raise ValueError(f"sequence must be (T, {N_JOINTS}, 3), got {arr.shape}")
        if arr.shape[0] == 0:
            raise EmptyStreamError()
        if not np.isfinite(arr).all():
            raise ValueError("sequence contains NaN or Inf")
        arr.setflags(write=False)
        object.__setattr__(self, "joints", arr)

    def __len__(self):
        return self.joints.shape[0]

    def frame(self, t):
        return Frame(self.joints[t])


def parse_skeleton_stream(text):
    """Parse a flat float stream into a SkeletonSequence.

    Token k (0-based) lands at frame k // 60, joint (k % 60) // 3,
    axis k % 3. Raises MalformedStreamError when the token count is not a
    multiple of 60, BadTokenError (with 1-based position) on an unparsable
    or non-finite token, and EmptyStreamError on zero frames.
    """
    if hasattr(text, "read"):
        text = text.read()
    tokens = text.split()
    if len(tokens) % FLOATS_PER_FRAME != 0:
        raise MalformedStreamError(len(tokens))
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        # slow path only to name the offending token
        for i, tok in enumerate(tokens):
            try:
                float(tok)
            except ValueError:
                raise BadTokenError(i + 1, tok) from None
        raise
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise BadTokenError(i + 1, tokens[i])
    joints = values.reshape(-1, N_JOINTS, 3)
    return SkeletonSequence(joints)


def serialize_skeleton_stream(seq):
    """Render a sequence back to the flat text format.

    Values are written with repr, which round-trips float64 exactly, so
    parse(serialize(seq)) reproduces every coordinate bit for bit. One line
    per frame.
    """
    lines = [format_floats(seq.joints[t].reshape(-1)) for t in range(len(seq))]
    return "\n".join(lines) + "\n"


def read_ascii(path):
    """An ASCII file's text; non-ASCII is an InputFormatError naming the path."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: {exc}") from None


def read_skeleton_file(path):
    return parse_skeleton_stream(read_ascii(path))


def write_skeleton_file(path, seq):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_skeleton_stream(seq))


def format_floats(values, sep=" "):
    """The repr of each value joined by sep; repr round-trips float64 exactly."""
    return sep.join(repr(float(v)) for v in values)


def matrix_to_csv(columns, matrix, frame_column=False):
    """CSV text: a header of column names, then one line per matrix row;
    frame_column prepends each row's 0-based index under a `frame` header."""
    out = io.StringIO()
    out.write(("frame," if frame_column else "") + ",".join(columns) + "\n")
    for t, row in enumerate(np.asarray(matrix, dtype=np.float64)):
        out.write((f"{t}," if frame_column else "") + format_floats(row, ",") + "\n")
    return out.getvalue()


CSV_COLUMNS = tuple(f"j{j.value:02d}_{axis}" for j in Joint for axis in ("x", "y", "z"))


def sequence_to_csv(seq):
    """CSV view of a sequence: one row per frame, 60 columns, fixed header."""
    return matrix_to_csv(CSV_COLUMNS, seq.joints.reshape(len(seq), -1))
