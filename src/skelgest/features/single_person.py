"""Single-person hand-gesture features.

Six per-frame features: for each of six fixed arm triangles, the Euclidean
distance from the triangle's centroid to the spine joint, divided by the
mean sensor depth of the two points. Dividing by depth makes the features
dimensionless and independent of how far the subject stands from the sensor.
"""

import numpy as np

from ..errors import DegenerateDepthError, FeatureOverflowError
from ..skeleton import Frame, Joint

# Fixed feature order: shoulder-level, forearm-level, hand-level, left before
# right at each level. Classifier input columns depend on this order.
TRIANGLES = (
    (Joint.SHOULDER_CENTER, Joint.SHOULDER_LEFT, Joint.ELBOW_LEFT),
    (Joint.SHOULDER_CENTER, Joint.SHOULDER_RIGHT, Joint.ELBOW_RIGHT),
    (Joint.SHOULDER_LEFT, Joint.ELBOW_LEFT, Joint.WRIST_LEFT),
    (Joint.SHOULDER_RIGHT, Joint.ELBOW_RIGHT, Joint.WRIST_RIGHT),
    (Joint.ELBOW_LEFT, Joint.WRIST_LEFT, Joint.HAND_LEFT),
    (Joint.ELBOW_RIGHT, Joint.WRIST_RIGHT, Joint.HAND_RIGHT),
)

N_FEATURES = len(TRIANGLES)

CSV_COLUMNS = tuple(f"d{i + 1}" for i in range(N_FEATURES))

# the skeleton rows sequence_features reads, ascending
JOINT_ROWS = tuple(sorted({j.row for tri in TRIANGLES for j in tri} | {Joint.SPINE.row}))

# (3, 6) rows of each triangle's first, second and third vertex
_VERTEX_ROWS = np.array([[j.row for j in tri] for tri in TRIANGLES]).T
_SPINE_ROW = Joint.SPINE.row


def triangle_centroid(a, b, c):
    """Component-wise mean of three vertices, each a (..., 3) point array."""
    a, b, c = (np.asarray(p, dtype=np.float64) for p in (a, b, c))
    return (a + b + c) / 3.0


def normalized_distance(centroid, spine):
    """Euclidean distance between the points divided by their mean depth.

    Computed as 2 * ||c - s|| / (c_z + s_z) over (..., 3) points that
    broadcast together. Raises DegenerateDepthError when a mean depth is
    not positive; a real sensor reports depths well above zero, so that
    indicates corrupt capture, and FeatureOverflowError when a distance or
    depth sum overflows. With two or more leading axes the errors name the
    frame (second-to-last axis) and the triangle (last axis, 1-based).
    """
    c = np.asarray(centroid, dtype=np.float64)
    s = np.asarray(spine, dtype=np.float64)
    with np.errstate(all="ignore"):  # a bad depth or an overflow is rejected below
        depth_sums = c[..., 2] + s[..., 2]
        distances = 2.0 * np.linalg.norm(c - s, axis=-1) / depth_sums
    for bad in (depth_sums <= 0.0, np.isinf(depth_sums) | ~np.isfinite(distances)):
        if bad.any():
            at = np.unravel_index(np.argmax(bad), bad.shape)
            where = dict(frame=int(at[-2]), triangle=int(at[-1]) + 1) if bad.ndim >= 2 else {}
            depth = depth_sums[at] / 2.0
            raise DegenerateDepthError(depth, **where) if depth <= 0.0 else FeatureOverflowError(**where)
    return distances


def sequence_features(seq):
    """(T, 6) feature matrix for a sequence, one row per frame in order.

    seq may also be a (..., T, 20, 3) joint array, giving (..., T, 6).
    """
    joints = getattr(seq, "joints", seq)
    with np.errstate(over="ignore"):  # an infinite centroid gives a distance that is rejected
        centroids = triangle_centroid(*(joints[..., rows, :] for rows in _VERTEX_ROWS))
    return normalized_distance(centroids, joints[..., _SPINE_ROW, None, :])


def frame_features(frame):
    """The six normalized centroid-to-spine distances of one frame (a Frame
    or a (20, 3) array); an error names it frame 0."""
    return sequence_features(Frame(getattr(frame, "joints", frame)).joints[None])[0]
