"""Single-person hand-gesture features.

Six per-frame features: for each of six fixed arm triangles, the Euclidean
distance from the triangle's centroid to the spine joint, divided by the
mean sensor depth of the two points. Dividing by depth makes the features
dimensionless and independent of how far the subject stands from the sensor.
"""

import numpy as np

from ..base import SequenceTransformer
from ..errors import DegenerateDepthError
from ..skeleton import Joint, SkeletonSequence, matrix_to_csv

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

# (6, 3) row indices of the triangle vertices inside a frame array
_TRIANGLE_ROWS = np.array([[j.row for j in tri] for tri in TRIANGLES])
_SPINE_ROW = Joint.SPINE.row


def triangle_centroid(a, b, c):
    """Component-wise mean of three vertices."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    return (a + b + c) / 3.0


def normalized_distance(centroid, spine):
    """Euclidean distance between the points divided by their mean depth.

    Computed as 2 * ||c - s|| / (c_z + s_z). Raises DegenerateDepthError
    when the mean depth is not positive; a real sensor reports depths well
    above zero, so that indicates corrupt capture.
    """
    c = np.asarray(centroid, dtype=np.float64)
    s = np.asarray(spine, dtype=np.float64)
    depth_sum = c[2] + s[2]
    if depth_sum <= 0.0:
        raise DegenerateDepthError(depth_sum / 2.0)
    return 2.0 * float(np.linalg.norm(c - s)) / float(depth_sum)


def sequence_features(seq):
    """(T, 6) feature matrix for a sequence, one row per frame in order.

    seq may also be a (..., T, 20, 3) joint array, giving (..., T, 6).
    """
    joints = getattr(seq, "joints", seq)
    centroids = joints[..., _TRIANGLE_ROWS, :].mean(axis=-2)  # (..., T, 6, 3)
    spine = joints[..., _SPINE_ROW, None, :]  # (..., T, 1, 3)
    depth_sums = centroids[..., 2] + spine[..., 2]  # (..., T, 6)
    bad = np.argwhere(depth_sums <= 0.0)
    if bad.size:
        *_, t, i = bad[0]
        raise DegenerateDepthError(depth_sums[tuple(bad[0])] / 2.0, triangle=int(i) + 1, frame=int(t))
    dists = np.linalg.norm(centroids - spine, axis=-1)
    return 2.0 * dists / depth_sums


def frame_features(frame):
    """The six normalized centroid-to-spine distances of one frame."""
    return sequence_features(SkeletonSequence.from_frames([frame]))[0]


def features_to_csv(matrix, frame_column=False):
    """CSV text for a (T, 6) feature matrix, header d1..d6."""
    return matrix_to_csv(CSV_COLUMNS, matrix, frame_column)


class SinglePersonFeatures(SequenceTransformer):
    """Sequences to (n, T*6) flattened distance vectors; see SequenceTransformer."""

    sequence_features = staticmethod(sequence_features)
