"""Per-person features for two-person interactions.

Sixteen limb joints are collapsed into four weighted mean joints (left arm,
right arm, left leg, right leg). Each mean joint's direction cosines against
the sensor's x, y, z axes give three angles, so a frame yields twelve angles
in degrees. An interaction is a pair of independently featurized sequences,
one per person; each person's gesture is classified on its own.
"""

import numpy as np

from ..base import SequenceTransformer
from ..errors import DegenerateDirectionError
from ..skeleton import Joint, SkeletonSequence, matrix_to_csv

# Anthropometric weights, fixed across frames. Each group sums to 1.
ARM_WEIGHTS = (0.271, 0.449, 0.149, 0.131)   # shoulder, elbow, wrist, hand
LEG_WEIGHTS = (0.348, 0.437, 0.119, 0.096)   # hip, knee, ankle, foot

MEAN_JOINT_GROUPS = (
    ("J1", (Joint.SHOULDER_LEFT, Joint.ELBOW_LEFT, Joint.WRIST_LEFT, Joint.HAND_LEFT), ARM_WEIGHTS),
    ("J2", (Joint.SHOULDER_RIGHT, Joint.ELBOW_RIGHT, Joint.WRIST_RIGHT, Joint.HAND_RIGHT), ARM_WEIGHTS),
    ("J3", (Joint.HIP_LEFT, Joint.KNEE_LEFT, Joint.ANKLE_LEFT, Joint.FOOT_LEFT), LEG_WEIGHTS),
    ("J4", (Joint.HIP_RIGHT, Joint.KNEE_RIGHT, Joint.ANKLE_RIGHT, Joint.FOOT_RIGHT), LEG_WEIGHTS),
)

N_FEATURES = 3 * len(MEAN_JOINT_GROUPS)

CSV_COLUMNS = tuple(
    f"{axis}{name}" for name, _, _ in MEAN_JOINT_GROUPS for axis in ("a", "b", "g")
)

_GROUP_ROWS = np.array([[j.row for j in joints] for _, joints, _ in MEAN_JOINT_GROUPS])
_GROUP_WEIGHTS = np.array([w for _, _, w in MEAN_JOINT_GROUPS])  # (4, 4)


def mean_joint(p1, p2, p3, p4, w1, w2, w3, w4):
    """Weighted average of four joints: (w1*p1 + ... + w4*p4) / 4.

    The division by 4 matches the reference worked values; the
    downstream angles are scale-invariant, so it never changes a feature.
    """
    pts = np.asarray([p1, p2, p3, p4], dtype=np.float64)
    w = np.asarray([w1, w2, w3, w4], dtype=np.float64)
    return (w[:, None] * pts).sum(axis=0) / 4.0


def direction_cosines(v):
    """(v_x, v_y, v_z) / ||v||; cosines of the angles against +x, +y, +z."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise DegenerateDirectionError()
    return v / norm


def direction_angles(v):
    """Angles in degrees, each in [0, 180], from the direction cosines."""
    cos = np.clip(direction_cosines(v), -1.0, 1.0)
    return np.degrees(np.arccos(cos))


def sequence_features(seq):
    """(T, 12) angle matrix for a sequence, one row per frame in order.

    seq may also be a (..., T, 20, 3) joint array, giving (..., T, 12).
    """
    joints = getattr(seq, "joints", seq)
    pts = joints[..., _GROUP_ROWS, :]  # (..., T, 4, 4, 3)
    mj = (_GROUP_WEIGHTS[:, :, None] * pts).sum(axis=-2) / 4.0  # (..., T, 4, 3)
    norms = np.linalg.norm(mj, axis=-1)  # (..., T, 4)
    bad = np.argwhere(norms == 0.0)
    if bad.size:
        *_, t, i = bad[0]
        raise DegenerateDirectionError(mean_joint=MEAN_JOINT_GROUPS[int(i)][0], frame=int(t))
    cos = np.clip(mj / norms[..., None], -1.0, 1.0)
    return np.degrees(np.arccos(cos)).reshape(cos.shape[:-2] + (N_FEATURES,))


def frame_features(frame):
    """Twelve angles of one frame, ordered (a, b, g) for J1, J2, J3, J4."""
    return sequence_features(SkeletonSequence.from_frames([frame]))[0]


def features_to_csv(matrix, frame_column=False):
    """CSV text for a (T, 12) angle matrix, header aJ1..gJ4."""
    return matrix_to_csv(CSV_COLUMNS, matrix, frame_column)


class TwoPersonFeatures(SequenceTransformer):
    """One person's sequences to (n, T*12) angle vectors; see SequenceTransformer."""

    sequence_features = staticmethod(sequence_features)
