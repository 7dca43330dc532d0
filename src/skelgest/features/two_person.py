"""Per-person features for two-person interactions.

Sixteen limb joints are collapsed into four weighted mean joints (left arm,
right arm, left leg, right leg). Each mean joint's direction cosines against
the sensor's x, y, z axes give three angles, so a frame yields twelve angles
in degrees. An interaction is a pair of independently featurized sequences,
one per person; each person's gesture is classified on its own.
"""

import numpy as np

from ..errors import DegenerateDirectionError, FeatureOverflowError
from ..skeleton import Frame, Joint

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

# the skeleton rows sequence_features reads, ascending
JOINT_ROWS = tuple(sorted(j.row for _, joints, _ in MEAN_JOINT_GROUPS for j in joints))

# (4, 4) rows of each group's first..fourth joint, and (4, 4, 1) weight
# columns: entry k is the k-th joint's weight in each of the four groups
_MEMBER_ROWS = np.array([[j.row for j in joints] for _, joints, _ in MEAN_JOINT_GROUPS]).T
_MEMBER_WEIGHTS = np.array([w for _, _, w in MEAN_JOINT_GROUPS]).T[:, :, None]


def mean_joint(p1, p2, p3, p4, w1, w2, w3, w4):
    """Weighted average of four joints: (w1*p1 + ... + w4*p4) / 4.

    The points are (..., 3) arrays that broadcast together; each weight is
    a scalar or a (G, 1) column giving one weight per group of G points.
    The division by 4 matches the reference worked values; the
    downstream angles are scale-invariant, so it never changes a feature.
    """
    p1, p2, p3, p4 = (np.asarray(p, dtype=np.float64) for p in (p1, p2, p3, p4))
    return (w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4) / 4.0


def direction_cosines(v):
    """(v_x, v_y, v_z) / ||v|| over (..., 3) vectors; cosines of the angles
    against +x, +y, +z. Raises DegenerateDirectionError on a zero vector, and
    FeatureOverflowError on an overflowing length; with two or more leading axes
    the errors name the frame (second-to-last axis) and the mean joint J1..J4."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):  # an infinite length is rejected below
        norms = np.linalg.norm(v, axis=-1)
    for bad, error in ((norms == 0.0, DegenerateDirectionError), (~np.isfinite(norms), FeatureOverflowError)):
        if bad.any():
            at = np.unravel_index(np.argmax(bad), bad.shape)
            raise error(**dict(frame=int(at[-2]), mean_joint=f"J{int(at[-1]) + 1}") if bad.ndim >= 2 else {})
    return v / norms[..., None]


def direction_angles(v):
    """Angles in degrees, each in [0, 180], from the direction cosines."""
    cos = np.clip(direction_cosines(v), -1.0, 1.0)
    return np.degrees(np.arccos(cos))


def sequence_features(seq):
    """(T, 12) angle matrix for a sequence, one row per frame in order.

    seq may also be a (..., T, 20, 3) joint array, giving (..., T, 12).
    """
    joints = getattr(seq, "joints", seq)
    with np.errstate(over="ignore"):  # an infinite mean joint has a length that is rejected
        mj = mean_joint(*(joints[..., rows, :] for rows in _MEMBER_ROWS), *_MEMBER_WEIGHTS)
    angles = direction_angles(mj)  # (..., T, 4, 3)
    return angles.reshape(angles.shape[:-2] + (N_FEATURES,))


def frame_features(frame):
    """Twelve angles of one frame (a Frame or a (20, 3) array), ordered
    (a, b, g) for J1, J2, J3, J4; an error names it frame 0."""
    return sequence_features(Frame(getattr(frame, "joints", frame)).joints[None])[0]
