"""Shared fixtures: worked table values, frame builders and a per-test time limit."""

import math
import signal

import numpy as np
import pytest
from hypothesis import settings

from skelgest import Frame, Joint

# `pytest --hypothesis-profile=ci`: ten times the default profile's examples, with no deadline
# per example, for a property test that scales its example count from the profile's
settings.register_profile("ci", max_examples=1000, deadline=None)

# No test here takes more than a few seconds; one that runs past this limit
# (a descent that loops, say) fails instead of hanging the run.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TEST_TIME_LIMIT_S. Not an Exception, so
    Hypothesis fails the test at once instead of running it again to shrink."""


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# Printed precision of the worked fixtures, in decimal places.
NORMALIZATION_DECIMALS = 4   # every column of WORKED_NORMALIZATION_ROWS
FRAME_DECIMALS = 3           # WORKED_FRAME_JOINTS, WORKED_MEAN_JOINTS, WORKED_DIRECTION_COSINES

# 24 worked rows: (frame, feature, euclidean distance, mean depth, normalized)
WORKED_NORMALIZATION_ROWS = (
    (10, 1, 0.1850, 2.2069, 0.0838),
    (10, 2, 0.1574, 2.1936, 0.0718),
    (10, 3, 0.2029, 2.1808, 0.0930),
    (10, 4, 0.1931, 2.1606, 0.0894),
    (10, 5, 0.2375, 2.1512, 0.1104),
    (10, 6, 0.2438, 2.1303, 0.1144),
    (30, 1, 0.2008, 2.1948, 0.0915),
    (30, 2, 0.1802, 2.1919, 0.0822),
    (30, 3, 0.2689, 2.1080, 0.1276),
    (30, 4, 0.2585, 2.1012, 0.1230),
    (30, 5, 0.3525, 2.0374, 0.1730),
    (30, 6, 0.3544, 2.0240, 0.1751),
    (60, 1, 0.2462, 2.1906, 0.1124),
    (60, 2, 0.2128, 2.2022, 0.0966),
    (60, 3, 0.3828, 2.1064, 0.1818),
    (60, 4, 0.3439, 2.1225, 0.1620),
    (60, 5, 0.5577, 2.0310, 0.2746),
    (60, 6, 0.5100, 2.0491, 0.2489),
    (85, 1, 0.2650, 2.2237, 0.1192),
    (85, 2, 0.2497, 2.2166, 0.1126),
    (85, 3, 0.4218, 2.1792, 0.1936),
    (85, 4, 0.4205, 2.1704, 0.1937),
    (85, 5, 0.5920, 2.1405, 0.2766),
    (85, 6, 0.6035, 2.1282, 0.2836),
)

# worked two-person frame: sixteen limb joints and their golden results
WORKED_FRAME_JOINTS = {
    Joint.SHOULDER_LEFT: (-0.423, 0.440, 3.048),
    Joint.ELBOW_LEFT: (-0.468, 0.199, 2.933),
    Joint.WRIST_LEFT: (-0.411, -0.009, 2.878),
    Joint.HAND_LEFT: (-0.388, -0.086, 2.858),
    Joint.SHOULDER_RIGHT: (-0.258, 0.407, 3.289),
    Joint.ELBOW_RIGHT: (-0.233, 0.110, 3.161),
    Joint.WRIST_RIGHT: (-0.212, -0.136, 3.321),
    Joint.HAND_RIGHT: (-0.218, -0.179, 3.386),
    Joint.HIP_LEFT: (-0.336, 0.050, 3.039),
    Joint.KNEE_LEFT: (-0.379, -0.451, 2.980),
    Joint.ANKLE_LEFT: (-0.407, -0.808, 2.865),
    Joint.FOOT_LEFT: (-0.355, -0.876, 2.840),
    Joint.HIP_RIGHT: (-0.260, 0.037, 3.179),
    Joint.KNEE_RIGHT: (-0.272, -0.486, 3.202),
    Joint.ANKLE_RIGHT: (-0.374, -0.807, 2.865),
    Joint.FOOT_RIGHT: (-0.340, -0.844, 2.975),
}

WORKED_MEAN_JOINTS = {
    "J1": (-0.109, 0.049, 0.736),
    "J2": (-0.059, 0.029, 0.812),
    "J3": (-0.091, -0.090, 0.743),
    "J4": (-0.072, -0.094, 0.783),
}

WORKED_DIRECTION_COSINES = {
    "J1": (-0.146, 0.066, 0.986),
    "J2": (-0.072, 0.036, 0.996),
    "J3": (-0.120, -0.120, 0.985),
    "J4": (-0.091, -0.119, 0.989),
}


# The printed direction cosines sit up to 1.07e-3 from the cosines of the
# printed mean joints, more than their 3-decimal rounding explains (J1 needs a
# norm near 0.7465 where the printed joint gives 0.7456), so their tolerance
# cannot be derived from FRAME_DECIMALS and stays fixed.
WORKED_COSINE_TOLERANCE = 1.5e-3


def half_unit(decimals):
    """Largest rounding error of a value printed to `decimals` places."""
    return 0.5 * 10.0 ** -decimals


def mean_joint_window(weights):
    """Largest |computed - printed| of a mean joint worked from printed joints.

    The printed result carries half a unit of rounding. Each printed joint
    coordinate does too, and moving it by h moves (w1 p1 + ... + w4 p4) / 4
    by |w| h / 4, so the inputs add sum(|w|) h / 4.
    """
    h = half_unit(FRAME_DECIMALS)
    return h + math.fsum(abs(w) for w in weights) * h / 4.0


def quotient_window(num, den):
    """Largest |computed - printed| of num / den worked from printed inputs.

    The printed quotient carries half a unit of rounding. With num, den > 0
    and each off by up to h, the quotient spans [(num - h) / (den + h),
    (num + h) / (den - h)]; the farther end from num / den adds the rest.
    """
    h = half_unit(NORMALIZATION_DECIMALS)
    q = num / den
    return h + max((num + h) / (den - h) - q, q - (num - h) / (den + h))


def make_frame(overrides=None, default=(0.2, 0.3, 2.0)):
    """Frame whose unset joints sit at a harmless default position."""
    arr = np.tile(np.asarray(default, dtype=np.float64), (20, 1))
    for joint, xyz in (overrides or {}).items():
        arr[Joint(joint).row] = xyz
    return Frame(arr)


@pytest.fixture
def worked_two_person_frame():
    return make_frame(WORKED_FRAME_JOINTS)


def random_frames(rng, n, low_z=1.5, high_z=3.2):
    """(n, 20, 3) plausible random poses: x, y in [-1, 1], z in [low, high]."""
    joints = np.empty((n, 20, 3))
    joints[:, :, 0] = rng.uniform(-1.0, 1.0, size=(n, 20))
    joints[:, :, 1] = rng.uniform(-1.0, 1.0, size=(n, 20))
    joints[:, :, 2] = rng.uniform(low_z, high_z, size=(n, 20))
    return joints
