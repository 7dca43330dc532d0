import math

import numpy as np
import pytest

from skelgest import Frame, SkeletonSequence
from skelgest.base import feature_matrix
from skelgest.errors import DegenerateDirectionError, FeatureOverflowError
from skelgest.features.two_person import (
    ARM_WEIGHTS,
    LEG_WEIGHTS,
    MEAN_JOINT_GROUPS,
    direction_angles,
    direction_cosines,
    frame_features,
    mean_joint,
    sequence_features,
)

from conftest import (
    WORKED_COSINE_TOLERANCE,
    WORKED_DIRECTION_COSINES,
    WORKED_FRAME_JOINTS,
    WORKED_MEAN_JOINTS,
    mean_joint_window,
    random_frames,
)


def oracle_angles(joints):
    """Straight-line recomputation of the twelve angles with plain math."""
    groups = [
        ((5, 6, 7, 8), (0.271, 0.449, 0.149, 0.131)),
        ((9, 10, 11, 12), (0.271, 0.449, 0.149, 0.131)),
        ((13, 14, 15, 16), (0.348, 0.437, 0.119, 0.096)),
        ((17, 18, 19, 20), (0.348, 0.437, 0.119, 0.096)),
    ]
    out = []
    for ids, ws in groups:
        mx = sum(w * joints[i - 1][0] for i, w in zip(ids, ws)) / 4.0
        my = sum(w * joints[i - 1][1] for i, w in zip(ids, ws)) / 4.0
        mz = sum(w * joints[i - 1][2] for i, w in zip(ids, ws)) / 4.0
        norm = math.sqrt(mx * mx + my * my + mz * mz)
        for comp in (mx, my, mz):
            out.append(math.degrees(math.acos(comp / norm)))
    return out


class TestWeights:
    def test_groups_sum_to_one(self):
        assert abs(math.fsum(ARM_WEIGHTS) - 1.0) < 1e-9
        assert abs(math.fsum(LEG_WEIGHTS) - 1.0) < 1e-9

    def test_group_joint_membership(self):
        names = [name for name, _, _ in MEAN_JOINT_GROUPS]
        assert names == ["J1", "J2", "J3", "J4"]


class TestMeanJoint:
    def test_left_arm_worked_value(self):
        pts = [WORKED_FRAME_JOINTS[j] for j in [g for g in MEAN_JOINT_GROUPS[0][1]]]
        got = mean_joint(*pts, *ARM_WEIGHTS)
        # the printed joints carry 3-decimal rounding too, so z may sit more than
        # half a unit from the printed 0.736 (5.4e-4 here) and still be right
        np.testing.assert_allclose(
            got, WORKED_MEAN_JOINTS["J1"], atol=mean_joint_window(ARM_WEIGHTS)
        )
        assert got[2] == pytest.approx(0.73653625, abs=1e-12)

    def test_left_leg_worked_value(self):
        pts = [WORKED_FRAME_JOINTS[j] for j in [g for g in MEAN_JOINT_GROUPS[2][1]]]
        got = mean_joint(*pts, *LEG_WEIGHTS)
        np.testing.assert_allclose(
            got, WORKED_MEAN_JOINTS["J3"], atol=mean_joint_window(LEG_WEIGHTS)
        )

    def test_all_origin(self):
        o = (0.0, 0.0, 0.0)
        np.testing.assert_allclose(mean_joint(o, o, o, o, *ARM_WEIGHTS), [0, 0, 0])

    def test_plain_weighted_mean_over_four(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            pts = rng.normal(size=(4, 3))
            ws = rng.uniform(0.05, 0.5, size=4)
            got = mean_joint(*pts, *ws)
            for axis in range(3):
                want = math.fsum(w * p[axis] for w, p in zip(ws, pts)) / 4.0
                assert abs(got[axis] - want) < 1e-12


class TestDirectionCosines:
    def test_worked_left_arm(self):
        got = direction_cosines(np.array([-0.109, 0.049, 0.736]))
        np.testing.assert_allclose(
            got, WORKED_DIRECTION_COSINES["J1"], atol=WORKED_COSINE_TOLERANCE
        )

    def test_worked_right_leg(self):
        got = direction_cosines(np.array([-0.072, -0.094, 0.783]))
        np.testing.assert_allclose(
            got, WORKED_DIRECTION_COSINES["J4"], atol=WORKED_COSINE_TOLERANCE
        )

    def test_unit_axis(self):
        np.testing.assert_allclose(direction_cosines(np.array([1.0, 0, 0])), [1, 0, 0])

    def test_zero_vector(self):
        with pytest.raises(DegenerateDirectionError):
            direction_cosines(np.zeros(3))

    def test_unit_norm_law_1000_vectors(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            v = rng.normal(scale=3.0, size=3)
            if np.linalg.norm(v) == 0.0:
                continue
            cos = direction_cosines(v)
            assert abs(float(np.sum(cos**2)) - 1.0) < 1e-9


class TestDirectionAngles:
    def test_x_axis(self):
        np.testing.assert_allclose(direction_angles(np.array([1.0, 0, 0])), [0, 90, 90])

    def test_z_axis(self):
        np.testing.assert_allclose(direction_angles(np.array([0, 0, 1.0])), [90, 90, 0])

    def test_worked_left_arm_angles(self):
        got = direction_angles(np.array([-0.109, 0.049, 0.736]))
        # frozen via an independent atan2 oracle on the same vector
        np.testing.assert_allclose(
            got, [98.40580616534459, 86.23206857885053, 9.222856960105855], atol=1e-9
        )
        assert got[0] == pytest.approx(98.40, abs=0.15)
        assert got[1] == pytest.approx(86.22, abs=0.15)
        # near gamma = 0 the arccos is steep: the 3-decimal reference cosine
        # (0.986) corresponds to 9.60 deg while the vector itself gives 9.22,
        # so the angle is checked through its cosine instead
        assert math.cos(math.radians(got[2])) == pytest.approx(0.986, abs=WORKED_COSINE_TOLERANCE)

    def test_range_0_180(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            v = rng.normal(size=3)
            ang = direction_angles(v)
            assert (ang >= 0.0).all() and (ang <= 180.0).all()

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(24)
        for _ in range(1000):
            v = rng.normal(scale=2.0, size=3)
            k = rng.uniform(1e-3, 1e3)
            np.testing.assert_allclose(direction_angles(k * v), direction_angles(v), atol=1e-9)

    def test_negating_x_reflects_alpha(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            v = rng.normal(size=3)
            a = direction_angles(v)
            b = direction_angles(v * np.array([-1.0, 1.0, 1.0]))
            assert abs(b[0] - (180.0 - a[0])) < 1e-9
            assert abs(b[1] - a[1]) < 1e-9
            assert abs(b[2] - a[2]) < 1e-9


class TestBatchedHelpers:
    """The helpers run over leading axes exactly as they do point by point."""

    def test_equal_to_per_point_calls(self):
        rng = np.random.default_rng(33)
        pts = rng.normal(scale=0.5, size=(4, 11, 4, 3))  # member, frame, group, axis
        weights = np.array([ARM_WEIGHTS, ARM_WEIGHTS, LEG_WEIGHTS, LEG_WEIGHTS])
        mj = mean_joint(*pts, *weights.T[:, :, None])
        cosines = direction_cosines(mj)
        angles = direction_angles(mj)
        assert mj.shape == cosines.shape == angles.shape == (11, 4, 3)
        for t, g in np.ndindex(11, 4):
            point = mean_joint(*pts[:, t, g], *weights[g])
            assert np.array_equal(mj[t, g], point)
            assert np.array_equal(cosines[t, g], direction_cosines(point))
            assert np.array_equal(angles[t, g], direction_angles(point))

    def test_error_names_frame_and_mean_joint(self):
        v = np.ones((5, 4, 3))
        v[2, 3] = 0.0
        with pytest.raises(DegenerateDirectionError) as exc:
            direction_cosines(v)
        assert (exc.value.frame, exc.value.mean_joint) == (2, "J4")
        assert "(mean joint J4, frame 2)" in str(exc.value)

    def test_overflowing_length_names_frame_and_mean_joint(self):
        # the squared length overflows, so every cosine would read 0 (90 degrees)
        v = np.ones((5, 4, 3))
        v[1, 2] = [1e200, -2e200, 3e200]
        with pytest.raises(FeatureOverflowError) as exc:
            direction_cosines(v)
        assert (exc.value.frame, exc.value.part) == (1, {"mean_joint": "J3"})
        assert "(mean joint J3, frame 1)" in str(exc.value)
        with pytest.raises(FeatureOverflowError) as exc:
            direction_angles(v[1, 2])
        assert (exc.value.frame, exc.value.part) == (None, {})

    def test_overflowing_mean_joint_is_rejected(self):
        # at the largest double the weighted sum itself rounds up to inf
        block = np.full((2, 20, 3), np.finfo(np.float64).max)
        with pytest.raises(FeatureOverflowError) as exc:
            sequence_features(block)
        assert (exc.value.frame, exc.value.part) == (0, {"mean_joint": "J1"})

    def test_single_vector_error_has_no_location(self):
        with pytest.raises(DegenerateDirectionError) as exc:
            direction_angles(np.zeros(3))
        assert (exc.value.frame, exc.value.mean_joint) == (None, None)


class TestFrameFeatures:
    def test_worked_frame_cosines(self, worked_two_person_frame):
        angles = frame_features(worked_two_person_frame)
        got = np.cos(np.radians(angles))
        want = np.concatenate([WORKED_DIRECTION_COSINES[k] for k in ("J1", "J2", "J3", "J4")])
        np.testing.assert_allclose(got, want, atol=WORKED_COSINE_TOLERANCE)

    def test_all_joints_on_z_axis(self):
        frame = Frame(np.tile([0.0, 0.0, 1.0], (20, 1)))
        angles = frame_features(frame)
        np.testing.assert_allclose(angles, [90, 90, 0] * 4, atol=1e-12)

    def test_oracle_equivalence_1000_random_frames(self):
        rng = np.random.default_rng(26)
        for joints in random_frames(rng, 1000):
            got = frame_features(Frame(joints))
            np.testing.assert_allclose(got, oracle_angles(joints.tolist()), atol=1e-9)

    def test_zero_mean_joint_reports_group(self):
        joints = np.tile([0.1, 0.1, 2.0], (20, 1))
        for j in MEAN_JOINT_GROUPS[2][1]:
            joints[j.row] = 0.0
        with pytest.raises(DegenerateDirectionError) as exc:
            frame_features(Frame(joints))
        assert exc.value.mean_joint == "J3"


class TestSequenceFeatures:
    def test_90_frames_flatten_to_1080(self):
        rng = np.random.default_rng(27)
        seq = SkeletonSequence(random_frames(rng, 90))
        mat = sequence_features(seq)
        assert mat.shape == (90, 12)

    def test_single_frame(self):
        rng = np.random.default_rng(28)
        assert sequence_features(SkeletonSequence(random_frames(rng, 1))).shape == (1, 12)

    def test_identical_frames_identical_rows(self):
        rng = np.random.default_rng(29)
        frame = random_frames(rng, 1)[0]
        mat = sequence_features(SkeletonSequence(np.tile(frame, (2, 1, 1))))
        assert np.array_equal(mat[0], mat[1])

    def test_rows_match_frame_features(self):
        rng = np.random.default_rng(30)
        seq = SkeletonSequence(random_frames(rng, 5))
        mat = sequence_features(seq)
        for t in range(5):
            np.testing.assert_allclose(mat[t], frame_features(seq.frame(t)), atol=1e-12)

    @pytest.mark.parametrize("lead", [(4,), (2, 3)])
    def test_batch_equals_stacked_sequences(self, lead):
        rng = np.random.default_rng(32)
        n = int(np.prod(lead))
        block = random_frames(rng, n * 9).reshape(lead + (9, 20, 3))
        want = np.stack([sequence_features(SkeletonSequence(j)) for j in block.reshape(n, 9, 20, 3)])
        assert np.array_equal(sequence_features(block), want.reshape(lead + (9, 12)))

    def test_batch_error_carries_frame_and_group(self):
        block = np.tile([0.1, 0.1, 2.0], (3, 4, 20, 1)).reshape(3, 4, 20, 3)
        for j in MEAN_JOINT_GROUPS[2][1]:
            block[2, 1, j.row] = 0.0
        with pytest.raises(DegenerateDirectionError) as exc:
            sequence_features(block)
        assert (exc.value.frame, exc.value.mean_joint) == (1, "J3")


class TestCsvAndTransformer:
    def test_transformer(self):
        rng = np.random.default_rng(31)
        seqs = [SkeletonSequence(random_frames(rng, 3)) for _ in range(2)]
        out = feature_matrix(sequence_features, seqs)
        assert out.shape == (2, 36)
