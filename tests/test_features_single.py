import math

import numpy as np
import pytest

from skelgest import Frame, Joint, SkeletonSequence
from skelgest.base import feature_matrix
from skelgest.errors import DegenerateDepthError, FeatureOverflowError
from skelgest.features.single_person import (
    CSV_COLUMNS,
    TRIANGLES,
    frame_features,
    normalized_distance,
    sequence_features,
    triangle_centroid,
)

from conftest import WORKED_NORMALIZATION_ROWS, quotient_window, random_frames


def oracle_features(joints):
    """Straight-line recomputation of the six features with plain math.

    Kept independent of the library code on purpose: spelled-out triangle
    list, per-axis arithmetic, no numpy.
    """
    triangles = [(3, 5, 6), (3, 9, 10), (5, 6, 7), (9, 10, 11), (6, 7, 8), (10, 11, 12)]
    spine = joints[1]
    out = []
    for a, b, c in triangles:
        pa, pb, pc = joints[a - 1], joints[b - 1], joints[c - 1]
        cx = (pa[0] + pb[0] + pc[0]) / 3.0
        cy = (pa[1] + pb[1] + pc[1]) / 3.0
        cz = (pa[2] + pb[2] + pc[2]) / 3.0
        dist = math.sqrt((cx - spine[0]) ** 2 + (cy - spine[1]) ** 2 + (cz - spine[2]) ** 2)
        out.append(dist / ((cz + spine[2]) / 2.0))
    return out


class TestTriangleCentroid:
    def test_symmetric_mean(self):
        np.testing.assert_allclose(triangle_centroid((0, 0, 0), (3, 0, 0), (0, 3, 0)), [1, 1, 0])

    def test_idempotent_on_coincident_points(self):
        p = (0.7, -1.2, 2.5)
        np.testing.assert_allclose(triangle_centroid(p, p, p), p)

    def test_against_extended_precision_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = rng.normal(scale=3.0, size=(3, 3))
            got = triangle_centroid(a, b, c)
            for axis in range(3):
                want = math.fsum([a[axis], b[axis], c[axis]]) / 3.0
                assert abs(got[axis] - want) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        import itertools

        for _ in range(1000):
            pts = rng.normal(scale=2.0, size=(3, 3))
            base = triangle_centroid(*pts)
            for perm in itertools.permutations(range(3)):
                np.testing.assert_allclose(triangle_centroid(*pts[list(perm)]), base, atol=1e-9)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            pts = rng.normal(scale=2.0, size=(3, 3))
            A = rng.normal(scale=1.0, size=(3, 3))
            shift = rng.normal(scale=1.0, size=3)
            mapped = pts @ A.T + shift
            want = A @ triangle_centroid(*pts) + shift
            np.testing.assert_allclose(triangle_centroid(*mapped), want, atol=1e-9)


class TestNormalizedDistance:
    # worked rows: place the centroid `distance` away from the spine along x
    # at the given shared depth, so distance/depth is forced exactly
    @pytest.mark.parametrize(
        "distance, depth, expected",
        [(0.1850, 2.2069, 0.0838), (0.6035, 2.1282, 0.2836)],
    )
    def test_worked_values(self, distance, depth, expected):
        c = np.array([distance, 0.0, depth])
        s = np.array([0.0, 0.0, depth])
        window = quotient_window(distance, depth)
        assert normalized_distance(c, s) == pytest.approx(expected, abs=window)

    def test_coincident_points(self):
        p = np.array([0.1, 0.2, 2.0])
        assert normalized_distance(p, p) == 0.0

    @pytest.mark.parametrize("depth", [0.0, -1.0])
    def test_degenerate_depth(self, depth):
        with pytest.raises(DegenerateDepthError):
            normalized_distance(np.array([1.0, 0.0, depth]), np.array([0.0, 0.0, depth]))


class TestBatchedHelpers:
    """The helpers run over leading axes exactly as they do point by point."""

    def test_equal_to_per_point_calls(self):
        rng = np.random.default_rng(16)
        a, b, c = rng.normal(scale=0.3, size=(3, 11, 6, 3)) + [0.0, 0.0, 2.0]
        spine = rng.normal(scale=0.3, size=(11, 1, 3)) + [0.0, 0.0, 2.0]
        centroids = triangle_centroid(a, b, c)
        dists = normalized_distance(centroids, spine)
        assert centroids.shape == (11, 6, 3) and dists.shape == (11, 6)
        for t, i in np.ndindex(11, 6):
            point = triangle_centroid(a[t, i], b[t, i], c[t, i])
            assert np.array_equal(centroids[t, i], point)
            assert dists[t, i] == normalized_distance(point, spine[t, 0])

    def test_error_names_frame_and_triangle(self):
        centroids = np.tile([0.1, 0.0, 2.0], (5, 6, 1))
        centroids[3, 4, 2] = -3.0
        with pytest.raises(DegenerateDepthError) as exc:
            normalized_distance(centroids, np.array([[0.0, 0.0, 2.0]]))
        assert (exc.value.frame, exc.value.triangle, exc.value.mean_depth) == (3, 5, -0.5)
        assert "(triangle 5, frame 3)" in str(exc.value)

    @pytest.mark.parametrize("centroid, spine", [
        ([1e200, 2e200, 3e200], [0.0, 0.0, 2.0]),  # the squared distance overflows
        ([0.1, 0.0, 1e308], [0.0, 0.0, 1e308]),  # the depth sum overflows; the distance would be 0
    ], ids=["distance", "depth-sum"])
    def test_overflow_names_frame_and_triangle(self, centroid, spine):
        centroids = np.tile([0.1, 0.0, 2.0], (5, 6, 1))
        spines = np.tile([0.0, 0.0, 2.0], (5, 6, 1))
        centroids[3, 1], spines[3, 1] = centroid, spine
        with pytest.raises(FeatureOverflowError) as exc:
            normalized_distance(centroids, spines)
        assert (exc.value.frame, exc.value.part) == (3, {"triangle": 2})
        assert "(triangle 2, frame 3)" in str(exc.value)

    def test_overflowing_centroid_is_rejected(self):
        # the vertex sum of triangle 5 overflows; triangle 3 (wrist) comes first
        joints = np.tile([0.1, 0.2, 2.0], (3, 20, 1))
        joints[1, [Joint.WRIST_LEFT.row, Joint.HAND_LEFT.row]] = 1.7e308
        with pytest.raises(FeatureOverflowError) as exc:
            sequence_features(joints)
        assert (exc.value.frame, exc.value.part) == (1, {"triangle": 3})

    def test_single_point_error_has_no_location(self):
        with pytest.raises(DegenerateDepthError) as exc:
            normalized_distance([0.0, 0.0, -1.0], [0.0, 0.0, 0.5])
        assert (exc.value.frame, exc.value.triangle) == (None, None)


class TestFrameFeatures:
    def test_coincident_joints_give_zeros(self):
        frame = Frame(np.tile([0.0, 0.0, 2.0], (20, 1)))
        np.testing.assert_allclose(frame_features(frame), np.zeros(6))

    def test_xy_translation_invariance(self):
        rng = np.random.default_rng(6)
        joints = random_frames(rng, 1)[0]
        base = frame_features(Frame(joints))
        shifted = joints + np.array([0.37, -1.25, 0.0])
        np.testing.assert_allclose(frame_features(Frame(shifted)), base, atol=1e-12)

    def test_uniform_scale_invariance(self):
        rng = np.random.default_rng(7)
        joints = random_frames(rng, 1)[0]
        base = frame_features(Frame(joints))
        for k in (0.5, 2.0, 7.3):
            np.testing.assert_allclose(frame_features(Frame(k * joints)), base, atol=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(8)
        for joints in random_frames(rng, 50):
            assert (frame_features(Frame(joints)) >= 0.0).all()

    def test_oracle_equivalence_1000_random_frames(self):
        rng = np.random.default_rng(9)
        for joints in random_frames(rng, 1000):
            got = frame_features(Frame(joints))
            want = oracle_features(joints.tolist())
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_degenerate_depth_reports_triangle(self):
        joints = np.tile([0.0, 0.0, 2.0], (20, 1))
        # centroid z = (2 - 12 + 2) / 3, so centroid + spine depth < 0
        joints[Joint.SHOULDER_RIGHT.row, 2] = -12.0
        with pytest.raises(DegenerateDepthError) as exc:
            frame_features(Frame(joints))
        assert exc.value.triangle == 2


class TestSequenceFeatures:
    def test_90_frames_flatten_to_540(self):
        rng = np.random.default_rng(10)
        seq = SkeletonSequence(random_frames(rng, 90))
        mat = sequence_features(seq)
        assert mat.shape == (90, 6)

    def test_single_frame(self):
        rng = np.random.default_rng(11)
        seq = SkeletonSequence(random_frames(rng, 1))
        assert sequence_features(seq).shape == (1, 6)

    def test_identical_frames_identical_rows(self):
        rng = np.random.default_rng(12)
        frame = random_frames(rng, 1)[0]
        seq = SkeletonSequence(np.tile(frame, (5, 1, 1)))
        mat = sequence_features(seq)
        assert np.array_equal(mat, np.tile(mat[0], (5, 1)))

    def test_rows_match_frame_features(self):
        rng = np.random.default_rng(13)
        seq = SkeletonSequence(random_frames(rng, 7))
        mat = sequence_features(seq)
        for t in range(7):
            np.testing.assert_allclose(mat[t], frame_features(seq.frame(t)), atol=1e-12)

    def test_error_carries_frame_index(self):
        joints = np.tile([0.0, 0.0, 2.0], (3, 20, 1)).reshape(3, 20, 3)
        joints[2, Joint.SPINE.row, 2] = -8.0
        with pytest.raises(DegenerateDepthError) as exc:
            sequence_features(SkeletonSequence(joints))
        assert exc.value.frame == 2

    @pytest.mark.parametrize("lead", [(4,), (2, 3)])
    def test_batch_equals_stacked_sequences(self, lead):
        rng = np.random.default_rng(14)
        n = int(np.prod(lead))
        block = random_frames(rng, n * 9).reshape(lead + (9, 20, 3))
        want = np.stack([sequence_features(SkeletonSequence(j)) for j in block.reshape(n, 9, 20, 3)])
        assert np.array_equal(sequence_features(block), want.reshape(lead + (9, 6)))

    def test_batch_error_carries_frame_index(self):
        block = np.tile([0.0, 0.0, 2.0], (3, 4, 20, 1)).reshape(3, 4, 20, 3)
        block[1, 3, Joint.SHOULDER_RIGHT.row, 2] = -12.0
        with pytest.raises(DegenerateDepthError) as exc:
            sequence_features(block)
        assert (exc.value.frame, exc.value.triangle) == (3, 2)


class TestSpecs:
    def test_six_triangles_fixed_order(self):
        assert TRIANGLES[0] == (Joint.SHOULDER_CENTER, Joint.SHOULDER_LEFT, Joint.ELBOW_LEFT)
        assert TRIANGLES[5] == (Joint.ELBOW_RIGHT, Joint.WRIST_RIGHT, Joint.HAND_RIGHT)
        assert len(TRIANGLES) == 6

    def test_table_normalization_column_is_distance_over_depth(self):
        # spot rows; the acceptance suite sweeps all 24 within the same window
        # that the table's 4-decimal rounding of inputs and result allows
        for frame_no, feat, dist, depth, norm in WORKED_NORMALIZATION_ROWS[:6]:
            c = np.array([dist, 0.0, depth])
            s = np.array([0.0, 0.0, depth])
            window = quotient_window(dist, depth)
            assert normalized_distance(c, s) == pytest.approx(norm, abs=window)


class TestCsvAndTransformer:
    def test_transformer_flattens(self):
        rng = np.random.default_rng(14)
        seqs = [SkeletonSequence(random_frames(rng, 4)) for _ in range(3)]
        out = feature_matrix(sequence_features, seqs)
        assert out.shape == (3, 24)

    def test_transformer_rejects_ragged(self):
        rng = np.random.default_rng(15)
        seqs = [SkeletonSequence(random_frames(rng, 4)), SkeletonSequence(random_frames(rng, 5))]
        with pytest.raises(ValueError):
            feature_matrix(sequence_features, seqs)

    def test_get_params(self):
        assert len(CSV_COLUMNS) == 6
