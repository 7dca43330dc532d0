import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelgest import Frame, Joint, SkeletonSequence, parse_skeleton_stream, serialize_skeleton_stream
from skelgest.errors import BadTokenError, EmptyStreamError, MalformedStreamError
from skelgest.skeleton import sequence_to_csv

from conftest import WORKED_FRAME_JOINTS, make_frame


def stream_of(values):
    return " ".join(str(v) for v in values)


class TestParse:
    def test_sixty_tokens_one_frame(self):
        seq = parse_skeleton_stream(stream_of(0.1 * (i + 1) for i in range(60)))
        assert len(seq) == 1
        np.testing.assert_allclose(seq.frame(0).position(Joint.HIP_CENTER), [0.1, 0.2, 0.3])

    def test_120_tokens_two_frames(self):
        seq = parse_skeleton_stream(stream_of(range(120)))
        assert len(seq) == 2

    def test_61_tokens_malformed(self):
        with pytest.raises(MalformedStreamError) as exc:
            parse_skeleton_stream(stream_of(range(61)))
        assert exc.value.count == 61

    def test_bad_token_position(self):
        tokens = [str(float(i)) for i in range(60)]
        tokens[4] = "banana"
        with pytest.raises(BadTokenError) as exc:
            parse_skeleton_stream(" ".join(tokens))
        assert exc.value.position == 5

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_token_rejected(self, bad):
        tokens = [str(float(i)) for i in range(60)]
        tokens[10] = bad
        with pytest.raises(BadTokenError) as exc:
            parse_skeleton_stream(" ".join(tokens))
        assert exc.value.position == 11

    def test_empty_stream(self):
        with pytest.raises(EmptyStreamError):
            parse_skeleton_stream("   \n  ")

    def test_any_whitespace_separates(self):
        text = "\t".join(str(float(i)) for i in range(30))
        text += "\n" + "  ".join(str(float(i)) for i in range(30, 60))
        seq = parse_skeleton_stream(text)
        assert len(seq) == 1

    def test_file_like_input(self):
        import io

        seq = parse_skeleton_stream(io.StringIO(stream_of(range(60))))
        assert len(seq) == 1

    def test_token_order_frame_joint_axis(self):
        # token (f-1)*60 + (j-1)*3 + k lands at frame f, joint j, axis k
        seq = parse_skeleton_stream(stream_of(range(120)))
        for f in (1, 2):
            for j in (1, 7, 20):
                for k in (0, 1, 2):
                    token_index = (f - 1) * 60 + (j - 1) * 3 + k
                    assert seq.joints[f - 1, j - 1, k] == float(token_index)


class TestSerialize:
    def test_one_frame_sixty_tokens(self):
        seq = parse_skeleton_stream(stream_of(range(60)))
        assert len(serialize_skeleton_stream(seq).split()) == 60

    def test_round_trip_random_90_frames(self):
        rng = np.random.default_rng(11)
        joints = rng.normal(scale=2.0, size=(90, 20, 3))
        seq = SkeletonSequence(joints)
        again = parse_skeleton_stream(serialize_skeleton_stream(seq))
        assert np.array_equal(seq.joints, again.joints)

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptyStreamError):
            SkeletonSequence(np.empty((0, 20, 3)))

    @settings(max_examples=50, deadline=None)
    @given(
        # draw whole frames (60 values each) rather than filter lengths,
        # which discards most draws and trips Hypothesis' filter_too_much check
        st.integers(min_value=1, max_value=5).flatmap(
            lambda frames: st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=60 * frames, max_size=60 * frames,
            )
        )
    )
    def test_round_trip_property(self, values):
        seq = parse_skeleton_stream(stream_of(values))
        again = parse_skeleton_stream(serialize_skeleton_stream(seq))
        assert np.array_equal(seq.joints, again.joints)
        assert len(seq) == len(values) // 60


class TestOrderingLaw:
    def test_swapping_two_tokens_moves_exactly_those_coordinates(self):
        values = [float(i) for i in range(180)]
        base = parse_skeleton_stream(stream_of(values))
        a, b = 17, 133
        values[a], values[b] = values[b], values[a]
        swapped = parse_skeleton_stream(stream_of(values))
        diff = np.argwhere(base.joints != swapped.joints)
        changed = {(int(f) * 60 + int(j) * 3 + int(k)) for f, j, k in diff}
        assert changed == {a, b}


class TestJointPosition:
    def test_shoulder_left_worked_value(self):
        frame = make_frame(WORKED_FRAME_JOINTS)
        np.testing.assert_allclose(
            frame.position(Joint.SHOULDER_LEFT), [-0.423, 0.440, 3.048]
        )

    def test_hip_center_of_minimal_stream(self):
        seq = parse_skeleton_stream(stream_of(0.1 * (i + 1) for i in range(60)))
        np.testing.assert_allclose(seq.frame(0).position(Joint.HIP_CENTER), [0.1, 0.2, 0.3])

    def test_all_zeros_frame(self):
        frame = Frame(np.zeros((20, 3)))
        for joint in Joint:
            assert frame.position(joint).tolist() == [0.0, 0.0, 0.0]


class TestTypes:
    def test_joint_enum_is_one_based_and_complete(self):
        assert [j.value for j in Joint] == list(range(1, 21))
        assert Joint.HIP_CENTER.value == 1
        assert Joint.SPINE.value == 2
        assert Joint.FOOT_RIGHT.value == 20

    def test_frame_requires_20_by_3(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((19, 3)))

    def test_frame_rejects_nan(self):
        arr = np.zeros((20, 3))
        arr[3, 1] = np.nan
        with pytest.raises(ValueError):
            Frame(arr)

    def test_sequence_is_immutable(self):
        seq = parse_skeleton_stream(stream_of(range(60)))
        with pytest.raises(ValueError):
            seq.joints[0, 0, 0] = 5.0


class TestCsvExport:
    def test_header_and_shape(self):
        seq = parse_skeleton_stream(stream_of(range(120)))
        lines = sequence_to_csv(seq).splitlines()
        assert lines[0].startswith("j01_x,j01_y,j01_z") and lines[0].endswith("j20_z")
        assert len(lines[0].split(",")) == 60
        assert len(lines) == 3
        assert [float(v) for v in lines[1].split(",")] == [float(i) for i in range(60)]
