"""Built-in synthetic gesture templates.

These are invented kinematics: piecewise-linear joint offsets over a neutral
standing pose, good enough to exercise the pipelines end to end. They stand
in for unavailable human recordings and make no claim to match real motion.

Twenty single-person gestures and eight per-person interaction actions are
shipped. All trajectories keep every joint inside the sensor's working
depth range of 1.2 to 3.5 m.
"""

from dataclasses import dataclass, field

import numpy as np

from ..skeleton import Joint

DEPTH_RANGE = (1.2, 3.5)

# Neutral standing pose ~2.4 m from the sensor, y centered on the hip.
BASE_POSE = np.array([
    (0.00, 0.00, 2.40),    # HIP_CENTER
    (0.00, 0.15, 2.40),    # SPINE
    (0.00, 0.45, 2.40),    # SHOULDER_CENTER
    (0.00, 0.65, 2.40),    # HEAD
    (-0.20, 0.40, 2.40),   # SHOULDER_LEFT
    (-0.26, 0.15, 2.38),   # ELBOW_LEFT
    (-0.29, -0.08, 2.36),  # WRIST_LEFT
    (-0.30, -0.18, 2.35),  # HAND_LEFT
    (0.20, 0.40, 2.40),    # SHOULDER_RIGHT
    (0.26, 0.15, 2.38),    # ELBOW_RIGHT
    (0.29, -0.08, 2.36),   # WRIST_RIGHT
    (0.30, -0.18, 2.35),   # HAND_RIGHT
    (-0.10, -0.05, 2.40),  # HIP_LEFT
    (-0.11, -0.55, 2.41),  # KNEE_LEFT
    (-0.12, -0.95, 2.42),  # ANKLE_LEFT
    (-0.12, -1.02, 2.36),  # FOOT_LEFT
    (0.10, -0.05, 2.40),   # HIP_RIGHT
    (0.11, -0.55, 2.41),   # KNEE_RIGHT
    (0.12, -0.95, 2.42),   # ANKLE_RIGHT
    (0.12, -1.02, 2.36),   # FOOT_RIGHT
])
BASE_POSE.setflags(write=False)


@dataclass
class GestureTemplate:
    """Parametric gesture: base pose plus per-joint keyframed offsets.

    moves maps a Joint to ((t, (dx, dy, dz)), ...) keyframes over t in
    [0, 1]; offsets interpolate linearly between keyframes and clamp outside
    them. Joints without keyframes hold the base pose.
    """

    name: str
    moves: dict = field(default_factory=dict)
    base_pose: np.ndarray = field(default_factory=lambda: BASE_POSE)

    def _inputs(self):
        """All that trajectory reads: the base pose as float64 and, per track (the joints
        sharing one keyframe object), its joint rows and keyframe times and offsets as float64."""
        tracks = {}  # id(keys) -> (keys, rows); keys stays referenced, so its id stays unique
        for joint, keys in self.moves.items():
            tracks.setdefault(id(keys), (keys, []))[1].append(Joint(joint).row)
        return np.asarray(self.base_pose, dtype=np.float64), [
            (rows, np.array([k[0] for k in keys], dtype=np.float64), np.array([k[1] for k in keys], dtype=np.float64))
            for keys, rows in tracks.values()]

    def key(self):
        """_inputs() as the base pose's shape and the bytes of every array: equal keys give
        byte-equal trajectories, and an edit of any value read, a zero's sign too, changes it."""
        base, tracks = self._inputs()
        return base.shape, base.tobytes(), [(rows, kts.tobytes(), offs.tobytes()) for rows, kts, offs in tracks]

    def trajectory(self, ts):
        """(len(ts), 20, 3) noiseless joint positions at the given times; joints
        sharing one keyframe object are one track, interpolated once."""
        ts = np.asarray(ts, dtype=np.float64)
        base, tracks = self._inputs()
        poses = np.tile(base, (len(ts), 1, 1))
        for rows, kts, offs in tracks:
            for axis in range(3):
                poses[:, rows, axis] += np.interp(ts, kts, offs[:, axis])[:, None]
        return poses


_LEFT_HAND = (Joint.WRIST_LEFT, Joint.HAND_LEFT)
_RIGHT_HAND = (Joint.WRIST_RIGHT, Joint.HAND_RIGHT)
_LEFT_ARM = (Joint.ELBOW_LEFT,) + _LEFT_HAND
_RIGHT_ARM = (Joint.ELBOW_RIGHT,) + _RIGHT_HAND
_RIGHT_LEG = (Joint.KNEE_RIGHT, Joint.ANKLE_RIGHT, Joint.FOOT_RIGHT)


def _spread(groups_to_keys):
    moves = {}
    for joints, keys in groups_to_keys:
        track = tuple(keys)
        for j in joints:
            moves[j] = track
    return moves


def _sym(keys, flip_x=True):
    """Mirror right-side keyframes onto the left side (x negated)."""
    mirrored = tuple((t, (-dx if flip_x else dx, dy, dz)) for t, (dx, dy, dz) in keys)
    return [(_RIGHT_ARM, keys), (_LEFT_ARM, mirrored)]


_REST = (0.0, 0.0, 0.0)

SINGLE_PERSON_TEMPLATES = {}


def _single(name, groups_to_keys):
    SINGLE_PERSON_TEMPLATES[name] = GestureTemplate(name, _spread(groups_to_keys))


# single-hand gestures
_single("waving", [
    (_RIGHT_ARM, [(0.0, _REST), (0.15, (0.05, 0.55, 0.0)), (0.35, (-0.15, 0.60, 0.0)),
                  (0.55, (0.15, 0.60, 0.0)), (0.75, (-0.15, 0.60, 0.0)), (1.0, (0.0, 0.1, 0.0))]),
])
_single("answering_call", [
    (_RIGHT_HAND, [(0.0, _REST), (0.3, (-0.20, 0.65, 0.0)), (0.8, (-0.22, 0.70, 0.0)), (1.0, (-0.05, 0.1, 0.0))]),
    ((Joint.ELBOW_RIGHT,), [(0.0, _REST), (0.3, (0.0, 0.25, 0.0)), (0.8, (0.0, 0.28, 0.0)), (1.0, _REST)]),
])
_single("stop", [
    (_RIGHT_ARM, [(0.0, _REST), (0.3, (0.0, 0.45, -0.22)), (0.9, (0.0, 0.45, -0.22)), (1.0, (0.0, 0.1, -0.05))]),
])
_single("slide", [
    (_RIGHT_ARM, [(0.0, (-0.20, 0.30, -0.10)), (0.5, (0.10, 0.30, -0.10)), (1.0, (0.40, 0.30, -0.10))]),
])
_single("punching", [
    (_RIGHT_ARM, [(0.0, _REST), (0.35, (0.03, 0.32, -0.30)), (0.5, (0.03, 0.35, -0.55)),
                  (0.7, (0.0, 0.15, -0.15)), (1.0, _REST)]),
])
_single("picking_up", [
    (_RIGHT_ARM, [(0.0, _REST), (0.4, (0.05, -0.30, -0.25)), (0.6, (0.05, -0.32, -0.25)), (1.0, (0.0, 0.15, 0.0))]),
])
_single("move_up", [
    (_RIGHT_ARM, [(0.0, _REST), (1.0, (0.0, 0.65, -0.05))]),
])
_single("move_down", [
    (_RIGHT_ARM, [(0.0, (0.0, 0.65, -0.05)), (1.0, _REST)]),
])
_single("move_left", [
    (_RIGHT_ARM, [(0.0, _REST), (0.4, (-0.40, 0.25, -0.10)), (0.7, (-0.50, 0.25, -0.10)), (1.0, (-0.05, 0.0, 0.0))]),
    (_LEFT_ARM, [(0.0, _REST), (0.4, (-0.35, 0.20, -0.10)), (0.7, (-0.45, 0.20, -0.10)), (1.0, (-0.05, 0.0, 0.0))]),
])
_single("move_right", [
    (_RIGHT_ARM, [(0.0, _REST), (0.4, (0.35, 0.20, -0.10)), (0.7, (0.45, 0.20, -0.10)), (1.0, (0.05, 0.0, 0.0))]),
    (_LEFT_ARM, [(0.0, _REST), (0.4, (0.40, 0.25, -0.10)), (0.7, (0.50, 0.25, -0.10)), (1.0, (0.05, 0.0, 0.0))]),
])

# double-hand gestures
_single("disgust", [
    (_RIGHT_ARM, [(0.0, _REST), (0.35, (-0.05, 0.55, 0.0)), (0.6, (0.10, 0.45, -0.30)), (1.0, (0.0, 0.05, 0.0))]),
    (_LEFT_ARM, [(0.0, _REST), (0.35, (0.05, 0.55, 0.0)), (0.6, (-0.10, 0.45, -0.30)), (1.0, (0.0, 0.05, 0.0))]),
])
_single("clap", [
    (_RIGHT_ARM, [(0.0, _REST), (0.25, (-0.22, 0.35, -0.10)), (0.45, (-0.05, 0.35, -0.10)),
                  (0.65, (-0.22, 0.35, -0.10)), (0.85, (-0.05, 0.35, -0.10)), (1.0, _REST)]),
    (_LEFT_ARM, [(0.0, _REST), (0.25, (0.22, 0.35, -0.10)), (0.45, (0.05, 0.35, -0.10)),
                 (0.65, (0.22, 0.35, -0.10)), (0.85, (0.05, 0.35, -0.10)), (1.0, _REST)]),
])
_single("greeting", _sym([(0.0, _REST), (0.35, (-0.24, 0.40, -0.05)), (0.85, (-0.24, 0.42, -0.05)), (1.0, _REST)]))
_single("please", _sym([(0.0, _REST), (0.4, (0.05, 0.20, -0.35)), (0.9, (0.05, 0.18, -0.38)), (1.0, _REST)]))
_single("push", _sym([(0.0, _REST), (0.35, (0.0, 0.35, -0.18)), (0.7, (0.0, 0.38, -0.52)), (1.0, (0.0, 0.1, -0.1))]))
_single("grab", _sym([(0.0, _REST), (0.3, (0.0, 0.30, -0.45)), (0.6, (0.0, 0.30, -0.45)), (1.0, (0.0, 0.05, -0.05))]))
_single("zoom_in", _sym([(0.0, (-0.18, 0.35, -0.25)), (0.5, (0.05, 0.35, -0.25)), (1.0, (0.22, 0.35, -0.25))]))
_single("zoom_out", _sym([(0.0, (0.22, 0.35, -0.25)), (0.5, (0.05, 0.35, -0.25)), (1.0, (-0.18, 0.35, -0.25))]))
_single("move_front", _sym([(0.0, _REST), (1.0, (0.0, 0.25, -0.45))]))
_single("move_back", _sym([(0.0, (0.0, 0.25, -0.45)), (1.0, _REST)]))

# the synthetic benchmark classes used by the default experiment config
BENCHMARK_CLASSES = (
    "waving", "punching", "push", "clap",
    "zoom_in", "zoom_out", "move_left", "move_right",
)

INTERACTION_TEMPLATES = {}


def _interaction(name, groups_to_keys):
    INTERACTION_TEMPLATES[name] = GestureTemplate(name, _spread(groups_to_keys))


_interaction("approaching", [
    (tuple(Joint), [(0.0, _REST), (1.0, (0.0, 0.0, -0.55))]),
])
_interaction("departing", [
    (tuple(Joint), [(0.0, _REST), (1.0, (0.0, 0.0, 0.55))]),
])
_interaction("exchanging", [
    (_RIGHT_ARM, [(0.0, _REST), (0.35, (0.0, 0.28, -0.35)), (0.6, (0.0, 0.28, -0.35)), (1.0, (0.0, 0.0, -0.05))]),
])
_interaction("hugging", [
    (_RIGHT_ARM, [(0.0, _REST), (0.5, (-0.15, 0.40, -0.40)), (1.0, (-0.25, 0.42, -0.45))]),
    (_LEFT_ARM, [(0.0, _REST), (0.5, (0.15, 0.40, -0.40)), (1.0, (0.25, 0.42, -0.45))]),
])
_interaction("shaking_hands", [
    (_RIGHT_ARM, [(0.0, _REST), (0.3, (0.0, 0.30, -0.40)), (0.5, (0.0, 0.38, -0.40)),
                  (0.7, (0.0, 0.26, -0.40)), (0.9, (0.0, 0.34, -0.40)), (1.0, (0.0, 0.05, -0.05))]),
])
_interaction("punching", [
    (_RIGHT_ARM, [(0.0, _REST), (0.4, (0.03, 0.35, -0.55)), (0.55, (0.0, 0.30, -0.20)), (1.0, _REST)]),
])
_interaction("pushing", [
    (_RIGHT_ARM, [(0.0, _REST), (0.45, (0.0, 0.35, -0.50)), (0.8, (0.0, 0.35, -0.50)), (1.0, (0.0, 0.05, -0.05))]),
    (_LEFT_ARM, [(0.0, _REST), (0.45, (0.0, 0.35, -0.50)), (0.8, (0.0, 0.35, -0.50)), (1.0, (0.0, 0.05, -0.05))]),
])
_interaction("kicking", [
    (_RIGHT_LEG, [(0.0, _REST), (0.4, (0.02, 0.35, -0.40)), (0.55, (0.02, 0.45, -0.50)), (1.0, _REST)]),
])


def get_template(name):
    """Look up a built-in template; single-person names take precedence."""
    if name in SINGLE_PERSON_TEMPLATES:
        return SINGLE_PERSON_TEMPLATES[name]
    if name in INTERACTION_TEMPLATES:
        return INTERACTION_TEMPLATES[name]
    raise KeyError(f"no built-in template named {name!r}")
