"""Synthetic sequence generation, dataset assembly, and splitting.

Everything here is a pure function of (configuration, seed): per-sample
noise streams derive from the dataset seed and the sample's global index
(and are drawn and featurized a class at a time, as one array), and split
shuffles derive from the split seed and the class index. reuse_or_build
keeps what it built for the last problem and decides what a config reuses.
"""

import math
import os

import numpy as np

from ..classifiers.dataset import LabeledDataset
from ..errors import DepthRangeViolationError, StratifyError
from ..features import FEATURE_MODULES
from ..rng import PortableRNG, normal_rows
from ..skeleton import FLOATS_PER_FRAME, N_JOINTS, SkeletonSequence, write_skeleton_file
from .templates import DEPTH_RANGE, get_template

FEATURE_KINDS = {kind: module.sequence_features for kind, module in FEATURE_MODULES.items()}


def check_noise_std(std):
    """std as a float; a negative or non-finite jitter raises ValueError."""
    std = float(std)
    if not 0.0 <= std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {std}")
    return std


def _clean(template, n_frames):
    """Depth-checked noiseless trajectory at n_frames uniform times."""
    if n_frames < 1:
        raise ValueError(f"need at least 1 frame, got {n_frames}")
    clean = template.trajectory(np.linspace(0.0, 1.0, n_frames))
    lo, hi = DEPTH_RANGE
    depths = clean[:, :, 2]
    if depths.min() < lo or depths.max() > hi:
        z = depths.min() if depths.min() < lo else depths.max()
        raise DepthRangeViolationError(template.name, float(z), lo, hi)
    return clean


def _jitter(clean, std, seeds, rows):
    """clean plus std times the PortableRNG(seeds[i]) normals, per sample i, on the
    Box-Muller pairs covering the given joint rows, both values of each: rows=(1,) also
    jitters row 0's z. Every other value stays clean. A frame is 30 whole pairs, so only
    those pairs p are drawn, the same in every frame f: 30 f + p."""
    values = clean.reshape(len(clean), FLOATS_PER_FRAME)
    per_frame = np.array(sorted({(3 * row + axis) // 2 for row in rows for axis in range(3)}))
    cols = (2 * per_frame[:, None] + np.arange(2)).ravel()
    pairs = (FLOATS_PER_FRAME // 2 * np.arange(len(clean))[:, None] + per_frame).ravel()
    noise = normal_rows(seeds, pairs).reshape(len(seeds), len(clean), cols.size)
    noise *= std
    noise += values[:, cols]
    if cols.size < FLOATS_PER_FRAME:  # else every value is drawn and the noise is the output
        out = np.repeat(values[None], len(seeds), axis=0)  # after the draws, so the peak stays theirs
        out[..., cols] = noise
        noise = out
    return noise.reshape((len(seeds),) + clean.shape)


def generate_sequence(template, n_frames, seed, noise_std=0.01):
    """One sample of a template at n_frames uniform times, jittered by
    noise_std times PortableRNG(seed) normals.

    The noiseless trajectory must stay inside the sensor depth range;
    leaving it raises DepthRangeViolationError.
    """
    clean = _clean(template, n_frames)
    return SkeletonSequence(_jitter(clean, check_noise_std(noise_std), [seed], range(N_JOINTS))[0])


def _clean_classes(config):
    """Checked noiseless trajectory per class of config."""
    templates = config.templates or {}
    return [_clean(templates.get(name) or get_template(name), config.frames) for name in config.classes]


def _class_blocks(config, cleans, rows):
    """The samples of each class of _clean_classes(config), class-major, jittered on rows.

    Sample i of class c uses the noise stream spawned from the config seed
    at global index c * samples_per_class + i.
    """
    base = PortableRNG(config.seed)
    n = config.samples_per_class
    for c, clean in enumerate(cleans):
        yield _jitter(clean, config.noise_std, [base.spawn(c * n + i).seed for i in range(n)], rows)


def _labels(config):
    return [name for name in config.classes for _ in range(config.samples_per_class)]


def make_sequences(config):
    """All sequences for a config, class-major, with their labels."""
    blocks = _class_blocks(config, _clean_classes(config), range(N_JOINTS))
    return [SkeletonSequence(joints) for block in blocks for joints in block], _labels(config)


def build_dataset(config):
    """Generate and featurize the samples a class at a time, flattened
    into a LabeledDataset."""
    return _dataset_from(config, _clean_classes(config))


def _dataset_from(config, cleans):
    """build_dataset(config) from its _clean_classes(config), jittering only the rows the scheme reads."""
    module = FEATURE_MODULES[config.feature_kind]
    blocks = _class_blocks(config, cleans, module.JOINT_ROWS)
    vectors = [module.sequence_features(block).reshape(len(block), -1) for block in blocks]
    return LabeledDataset(np.concatenate(vectors), _labels(config), tuple(config.classes))


# what reuse_or_build built for the last problem, by level: (key, value) of its checked
# trajectories, its dataset and its split, each None until built
_last = None


def _reuse(level, key, build):
    """_last[level]'s value if its key is key, else build()'s; the levels from this one on
    are dropped first, so the old values are freed and a raise stores nothing."""
    global _last
    _last = _last or [None] * 3
    if _last[level] is None or _last[level][0] != key:
        _last[level:] = [None] * (3 - level)
        _last[level] = key, build()
    return _last[level][1]


def reuse_or_build(config):
    """(build_dataset(config), its stratified_split at config.split_fraction and seed), reusing
    each level the last call built while its key matches: the checked trajectories while the
    frame count and every class's GestureTemplate.key() do (templates are mutable, so the
    bytes they hold, not their identity), the dataset while also the classes, feature kind,
    seed, samples per class and noise std do, and the split while also split_fraction does."""
    templates = config.templates or {}
    keys = [(templates.get(name) or get_template(name)).key() for name in config.classes]
    cleans = _reuse(0, (config.frames, keys), lambda: _clean_classes(config))
    problem = (config.classes, config.feature_kind, config.seed, config.samples_per_class, config.noise_std)
    data = _reuse(1, problem, lambda: _dataset_from(config, cleans))
    return data, _reuse(2, config.split_fraction, lambda: stratified_split(data, config.split_fraction, config.seed))


def stratified_split(data, fraction, seed):
    """Per-class split into disjoint, exhaustive (train, test) datasets.

    Each class keeps round(fraction * count) samples for training, clamped
    so both sides stay non-empty. Classes with fewer than 2 samples raise
    StratifyError.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    base = PortableRNG(seed)
    by_class = {lab: [] for lab in data.label_set}
    for i, lab in enumerate(data.labels):
        by_class[lab].append(i)
    train_idx, test_idx = [], []
    for ci, lab in enumerate(data.label_set):
        idx = by_class[lab]
        if len(idx) < 2:
            raise StratifyError(lab, len(idx))
        rng = base.spawn(ci)
        rng.shuffle(idx)
        n_train = int(fraction * len(idx) + 0.5)
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.extend(idx[:n_train])
        test_idx.extend(idx[n_train:])
    return data.subset(train_idx), data.subset(test_idx)


def export_dataset(config, out_dir):
    """Write every sequence as a skeleton text file plus a labels manifest.

    Returns the manifest path. Manifest lines are `filename,label`, one per
    sequence, in generation order.
    """
    os.makedirs(out_dir, exist_ok=True)
    sequences, labels = make_sequences(config)
    counter = {}
    manifest_lines = []
    for seq, label in zip(sequences, labels):
        i = counter.get(label, 0)
        counter[label] = i + 1
        filename = f"{label}_{i:03d}.txt"
        write_skeleton_file(os.path.join(out_dir, filename), seq)
        manifest_lines.append(f"{filename},{label}")
    manifest_path = os.path.join(out_dir, "labels.csv")
    with open(manifest_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(manifest_lines) + "\n")
    return manifest_path
