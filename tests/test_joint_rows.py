"""Each feature scheme's JOINT_ROWS names exactly the skeleton rows its
formula reads: build_dataset jitters only those rows, so a formula that
read another row would quietly see the noiseless trajectory."""

import numpy as np
import pytest

from skelgest.features import FEATURE_MODULES
from skelgest.harness import INTERACTION_TEMPLATES, ExperimentConfig, make_sequences
from skelgest.skeleton import N_JOINTS

CONFIGS = {
    "single": ExperimentConfig(classes=("waving", "clap"), samples_per_class=2, frames=6, seed=3),
    "two_person": ExperimentConfig(classes=("kicking", "hugging"), templates=dict(INTERACTION_TEMPLATES),
                                   feature_kind="two_person", samples_per_class=2, frames=6, seed=3),
}


@pytest.fixture(params=sorted(FEATURE_MODULES))
def scheme(request):
    sequences, _ = make_sequences(CONFIGS[request.param])
    return FEATURE_MODULES[request.param], np.stack([seq.joints for seq in sequences])


def test_rows_are_distinct_ascending_joint_rows(scheme):
    module, _ = scheme
    rows = module.JOINT_ROWS
    assert list(rows) == sorted(set(rows)) and 0 <= rows[0] and rows[-1] < N_JOINTS


@pytest.mark.parametrize("fill", ["random", "nan"])
def test_rows_outside_are_never_read(scheme, fill):
    module, joints = scheme
    other = [r for r in range(N_JOINTS) if r not in module.JOINT_ROWS]
    changed = joints.copy()
    shape = changed[..., other, :].shape
    changed[..., other, :] = np.random.default_rng(5).normal(size=shape) if fill == "random" else np.nan
    expected = module.sequence_features(joints)
    assert module.sequence_features(changed).tobytes() == expected.tobytes()


def test_each_listed_row_is_read(scheme):
    module, joints = scheme
    expected = module.sequence_features(joints)
    rng = np.random.default_rng(6)
    for row in module.JOINT_ROWS:
        changed = joints.copy()
        changed[..., row, :] += rng.normal(scale=0.05, size=3)
        assert not np.array_equal(module.sequence_features(changed), expected), row
