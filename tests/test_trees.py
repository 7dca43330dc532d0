import hashlib

import numpy as np
import pytest

from skelgest.classifiers import BaggedTreeEnsemble, DecisionTree, dumps_model
from skelgest.classifiers.trees import _best_split
from skelgest.errors import DimensionMismatchError, InvalidBootstrapError, TrainingDegenerateError
from skelgest.harness import ExperimentConfig, build_dataset, make_classifier, stratified_split

from test_svm import THREE_BLOBS, blobs


class IdentitySampled(BaggedTreeEnsemble):
    # test hook: every "bootstrap" is the full training set in order
    def _draw_indices(self, rng, n_samples, size):
        return np.arange(n_samples)


def walk(tree, x):
    """One row's leaf label, following the nodes one at a time."""
    i = 0
    while tree.feature[i] >= 0:
        i = tree.children[i, 0] if x[tree.feature[i]] <= tree.threshold[i] else tree.children[i, 1]
    return int(tree.label[i])


class TestDecisionTree:
    def test_pure_leaves_on_training_data(self):
        rng = np.random.default_rng(50)
        X, y = blobs(rng, THREE_BLOBS, 15)
        classes = sorted(set(y))
        y_idx = np.array([classes.index(v) for v in y])
        tree = DecisionTree(3).fit(X, y_idx)
        assert np.array_equal(tree.predict(X), y_idx)

    def test_unsplittable_node_becomes_majority_leaf(self):
        X = np.ones((5, 2))
        y_idx = np.array([0, 0, 0, 1, 1])
        tree = DecisionTree(2).fit(X, y_idx)
        assert tree.predict(X).tolist() == [0] * 5

    def test_majority_tie_takes_lowest_class(self):
        X = np.ones((4, 2))
        y_idx = np.array([1, 0, 1, 0])
        tree = DecisionTree(2).fit(X, y_idx)
        assert tree.predict(X).tolist() == [0] * 4

    def test_deeper_than_the_recursion_limit(self):
        # alternating labels on a line: every split peels off one end row
        X, y_idx = np.arange(1500.0)[:, None], np.arange(1500) % 2
        tree = DecisionTree(2).fit(X, y_idx)
        assert depth(tree) == 1499
        assert np.array_equal(tree.predict(X), y_idx)


def depth(tree):
    """Edges on the longest root-to-leaf path; nodes are stored parents first."""
    level = np.zeros(len(tree.feature), dtype=np.int64)
    for i in np.flatnonzero(tree.feature >= 0):
        level[tree.children[i]] = level[i] + 1
    return int(level.max())


def reference_split(X, y_idx, n_classes):
    """_best_split in plain Python: class counts tallied row by row, the same
    float Gini formula, cuts scanned feature-major and then left to right,
    the first strict minimum kept."""
    n, d = len(X), len(X[0])
    total = [0] * n_classes
    for c in y_idx:
        total[c] += 1
    parent = 1.0 - sum(t * t for t in total) / (n * n)
    best = None
    for f in range(d):
        rows = sorted(range(n), key=lambda i: X[i][f])
        left = [0] * n_classes
        for cut in range(n - 1):
            left[y_idx[rows[cut]]] += 1
            lo, hi = X[rows[cut]][f], X[rows[cut + 1]][f]
            if not hi > lo:
                continue
            nl = float(cut + 1)
            nr = n - nl
            gini_l = 1.0 - sum(c * c for c in left) / (nl * nl)
            gini_r = 1.0 - sum((t - c) ** 2 for t, c in zip(total, left)) / (nr * nr)
            weighted = (nl * gini_l + nr * gini_r) / n
            if best is None or weighted < best[0]:
                best = (weighted, f, (lo + hi) / 2.0)
    if best is None or best[0] >= parent - 1e-15:
        return None
    return best[1], best[2]


def random_node(rng):
    """A tie-heavy node: few distinct values, sometimes a constant column,
    sometimes fewer classes present than n_classes."""
    n = int(rng.choice([2, 3, int(rng.integers(4, 30))]))
    d = int(rng.integers(1, 5))
    n_classes = int(rng.integers(2, 6))
    X = rng.integers(0, int(rng.integers(1, 5)), size=(n, d)) * 0.25
    if rng.random() < 0.3:
        X[:, int(rng.integers(d))] = 1.5
    y_idx = rng.integers(0, int(rng.integers(1, n_classes + 1)), size=n)
    if rng.random() < 0.3:
        y_idx = n_classes - 1 - y_idx  # keep the low classes absent
    return X, y_idx, n_classes


def balanced_node(rng):
    """Blocks of tied rows that each hold the same class mix: every cut
    leaves the class proportions of the parent, so no split lowers Gini."""
    mix = rng.integers(0, 3, size=int(rng.integers(2, 4)))
    blocks = int(rng.integers(2, 5))
    X = np.repeat(rng.permutation(blocks) * 1.0, len(mix))[:, None]
    y_idx = np.tile(mix, blocks)
    return np.hstack([X, np.full_like(X, 2.0)]), y_idx, 3


class TestBestSplitOracle:
    def test_matches_plain_python_reference(self):
        rng = np.random.default_rng(60)
        seen = {"split": 0, "none": 0, "n=2": 0, "absent class": 0}
        for _ in range(600):
            X, y_idx, n_classes = random_node(rng)
            got = _best_split(X, y_idx, n_classes)
            assert got == reference_split(X.tolist(), y_idx.tolist(), n_classes), (X, y_idx)
            seen["split" if got else "none"] += 1
            seen["n=2"] += len(y_idx) == 2
            seen["absent class"] += len(set(y_idx.tolist())) < n_classes
        assert min(seen.values()) >= 20, seen

    def test_no_gain_split_is_none(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            X, y_idx, n_classes = balanced_node(rng)
            if len(set(y_idx.tolist())) > 1:
                assert reference_split(X.tolist(), y_idx.tolist(), n_classes) is None
                assert _best_split(X, y_idx, n_classes) is None

    def test_continuous_features_match_reference(self):
        rng = np.random.default_rng(62)
        X, y = blobs(rng, THREE_BLOBS, 12, std=3.0)
        y_idx = np.array([sorted(set(y)).index(v) for v in y])
        for _ in range(100):
            rows = rng.integers(len(y_idx), size=int(rng.integers(2, 36)))
            Xn, yn = np.round(X[rows], 1), y_idx[rows]
            assert _best_split(Xn, yn, 3) == reference_split(Xn.tolist(), yn.tolist(), 3)

    def test_row_order_cannot_change_a_split(self):
        # the sort need not be stable: tied rows may come in any order
        rng = np.random.default_rng(64)
        for _ in range(300):
            X, y_idx, n_classes = random_node(rng)
            expected = _best_split(X, y_idx, n_classes)
            for _ in range(3):
                p = rng.permutation(len(y_idx))
                assert _best_split(X[p], y_idx[p], n_classes) == expected, (X, y_idx, p)

    @pytest.mark.parametrize("n", [32767, 32768], ids=["int32-counts", "int64-counts"])
    def test_largest_counts_match_reference(self, n):
        # nearly one class, cut off at the far end: Σ t·l and Σ l² near n²
        rng = np.random.default_rng(n)
        X = rng.permutation(np.arange(n) // 2)[:, None] * 1.0
        y_idx = (X[:, 0] == X.max()).astype(np.int64)
        got = _best_split(X, y_idx, 2)
        assert got == reference_split(X.tolist(), y_idx.tolist(), 2)
        assert got == (0, float(X.max()) - 0.5)


class TestEnsembleFit:
    def test_same_seed_identical_predictions_and_model(self):
        rng = np.random.default_rng(51)
        X, y = blobs(rng, THREE_BLOBS, 12)
        probe = rng.normal(size=(20, 2)) * 5.0
        m1 = BaggedTreeEnsemble(n_trees=25, seed=42).fit(X, y)
        m2 = BaggedTreeEnsemble(n_trees=25, seed=42).fit(X, y)
        assert m1.predict(probe) == m2.predict(probe)
        assert dumps_model(m1) == dumps_model(m2)

    def test_different_seed_differs_somewhere(self):
        rng = np.random.default_rng(52)
        X, y = blobs(rng, THREE_BLOBS, 12)
        m1 = BaggedTreeEnsemble(n_trees=10, seed=1).fit(X, y)
        m2 = BaggedTreeEnsemble(n_trees=10, seed=2).fit(X, y)
        assert dumps_model(m1) != dumps_model(m2)

    def test_identity_hook_single_tree_matches_tree_accuracy(self):
        rng = np.random.default_rng(53)
        X, y = blobs(rng, THREE_BLOBS, 10, std=4.0)
        model = IdentitySampled(n_trees=1, bootstrap_fraction=1.0, seed=0).fit(X, y)
        tree = model.trees_[0]
        y_idx = np.array([model.classes_.index(v) for v in y])
        assert model.score(X, y) == np.mean(tree.predict(X) == y_idx)

    def test_blob_holdout_accuracy(self):
        rng = np.random.default_rng(54)
        X, y = blobs(rng, THREE_BLOBS, 30)
        Xt, yt = blobs(rng, THREE_BLOBS, 20)
        model = BaggedTreeEnsemble(seed=7).fit(X, y)
        assert model.score(Xt, yt) >= 0.95

    def test_single_class_rejected(self):
        with pytest.raises(TrainingDegenerateError):
            BaggedTreeEnsemble().fit(np.zeros((4, 2)), ["A"] * 4)

    def test_empty_bootstrap_rejected(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(InvalidBootstrapError):
            BaggedTreeEnsemble(bootstrap_fraction=0.3).fit(X, ["A", "B"])

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            BaggedTreeEnsemble(bootstrap_fraction=1.5).fit(np.zeros((4, 1)), ["A", "A", "B", "B"])


class TestEnsemblePredict:
    def test_vote_counts_sum_to_tree_count(self):
        rng = np.random.default_rng(55)
        X, y = blobs(rng, THREE_BLOBS, 12)
        model = BaggedTreeEnsemble(seed=3).fit(X, y)  # default 100 trees
        votes = model.vote_counts(rng.normal(size=(15, 2)) * 5.0)
        assert (votes.sum(axis=1) == 100).all()

    def test_unanimous_point_gets_full_count(self):
        rng = np.random.default_rng(56)
        X, y = blobs(rng, THREE_BLOBS, 12)
        # identical training sets make all 40 trees identical, hence unanimous
        model = IdentitySampled(n_trees=40, seed=4).fit(X, y)
        label, votes = model.predict_with_votes(np.array([0.0, 10.0]))  # deep inside class c
        assert label == "c"
        assert votes["c"] == 40

    def test_majority_matches_per_tree_recount(self):
        rng = np.random.default_rng(57)
        X, y = blobs(rng, THREE_BLOBS, 10, std=3.0)  # noisy: votes actually split
        model = BaggedTreeEnsemble(n_trees=30, seed=5).fit(X, y)
        probe = rng.normal(loc=3.0, size=(40, 2)) * 3.0
        votes = model.vote_counts(probe)
        tally = np.zeros_like(votes)
        for tree in model.trees_:
            pred = tree.predict(probe)
            for i, cls in enumerate(pred):
                tally[i, cls] += 1
        assert np.array_equal(votes, tally)
        preds = model.predict(probe)
        for row, pred in zip(tally, preds):
            assert model.classes_[int(np.argmax(row))] == pred

    def test_predict_matches_per_row_walk(self):
        rng = np.random.default_rng(63)
        X, y = blobs(rng, THREE_BLOBS, 12, std=3.0)
        model = BaggedTreeEnsemble(n_trees=20, seed=8).fit(X, y)
        # a threshold itself, in both columns, must take its split's <= side
        thresholds = np.concatenate([t.threshold for t in model.trees_])
        probe = np.vstack([X, rng.normal(size=(30, 2)) * 5.0, np.column_stack([thresholds] * 2)])
        tally = np.zeros((len(probe), 3), dtype=np.int64)
        for tree in model.trees_:
            walked = np.array([walk(tree, row) for row in probe])
            assert np.array_equal(tree.predict(probe), walked)
            tally[np.arange(len(probe)), walked] += 1
        assert np.array_equal(model.vote_counts(probe), tally)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(58)
        X, y = blobs(rng, THREE_BLOBS, 5)
        model = BaggedTreeEnsemble(n_trees=5, seed=0).fit(X, y)
        with pytest.raises(DimensionMismatchError):
            model.predict(np.zeros((1, 7)))

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(59)
        X, y = blobs(rng, THREE_BLOBS, 10)
        probe = rng.normal(size=(20, 2)) * 5.0
        rename = {"a": "q", "b": "a", "c": "b"}
        base = BaggedTreeEnsemble(n_trees=20, seed=6).fit(X, y).predict(probe)
        renamed = BaggedTreeEnsemble(n_trees=20, seed=6).fit(X, [rename[v] for v in y]).predict(probe)
        assert [rename[v] for v in base] == renamed


# SHA-256 of dumps_model for ensembles trained through the harness. A change
# here means a seed no longer reproduces the model file it used to: a split,
# threshold, tie-break or bootstrap draw moved.
PINNED_ENSEMBLES = [
    (
        ExperimentConfig(
            classes=("waving", "punching", "push", "clap", "zoom_in"),
            samples_per_class=10, frames=12, seed=11, noise_std=0.08,
            feature_kind="single", classifier="edt",
            params={"n_trees": 12, "bootstrap_fraction": 0.7},
        ),
        "7708eb7016e16062dd36d164cd3ee0bb61a925ff5f0bdd61418f96d0d101b5e6",
    ),
    (
        ExperimentConfig(
            classes=("approaching", "departing", "exchanging", "hugging"),
            samples_per_class=10, frames=12, seed=12, noise_std=0.08,
            feature_kind="two_person", classifier="edt",
            params={"n_trees": 12, "bootstrap_fraction": 0.7},
        ),
        "2a8afdc7e801798ba3b4218253cd8c7071c995b8c49459323cf61f8f502de4d0",
    ),
]


@pytest.mark.parametrize("config, digest", PINNED_ENSEMBLES, ids=["single", "two_person"])
def test_trained_ensemble_model_file_is_pinned(config, digest):
    train, _ = stratified_split(build_dataset(config), config.split_fraction, config.seed)
    model = make_classifier(config).fit(train.vectors, train.labels)
    assert hashlib.sha256(dumps_model(model).encode("ascii")).hexdigest() == digest
