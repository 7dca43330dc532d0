import hashlib
import math
from collections import Counter

import numpy as np
import pytest

import skelgest.classifiers.knn as knn_module
from skelgest.classifiers import KNearestNeighbors
from skelgest.classifiers.model_io import dumps_model
from skelgest.errors import DimensionMismatchError, TrainingDegenerateError
from skelgest.harness import ExperimentConfig, build_dataset, stratified_split

from test_svm import PINNED_MACHINES, THREE_BLOBS, blobs


def oracle_ranked(X_train, x):
    """(distance, index) of every training row, nearest first. Each squared
    distance is added left to right: sum() compensates from Python 3.12 on."""
    dists = []
    for i, row in enumerate(X_train):
        sq = 0.0
        for a, b in zip(row, x):
            sq += (a - b) ** 2
        dists.append((math.sqrt(sq), i))
    return sorted(dists)


def oracle_vote(ranked, y_train, k):
    """Majority label of the first k ranked rows with the documented tie-breaks."""
    nearest = ranked[:k]
    counts = Counter(y_train[i] for _, i in nearest)
    best = max(counts.values())
    total = dict.fromkeys((lab for lab, c in counts.items() if c == best), 0.0)
    for d, i in nearest:
        if y_train[i] in total:
            total[y_train[i]] += d
    return min(total, key=lambda lab: (total[lab], lab))


def oracle_knn(X_train, y_train, x, k):
    """Exhaustive scan in plain python with the documented tie-breaks."""
    return oracle_vote(oracle_ranked(X_train, x), y_train, k)


class TestBasics:
    def test_k1_training_point_returns_own_label(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        y = ["a", "b", "c"]
        model = KNearestNeighbors(k=1).fit(X, y)
        assert model.predict(X) == y

    def test_k3_majority(self):
        X = np.array([[0.0], [0.5], [10.0], [50.0], [60.0]])
        y = ["A", "A", "B", "C", "C"]
        model = KNearestNeighbors(k=3).fit(X, y)
        assert model.predict(np.array([[0.2]])) == ["A"]  # neighbors A, A, B

    def test_k1_perfect_on_training_set(self):
        rng = np.random.default_rng(60)
        X, y = blobs(rng, THREE_BLOBS, 20, std=3.0)
        model = KNearestNeighbors(k=1).fit(X, y)
        assert model.score(X, y) == 1.0

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            KNearestNeighbors(k=2).fit(np.zeros((4, 1)), ["a", "a", "b", "b"])

    def test_k_larger_than_training_rejected(self):
        with pytest.raises(TrainingDegenerateError):
            KNearestNeighbors(k=5).fit(np.zeros((3, 1)), ["a", "b", "c"])

    def test_single_class_rejected(self):
        with pytest.raises(TrainingDegenerateError):
            KNearestNeighbors(k=1).fit(np.zeros((3, 2)), ["a", "a", "a"])

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e308])
    def test_huge_values_predict_their_own_labels(self, scale):
        # the dot-product expansion overflows to nan, so it rules out no row, and
        # the exact distances to the other rows overflow to inf; pytest makes
        # the overflow warnings errors
        X = scale * np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        y = ["a", "b", "a", "b"]
        assert KNearestNeighbors(k=1).fit(X, y).predict(X) == y

    def test_dimension_mismatch(self):
        model = KNearestNeighbors(k=1).fit(np.zeros((2, 3)), ["a", "b"])
        with pytest.raises(DimensionMismatchError):
            model.predict(np.zeros((1, 2)))


class TestTieBreaks:
    def test_equidistant_neighbors_take_lower_index(self):
        X = np.array([[1.0], [-1.0]])
        model = KNearestNeighbors(k=1).fit(X, ["b", "a"])
        assert model.predict(np.array([[0.0]])) == ["b"]

    def test_label_tie_broken_by_total_distance(self):
        # k=3 sees one of each label; closest single neighbor wins
        X = np.array([[0.0], [1.0], [2.0], [50.0]])
        y = ["far", "near", "mid", "pad"]
        model = KNearestNeighbors(k=3).fit(X, y)
        assert model.predict(np.array([[1.1]])) == ["near"]


class TestOracleAgreement:
    def test_500_random_queries(self):
        rng = np.random.default_rng(61)
        X, y = blobs(rng, THREE_BLOBS, 15, std=4.0)
        for k in (1, 3, 5):
            model = KNearestNeighbors(k=k).fit(X, y)
            queries = rng.uniform(-5.0, 15.0, size=(500, 2))
            got = model.predict(queries)
            want = [oracle_knn(X.tolist(), y, q.tolist(), k) for q in queries]
            assert got == want

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e8])
    @pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
    def test_tie_heavy_half_integer_grid(self, n_classes, offset):
        # on a coarse grid many neighbors are equidistant and many labels tie
        # on count and on summed distance, so every tie-break is used; at an
        # offset of 1e8 the dot-product expansion cancels unless data are shifted
        rng = np.random.default_rng(70 + n_classes)
        X = rng.integers(0, 6, size=(24, 2)) / 2.0 + offset
        y = [f"c{v}" for v in np.arange(24) % n_classes]
        axis = np.arange(-1, 8) / 2.0
        queries = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2) + offset
        for k in (1, 3, 5, 7):
            got = KNearestNeighbors(k=k).fit(X, y).predict(queries)
            want = [oracle_knn(X.tolist(), y, q.tolist(), k) for q in queries]
            assert got == want

    @pytest.mark.parametrize("fields", [m[0] for m in PINNED_MACHINES], ids=["paper-single", "interaction-wide"])
    def test_midpoints_of_consecutive_training_rows(self, fields):
        # a midpoint is about equidistant from two rows, so the last bits of
        # the two distances decide which is nearer
        config = ExperimentConfig(**fields)
        train, _ = stratified_split(build_dataset(config), config.split_fraction, config.seed)
        X, y = train.vectors, train.labels
        queries = (X[:-1] + X[1:]) / 2.0
        ranked = [oracle_ranked(X.tolist(), q) for q in queries.tolist()]
        for k in (1, 3, 5):
            got = KNearestNeighbors(k=k).fit(X, y).predict(queries)
            assert got == [oracle_vote(r, y, k) for r in ranked]

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(62)
        X, y = blobs(rng, THREE_BLOBS, 10, std=2.0)
        probe = rng.uniform(-5.0, 15.0, size=(50, 2))
        rename = {"a": "x2", "b": "x1", "c": "x0"}
        base = KNearestNeighbors(k=3).fit(X, y).predict(probe)
        renamed = KNearestNeighbors(k=3).fit(X, [rename[v] for v in y]).predict(probe)
        assert [rename[v] for v in base] == renamed


class TestChunksAndBlocks:
    """The exact pass's chunks of pairs and the prefilter product's blocks of
    query rows change no score bit."""

    def test_chunked_exact_pass_matches_one_chunk_and_the_oracle(self, monkeypatch):
        rng = np.random.default_rng(64)
        X, y = blobs(rng, THREE_BLOBS, 8, std=3.0)
        queries = rng.uniform(-5.0, 15.0, size=(40, 2))
        models = [KNearestNeighbors(k=k).fit(X, y) for k in (1, 3, 5)]
        whole = [model._class_scores(queries).tobytes() for model in models]
        monkeypatch.setattr(knn_module, "_PAIR_CELLS", 5)  # 2 pairs of 2 columns
        for model, scores in zip(models, whole):
            assert model._class_scores(queries).tobytes() == scores
            assert model.predict(queries) == [oracle_knn(X.tolist(), y, q.tolist(), model.k) for q in queries]

    def test_chunked_exact_pass_measures_every_overflowing_pair(self, monkeypatch):
        # the expansion overflows to nan and rules out no pair, so all 16 are
        # measured, 1 per chunk
        X = 1e200 * np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        y = ["a", "b", "a", "b"]
        model = KNearestNeighbors(k=1).fit(X, y)
        whole = model._class_scores(X).tobytes()
        monkeypatch.setattr(knn_module, "_PAIR_CELLS", 2)
        assert model._class_scores(X).tobytes() == whole
        assert model.predict(X) == y

    @pytest.mark.parametrize("cells", [1, 1 << 19], ids=["one-row-blocks", "one-block"])
    def test_no_queries_give_no_scores(self, monkeypatch, cells):
        rng = np.random.default_rng(66)
        X, y = blobs(rng, THREE_BLOBS, 8, std=3.0)
        model = KNearestNeighbors(k=3).fit(X, y)
        monkeypatch.setattr(knn_module, "_PRODUCT_CELLS", cells)
        assert model._class_scores(np.empty((0, 2))).shape == (0, 3)

    def test_winning_label_adds_its_distances_nearest_first(self):
        # its score is minus that sum to the last bit, in the oracle's order
        rng = np.random.default_rng(65)
        X, y = blobs(rng, THREE_BLOBS, 8, std=3.0)
        queries = rng.uniform(-5.0, 15.0, size=(40, 2))
        model = KNearestNeighbors(k=5).fit(X, y)
        for row, q in zip(model._class_scores(queries), queries.tolist()):
            ranked = oracle_ranked(X.tolist(), q)
            label, total = oracle_vote(ranked, y, 5), 0.0
            for d, i in ranked[:5]:
                if y[i] == label:
                    total += d
            assert -row[model.classes_.index(label)] == total

    @pytest.mark.parametrize("fields", [m[0] for m in PINNED_MACHINES], ids=["paper-single", "interaction-wide"])
    def test_prefilter_blocks_of_one_two_and_all_query_rows(self, monkeypatch, fields):
        # midpoints of consecutive training rows are near-tied, so the product's
        # last bits decide which rows the prefilter keeps; 7 rows leave a
        # 1-row block after the 2-row blocks
        config = ExperimentConfig(**fields)
        train, _ = stratified_split(build_dataset(config), config.split_fraction, config.seed)
        X, y = train.vectors, train.labels
        queries = (X[:7] + X[1:8]) / 2.0
        ranked = [oracle_ranked(X.tolist(), q) for q in queries.tolist()]
        for k in (1, 3, 5):
            model = KNearestNeighbors(k=k).fit(X, y)
            scores = set()
            for rows in (1, 2, len(queries)):
                monkeypatch.setattr(knn_module, "_PRODUCT_CELLS", rows * X.size)
                scores.add(model._class_scores(queries).tobytes())
            assert len(scores) == 1
            assert model.predict(queries) == [oracle_vote(r, y, k) for r in ranked]


# SHA-256 of dumps_model and of the predicted labels, for k-NN models fitted
# on the training splits of the SVM's pinned benchmark shapes. The queries
# are every training and held-out row; one digest covers the labels for
# k = 1, 3 and 5.
PINNED_KNN = [
    (
        PINNED_MACHINES[0][0],
        "9ec227905d126db171ce06d662d062d50c83bf98131329096715ac987573f92c",
        "3ed026fe4f4d4aa41e8a1a6035c913b8871ea7a5bd93df38c9c8a63f017d540d",
    ),
    (
        PINNED_MACHINES[1][0],
        "2bb2849f62fdc38f2099aab8bb36c455cc14c87920b4ed637ab718ec70b48f07",
        "95d98b464469b759a14a7461fac91fb051496c8e998d554a004dfbba7c2d66f6",
    ),
]


@pytest.mark.parametrize("fields, model_digest, labels_digest", PINNED_KNN,
                         ids=["paper-single", "interaction-wide"])
def test_trained_knn_model_file_and_labels_are_pinned(fields, model_digest, labels_digest):
    config = ExperimentConfig(**fields)
    train, test = stratified_split(build_dataset(config), config.split_fraction, config.seed)
    X, y = train.vectors, train.labels
    queries = np.vstack([X, test.vectors])
    labels = []
    for k in (1, 3, 5):
        labels += KNearestNeighbors(k=k).fit(X, y).predict(queries)
    model_text = dumps_model(KNearestNeighbors(k=3).fit(X, y))
    assert hashlib.sha256(model_text.encode("ascii")).hexdigest() == model_digest
    assert hashlib.sha256("\n".join(labels).encode("ascii")).hexdigest() == labels_digest
