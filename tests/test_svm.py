import hashlib

import numpy as np
import pytest

from skelgest.classifiers import GaussianKernelSVM, gaussian_kernel
from skelgest.classifiers.model_io import dumps_model
from skelgest.classifiers.svm import _canonical_order, squared_distances
from skelgest.errors import DimensionMismatchError, TrainingDegenerateError
from skelgest.harness import INTERACTION_TEMPLATES, ExperimentConfig, build_dataset, stratified_split
from skelgest.rng import PortableRNG


def blobs(rng, means, n_per_class, std=0.5):
    X, y = [], []
    for label, mean in means.items():
        X.append(rng.normal(loc=mean, scale=std, size=(n_per_class, len(mean))))
        y += [label] * n_per_class
    return np.vstack(X), y


THREE_BLOBS = {"a": (0.0, 0.0), "b": (10.0, 0.0), "c": (0.0, 10.0)}


def harness_training_split(**fields):
    config = ExperimentConfig(**fields)
    train, _ = stratified_split(build_dataset(config), config.split_fraction, config.seed)
    return train.vectors, train.labels


class TestKernel:
    def test_self_similarity_is_exactly_one(self):
        rng = np.random.default_rng(40)
        X = rng.normal(size=(20, 5))
        K = gaussian_kernel(X, X)
        np.testing.assert_array_equal(np.diag(K), np.ones(20))

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(15, 4))
        K = gaussian_kernel(X, X)
        np.testing.assert_allclose(K, K.T, atol=1e-15)
        assert (K > 0.0).all() and (K <= 1.0).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetric_form_equals_the_full_matrix(self, seed):
        # upper triangle mirrored: the same bits as every pair measured both ways
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 1200))
        X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4) + 10.0 ** rng.integers(0, 9)
        assert np.array_equal(squared_distances(X), squared_distances(X, X))
        assert np.array_equal(gaussian_kernel(X, sigma=2.0), gaussian_kernel(X, X, 2.0))

    def test_width_parameter(self):
        x = np.array([[0.0]])
        y = np.array([[2.0]])
        assert gaussian_kernel(x, y, sigma=1.0)[0, 0] == pytest.approx(np.exp(-2.0))
        assert gaussian_kernel(x, y, sigma=2.0)[0, 0] == pytest.approx(np.exp(-0.5))

    def test_tiny_width_fits_and_predicts(self):
        # d / (2 sigma^2) overflows to inf, so every distinct pair's kernel
        # value is exactly 0; pytest makes the overflow warning an error
        X, y = blobs(np.random.default_rng(49), THREE_BLOBS, 5)
        model = GaussianKernelSVM(sigma=1e-156).fit(X, y)
        assert np.array_equal(gaussian_kernel(X, sigma=1e-156), np.eye(len(X)))
        assert model.predict(X) == y
        assert np.isfinite(model.decision_function(X[:1] + 1.0)).all()


def full_lexsort(X, y):
    return np.lexsort([np.asarray(y)] + [X[:, c] for c in range(X.shape[1] - 1, -1, -1)])


class TestCanonicalOrder:
    @pytest.mark.parametrize("seed", range(4))
    def test_distinct_first_column(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 5))
        y = rng.integers(0, 3, 30)
        assert np.array_equal(_canonical_order(X, y), full_lexsort(X, y))

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_rows(self, seed):
        # first-column ties, 0.0 against -0.0, and repeated rows with other labels
        rng = np.random.default_rng(seed)
        X = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(40, 3))
        X[20:] = X[:20]
        y = rng.integers(0, 3, 40)
        assert np.array_equal(_canonical_order(X, y), full_lexsort(X, y))

    def test_signed_zeros_alone_in_the_first_column(self):
        X = np.array([[0.0, 2.0], [-0.0, 1.0], [1.0, 0.0]])
        assert _canonical_order(X, np.zeros(3, dtype=np.int64)).tolist() == [1, 0, 2]

    def test_first_column_spanning_the_float_range(self):
        # the gap between the two first features overflows a difference;
        # pytest makes the overflow warning an error
        X = np.array([[1e308, 0.0], [-1e308, 1.0]])
        y = ["a", "b"]
        assert _canonical_order(X, np.zeros(2, dtype=np.int64)).tolist() == [1, 0]
        assert GaussianKernelSVM().fit(X, y).predict(X) == y


class TestFit:
    def test_separable_toy_set(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0], [10.0, 10.0], [12.0, 12.0]])
        y = ["A", "A", "B", "B"]
        model = GaussianKernelSVM().fit(X, y)
        assert model.predict(X) == y

    def test_single_class_rejected(self):
        with pytest.raises(TrainingDegenerateError):
            GaussianKernelSVM().fit(np.zeros((3, 2)), ["A", "A", "A"])

    def test_identical_vectors_differing_labels_rejected(self):
        X = np.ones((4, 3))
        with pytest.raises(TrainingDegenerateError):
            GaussianKernelSVM().fit(X, ["A", "B", "A", "B"])

    def test_blob_training_accuracy(self):
        rng = np.random.default_rng(42)
        X, y = blobs(rng, THREE_BLOBS, 30)
        model = GaussianKernelSVM().fit(X, y)
        assert model.score(X, y) >= 0.99

    def test_blob_holdout_accuracy(self):
        rng = np.random.default_rng(43)
        X, y = blobs(rng, THREE_BLOBS, 30)
        Xt, yt = blobs(rng, THREE_BLOBS, 20)
        model = GaussianKernelSVM().fit(X, y)
        assert model.score(Xt, yt) >= 0.95


class TestPredict:
    def test_far_point_still_classified(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0], [11.0, 11.0]])
        model = GaussianKernelSVM().fit(X, ["A", "A", "B", "B"])
        far = np.array([[500.0, -500.0]])
        scores = model.decision_function(far)
        assert scores.shape == (1, 2) and np.isfinite(scores).all()
        assert model.predict(far) == [model.classes_[int(np.argmax(scores[0]))]]

    def test_scores_align_with_labels(self):
        rng = np.random.default_rng(44)
        X, y = blobs(rng, THREE_BLOBS, 10)
        model = GaussianKernelSVM().fit(X, y)
        scores = model.decision_function(X)
        assert scores.shape == (30, 3)
        preds = model.predict(X)
        for row, pred in zip(scores, preds):
            assert model.classes_[int(np.argmax(row))] == pred

    def test_dimension_mismatch(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 6.0]])
        model = GaussianKernelSVM().fit(X, ["A", "A", "B", "B"])
        with pytest.raises(DimensionMismatchError):
            model.predict(np.zeros((1, 3)))


class TestInvariances:
    def test_training_order_does_not_change_decisions(self):
        rng = np.random.default_rng(45)
        X, y = blobs(rng, THREE_BLOBS, 12)
        probe = rng.normal(size=(8, 2)) * 4.0
        base = GaussianKernelSVM().fit(X, y).decision_function(probe)
        for seed in (1, 2, 3):
            perm = np.random.default_rng(seed).permutation(len(y))
            shuffled = GaussianKernelSVM().fit(X[perm], [y[i] for i in perm])
            np.testing.assert_allclose(shuffled.decision_function(probe), base, atol=1e-6)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(46)
        X, y = blobs(rng, THREE_BLOBS, 10)
        probe = rng.normal(size=(10, 2)) * 3.0
        rename = {"a": "z9", "b": "m5", "c": "a1"}
        base = GaussianKernelSVM().fit(X, y).predict(probe)
        renamed = GaussianKernelSVM().fit(X, [rename[v] for v in y]).predict(probe)
        assert [rename[v] for v in base] == renamed

    def test_get_params(self):
        model = GaussianKernelSVM(sigma=2.0, C=5.0)
        assert model.get_params() == {"sigma": 2.0, "C": 5.0, "tol": 1e-3}

    def test_exhausted_step_budget_raises(self, monkeypatch):
        from skelgest.classifiers import svm as svm_mod
        from skelgest.errors import ConvergenceFailureError

        monkeypatch.setattr(svm_mod, "_MAX_STEPS_PER_SAMPLE", 0)
        X = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 6.0]])
        with pytest.raises(ConvergenceFailureError):
            GaussianKernelSVM().fit(X, ["A", "A", "B", "B"])

    def test_step_budget_of_five_per_sample_suffices(self, monkeypatch):
        # a variable the pair update pushes out of the box must land exactly
        # on its bound; a residue such as 1e-17 left on a bounded alpha keeps
        # it a violator, and the solver steps in place until the budget ends
        from skelgest.classifiers import svm as svm_mod

        monkeypatch.setattr(svm_mod, "_MAX_STEPS_PER_SAMPLE", 5)
        X, y = harness_training_split(samples_per_class=4, seed=PortableRNG(1).spawn(6).seed)
        assert X.shape[0] == 24
        coef = np.abs(GaussianKernelSVM().fit(X, y).dual_coef_)
        assert not np.any((coef > 0.0) & (coef < 1e-12))


class TestOptimality:
    """Fitted duals against the optimality conditions of each machine's dual
    problem (box, equality constraint, margins), whatever solver found them."""

    def assert_kkt(self, X, y):
        model = GaussianKernelSVM().fit(X, y)
        C, tol, n = model.C, model.tol, len(y)
        # training row behind each stored row, to pair duals with labels
        rows = [int(np.flatnonzero((X == x).all(axis=1))[0]) for x in model.X_]
        labels = np.array(y)[rows]
        decisions = model.decision_function(X)[rows]
        for k, cls in enumerate(model.classes_):
            target = np.where(labels == cls, 1.0, -1.0)
            alpha = model.dual_coef_[k] * target
            assert np.all(alpha >= 0.0) and np.all(alpha <= C)
            assert abs(model.dual_coef_[k].sum()) <= 1e-9 * C * n
            margin = target * decisions[:, k]
            assert np.all(margin[alpha < C] >= 1.0 - 2.0 * tol)
            assert np.all(margin[alpha > 0.0] <= 1.0 + 2.0 * tol)

    def test_three_blobs(self):
        X, y = blobs(np.random.default_rng(47), THREE_BLOBS, 20)
        self.assert_kkt(X, y)

    def test_paper_single_sized_problem(self):
        X, y = harness_training_split(samples_per_class=8, noise_std=0.1, seed=PortableRNG(48).spawn(0).seed)
        assert X.shape == (48, 540)
        self.assert_kkt(X, y)


# SHA-256 of dumps_model and of the decision values on the training rows, for
# machines fitted at the benchmark's two workload shapes. The model file
# checks the fit kernel and SMO; the decision values check the predict kernel.
PINNED_MACHINES = [
    (
        dict(samples_per_class=8, noise_std=0.1, seed=11),
        (48, 540),
        "354019bac619d06d8a4cb361d2a938019baffaa0abea3b7e2d3cf485cd2410a8",
        "b506bbb0d1b5733db07d731c3ff913f2d1b9a477444d7b480cb4601c144361b3",
    ),
    (
        dict(classes=tuple(INTERACTION_TEMPLATES), feature_kind="two_person",
             samples_per_class=15, noise_std=0.3, seed=11),
        (96, 1080),
        "4c16f8c1ab132a2ff13e26b58a3ece9fc2bd739c9d87c71b40782817581ba20a",
        "91a059b7ce8aed94c6135ab5f05164a6f12e09908df823c85789be4f912e96eb",
    ),
]


@pytest.mark.parametrize("fields, shape, model_digest, decision_digest", PINNED_MACHINES,
                         ids=["paper-single", "interaction-wide"])
def test_trained_svm_model_file_is_pinned(fields, shape, model_digest, decision_digest):
    X, y = harness_training_split(**fields)
    assert X.shape == shape
    model = GaussianKernelSVM().fit(X, y)
    assert hashlib.sha256(dumps_model(model).encode("ascii")).hexdigest() == model_digest
    decisions = np.ascontiguousarray(model.decision_function(X), dtype="<f8")
    assert hashlib.sha256(decisions.tobytes()).hexdigest() == decision_digest
