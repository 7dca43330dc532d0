import inspect

import numpy as np
import pytest

from skelgest.classifiers import (
    BaggedTreeEnsemble,
    DecisionTree,
    GaussianKernelSVM,
    KNearestNeighbors,
    dumps_model,
    load_model,
    loads_model,
    save_model,
)
from skelgest.classifiers import svm
from skelgest.classifiers.model_io import _FIELDS, CLASSIFIERS
from skelgest.errors import ConvergenceFailureError, ModelFormatError

from test_svm import THREE_BLOBS, blobs


@pytest.fixture(scope="module")
def training():
    rng = np.random.default_rng(70)
    X, y = blobs(rng, THREE_BLOBS, 10)
    probe = rng.normal(loc=4.0, scale=4.0, size=(25, 2))
    return X, y, probe


class TestRoundTrip:
    def test_svm_scores_identical(self, training, tmp_path):
        X, y, probe = training
        model = GaussianKernelSVM().fit(X, y)
        path = tmp_path / "svm.model"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(model.decision_function(probe), loaded.decision_function(probe))
        assert model.predict(probe) == loaded.predict(probe)
        assert loaded.get_params() == model.get_params()

    def test_edt_votes_identical(self, training, tmp_path):
        X, y, probe = training
        model = BaggedTreeEnsemble(n_trees=20, seed=9).fit(X, y)
        path = tmp_path / "edt.model"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(model.vote_counts(probe), loaded.vote_counts(probe))

    def test_knn_predictions_identical(self, training, tmp_path):
        X, y, probe = training
        model = KNearestNeighbors(k=3).fit(X, y)
        path = tmp_path / "knn.model"
        save_model(model, path)
        assert load_model(path).predict(probe) == model.predict(probe)

    def test_model_that_cannot_be_written_leaves_the_file(self, tmp_path):
        path = tmp_path / "old.model"
        path.write_text("old model\n")
        with pytest.raises(RuntimeError, match="not fitted yet"):
            save_model(GaussianKernelSVM(), path)  # not fitted
        assert path.read_text() == "old model\n"

    def test_text_round_trip_is_stable(self, training):
        X, y, _ = training
        model = KNearestNeighbors(k=1).fit(X, y)
        text = dumps_model(model)
        assert dumps_model(loads_model(text)) == text

    # a parameter left out is its default, so a model of defaults writes only n_features
    @pytest.mark.parametrize("kind", sorted(CLASSIFIERS))
    def test_default_parameters_are_not_written(self, training, kind):
        X, y, _ = training
        text = dumps_model(CLASSIFIERS[kind]().fit(X, y))
        assert [line for line in text.splitlines() if line.startswith("scalar")] == ["scalar n_features 2"]
        assert dumps_model(loads_model(text)) == text

    def test_wide_seed_survives_round_trip(self, training):
        X, y, _ = training
        seed = (1 << 63) + 12345  # would clip through a float
        model = BaggedTreeEnsemble(n_trees=3, seed=seed).fit(X, y)
        assert loads_model(dumps_model(model)).seed == seed

    # fit checks each parameter against its default's type, as the model file
    # reads it back, so a model that fits also loads
    @pytest.mark.parametrize("cls, params, rejected", [
        (BaggedTreeEnsemble, {"n_trees": 3, "seed": 1.5}, "seed"),
        (BaggedTreeEnsemble, {"n_trees": 3.0}, "n_trees"),
        (KNearestNeighbors, {"k": True}, "k"),
        (KNearestNeighbors, {"k": 3.0}, "k"),
        (GaussianKernelSVM, {"sigma": True}, "sigma"),
        (GaussianKernelSVM, {"C": "10"}, "C"),
        (KNearestNeighbors, {"k": np.int64(3)}, None),
        (BaggedTreeEnsemble, {"n_trees": 3, "seed": np.int64(5)}, None),
        (GaussianKernelSVM, {"sigma": 2, "C": np.float64(5.0)}, None),
    ], ids=["float-seed", "float-n_trees", "bool-k", "float-k", "bool-sigma", "str-C",
            "int64-k", "int64-seed", "int-sigma"])
    def test_parameter_types(self, training, cls, params, rejected):
        X, y, probe = training
        model = cls(**params)
        if rejected:
            with pytest.raises(ValueError, match=f"^{rejected} must be"):
                model.fit(X, y)
            return
        loaded = loads_model(dumps_model(model.fit(X, y)))
        assert loaded.get_params() == model.get_params()
        assert loaded.predict(probe) == model.predict(probe)


class TestFitContract:
    """fit sets the fitted state in one step, after the kind's _fit returns."""

    def test_failed_refit_leaves_the_model(self, training, monkeypatch):
        X, y, probe = training
        model = GaussianKernelSVM().fit(X, y)
        classes, scores = model.classes_, model.decision_function(probe)
        monkeypatch.setattr(svm, "_MAX_STEPS_PER_SAMPLE", 0)
        with pytest.raises(ConvergenceFailureError):
            model.fit(X, [f"new_{label}" for label in y])
        assert model.classes_ == classes
        assert np.array_equal(model.decision_function(probe), scores)

    def test_failed_first_fit_leaves_the_model_unfitted(self, training, monkeypatch):
        X, y, probe = training
        model = GaussianKernelSVM()
        monkeypatch.setattr(svm, "_MAX_STEPS_PER_SAMPLE", 0)
        with pytest.raises(ConvergenceFailureError):
            model.fit(X, y)
        with pytest.raises(RuntimeError, match="not fitted"):
            model.predict(probe)

    @pytest.mark.parametrize("kind", sorted(CLASSIFIERS))
    def test_unfitted_predict_raises(self, training, kind):
        with pytest.raises(RuntimeError, match="not fitted"):
            CLASSIFIERS[kind]().predict(training[2])

    @pytest.mark.parametrize("kind", sorted(CLASSIFIERS))
    def test_unfitted_model_is_not_written(self, kind):
        with pytest.raises(RuntimeError, match="not fitted yet"):
            dumps_model(CLASSIFIERS[kind]())

    # the fitted state is what the model file stores, so a loaded model is whole
    @pytest.mark.parametrize("kind", sorted(CLASSIFIERS))
    def test_fitted_attributes_are_the_model_files(self, training, kind):
        X, y, _ = training
        model = CLASSIFIERS[kind]().fit(X, y)
        fitted = vars(model).keys() - model.get_params().keys()
        assert fitted == {"classes_", "n_features_", *(attr for _, attr, _, _ in _FIELDS[kind])}


# Each kind's parameters, in the order of its model file's scalar records, with
# their defaults, and the repr of a model built from other values given positionally.
CONSTRUCTORS = [
    (GaussianKernelSVM, [("sigma", 1.0), ("C", 10.0), ("tol", 1e-3)], (0.5, 2.0, 1e-4),
     "GaussianKernelSVM(sigma=0.5, C=2.0, tol=0.0001)"),
    (BaggedTreeEnsemble, [("n_trees", 100), ("bootstrap_fraction", 0.30), ("seed", 0)], (7, 0.5, 2**64 - 1),
     "BaggedTreeEnsemble(n_trees=7, bootstrap_fraction=0.5, seed=18446744073709551615)"),
    (KNearestNeighbors, [("k", 1)], (3,), "KNearestNeighbors(k=3)"),
]


@pytest.mark.parametrize("cls, params, given, text", CONSTRUCTORS, ids=["svm", "edt", "knn"])
class TestConstructorContract:
    """The constructor is the parameter list: the model file's scalars, the CLI's flags."""

    def test_signature_is_the_parameter_list(self, cls, params, given, text):
        signature = inspect.signature(cls)
        assert [(p.name, p.default) for p in signature.parameters.values()] == params
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in signature.parameters.values())
        assert list(cls._defaults().items()) == params
        for name, default in params:
            assert type(cls._defaults()[name]) is type(default)

    def test_positional_arguments_in_parameter_order(self, cls, params, given, text):
        model = cls(*given)
        assert model.get_params() == dict(zip((name for name, _ in params), given))
        assert model.get_params() == cls(**model.get_params()).get_params()
        assert repr(model) == text

    def test_default_repr(self, cls, params, given, text):
        args = ", ".join(f"{name}={default!r}" for name, default in params)
        assert repr(cls()) == f"{cls.__name__}({args})"

    def test_equality_is_identity(self, cls, params, given, text):
        model = cls()
        assert model == model
        assert model != cls()
        assert cls(*given) != cls(*given)
        assert len({model, cls(), model}) == 2  # hashable, by identity


class TestCorruptFiles:
    def test_truncated_file(self, training, tmp_path):
        X, y, _ = training
        model = GaussianKernelSVM().fit(X, y)
        text = dumps_model(model)
        truncated = "\n".join(text.splitlines()[:-4])
        with pytest.raises(ModelFormatError):
            loads_model(truncated)

    def test_missing_end_sentinel(self, training):
        X, y, _ = training
        model = KNearestNeighbors(k=1).fit(X, y)
        text = dumps_model(model).replace("\nend\n", "\nfin\n")
        with pytest.raises(ModelFormatError, match="missing end sentinel"):
            loads_model(text)

    def test_blank_lines_may_follow_end(self):
        loaded = loads_model(GOLDEN_KNN + "\n  \n\t\n")
        assert loaded.predict(GOLDEN_PROBE) == loads_model(GOLDEN_KNN).predict(GOLDEN_PROBE)

    def test_wrong_magic(self):
        with pytest.raises(ModelFormatError):
            loads_model("something-else v1\nend\n")

    def test_unknown_version(self):
        with pytest.raises(ModelFormatError):
            loads_model("skelgest-model v9\nkind knn\nend\n")

    def test_unknown_kind(self):
        with pytest.raises(ModelFormatError):
            loads_model("skelgest-model v1\nkind forest\nlabels 1 a\nend\n")

    def test_garbled_value(self, training):
        X, y, _ = training
        model = KNearestNeighbors(k=3).fit(X, y)
        text = dumps_model(model).replace("scalar k 3", "scalar k banana")
        with pytest.raises(ModelFormatError):
            loads_model(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "nope.model")


def _svm_by_hand():
    model = GaussianKernelSVM(sigma=0.5, C=2.0, tol=0.001)
    model.classes_ = ["left", "right"]
    model.n_features_ = 2
    model.X_ = np.array([[-1.0, 0.1], [1.0, -0.25]])
    model.dual_coef_ = np.array([[1.5, -1.5], [-1.5, 1.5]])
    model.bias_ = np.array([0.125, -0.125])
    return model


def _tree_by_hand(feature, threshold, children, label):
    tree = DecisionTree()
    tree.feature = np.array(feature, dtype=np.int64)
    tree.threshold = np.array(threshold, dtype=np.float64)
    tree.children = np.array(children, dtype=np.int64).reshape(-1, 2)
    tree.label = np.array(label, dtype=np.int64)
    return tree


def _edt_by_hand():
    model = BaggedTreeEnsemble(n_trees=2, bootstrap_fraction=0.3, seed=7)
    model.classes_ = ["left", "right"]
    model.n_features_ = 2
    model.trees_ = [
        _tree_by_hand([0, -1, -1], [0.5, 0.0, 0.0], [[1, 2], [-1, -1], [-1, -1]], [-1, 0, 1]),
        _tree_by_hand([-1], [0.0], [[-1, -1]], [1]),
    ]
    return model


def _knn_by_hand():
    model = KNearestNeighbors(k=1)
    model.classes_ = ["left", "right"]
    model.n_features_ = 2
    model.X_ = np.array([[-1.0, 0.1], [1.0, -0.25], [0.3, 3.0]])
    model.y_ = np.array([0, 1, 1])
    return model


# Model files as the v1 format wrote them before a parameter at its default
# was left out; each holds every parameter record. A change to how any of
# these texts loads is a file-format change: files written by earlier versions
# would stop loading to the same model.
GOLDEN_SVM = """\
skelgest-model v1
kind svm
labels 2 left right
scalar sigma 0.5
scalar C 2.0
scalar tol 0.001
scalar n_features 2
array X 2 2
-1.0 0.1
1.0 -0.25
array dual_coef 2 2
1.5 -1.5
-1.5 1.5
array bias 1 2
0.125 -0.125
end
"""

GOLDEN_EDT = """\
skelgest-model v1
kind edt
labels 2 left right
scalar n_trees 2
scalar bootstrap_fraction 0.3
scalar seed 7
scalar n_features 2
tree 0 3
0 0.5 1 2 -1
-1 0.0 -1 -1 0
-1 0.0 -1 -1 1
tree 1 1
-1 0.0 -1 -1 1
end
"""

GOLDEN_KNN = """\
skelgest-model v1
kind knn
labels 2 left right
scalar k 1
scalar n_features 2
array X 3 2
-1.0 0.1
1.0 -0.25
0.3 3.0
array y_idx 1 3
0 1 1
end
"""

GOLDEN_PROBE = np.array([[-0.8, 0.0], [0.9, -0.1], [0.4, 2.5], [0.5, 0.5], [2.0, 1.0]])


@pytest.mark.parametrize(
    "build, golden, default, expected",
    [
        (_svm_by_hand, GOLDEN_SVM, "scalar tol 0.001\n", ["left", "right", "left", "right", "left"]),
        (_edt_by_hand, GOLDEN_EDT, "scalar bootstrap_fraction 0.3\n", ["left", "right", "left", "left", "right"]),
        (_knn_by_hand, GOLDEN_KNN, "scalar k 1\n", ["left", "right", "right", "right", "right"]),
    ],
    ids=["svm", "edt", "knn"],
)
class TestGoldenFiles:
    """Each golden text holds one parameter record at its default, `default`, which a dump leaves out."""

    def test_dump_matches_golden_text(self, build, golden, default, expected):
        assert dumps_model(build()) == dumps_model(loads_model(golden)) == golden.replace(default, "")

    def test_load_restores_predictions(self, build, golden, default, expected):
        loaded = loads_model(golden)
        assert loaded.predict(GOLDEN_PROBE) == build().predict(GOLDEN_PROBE) == expected
        assert loaded.get_params() == build().get_params()


class TestStructureChecks:
    """loads_model rejects files whose models would hang, crash or mislabel."""

    @pytest.mark.parametrize(
        "golden, old, new, message",
        [
            (GOLDEN_EDT, "0 0.5 1 2 -1", "0 0.5 0 0 -1", "children must follow"),
            (GOLDEN_EDT, "0 0.5 1 2 -1", "0 0.5 1 3 -1", "children must follow"),
            (GOLDEN_EDT, "-1 0.0 -1 -1 0", "-1 0.0 2 -1 0", "leaf's children"),
            (GOLDEN_EDT, "0 0.5 1 2 -1", "2 0.5 1 2 -1", "n_features"),
            (GOLDEN_EDT, "tree 1 1\n-1 0.0 -1 -1 1", "tree 1 1\n-1 0.0 -1 -1 2", "leaf label"),
            (GOLDEN_EDT, "tree 1 1\n-1 0.0 -1 -1 1", "tree 1 1\n-1 0.0 -1 -1 -3", "leaf label"),
            (GOLDEN_EDT, "tree 1 1\n-1 0.0 -1 -1 1", "tree 1 0", "no nodes"),
            (GOLDEN_EDT, "tree 0 3", "tree x 3", "bad tree record field"),
            (GOLDEN_EDT, "-1 0.0 -1 -1 0", "-1 0.0 -1 -1 99999999999999999999", "bad node"),
            (GOLDEN_KNN, "0 1 1", "0 1 2", "label index"),
            (GOLDEN_KNN, "0 1 1", "0 -1 1", "label index"),
            (GOLDEN_KNN, "array y_idx 1 3", "array y_idx 1 2", "shape"),
            (GOLDEN_SVM, "scalar n_features 2", "scalar n_features 3", "shape"),
            (GOLDEN_SVM, "array bias 1 2\n0.125 -0.125", "array bias 1 3\n0.125 -0.125 0.0", "shape"),
            (GOLDEN_SVM, "array X 2 2", "array X -2 2", "shape"),
            (GOLDEN_SVM, "array X 2 2", "array X 99999999999999 2", "row 2 has 4 values"),
            (GOLDEN_SVM, "labels 2 left right", "labels two left right", "label count"),
            (GOLDEN_SVM, "1.0 -0.25", "nan -0.25", "array 'X' row 1 holds a non-finite value"),
            (GOLDEN_SVM, "0.125 -0.125", "0.125 inf", "array 'bias' row 0 holds a non-finite value"),
            (GOLDEN_KNN, "0.3 3.0", "0.3 -inf", "array 'X' row 2 holds a non-finite value"),
            (GOLDEN_EDT, "0 0.5 1 2 -1", "0 nan 1 2 -1", "tree 0: a threshold is not finite"),
            (GOLDEN_EDT, "0 0.5 1 2 -1", "0 inf 1 2 -1", "tree 0: a threshold is not finite"),
            (GOLDEN_SVM, "labels 2 left right", "labels 2 left left", "repeats a label"),
            (GOLDEN_KNN, "labels 2 left right", "labels 2 right right", "repeats a label"),
            (GOLDEN_SVM, "labels 2 left right", "labels 2 a,b right", "single comma-free token"),
            (GOLDEN_KNN, "labels 2 left right", "labels 2 left caf\u00e9", "single comma-free token"),
            (GOLDEN_SVM, "kind svm", "kinds svm", "expected 'kind' record"),
            (GOLDEN_KNN, "kind knn", "kind knn knn", "'kind' record has 3 fields"),
            (GOLDEN_KNN, "scalar k 1", "scalar j 1", "unknown knn parameter 'j'"),
            (GOLDEN_KNN, "scalar k 1", "scalar seed 1", "unknown knn parameter 'seed'"),
            (GOLDEN_SVM, "scalar C 2.0", "scalar C 2.0\nscalar C 3.0", "repeated svm parameter 'C'"),
            (GOLDEN_KNN, "scalar n_features 2", "scalar n_features 0", "n_features must be at least 1"),
            (GOLDEN_KNN, "0 1 1\nend\n", "0 1 1\nend\njunk\n", "end sentinel as the last non-blank line"),
            (GOLDEN_KNN, "0 1 1\nend\n", "0 1 1\nend\n" + GOLDEN_SVM, "end sentinel as the last non-blank line"),
            (GOLDEN_SVM, "array X 2 2", "array Y 2 2", "expected array 'X'"),
            (GOLDEN_SVM, "1.0 -0.25", "1.0 x", "array 'X' row 1 holds a bad value"),
            (GOLDEN_EDT, "tree 1 1", "tree 2 1", "tree 2 out of order"),
            (GOLDEN_EDT, "0 0.5 1 2 -1", "0 0.5 1 2", "tree node record needs 5 fields"),
            (GOLDEN_SVM, "labels 2 left right", "labels 3 left right", "labels record lists 2 labels, declared 3"),
            (GOLDEN_KNN, "scalar k 1", "scalar k 2", "bad model parameter"),
            (GOLDEN_KNN, "scalar k 1", "scalar k 0_3", "bad scalar 'k' '0_3'"),
            (GOLDEN_SVM, "-1.0 0.1", "-1_0.0 0.1", "array 'X' row 0 holds a bad value"),
            (GOLDEN_SVM, "array X 2 2", "array X 0_2 2", "bad array 'X' size '0_2'"),
            (GOLDEN_SVM, "labels 2 left right", "labels 0_2 left right", "bad label count '0_2'"),
            (GOLDEN_EDT, "tree 0 3", "tree 0 0_3", "bad tree record field '0_3'"),
            (GOLDEN_EDT, "0 0.5 1 2 -1", "0 0_0.5 1 2 -1", "tree 0 holds a bad node record"),
        ],
        ids=[
            "self-loop", "child-past-end", "leaf-with-child", "feature-past-n_features",
            "leaf-label-past-K", "negative-leaf-label", "empty-tree", "non-integer-tree-index",
            "node-int-overflow", "knn-label-index-past-K", "knn-negative-label-index",
            "knn-label-count", "svm-width-vs-n_features", "svm-bias-length",
            "negative-array-rows", "huge-array-rows", "non-integer-label-count",
            "svm-nan-in-X", "svm-inf-bias", "knn-negative-inf-in-X", "edt-nan-threshold",
            "edt-inf-threshold", "svm-repeated-label", "knn-repeated-label",
            "svm-label-with-comma", "knn-non-ascii-label", "misspelt-record-keyword",
            "record-field-count", "misnamed-scalar", "other-kinds-scalar", "repeated-scalar",
            "n_features-0", "junk-after-end", "two-files-run-together", "misnamed-array", "unparsable-array-value",
            "tree-out-of-order", "short-tree-node", "label-count-mismatch", "even-k",
            "underscore-in-scalar", "underscore-in-array-value", "underscore-in-array-size",
            "underscore-in-label-count", "underscore-in-tree-record", "underscore-in-tree-node",
        ],
    )
    def test_rejected(self, golden, old, new, message):
        assert old in golden
        with pytest.raises(ModelFormatError, match=message):
            loads_model(golden.replace(old, new))
