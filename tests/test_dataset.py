import numpy as np
import pytest

from skelgest.classifiers import LabeledDataset
from skelgest.harness.experiment import CLASSIFIERS


class TestLabeledDataset:
    def test_basic_construction(self):
        data = LabeledDataset(np.zeros((3, 4)), ["b", "a", "b"])
        assert data.label_set == ("a", "b")
        assert data.vectors.shape == (3, 4)
        assert data.total_scalars == 12

    def test_label_count_must_match_rows(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), ["a", "b"])

    def test_labels_outside_declared_set_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), ["a", "z"], label_set=("a", "b"))

    @pytest.mark.parametrize("bad", ["has space", "has,comma", ""])
    def test_label_tokens_validated(self, bad):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((1, 2)), [bad])

    def test_non_finite_vectors_rejected(self):
        vectors = np.zeros((2, 2))
        vectors[1, 0] = np.inf
        with pytest.raises(ValueError):
            LabeledDataset(vectors, ["a", "b"])

    def test_subset_keeps_label_set(self):
        data = LabeledDataset(np.arange(8.0).reshape(4, 2), ["a", "b", "a", "b"])
        sub = data.subset([0, 3])
        assert sub.labels == ["a", "b"]
        assert sub.label_set == ("a", "b")
        assert sub.vectors.tolist() == [[0.0, 1.0], [6.0, 7.0]]


@pytest.mark.parametrize("bad", ["has space", "", "caf\u00e9"])
@pytest.mark.parametrize("kind", sorted(CLASSIFIERS))
def test_fit_rejects_a_label_that_is_not_one_token(kind, bad):
    X = np.arange(8.0).reshape(4, 2)
    with pytest.raises(ValueError, match="single comma-free token"):
        CLASSIFIERS[kind]().fit(X, ["a", "b", bad, "a"])
