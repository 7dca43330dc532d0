"""k-nearest-neighbor classification by exhaustive Euclidean scan."""

import numpy as np

from ..base import ClassifierMixin, ParamsMixin, check_feature_matrix, check_fitted
from ..errors import TrainingDegenerateError


class KNearestNeighbors(ClassifierMixin, ParamsMixin):
    """Majority label among the k nearest stored samples.

    k must be a positive odd integer (default 1) no larger than the training
    set. Neighbor order is by squared Euclidean distance with ties at the
    lower training index; label ties break by the smallest summed neighbor
    distance, then by label order.
    """

    def __init__(self, k=1):
        self.k = k

    def _check_params(self, n_samples):
        """Reject a k the model cannot use with n_samples stored rows."""
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"k must be a positive odd integer, got {self.k}")
        if self.k > n_samples:
            raise TrainingDegenerateError(f"k={self.k} exceeds training size {n_samples}")

    def fit(self, X, y):
        self.X_, self.classes_, self.y_ = self._fit_inputs(X, y)
        self.n_features_ = self.X_.shape[1]
        return self

    def _class_scores(self, X):
        """Per class, minus its summed neighbor distance if it holds the most
        of the k nearest neighbors, else -inf: the argmax is the vote above."""
        check_fitted(self, "X_")
        # shifting both by a stored row keeps the expansion from cancelling far from 0
        X = check_feature_matrix(X, n_features=self.n_features_) - self.X_[0]
        train = self.X_ - self.X_[0]
        sq = np.einsum("ij,ij->i", X, X)[:, None] + np.einsum("ij,ij->i", train, train) - 2.0 * (X @ train.T)
        np.maximum(sq, 0.0, out=sq)
        near = np.argsort(sq, axis=1, kind="stable")[:, : self.k]
        rows = np.arange(len(X))[:, None]
        counts = np.zeros((len(X), len(self.classes_)), dtype=np.int64)
        dists = np.zeros(counts.shape)
        # add.at sums each row's neighbors in order, nearest first
        np.add.at(counts, (rows, self.y_[near]), 1)
        np.add.at(dists, (rows, self.y_[near]), np.sqrt(sq[rows, near]))
        return np.where(counts == counts.max(axis=1, keepdims=True), -dists, -np.inf)
