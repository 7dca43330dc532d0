"""k-nearest-neighbor classification by exhaustive Euclidean scan."""

import numpy as np

from ..base import ClassifierMixin, ParamsMixin, check_feature_matrix, check_labels, check_fitted
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
        X = check_feature_matrix(X)
        y = check_labels(y, X.shape[0])
        self._check_params(X.shape[0])
        self.X_ = X
        self.y_ = y
        self.classes_ = sorted(set(y))
        self.n_features_ = X.shape[1]
        return self

    def _predict_one(self, sq_dists):
        votes = {}  # label -> (-neighbor count, summed neighbor distance)
        for i in np.argsort(sq_dists, kind="stable")[: self.k]:
            count, dist = votes.get(self.y_[i], (0, 0.0))
            votes[self.y_[i]] = (count - 1, dist + float(np.sqrt(sq_dists[i])))
        return min(votes, key=lambda lab: (*votes[lab], lab))

    def predict(self, X):
        check_fitted(self, "X_")
        X = check_feature_matrix(X, n_features=self.n_features_)
        sq = (
            np.sum(X * X, axis=1)[:, None]
            + np.sum(self.X_ * self.X_, axis=1)[None, :]
            - 2.0 * (X @ self.X_.T)
        )
        np.maximum(sq, 0.0, out=sq)
        return [self._predict_one(row) for row in sq]
