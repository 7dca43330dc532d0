"""k-nearest-neighbor classification by exhaustive Euclidean scan."""

from dataclasses import dataclass

import numpy as np

from ..base import ClassifierMixin
from ..errors import TrainingDegenerateError


@dataclass(eq=False)
class KNearestNeighbors(ClassifierMixin):
    """Majority label among the k nearest stored samples.

    k must be a positive odd integer (default 1) no larger than the training
    set. Neighbor order is by Euclidean distance, the square root of the
    squared feature differences added left to right, with ties at the lower
    training index; label ties break by the smallest summed neighbor
    distance, then by label order.
    """

    k: int = 1

    def _check_params(self, n_samples):
        """Reject a k the model cannot use with n_samples stored rows."""
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"k must be a positive odd integer, got {self.k}")
        if self.k > n_samples:
            raise TrainingDegenerateError(f"k={self.k} exceeds training size {n_samples}")

    def _fit(self, X, codes, n_classes):
        return {"X_": X, "y_": codes}

    def _class_scores(self, X):
        """Per class, minus its summed neighbor distance if it holds the most
        of the k nearest neighbors, else -inf: the argmax is the vote above."""
        X = self._checked(X)
        # the dot-product expansion (shifted by a stored row, so it does not cancel far
        # from 0) keeps every row it cannot rule out as near as the k-th, its rounding
        # being below (4d + 16) eps (|q|^2 + |t|^2); where it overflows to nan it rules out none
        with np.errstate(over="ignore", invalid="ignore"):
            q, train = X - self.X_[0], self.X_ - self.X_[0]
            nq, nt = np.einsum("ij,ij->i", q, q)[:, None], np.einsum("ij,ij->i", train, train)
            sq = nq + nt - 2.0 * (q @ train.T)
            slack = (4 * X.shape[1] + 16) * np.finfo(np.float64).eps * (nq + nt)
            kth = np.partition(sq + slack, self.k - 1, axis=1)[:, self.k - 1, None]
            dist = np.full(sq.shape, np.inf)
            for i, maybe in enumerate(~(sq - slack > kth)):
                cand = np.flatnonzero(maybe)
                diff = self.X_[cand] - X[i]
                # cumsum adds the squared differences left to right
                dist[i, cand] = np.sqrt(np.cumsum(diff * diff, axis=1)[:, -1])
        near = np.argsort(dist, axis=1, kind="stable")[:, : self.k]
        rows = np.arange(len(X))[:, None]
        counts = np.zeros((len(X), len(self.classes_)), dtype=np.int64)
        summed = np.zeros(counts.shape)
        # add.at sums each row's neighbors in order, nearest first
        np.add.at(counts, (rows, self.y_[near]), 1)
        np.add.at(summed, (rows, self.y_[near]), dist[rows, near])
        return np.where(counts == counts.max(axis=1, keepdims=True), -summed, -np.inf)
