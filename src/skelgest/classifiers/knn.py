"""k-nearest-neighbor classification by exhaustive Euclidean scan."""

from dataclasses import dataclass

import numpy as np

from ..base import ClassifierMixin
from ..errors import TrainingDegenerateError

_PAIR_CELLS = 1 << 17  # (pair, column) cells the exact pass measures at once
_PRODUCT_CELLS = (1 << 19) - 1  # multiply-adds per product block: OpenBLAS threads from 2^19


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
            # the product only picks candidates, so its blocks of query rows change no label
            block, prod = _PRODUCT_CELLS // train.size or len(q) or 1, np.empty((len(q), len(train)))
            for i in range(0, len(q), block):
                np.matmul(q[i : i + block], train.T, out=prod[i : i + block])
            sq = nq + nt - 2.0 * prod
            slack = (4 * X.shape[1] + 16) * np.finfo(np.float64).eps * (nq + nt)
            kth = np.partition(sq + slack, self.k - 1, axis=1)[:, self.k - 1, None]
            pair_q, pair_t = np.nonzero(~(sq - slack > kth))
            dist = np.full(sq.shape, np.inf)
            step = max(1, _PAIR_CELLS // X.shape[1])
            for s in range(0, len(pair_q), step):
                r, c = pair_q[s : s + step], pair_t[s : s + step]
                diff = self.X_[c] - X[r]
                # cumsum adds the squared differences left to right
                dist[r, c] = np.sqrt(np.cumsum(diff * diff, axis=1)[:, -1])
        near = np.argsort(dist, axis=1, kind="stable")[:, : self.k]
        rows, n = np.arange(len(X))[:, None], len(self.classes_)
        # bincount adds in input order: each row's neighbors, nearest first
        slot = (rows * n + self.y_[near]).ravel()
        counts = np.bincount(slot, minlength=len(X) * n).reshape(-1, n)
        summed = np.bincount(slot, dist[rows, near].ravel(), len(X) * n).reshape(-1, n)
        return np.where(counts == counts.max(axis=1, keepdims=True), -summed, -np.inf)
