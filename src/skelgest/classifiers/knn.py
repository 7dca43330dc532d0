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
        of the k nearest neighbors, else -inf: the argmax is the vote above.

        Candidates. The dot-product expansion sq = |q|^2 + |t|^2 - 2 q.t, on rows
        shifted by the first stored row so that data far from 0 does not cancel,
        only picks the rows to measure: every stored row whose sq may reach the
        k-th smallest within slack = (4d + 16) eps (|q|^2 + |t|^2) is measured
        exactly, its squared differences added left to right. With u = eps / 2
        and S = |q|^2 + |t|^2, sq is within (2d + 7) u S of the true squared
        distance (the two sums of squares and the product err by at most d u of
        their terms' magnitudes, S in all; the two additions by u of at most S
        and 2S; the shift by at most 4 u S), and the exact sum within
        (2d + 4) u S, up to terms in u^2. So slack is more than twice their sum:
        a row left out (sq - slack above the k-th smallest sq + slack) measures
        above k kept rows by more than (2d + 8) eps S, more than the rounding
        of a square root can undo, and is not among the k nearest, ties
        included. Where the expansion overflows (values from about 1.3e154) it
        reads inf or nan, and a nan comparison rules out no row.

        Blocks. The product q @ train.T runs on blocks of _PRODUCT_CELLS //
        train.size query rows, written into one array, so no call reaches 2^19
        multiply-adds: from there OpenBLAS (0.3.31, with its SkylakeX and
        Haswell kernels) wakes a worker thread, which spins after the call and
        competes with the caller. A block that covers every query row is one
        call, as is a training set of 2^19 cells or more, which OpenBLAS may
        thread. The bound above holds for any summation order, so no distance,
        score or label depends on the blocks or the thread count.

        Pairs. Every kept (query, row) pair is measured in chunks of at most
        _PAIR_CELLS (pair, column) cells, each pair's squares added left to
        right, so no distance depends on its chunk. The votes are two bincounts
        over query * classes + class fed each query's neighbors nearest first,
        and bincount adds in input order: each class's summed distance is added
        nearest first, as a plain loop would.
        """
        X = self._checked(X)
        with np.errstate(over="ignore", invalid="ignore"):
            q, train = X - self.X_[0], self.X_ - self.X_[0]
            nq, nt = np.einsum("ij,ij->i", q, q)[:, None], np.einsum("ij,ij->i", train, train)
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
