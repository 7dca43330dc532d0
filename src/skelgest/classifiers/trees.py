"""Bagged ensemble of axis-aligned decision trees.

Base learner: a binary CART-style tree split on Gini impurity, grown until
nodes are pure or hold fewer than 2 samples, never pruned. The ensemble
trains each tree on a bootstrap sample (drawn with replacement, sized as a
fraction of the training set) and predicts by majority vote. All sampling
runs on the portable RNG with per-tree substreams, so a seed reproduces the
exact same model anywhere.
"""

import numpy as np

from ..base import ClassifierMixin, ParamsMixin, check_feature_matrix, check_labels, check_fitted
from ..errors import InvalidBootstrapError, TrainingDegenerateError
from ..rng import PortableRNG


class DecisionTree:
    """Gini-impurity binary tree over integer-coded labels.

    Nodes live in parallel arrays: feature[i] is -1 for leaves, whose class
    is label[i]; internal nodes route x[feature] <= threshold to children[i,0]
    and the rest to children[i,1]. Tie-breaks are fixed: the split scan takes
    the lowest feature index then the lowest threshold; leaf majorities take
    the lowest class index.
    """

    def __init__(self, n_classes):
        self.n_classes = n_classes
        self.feature = []
        self.threshold = []
        self.children = []
        self.label = []

    def fit(self, X, y_idx):
        self._grow(np.asarray(X, dtype=np.float64), np.asarray(y_idx, dtype=np.int64))
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.children = np.asarray(self.children, dtype=np.int64).reshape(-1, 2)
        self.label = np.asarray(self.label, dtype=np.int64)
        return self

    def _add_node(self, feature, threshold, label):
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.children.append((-1, -1))
        self.label.append(label)
        return len(self.feature) - 1

    def _grow(self, X, y_idx):
        counts = np.bincount(y_idx, minlength=self.n_classes)
        n = len(y_idx)
        split = None if n < 2 or np.max(counts) == n else _best_split(X, y_idx, self.n_classes)
        if split is None:
            return self._add_node(-1, 0.0, int(np.argmax(counts)))
        f, thr = split
        idx = self._add_node(f, thr, -1)
        mask = X[:, f] <= thr
        left = self._grow(X[mask], y_idx[mask])
        right = self._grow(X[~mask], y_idx[~mask])
        self.children[idx] = (left, right)
        return idx

    def predict_one(self, x):
        i = 0
        while self.feature[i] >= 0:
            i = self.children[i, 0] if x[self.feature[i]] <= self.threshold[i] else self.children[i, 1]
        return int(self.label[i])

    def predict(self, X):
        return np.array([self.predict_one(row) for row in np.asarray(X, dtype=np.float64)])


def _best_split(X, y_idx, n_classes):
    """(feature, threshold) minimizing weighted Gini, or None if unsplittable."""
    n, d = X.shape
    order = np.argsort(X, axis=0, kind="stable")  # (n, d)
    sx = np.take_along_axis(X, order, axis=0)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y_idx] = 1.0
    left = np.cumsum(onehot[order], axis=0)  # (n, d, K): counts left of each cut
    total = left[-1, 0]  # (K,)

    nl = np.arange(1, n, dtype=np.float64)[:, None]  # cut after sorted row i-1
    nr = n - nl
    lc = left[:-1]  # (n-1, d, K)
    rc = total[None, None, :] - lc
    gini_l = 1.0 - np.sum(lc * lc, axis=2) / (nl * nl)
    gini_r = 1.0 - np.sum(rc * rc, axis=2) / (nr * nr)
    weighted = (nl * gini_l + nr * gini_r) / n  # (n-1, d)

    valid = sx[1:] > sx[:-1]
    if not valid.any():
        return None
    weighted = np.where(valid, weighted, np.inf)
    # scan feature-major so ties resolve to the lowest feature, then threshold
    flat = np.argmin(weighted.T)
    f, cut = divmod(int(flat), n - 1)
    parent = 1.0 - float(np.sum(total * total)) / (n * n)
    if weighted[cut, f] >= parent - 1e-15:
        return None
    thr = (sx[cut, f] + sx[cut + 1, f]) / 2.0
    return f, float(thr)


class BaggedTreeEnsemble(ClassifierMixin, ParamsMixin):
    """Majority vote over n_trees bootstrap-trained decision trees."""

    def __init__(self, n_trees=100, bootstrap_fraction=0.30, seed=0):
        self.n_trees = n_trees
        self.bootstrap_fraction = bootstrap_fraction
        self.seed = seed

    def _draw_indices(self, rng, n_samples, size):
        # overridable hook: tests swap in an identity sample
        return rng.integers(n_samples, size=size)

    def fit(self, X, y):
        if not 0.0 < self.bootstrap_fraction <= 1.0:
            raise ValueError(f"bootstrap_fraction must be in (0, 1], got {self.bootstrap_fraction}")
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be positive, got {self.n_trees}")
        X = check_feature_matrix(X)
        y = check_labels(y, X.shape[0])
        classes = sorted(set(y))
        if len(classes) < 2:
            raise TrainingDegenerateError(f"need at least 2 classes, got {classes}")
        n = X.shape[0]
        if self.bootstrap_fraction * n < 1.0:
            raise InvalidBootstrapError(self.bootstrap_fraction, n)
        size = int(np.ceil(self.bootstrap_fraction * n))
        y_idx = np.array([classes.index(c) for c in y], dtype=np.int64)
        root = PortableRNG(self.seed)
        self.classes_ = classes
        self.trees_ = []
        for t in range(self.n_trees):
            idx = self._draw_indices(root.spawn(t), n, size)
            tree = DecisionTree(len(classes)).fit(X[idx], y_idx[idx])
            self.trees_.append(tree)
        self.n_features_ = X.shape[1]
        return self

    def vote_counts(self, X):
        """(n_samples, n_classes) tally of tree votes; rows sum to n_trees."""
        check_fitted(self, "trees_")
        X = check_feature_matrix(X, n_features=self.n_features_)
        votes = np.zeros((X.shape[0], len(self.classes_)), dtype=np.int64)
        for tree in self.trees_:
            pred = tree.predict(X)
            votes[np.arange(X.shape[0]), pred] += 1
        return votes

    def predict(self, X):
        """Class with the most votes; ties at the lowest label."""
        votes = self.vote_counts(X)
        return [self.classes_[i] for i in np.argmax(votes, axis=1)]

    def predict_with_votes(self, x):
        """One sample's (label, {class: votes}) pair."""
        votes = self.vote_counts(np.atleast_2d(x))[0]
        label = self.classes_[int(np.argmax(votes))]
        return label, dict(zip(self.classes_, votes.tolist()))
