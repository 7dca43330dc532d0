"""Bagged ensemble of axis-aligned decision trees.

Base learner: a binary CART-style tree split on Gini impurity, grown until
nodes are pure or hold fewer than 2 samples, never pruned. The ensemble
trains each tree on a bootstrap sample (drawn with replacement, sized as a
fraction of the training set) and predicts by majority vote. All sampling
runs on the portable RNG with per-tree substreams, so a seed reproduces the
exact same model anywhere.
"""

import numpy as np

from ..base import ParamsMixin, ScoringClassifierMixin, check_feature_matrix, check_labels, check_fitted
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

    def fit(self, X, y_idx):
        nodes = []  # [feature, threshold, left, right, label] in pre-order
        # a stack, not recursion, so depth is unlimited; entries fill parent slot 2 or 3
        stack = [(np.asarray(X, dtype=np.float64), np.asarray(y_idx, dtype=np.int64), [0] * 4, 2)]
        while stack:
            X, y_idx, parent, slot = stack.pop()
            parent[slot] = len(nodes)
            counts = np.bincount(y_idx, minlength=self.n_classes)
            split = None if np.max(counts) == len(y_idx) else _best_split(X, y_idx, self.n_classes)
            nodes.append([*split, -1, -1, -1] if split else [-1, 0.0, -1, -1, int(np.argmax(counts))])
            if split:
                mask = X[:, split[0]] <= split[1]
                # right below left on the stack: the left subtree is numbered first
                stack += [(X[~mask], y_idx[~mask], nodes[-1], 3), (X[mask], y_idx[mask], nodes[-1], 2)]
        return self.set_nodes(nodes)

    def set_nodes(self, table):
        """Fill the node arrays from (feature, threshold, left, right, label) rows."""
        table = np.asarray(table)
        self.threshold = table[:, 1].astype(np.float64)
        self.feature, left, right, self.label = (table[:, c].astype(np.int64) for c in (0, 2, 3, 4))
        self.children = np.stack([left, right], axis=1)
        return self

    def predict(self, X):
        """Leaf labels; all rows descend a level per step, at most n_nodes steps."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(len(X), dtype=np.int64)
        rows = np.flatnonzero(self.feature[node] >= 0)  # rows still at a split
        while rows.size:
            at = node[rows]
            goes_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(goes_left, self.children[at, 0], self.children[at, 1])
            rows = rows[self.feature[node[rows]] >= 0]
        return self.label[node]


def _best_split(X, y_idx, n_classes):
    """(feature, threshold) minimizing weighted Gini, or None if unsplittable.

    Left class counts are one cumsum per class present; the right side's
    Σ (t_k - l_k)² is Σ t_k² - 2 Σ t_k l_k + Σ l_k², all exact integers.
    Tied rows may sort in any order: only cuts between two distinct values
    count, and the class counts there do not depend on the order of ties."""
    n, d = X.shape
    order = np.argsort(X, axis=0)  # (n, d)
    sx = np.take_along_axis(X, order, axis=0)
    ys = y_idx[order[:-1]]  # labels left of each cut: cut i follows sorted row i
    total = np.bincount(y_idx, minlength=n_classes)  # (K,)
    count = np.int32 if 2 * n * n < 2**31 else np.int64  # 2·n² bounds Σ t² and 2 Σ t·l
    sq_left = np.zeros((n - 1, d), dtype=count)  # Σ_k left_k²
    for k in np.flatnonzero(total):
        lk = np.cumsum(ys == k, axis=0, dtype=count)  # (n-1, d)
        lk *= lk
        sq_left += lk
    cross = np.cumsum(total[ys], axis=0, dtype=count)  # Σ_k total_k · left_k
    sq_total = int(total @ total)
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    gini_l = 1.0 - sq_left / (nl * nl)
    gini_r = 1.0 - (sq_total - 2 * cross + sq_left) / (nr * nr)
    weighted = np.where(sx[1:] > sx[:-1], (nl * gini_l + nr * gini_r) / n, np.inf)  # (n-1, d)
    # scan feature-major so ties resolve to the lowest feature, then threshold
    f, cut = divmod(int(np.argmin(weighted.T)), n - 1)
    if weighted[cut, f] >= 1.0 - sq_total / (n * n) - 1e-15:
        return None
    thr = (sx[cut, f] + sx[cut + 1, f]) / 2.0
    return f, float(thr)


class BaggedTreeEnsemble(ScoringClassifierMixin, ParamsMixin):
    """Majority vote over n_trees bootstrap-trained decision trees."""

    def __init__(self, n_trees=100, bootstrap_fraction=0.30, seed=0):
        self.n_trees = n_trees
        self.bootstrap_fraction = bootstrap_fraction
        self.seed = seed

    def _draw_indices(self, rng, n_samples, size):
        # overridable hook: tests swap in an identity sample
        return rng.integers(n_samples, size=size)

    def _check_params(self, n_samples=None):
        """Reject bad parameters; given n_samples, a bootstrap of no rows too."""
        if not 0.0 < self.bootstrap_fraction <= 1.0:
            raise ValueError(f"bootstrap_fraction must be in (0, 1], got {self.bootstrap_fraction}")
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be positive, got {self.n_trees}")
        if n_samples is not None and self.bootstrap_fraction * n_samples < 1.0:
            raise InvalidBootstrapError(self.bootstrap_fraction, n_samples)

    def fit(self, X, y):
        X = check_feature_matrix(X)
        y = check_labels(y, X.shape[0])
        self._check_params(X.shape[0])
        classes = sorted(set(y))
        if len(classes) < 2:
            raise TrainingDegenerateError(f"need at least 2 classes, got {classes}")
        n = X.shape[0]
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
            votes[np.arange(X.shape[0]), tree.predict(X)] += 1
        return votes

    _class_scores = vote_counts  # predict takes the class with the most votes
    predict_with_votes = ScoringClassifierMixin.predict_with_scores
