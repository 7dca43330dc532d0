"""Bagged ensemble of axis-aligned decision trees.

Base learner: a binary CART-style tree split on Gini impurity, grown until
nodes are pure or hold fewer than 2 samples, never pruned. The ensemble
trains each tree on a bootstrap sample (drawn with replacement, sized as a
fraction of the training set) and predicts by majority vote. All sampling
runs on the portable RNG with per-tree substreams, so a seed reproduces the
exact same model anywhere.
"""

import numpy as np

from ..base import ClassifierMixin, check_feature_matrix, check_fitted
from ..errors import InvalidBootstrapError
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


def _running(a):
    """Prefix sums down axis 0, in place: a row at a time (a fixed cost per row)
    on arrays at least ten times wider than tall, else np.cumsum (per element)."""
    if 10 * len(a) > a.shape[1]:
        return np.cumsum(a, axis=0, out=a)
    for prev, row in zip(a, a[1:]):
        row += prev
    return a


def _best_split(X, y_idx, n_classes):
    """(feature, threshold) minimizing weighted Gini, or None if unsplittable.

    Left class counts share int64 words: a field of bits = n.bit_length() per
    class, 63 // bits classes per word, so one prefix sum counts all of a
    word's classes. A row's own field is its rank, the rows of its class at
    or before it, and it raises Σ l_k² by 2·rank − 1. The right side's
    Σ (t_k - l_k)² is Σ t_k² - 2 Σ t_k l_k + Σ l_k², all exact integers.
    Tied rows may sort in any order: only cuts between two distinct values
    count, and the class counts there do not depend on the order of ties."""
    n, d = X.shape
    order = np.argsort(X, axis=0)  # (n, d)
    sx = np.take(X, order * d + np.arange(d))  # each column sorted
    left = order[:-1]  # rows left of each cut: cut i follows sorted row i
    total = np.bincount(y_idx, minlength=n_classes)  # (K,)
    bits = n.bit_length()
    word, field = np.divmod(np.arange(n_classes), 63 // bits)
    rank = np.zeros((n - 1, d), dtype=np.int64)
    for w in range(word[-1] + 1):
        packed = _running(np.where(word == w, 1 << bits * field, 0)[y_idx][left])
        packed >>= np.where(word == w, bits * field, 63)[y_idx][left]  # other words read 0
        packed &= (1 << bits) - 1
        rank += packed
    rank *= 2
    rank -= 1
    sq_left = _running(rank)  # Σ_k left_k²
    cross = _running(total[y_idx][left])  # Σ_k total_k · left_k
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


class BaggedTreeEnsemble(ClassifierMixin):
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
        X, classes, y_idx = self._fit_inputs(X, y)
        n = X.shape[0]
        size = int(np.ceil(self.bootstrap_fraction * n))
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
