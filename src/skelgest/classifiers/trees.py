"""Bagged ensemble of axis-aligned decision trees.

Base learner: a binary CART-style tree split on Gini impurity, grown until
nodes are pure or hold fewer than 2 samples, never pruned. The ensemble
trains each tree on a bootstrap sample (drawn with replacement, sized as a
fraction of the training set) and predicts by majority vote. All sampling
runs on the portable RNG with per-tree substreams, so a seed reproduces the
exact same model anywhere.
"""

from functools import cmp_to_key

import numpy as np

from ..base import ClassifierMixin
from ..errors import InvalidBootstrapError
from ..rng import PortableRNG


class DecisionTree:
    """Gini-impurity binary tree over integer-coded labels.

    Nodes live in parallel arrays: feature[i] is -1 for leaves, whose class
    is label[i]; internal nodes route x[feature] <= threshold to children[i,0]
    and the rest to children[i,1]. Cuts of exactly equal Gini (_best_split) go
    to the lowest feature, then threshold; leaf majorities to the lowest class.
    A split depends only on the order of each column's values, so the tree
    grows on their ranks (_rank_keys) and gets the splits the values give.
    """

    def fit(self, X, y_idx):
        X = np.asarray(X, dtype=np.float64)
        return self._grow(X, np.arange(len(X)), *_rank_keys(X, y_idx))

    def _grow(self, X, rows, keys, class_bits):
        """Grow on the rows X[rows]; keys and class_bits are _rank_keys of all of X."""
        nodes = []  # [feature, threshold, left, right, label] in pre-order
        # a stack, not recursion, so depth is unlimited; entries fill parent slot 2 or 3
        stack = [(rows, keys[rows], [0] * 4, 2)]
        while stack:
            rows, keys, parent, slot = stack.pop()
            parent[slot] = len(nodes)
            counts = np.bincount(keys[:, 0] & (1 << class_bits) - 1)
            split = None if np.max(counts) == len(rows) else _best_split(X, rows, keys, class_bits, counts)
            nodes.append([*split[:2], -1, -1, -1] if split else [-1, 0.0, -1, -1, int(np.argmax(counts))])
            if split:
                mask = split[2]
                # right below left on the stack: the left subtree is numbered first
                stack += [(rows[~mask], keys[~mask], nodes[-1], 3), (rows[mask], keys[mask], nodes[-1], 2)]
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


def _rank_keys(X, codes):
    """(keys, class_bits): each cell as rank << class_bits | codes[row] in the
    smallest signed dtype that holds it, rank being its dense rank in its column
    (equal values share one, -0.0 and 0.0 too). Ranking 24 columns at a time
    keeps its temporaries below the split search's, so it does not raise
    glibc's mmap threshold (which would move the page faults of later code)."""
    n, d = X.shape
    top = int(np.max(codes))
    class_bits = top.bit_length()
    keys = np.empty((n, d), dtype=np.min_scalar_type(-((n - 1) << class_bits | top)))
    for j in range(0, d, 24):
        order = np.argsort(X[:, j:j + 24], axis=0)
        sx = np.take_along_axis(X[:, j:j + 24], order, axis=0)
        rank = np.zeros(order.shape, dtype=keys.dtype)
        np.cumsum(sx[1:] != sx[:-1], axis=0, dtype=keys.dtype, out=rank[1:])
        np.put_along_axis(keys[:, j:j + 24], order, rank, axis=0)
    keys <<= class_bits
    keys |= np.asarray(codes, dtype=keys.dtype)[:, None]
    return keys, class_bits


def _best_split(X, rows, keys, class_bits, total):
    """(feature, threshold, left) minimizing weighted Gini, or None if no cut
    lowers it, for the rows X[rows] whose keys (_rank_keys) and class counts
    are keys and total; left marks the rows at or below the threshold.

    A column's sorted keys hold its rows in value order, labels in the low bits.
    Left class counts come from prefix sums over packed int64 words; a row
    raises S_l = Σ l_k² by 2·seen − 1, seen being its count in its class so far.
    A cut maximizes S_l/n_l + S_r/n_r = (n·S_l + n_l·(S_t − 2 Σ t_k l_k)) / (n_l·n_r),
    an exact int64 numerator up to about 1.6 million rows. Below about 330,000
    rows one correctly rounded division keeps exact ties tied; from about 2,300,
    distinct scores can round alike and the cuts at the best float are compared
    exactly. Cuts fall only between distinct ranks, so ties sort freely. The
    threshold is the midpoint of the values either side of the cut, or the lower
    value if the midpoint rounds out of [lower, upper) (then x <= midpoint
    would send every row left, or none)."""
    n, d = keys.shape
    sk = np.sort(keys, axis=0)
    y = (sk[:-1] & (1 << class_bits) - 1).astype(np.intp)  # cut i follows row i; intp gathers fast
    bits = n.bit_length()
    word, field = np.divmod(np.arange(len(total)), 63 // bits)
    seen = np.zeros((n - 1, d), dtype=np.int64)
    for w in range(word[-1] + 1):
        packed = _running(np.where(word == w, 1 << bits * field, 0)[y])
        packed >>= np.where(word == w, bits * field, 63)[y]  # other words read 0
        packed &= (1 << bits) - 1
        seen += packed
    seen *= 2 * n  # S_l sums 2·seen − 1, so n·S_l is this prefix sum less n·n_l
    num = _running(total[y])  # Σ_k t_k l_k
    sq_total = int(total @ total)
    nl = np.arange(1, n, dtype=np.int64)[:, None]
    num *= -2 * nl
    num += (sq_total - n) * nl
    num += _running(seen)  # n·S_l + n_l·(S_t − 2 Σ_k t_k l_k) = S_l·n_r + S_r·n_l
    sk >>= class_bits  # ranks
    num[sk[1:] == sk[:-1]] = 0  # no cut between equal values; a real cut scores at least S_t/n > 0
    score = num / (nl * (n - nl))
    best = score.max(axis=0)  # scan feature-major: ties go to the lowest feature, then threshold
    f = int(np.argmax(best))
    cuts = [(f, int(np.argmax(score[:, f])))]
    if n ** 5 >= 1 << 56 and best[f] > 0:  # distinct scores may share the best float
        cuts = np.argwhere(score.T == best[f]).tolist()
    scored = [(int(num[c, g]), (c + 1) * (n - 1 - c), g, c) for g, c in cuts]  # exact: p / q
    p, q, f, cut = max(scored, key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
    if not p * n > sq_total * q:  # no gain over the parent's S_t/n
        return None
    left = keys[:, f] >> class_bits <= sk[cut, f]
    lo, hi = float(X[rows[left], f].max()), float(X[rows[~left], f].min())
    mid = (lo + hi) / 2.0  # Python floats: an overflow to inf does not warn
    return f, mid if lo <= mid < hi else lo, left


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

    def _fit(self, X, codes, n_classes):
        n = X.shape[0]
        size = int(np.ceil(self.bootstrap_fraction * n))
        draws = (self._draw_indices(PortableRNG(self.seed).spawn(t), n, size) for t in range(self.n_trees))
        keys, class_bits = _rank_keys(X, codes)  # once for every tree
        return {"trees_": [DecisionTree()._grow(X, idx, keys, class_bits) for idx in draws]}

    def vote_counts(self, X):
        """(n_samples, n_classes) tally of tree votes; rows sum to n_trees."""
        X = self._checked(X)
        votes = np.zeros((X.shape[0], len(self.classes_)), dtype=np.int64)
        for tree in self.trees_:
            votes[np.arange(X.shape[0]), tree.predict(X)] += 1
        return votes

    _class_scores = vote_counts  # predict takes the class with the most votes
