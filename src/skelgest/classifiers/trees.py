"""Bagged ensemble of axis-aligned decision trees.

Base learner: a binary CART-style tree split on Gini impurity, grown until
nodes are pure or hold fewer than 2 samples, never pruned. The ensemble
trains each tree on a bootstrap sample (drawn with replacement, sized as a
fraction of the training set) and predicts by majority vote. Sampling runs on
the portable RNG with per-tree substreams and splits are exact, so the same
training matrix and seed give the same model anywhere.
"""

from dataclasses import dataclass
from functools import cmp_to_key, lru_cache

import numpy as np

from ..base import ClassifierMixin
from ..errors import InvalidBootstrapError
from ..rng import PortableRNG, integer_rows


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
        return self._grow(*_rank_keys(np.asarray(X, dtype=np.float64), y_idx))

    def _grow(self, keys, class_bits, vals):
        """Grow on these rows' keys; class_bits and vals are _rank_keys's for all of X."""
        nodes = []  # [feature, threshold, left, right, label] in pre-order
        counts = np.bincount(keys[:, 0] & (1 << class_bits) - 1)
        # a stack (unlimited depth) of (keys, or None for a pure node, counts, parent, slot 2 or 3)
        stack = [(keys if np.count_nonzero(counts) > 1 else None, counts, [0] * 4, 2)]
        while stack:
            keys, counts, parent, slot = stack.pop()
            parent[slot] = len(nodes)
            split = None if keys is None else _best_split(keys, class_bits, counts, vals)
            nodes.append([*split[:2], -1, -1, -1] if split else [-1, 0.0, -1, -1, int(np.argmax(counts))])
            if split:
                mask, left = split[2:]  # the left rows and their class counts
                for side, part, at in ((~mask, counts - left, 3), (mask, left, 2)):  # left subtree numbered first
                    stack.append((keys[side] if np.count_nonzero(part) > 1 else None, part, nodes[-1], at))
        return self.set_nodes(nodes)

    def set_nodes(self, table):
        """Fill the node arrays from (feature, threshold, left, right, label) rows."""
        table = np.asarray(table)
        self.threshold = table[:, 1].astype(np.float64)
        self.feature, left, right, self.label = (table[:, c].astype(np.int64) for c in (0, 2, 3, 4))
        self.children = np.stack([left, right], axis=1)
        return self

    def predict(self, X):
        """Leaf labels: the forest's descent (_leaves) from this tree's root alone."""
        X = np.asarray(X, dtype=np.float64)
        return self.label[_leaves(X, self.feature, self.threshold, self.children, [0])[:, 0]]


def _leaves(X, feature, threshold, children, roots):
    """(len(X), len(roots)) nodes: the leaf each row reaches from each root, all
    (row, root) pairs descending a level per step. Node i routes x[feature[i]] <=
    threshold[i] to children[i, 0] and the rest to children[i, 1]."""
    flat, goes = np.ascontiguousarray(X).ravel(), children[:, ::-1].ravel()  # goes[2i + (x <= t)]
    node = np.tile(roots, len(X))  # pair (row i, root r) at i·len(roots) + r
    pairs = np.flatnonzero(feature[node] >= 0)  # the pairs still at a split
    at, cell = node[pairs], pairs // len(roots) * X.shape[1]  # their nodes, their rows' first cells
    while pairs.size:
        at = goes[2 * at + (flat[cell + feature[at]] <= threshold[at])]
        node[pairs] = at
        inner = feature[at] >= 0
        pairs, at, cell = pairs[inner], at[inner], cell[inner]
    return node.reshape(len(X), len(roots))


def _running(a):
    """Prefix sums down axis 0, in place: a row at a time (a fixed cost per row)
    on arrays at least ten times wider than tall, else np.cumsum (per element)."""
    if 10 * len(a) > a.shape[1]:
        return np.cumsum(a, axis=0, out=a)
    for prev, row in zip(a, a[1:]):
        row += prev
    return a


def _rank_keys(X, codes):
    """(keys, class_bits, vals): each cell as rank << class_bits | codes[row] in the
    smallest signed dtype that holds it, rank being its dense rank in its column
    (equal values share one, -0.0 and 0.0 too), and vals[rank, column] that rank's
    value (unset past a column's last rank). Ranking 24 columns at a time keeps its
    temporaries below the split search's, so glibc's mmap threshold stays put."""
    n, d = X.shape
    top = int(np.max(codes))
    class_bits = top.bit_length()
    keys = np.empty((n, d), dtype=np.min_scalar_type(~((n - 1) << class_bits | top)))
    vals = np.empty((n, d))
    for j in range(0, d, 24):
        order = np.argsort(X[:, j:j + 24], axis=0)
        sx = np.take_along_axis(X[:, j:j + 24], order, axis=0)
        rank = np.zeros(order.shape, dtype=keys.dtype)
        np.cumsum(sx[1:] != sx[:-1], axis=0, dtype=keys.dtype, out=rank[1:])
        np.put_along_axis(keys[:, j:j + 24], order, rank, axis=0)
        np.put_along_axis(vals[:, j:j + 24], rank, sx, axis=0)
    keys <<= class_bits
    keys |= np.asarray(codes, dtype=keys.dtype)[:, None]
    return keys, class_bits, vals


@lru_cache(maxsize=256)  # shared by every caller: read them, never write
def _word_tables(n_classes, per_word, bits):
    """Per count word, 1 << field and the field's shift (63 in other words) by class code."""
    word, field = np.divmod(np.arange(n_classes), per_word)
    return [(np.where(word == w, 1 << bits * field, 0), np.where(word == w, bits * field, 63))
            for w in range(word[-1] + 1)]


_PAIRS = 1 << 15  # (row, tree) pairs vote_counts descends at once, which bounds its memory; see README
_FIRST_BLOCK = 32  # columns the split search scores before it seeks a parting column; see README
_by_score = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])  # exact scores p / q


def _partition_bound(counts):
    """The best split of whole classes for these class counts, the largest class (t rows)
    against the rest: its (S_L·n_R + S_R·n_L, n_L·n_R) over t, exact as p / q. No cut
    scores above it (README). With one class, every cut scores the parent's S_t/n."""
    counts = np.asarray(counts).tolist()
    n, sq, t = sum(counts), sum(c * c for c in counts), max(counts)
    return (sq + t * (n - 2 * t), n - t) if t < n else (sq, n)


def _parting_width(keys, class_bits, total):
    """Columns of keys to score: through the first where every row of the largest class ranks
    below, or every one above, all the others, so a cut there scores _partition_bound; else all."""
    mine = keys[:, 0] & (1 << class_bits) - 1 == np.argmax(total)
    ours, rest = keys[mine] >> class_bits, keys[~mine] >> class_bits  # ranks; a node has 2 classes or more
    parts = (ours.max(0) < rest.min(0)) | (ours.min(0) > rest.max(0))
    return int(np.argmax(parts)) + 1 if parts.any() else keys.shape[1]


def _best_split(keys, class_bits, total, vals):
    """(feature, threshold, left, counts) minimizing weighted Gini, or None if
    no cut lowers it, for the node whose keys (rows of _rank_keys) and class
    counts are keys and total; left marks the rows at or below the threshold,
    and counts are their class counts. README derives the arithmetic: one
    prefix sum per packed int64 word counts the classes left of every cut, in
    fields of t_max.bit_length() bits below bit high = 63 − S_t.bit_length(),
    and sums Σ t_k l_k ≤ S_t = Σ t_k² from bit high up. A cut between distinct
    ranks scores n·S_l + n_l·(S_t − 2 Σ t_k l_k) over n_l·n_r, exact in int64 up
    to about 1.6 million rows; the threshold is the midpoint of the values either
    side (vals), or the lower one if the midpoint rounds out of [lower, upper).
    Columns [0, _FIRST_BLOCK) are scored first; unless a cut there reaches _partition_bound, then
    those through the first that parts the largest class (_parting_width), where a cut reaches it,
    or else all. No later cut scores higher, and ties go to the lowest feature (README)."""
    n, d = keys.shape
    sq_total = int(total @ total)
    bits, high = int(total.max()).bit_length(), 63 - sq_total.bit_length()
    nl = np.arange(1, n, dtype=np.int64)[:, None]
    bound = _partition_bound(total)
    start, stop = 0, min(_FIRST_BLOCK, d)
    best, split = (sq_total, n), None  # a cut must beat the parent's S_t/n
    while True:
        sk = np.sort(keys[:, start:stop], axis=0)
        y = np.bitwise_and(sk[:-1], (1 << class_bits) - 1, dtype=np.intp)  # cut i follows row i; intp gathers fast
        for w, (table, shift) in enumerate(_word_tables(len(total), high // bits, bits)):
            packed = _running((table + (total << high))[y])
            num = packed >> high  # Σ_k t_k l_k, summed by every word from bit high up
            packed >>= shift[y]  # the fields of other words, and bit high up, read 0
            packed &= (1 << bits) - 1
            seen = seen + packed if w else packed
        seen *= 2 * n  # S_l sums 2·seen − 1, so n·S_l is this prefix sum less n·n_l
        num *= -2 * nl
        num += (sq_total - n) * nl
        num += _running(seen)  # n·S_l + n_l·(S_t − 2 Σ_k t_k l_k) = S_l·n_r + S_r·n_l
        sk |= (1 << class_bits) - 1  # one key per rank, at or above each of its keys
        num *= sk[1:] != sk[:-1]  # no cut between equal values; a real cut scores at least S_t/n > 0
        score = num / (nl * (n - nl))
        top = score.max(axis=0)  # scan feature-major: ties go to the lowest feature, then threshold
        f = int(np.argmax(top))
        cuts = [(f, int(np.argmax(score[:, f])))]
        if n ** 5 >= 1 << 56 and top[f] > 0:  # distinct scores may share the best float
            cuts = np.argwhere(score.T == top[f]).tolist()
        p, q, f, cut = max([(int(num[c, g]), (c + 1) * (n - 1 - c), g, c) for g, c in cuts], key=_by_score)
        if p * best[1] > best[0] * q:  # only a better block's cut: ties stay with the lower feature
            best, split = (p, q), (start + f, cut, sk[:, f], y[:, f])
        if stop == d or p * bound[1] == bound[0] * q:  # no later cut can score higher
            break
        start, stop = stop, stop + _parting_width(keys[:, stop:], class_bits, total)
    if split is None:
        return None
    f, cut, column, labels = split
    lo, hi = (float(vals[int(k) >> class_bits, f]) for k in column[cut:cut + 2])
    mid = (lo + hi) / 2.0  # Python floats: an overflow to inf does not warn
    left = keys[:, f] <= column[cut]
    return f, mid if lo <= mid < hi else lo, left, np.bincount(labels[:cut + 1], minlength=len(total))


@dataclass(eq=False)
class BaggedTreeEnsemble(ClassifierMixin):
    """Majority vote over n_trees bootstrap-trained decision trees."""

    n_trees: int = 100
    bootstrap_fraction: float = 0.30
    seed: int = 0

    def _draw_indices(self, n_samples, size):
        """(n_trees, size) bootstrap rows, row t on the seed's substream t; tests override it."""
        return integer_rows([PortableRNG(self.seed).spawn(t).seed for t in range(self.n_trees)], n_samples, size)

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
        draws = self._draw_indices(n, int(np.ceil(self.bootstrap_fraction * n)))
        keys, class_bits, vals = _rank_keys(X, codes)  # once for every tree
        return {"trees_": [DecisionTree()._grow(keys[idx], class_bits, vals) for idx in draws]}

    def vote_counts(self, X):
        """(n_samples, n_classes) tally of tree votes; rows sum to n_trees. All (row, tree)
        pairs of a chunk of rows, at most _PAIRS, descend the joined trees at once (_leaves)."""
        X, trees, n_classes = self._checked(X), self.trees_, len(self.classes_)
        sizes = [len(t.feature) for t in trees]
        roots = np.cumsum([0, *sizes[:-1]])
        feature, threshold, label, children = (np.concatenate([getattr(t, name) for t in trees])
                                               for name in ("feature", "threshold", "label", "children"))
        children += np.repeat(roots, sizes)[:, None]  # each tree's children offset by its first node
        votes, step = np.empty((len(X), n_classes), dtype=np.int64), max(1, _PAIRS // len(trees))
        for start in range(0, len(X), step):
            chunk = votes[start:start + step]
            voted = label[_leaves(X[start:start + step], feature, threshold, children, roots)]
            voted += np.arange(len(chunk))[:, None] * n_classes  # row i's class k counts at i·n_classes + k
            chunk[:] = np.bincount(voted.ravel(), minlength=chunk.size).reshape(chunk.shape)
        return votes

    _class_scores = vote_counts  # predict takes the class with the most votes
