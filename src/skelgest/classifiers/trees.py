"""Bagged ensemble of axis-aligned decision trees.

Base learner: a binary CART-style tree split on Gini impurity, grown until
nodes are pure or hold fewer than 2 samples, never pruned. The ensemble
trains each tree on a bootstrap sample (drawn with replacement, sized as a
fraction of the training set) and predicts by majority vote. Sampling runs on
the portable RNG with per-tree substreams and splits are exact, so the same
training matrix and seed give the same model anywhere. All trees of a fit grow
together, a level at a time, and a level's split searches, first blocks and their
continuations alike, are scored in chunks of its nodes (_grow). A chunk scores every
node as wide as its widest; that padding is exact, since past its own width no cut
of a node scores above its best and ties go to the lowest column.
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
    and the rest to children[i,1]. Cuts of exactly equal Gini (_grow) go
    to the lowest feature, then threshold; leaf majorities to the lowest class.
    A split depends only on the order of each column's values, so the tree
    grows on their ranks (_rank_keys) and gets the splits the values give.
    """

    def fit(self, X, y_idx):
        keys, class_bits, vals = _rank_keys(np.asarray(X, dtype=np.float64), y_idx)
        return self.set_nodes(_grow(keys, class_bits, vals, np.arange(len(keys))[None])[0])

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
_CHUNK_ROWS = 256  # rows whose first blocks _grow scores at once (a larger node alone); see README
_by_score = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])  # exact scores p / q


def _grow(keys, class_bits, vals, roots):
    """The node tables (set_nodes) of trees grown on rows roots[t] of keys, all trees a level at
    a time. A level keeps each node's class counts and, node after node, its rows as indices
    into keys. A node of one class is a leaf. The others' cuts minimize weighted Gini, ties going
    to the lowest feature: columns [0, _FIRST_BLOCK) come first, and a node whose cut there
    misses its bound (_partition_bound) goes on through the first column that parts its largest
    class (_parting_width), or else all; no later cut scores higher (README). Both blocks are
    scored in chunks of nodes (_chunk_splits), the continuations sorted by width, so padding a
    node to its chunk's width cannot change its cut, and a continuation's cut replaces the first
    block's only if strictly better. One mask parts the level's rows into children, counted by
    one bincount. Each tree's nodes are numbered in pre-order, left subtree first (README)."""
    codes, d = keys[:, 0] & (1 << class_bits) - 1, keys.shape[1]
    k, rows, child = int(codes.max()) + 1, roots.ravel(), np.repeat(np.arange(len(roots)), roots.shape[1])
    levels, nodes = [], len(roots)  # levels: (split, feature, threshold, label) of each level's nodes
    while nodes:
        counts = np.bincount(child * k + codes[rows], minlength=nodes * k).reshape(-1, k)
        rows, sizes, split = rows[np.argsort(child, kind="stable")], counts.sum(axis=1), np.zeros(nodes, dtype=bool)
        searched = np.count_nonzero(counts, axis=1) > 1
        rows, n, total = rows[np.repeat(searched, sizes)], sizes[searched], counts[searched]
        starts, block = np.cumsum(n) - n, min(d, _FIRST_BLOCK)
        p, q, f, lo, hi = _chunk_splits(keys[:, :block], class_bits, rows, starts, n, total, np.full(len(n), block))
        bound = _partition_bound(total)
        go = np.flatnonzero((p.astype(object) * bound[1] != bound[0] * q.astype(object)) & (d > block))
        width = np.array([_parting_width(keys[rows[starts[i]:starts[i] + n[i]], block:], class_bits, total[i])
                          for i in go.tolist()], dtype=np.intp)  # the columns past the first block each node needs
        go, width = go[np.argsort(width, kind="stable")], np.sort(width)
        cp, cq, cf, clo, chi = _chunk_splits(keys[:, block:], class_bits, rows, starts[go], n[go], total[go], width)
        better = cp.astype(object) * q[go].astype(object) > p[go].astype(object) * cq.astype(object)
        go = go[better]  # only a strictly better cut: ties stay with the lower column
        p[go], q[go], f[go], lo[go], hi[go] = cp[better], cq[better], cf[better] + block, clo[better], chi[better]
        cut = p.astype(object) * n.astype(object) > np.einsum("ij,ij->i", total, total).astype(object) * q  # > S_t/n
        split[searched] = cut = cut.astype(bool)
        feature, threshold = np.full(nodes, -1), np.zeros(nodes)
        feature[split], threshold[split] = f[cut], _thresholds(vals, class_bits, f[cut], lo[cut], hi[cut])
        levels.append((split, feature, threshold, np.where(split, -1, np.argmax(counts, axis=1))))
        seg = np.repeat(np.arange(len(n)), n)[np.repeat(cut, n)]  # the splitting node of each of its rows
        rows, nodes = rows[np.repeat(cut, n)], 2 * int(cut.sum())
        child = 2 * (np.cumsum(cut) - 1)[seg] + (keys[rows, f[seg]] > lo[seg])  # left child first
    size = [np.ones(len(split), dtype=np.int64) for split, *_ in levels] + [np.zeros(0, dtype=np.int64)]
    for h in range(len(levels) - 1, -1, -1):  # subtree sizes
        size[h][levels[h][0]] += size[h + 1][0::2] + size[h + 1][1::2]
    table, offset = np.empty((int(size[0].sum()), 5)), np.cumsum(size[0]) - size[0]
    tree, pre = np.arange(len(roots)), np.zeros(len(roots), dtype=np.int64)  # pre: numbers within a tree
    for h, (split, feature, threshold, label) in enumerate(levels):
        children = np.full((len(split), 2), -1)  # a left child follows its parent, a right one the left's subtree
        children[split] = (pre[split] + 1)[:, None] + np.outer(size[h + 1][0::2], [0, 1])
        table[offset[tree] + pre] = np.column_stack([feature, threshold, children, label])
        tree, pre = np.repeat(tree[split], 2), children[split].ravel()
    return np.split(table, offset[1:])


def _chunk_splits(keys, class_bits, rows, first, sizes, totals, widths):
    """_block_splits of columns [0, widths[j]) of keys for each node j, whose rows are
    rows[first[j]:first[j] + sizes[j]], with widths that never fall from node to node. Runs of
    consecutive nodes of at most _CHUNK_ROWS rows and _CHUNK_ROWS · _FIRST_BLOCK cells at the
    run's last width are scored in one call (a larger node alone). Scoring a node past its own
    width changes nothing: that width ends at keys' last column or at a column whose cut reaches
    the node's bound, which no cut exceeds, and the lowest column reaching the best score wins."""
    edges, held = [0], 0
    for j, (m, w) in enumerate(zip(sizes.tolist(), widths.tolist())):
        if j > edges[-1] and (held + m > _CHUNK_ROWS or (held + m) * w > _CHUNK_ROWS * _FIRST_BLOCK):
            edges.append(j)
            held = 0
        held += m
    found = []
    for a, b in zip(edges, [*edges[1:], len(sizes)]):
        if a < b:  # the chunk's rows, node after node
            at = np.repeat(first[a:b] - np.cumsum(sizes[a:b]) + sizes[a:b], sizes[a:b]) + np.arange(sizes[a:b].sum())
            found.append(_block_splits(keys[rows[at], :widths[b - 1]], class_bits, sizes[a:b], totals[a:b]))
    return [np.concatenate(c) for c in zip(*found)] if found else np.zeros((5, 0), dtype=np.int64)


def _partition_bound(counts):
    """The best split of whole classes for these class counts (each row's, for a matrix), the
    largest class (t rows) against the rest: its (S_L·n_R + S_R·n_L, n_L·n_R) over t, exact as
    p / q. No cut scores above it (README). With one class, every cut scores the parent's S_t/n."""
    counts = np.asarray(counts, dtype=np.int64)
    n, sq, t = counts.sum(-1), (counts * counts).sum(-1), counts.max(-1)
    return sq + t * (n - 2 * t) * (t < n), n - t * (t < n)


def _parting_width(keys, class_bits, total):
    """Columns of keys to score: through the first where every row of the largest class ranks
    below, or every one above, all the others, so a cut there scores _partition_bound; else all."""
    mine = keys[:, 0] & (1 << class_bits) - 1 == np.argmax(total)
    ours, rest = keys[mine] >> class_bits, keys[~mine] >> class_bits  # ranks; a node has 2 classes or more
    parts = (ours.max(0) < rest.min(0)) | (ours.min(0) > rest.max(0))
    return int(np.argmax(parts)) + 1 if parts.any() else keys.shape[1]


def _restart(a, first):
    """a, in place, with row first[j] less the sum of rows first[j - 1] to first[j] - 1: prefix
    sums down it restart at each first[j], exact in int64 (README)."""
    if len(first) > 1:
        a[first[1:]] -= np.add.reduceat(a, first, axis=0)[:-1]
    return a


def _block_splits(keys, class_bits, sizes, totals):
    """Per node, the best cut in a block of columns of keys (rows of _rank_keys; node j's
    sizes[j] rows follow node j - 1's, with class counts totals[j]): its exact score p / q
    (p = 0 if no cut lies between distinct ranks), column f and the sorted keys lo and hi
    either side, class bits set. README derives it: one prefix sum per packed int64 word
    counts the classes left of every cut, in fields of t_max.bit_length() bits below bit
    high = 63 − S_t.bit_length() (the largest of the block's nodes, so each is exact), and
    sums Σ t_k l_k ≤ S_t from bit high up; _restart starts it again at each node. A cut scores
    n·S_l + n_l·(S_t − 2 Σ t_k l_k) over n_l·n_r, exact in int64 up to about 1.6 million rows.
    Ties go to the lowest column, then threshold; a node of n**5 >= 2**56 rows compares the
    cuts that share its best float exactly. A one-node block skips the segment steps (key
    lift, node offsets, np.maximum.reduceat), which made fits about a fifth slower (README)."""
    m, s, k = len(keys), len(sizes), totals.shape[1]
    sq = np.einsum("ij,ij->i", totals, totals)
    bits, high = int(totals.max()).bit_length(), 63 - int(sq.max()).bit_length()
    first, node, n, nl, lift = np.zeros(1, dtype=np.intp), 0, m, np.arange(1, m)[:, None], 0  # one node
    if s > 1:  # nodes one after another, each one's keys sorting above every key of the nodes before
        first, node = np.cumsum(sizes) - sizes, np.repeat(np.arange(s), sizes)
        lift = np.arange(s) << int(keys.max() | (1 << class_bits) - 1).bit_length()  # past the class bits too
        lift = lift.astype(np.min_scalar_type(-int(lift[-1]) << 1))  # int32 when it holds them: a faster sort
        keys, node = keys + lift[node, None], node[:-1, None]  # the node of cut i, which follows row i
        n, nl = sizes[node], nl - first[node]  # nl: the node's rows at or before the cut
    sk = np.sort(keys, axis=0)
    y = np.bitwise_and(sk[:-1], (1 << class_bits) - 1, dtype=np.intp)  # intp gathers fast
    if s > 1:
        y += node * k  # row j of each word's table below is node j's
    for w, (table, shift) in enumerate(_word_tables(k, high // bits, bits)):
        packed = _running(_restart((table + (totals << high)).ravel()[y], first))
        num = packed >> high  # Σ_k t_k l_k, summed by every word from bit high up
        packed >>= np.tile(shift, s)[y]  # the fields of other words, and bit high up, read 0
        packed &= (1 << bits) - 1
        seen = seen + packed if w else packed
    seen *= 2 * n  # S_l sums 2·seen − 1, so n·S_l is this prefix sum less n·n_l
    num *= -2 * nl
    num += (sq[node] - n) * nl
    num += _running(_restart(seen, first))  # n·S_l + n_l·(S_t − 2 Σ_k t_k l_k) = S_l·n_r + S_r·n_l, 0 at l = t
    sk |= (1 << class_bits) - 1  # one key per rank, at or above each of its keys
    num *= sk[1:] != sk[:-1]  # no cut between equal values; a real cut scores at least S_t/n > 0
    q = nl * (n - nl)
    score = num / np.maximum(q, 1)  # a node's last row: 0 / 1
    # scan feature-major: ties go to the lowest feature, then threshold
    top = np.maximum.reduceat(score, first, axis=0) if s > 1 else score.max(axis=0, keepdims=True)
    f, rows = np.argmax(top, axis=1), np.arange(m - 1)[:, None]
    at = (np.minimum.reduceat(np.where(score[rows, f[node]] == top[node, f[node]], rows, m), first)[:, 0]
          if s > 1 else np.argmax(score[:, f], axis=0))
    p, q = num[at, f], q[at, 0]
    for j, n in enumerate(sizes.tolist()):
        if n ** 5 >= 1 << 56 and top[j, f[j]] > 0:  # distinct scores of node j may share its best float
            cuts, a = np.argwhere(score[first[j]:first[j] + n - 1].T == top[j, f[j]]).tolist(), int(first[j])
            p[j], q[j], f[j], at[j] = max([(int(num[a + c, g]), (c + 1) * (n - 1 - c), g, a + c) for g, c in cuts],
                                          key=_by_score)
    return p, q, f, sk[at, f] - lift, sk[at + 1, f] - lift


def _thresholds(vals, class_bits, f, lo, hi):
    """The threshold of each cut of column f between the sorted keys lo and hi: the midpoint of
    their values (vals), or the lower one if the midpoint rounds out of [lower, upper)."""
    lo, hi = vals[lo >> class_bits, f], vals[hi >> class_bits, f]
    with np.errstate(over="ignore"):  # a sum past the largest double is inf, out of [lower, upper)
        mid = (lo + hi) / 2.0
    return np.where((lo <= mid) & (mid < hi), mid, lo)


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
        draws = np.asarray(self._draw_indices(n, int(np.ceil(self.bootstrap_fraction * n))))
        keys, class_bits, vals = _rank_keys(X, codes)  # once for every tree
        return {"trees_": [DecisionTree().set_nodes(table) for table in _grow(keys, class_bits, vals, draws)]}

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
