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

Each helper states what its exactness rests on: the split bound (_partition_bound), the
parting-column certificate (_parting_width), padding (_chunk_splits), packed counts and
integer scores (_block_splits), restarted prefix sums (_restart), thresholds and signed
zeros (_thresholds), ranks (_rank_keys) and pre-order numbering (_grow).
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
    fit ranks its own X, and gives the node tables the ensemble's tree grows on
    the same rows of a larger matrix: dense ranks of a subset order its rows as
    the larger matrix's do, and a threshold is read from the two values either
    side of a cut, which are the node's own.
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
    smallest signed dtype that holds it, and vals[rank, column] that rank's value (the
    column's sorted distinct values, unset past its last rank).

    A CART split depends only on the order of the values within each column, so a fit
    ranks X once, for every tree. Ranks are dense: equal values share one, so -0.0 and
    0.0, which compare equal, are one value, and a node's cuts between distinct ranks
    are exactly its cuts between distinct values. class_bits is the largest code's bit
    length, so a tree needs no class count. Sorting a node's keys in a column gives its
    rows in value order with their labels in the low bits. Every threshold is read from
    vals (_thresholds). Ranking 24 columns at a time keeps its temporaries below the
    split search's, so glibc's mmap threshold stays put."""
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


_PAIRS = 1 << 15  # (row, tree) pairs vote_counts descends at once: bounds its temporaries, changes no vote
_FIRST_BLOCK = 32  # columns a node scores before it seeks a parting column: most nodes reach their bound there
# rows of a level's nodes, first blocks or continuations alike, that one _block_splits call scores, in at
# most _CHUNK_ROWS · _FIRST_BLOCK cells (a larger node alone): a small block costs about numpy's call overhead
_CHUNK_ROWS = 256
_by_score = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])  # exact scores p / q


def _grow(keys, class_bits, vals, roots):
    """The node tables (set_nodes) of trees grown on rows roots[t] of keys, all trees a level at
    a time, so depth is not bounded by Python's recursion limit. A level keeps each node's class
    counts and, node after node, its rows as indices into keys, never a copy of their keys. A
    node of one class is a leaf.

    The others' cuts minimize weighted Gini, ties going to the lowest feature, then threshold,
    and a cut is taken only if it scores above the parent's S_t/n. Columns [0, _FIRST_BLOCK)
    come first. A node whose best cut there misses its bound (_partition_bound, which no cut
    exceeds) goes on through the first later column that parts its largest class (_parting_width,
    whose cut reaches the bound), or else every column. Both passes are scored in chunks of nodes
    (_chunk_splits), the continuations sorted by width so that little padding is scored, and a
    continuation's cut replaces the first block's only if its exact score is strictly higher, so
    ties stay with the lower column. Every node thus gets the cut a scan of every column gives.
    One mask parts the level's rows into children (keys[row, f] <= the cut's lower key), and one
    bincount counts every child's classes.

    Each tree's nodes are numbered in pre-order, left subtree first, as a depth-first grower
    numbers them. The levels give every node's subtree size, 1 plus its children's, summed from
    the last level up. A left child is numbered right after its parent and a right child right
    after its left sibling's subtree, so node i's children are i + 1 and i + 1 + size(left)."""
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
    run's last, widest width are scored in one call (a larger node alone), so a wide node is a
    chunk of its own, as it would be scanned alone.

    Padding is exact: a chunk scores each node as wide as its widest, and scoring node j past
    widths[j] cannot change its cut. widths[j] ends at keys' last column, or at a column whose
    cut reaches the node's bound (_parting_width), which no cut exceeds (_partition_bound); and
    the lowest column that reaches a node's best score wins, so no padded column is taken."""
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
    """The best split of whole classes for these class counts (each row's, for a matrix), exact as
    p / q: the largest class, of t rows, against the rest, scoring t + (S_t − t²)/(n − t), that
    is its (S_L·n_R + S_R·n_L, n_L·n_R) over t. No cut of a node with these counts scores above
    it. With one class, every cut scores the parent's S_t/n, which is what it returns.

    No cut beats the best split of whole classes. With g(x) = Σ x_k² / Σ x_k (g(0) = 0), a cut
    with left class counts l scores g(l) + g(t − l). g is a quadratic over a linear function, so
    it is convex, and so is the score over the box 0 ≤ l ≤ t; a convex function's maximum over
    a box lies at a corner, where each class goes wholly left or right. The corners l = 0 and
    l = t score S_t/n, and no point of the box scores less (g is convex and of degree 1, so
    g(l) + g(t − l) ≥ g(t)), so a split of whole classes is also a best corner.

    That split is the largest class against the rest. Let L be the side of a split of whole
    classes with A ≤ n/2 rows and S_L its sum of squared counts. For a fixed A the score
    S_L·(1/A − 1/(n − A)) + S_t/(n − A) never falls as S_L rises.
    - If A < t, L lacks the largest class. Let m = S_L/A, so m ≤ A, and let R' be the rest of
      the right side, with N' rows and mean r = S_R'/N'. The largest class alone scores
      t + (m·A + r·N')/(A + N') and L scores m + (t² + r·N')/(t + N'); the first minus the
      second is t·N'/(t + N') − m·N'/(A + N') + r·(t/(t + N') − A/(A + N')), at least 0
      because x/(x + N') rises with x and m ≤ A < t (if N' = 0, L is the rest, one split).
    - If A ≥ t, S_L is at most the fractional fill U(A) that takes rows of the largest classes
      first, since a row of class i adds t_i to S_L. With the counts sorted in descending order
      and N_j their prefix sums, for N_j ≤ A ≤ N_{j+1} the bound H(A) = U(A)/A + (S_t − U(A))/
      (n − A) equals 2t_{j+1} + c/A + d/(n − A), where c = Σ_{i≤j} t_i(t_i − t_{j+1}) ≥ 0 and
      d = Σ_{i>j} t_i(t_i − t_{j+1}) ≤ 0. So H is continuous and never rises from A = t on:
      L scores at most H(A) ≤ H(t), the score of the largest class alone."""
    counts = np.asarray(counts, dtype=np.int64)
    n, sq, t = counts.sum(-1), (counts * counts).sum(-1), counts.max(-1)
    return sq + t * (n - 2 * t) * (t < n), n - t * (t < n)


def _parting_width(keys, class_bits, total):
    """Columns of keys (a node's rows, of 2 classes or more) to score: through the first column
    c in which every row of the largest class (the lowest class code among those of the largest
    count) ranks strictly below, or strictly above, every other row; else every column.

    Such a column certifies the bound: its cut between that class and the rest lies between two
    distinct ranks, so it is a cut, and it scores _partition_bound exactly. A rank tie at the
    class's edge certifies nothing, since no cut lies between equal values. One minimum and one
    maximum of the ranks per side and column decide it.

    Every column through c is scored, not c alone, because exact ties go to the lowest column:
    an earlier column may reach the bound another way (by parting another class of the largest
    count, or by a split of several whole classes when all counts are equal). No column after c
    scores above the bound, and a later cut replaces an earlier one only if strictly higher
    (_grow), so the certificate only sets where the scan ends: the cut is a full scan's."""
    mine = keys[:, 0] & (1 << class_bits) - 1 == np.argmax(total)
    ours, rest = keys[mine] >> class_bits, keys[~mine] >> class_bits  # ranks; a node has 2 classes or more
    parts = (ours.max(0) < rest.min(0)) | (ours.min(0) > rest.max(0))
    return int(np.argmax(parts)) + 1 if parts.any() else keys.shape[1]


def _restart(a, first):
    """a, in place, with row first[j] less the sum of rows first[j - 1] to first[j] - 1: prefix
    sums down it restart at each first[j], so each is a sum within one node.

    Exact in int64 whenever every node's own prefix sums lie in [0, 2**63): each prefix sum is
    then a sum within one node, and each changed row a row less such a sum, so nothing wraps.
    Global prefix sums less each node's start would be exact too: int64 arithmetic is exact
    modulo 2**64, and a true value in [0, 2**63) is the one int64 congruent to it."""
    if len(first) > 1:
        a[first[1:]] -= np.add.reduceat(a, first, axis=0)[:-1]
    return a


def _block_splits(keys, class_bits, sizes, totals):
    """Per node, the best cut in a block of columns of keys (rows of _rank_keys; node j's
    sizes[j] rows follow node j - 1's, with class counts totals[j]): its exact score p / q
    (p = 0 if no cut lies between distinct ranks), column f and the sorted keys lo and hi
    either side, class bits set. Ties go to the lowest column, then the lowest threshold.

    Score. A cut after n_l of a node's n rows leaves class counts l on the left. With
    S_l = Σ l_k², S_t = Σ t_k² and S_r = Σ (t_k − l_k)² = S_t − 2 Σ t_k l_k + S_l, minimizing
    the weighted Gini impurity (Breiman et al., CART, 1984) is maximizing S_l/n_l + S_r/n_r,
    whose numerator over n_l·n_r is the integer n·S_l + n_l·(S_t − 2 Σ t_k l_k).

    Counts. One prefix sum per packed int64 word, down the rows in sorted order, counts the
    classes left of every cut. Each class has a field of bits = t_max.bit_length() bits, t_max
    being the block's largest class count, which bounds every count, so no field carries into
    the next. Each word's table also holds t_k << high for every class k, high = 63 −
    S_t.bit_length() for the block's largest S_t, so from bit high up the same prefix sum holds
    Σ t_k l_k ≤ S_t, below 2**63. A word holds high // bits classes; more take a prefix sum per
    word. A row's own field is l_k for its class k, the rows of k at or before it, and the row
    raises S_l by 2·l_k − 1, so n·S_l is a prefix sum of 2n·l_k less n·n_l.

    Exactness. No intermediate exceeds 2n³ in magnitude, so the integers are exact in int64 up
    to about 1.6 million rows in a node. The numerator is at most n³/4 and n_l·n_r at most n²/4,
    so up to about 330,000 rows both convert to floats exactly; a correctly rounded quotient is
    monotone, so cuts of equal exact score get equal floats and the scan order breaks the tie.
    Two different scores differ by at least 16/n⁴, which one division keeps apart only while
    n⁵ < 2**56 (about 2,350 rows): a larger node compares the cuts that share its best float
    again exactly, in Python integers, whatever else its chunk holds.

    Cuts. A cut counts only between two distinct ranks. Tied rows sort by class code, and any
    order would do: the class counts at a cut between distinct ranks are the same for any order
    of the tied rows. At a node's last row l = t, and the numerator n·S_t + n·(S_t − 2 S_t) is
    0, so no cut crosses into the next node: a real cut scores at least S_t/n > 0.

    Chunks. Node j's keys are lifted above every key of the nodes before it (j << key_bits |
    key), so one sort per column keeps the nodes apart. key_bits counts the class bits too: a
    chunk's largest key can be narrower than them (all of rank 0, class codes below the top
    bit); with codes 0–2, a one-bit lift moved node 1's class-1 key onto class 3. The fields and
    high come from the chunk's largest class count and S_t, so every node is exact, in as many
    words as its largest node needs; row j of each word's table holds node j's t_k << high, and
    _restart starts the prefix sums again at each node. np.maximum.reduceat gives each node's
    column maxima, and the lowest column reaching the node's maximum, then its first row that
    does, keep the tie rule. A one-node block skips these segment steps (the key lift, the node
    offsets, np.maximum.reduceat), which made fits about a fifth slower when run for one node."""
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
    their values (vals), or the lower one if the midpoint rounds out of [lower, upper)
    (scikit-learn's rule). That happens for adjacent doubles such as 1 + 2**-52 and 1 + 2**-51,
    for a sum that overflows to ±inf, and for -5e-324 and 0.0, whose midpoint -0.0 is not below
    0.0; the midpoint alone would send every row to one side, and the fit would never end. So
    x <= threshold routes every training row as its rank does.

    The sign of a zero cannot reach the threshold, though a rank stands for values that compare
    equal, so the zero vals keeps may have the other sign than a node's own rows. If the lower
    value is ±0, the upper one is positive and (±0 + hi)/2 is hi/2 either way, in [0, hi), so
    the fallback never fires; if the upper value is ±0, the lower one is negative and lo + ±0
    is lo. So the thresholds, and the model files, are those the values give."""
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
        """(n_samples, n_classes) tally of tree votes; rows sum to n_trees. The trees' node arrays
        are joined into one, each tree's children offset by its first node; every (row, tree) pair
        of a chunk of rows descends from its tree's root a level per step (_leaves), and one
        bincount tallies the leaves' labels. A chunk holds at most _PAIRS = 2**15 pairs (327 rows
        at 100 trees). A pair's leaf does not depend on its chunk, so the chunk changes no vote,
        and it bounds the descent's temporaries, which grow with the pairs in flight."""
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
