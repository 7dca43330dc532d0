import hashlib
import itertools
import tracemalloc
from fractions import Fraction
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import event, given, settings, target
from hypothesis import strategies as st

from skelgest.classifiers import BaggedTreeEnsemble, DecisionTree, dumps_model, loads_model, trees
from skelgest.classifiers.trees import _block_splits, _grow, _partition_bound, _rank_keys, _thresholds
from skelgest.errors import DimensionMismatchError, InvalidBootstrapError, TrainingDegenerateError
from skelgest.harness import ExperimentConfig, build_dataset, make_classifier, stratified_split
from skelgest.rng import PortableRNG

from test_rng import output
from test_svm import PINNED_MACHINES, THREE_BLOBS, blobs, harness_training_split


class IdentitySampled(BaggedTreeEnsemble):
    # test hook: every "bootstrap" is the full training set in order
    def _draw_indices(self, n_samples, size):
        return np.tile(np.arange(n_samples), (self.n_trees, 1))


def leaf_of(tree, x):
    """The leaf one row reaches, following the nodes one at a time."""
    i = 0
    while tree.feature[i] >= 0:
        i = tree.children[i, 0] if x[tree.feature[i]] <= tree.threshold[i] else tree.children[i, 1]
    return int(i)


def path_of(tree, x):
    """The nodes one row passes through, root to leaf, following them one at a time."""
    path = [0]
    while tree.feature[path[-1]] >= 0:
        i = path[-1]
        path.append(tree.children[i, 0] if x[tree.feature[i]] <= tree.threshold[i] else tree.children[i, 1])
    return path


def walk(tree, x):
    """One row's leaf label, following the nodes one at a time."""
    return int(tree.label[leaf_of(tree, x)])


class TestDecisionTree:
    def test_pure_leaves_on_training_data(self):
        rng = np.random.default_rng(50)
        X, y = blobs(rng, THREE_BLOBS, 15)
        classes = sorted(set(y))
        y_idx = np.array([classes.index(v) for v in y])
        tree = DecisionTree().fit(X, y_idx)
        assert np.array_equal(tree.predict(X), y_idx)

    def test_unsplittable_node_becomes_majority_leaf(self):
        X = np.ones((5, 2))
        y_idx = np.array([0, 0, 0, 1, 1])
        tree = DecisionTree().fit(X, y_idx)
        assert tree.predict(X).tolist() == [0] * 5

    def test_majority_tie_takes_lowest_class(self):
        X = np.ones((4, 2))
        y_idx = np.array([1, 0, 1, 0])
        tree = DecisionTree().fit(X, y_idx)
        assert tree.predict(X).tolist() == [0] * 4

    def test_deeper_than_the_recursion_limit(self):
        # alternating labels on a line: every split peels off one end row
        X, y_idx = np.arange(1500.0)[:, None], np.arange(1500) % 2
        tree = DecisionTree().fit(X, y_idx)
        assert depth(tree) == 1499
        assert np.array_equal(tree.predict(X), y_idx)


def depth(tree):
    """Edges on the longest root-to-leaf path; nodes are stored parents first."""
    level = np.zeros(len(tree.feature), dtype=np.int64)
    for i in np.flatnonzero(tree.feature >= 0):
        level[tree.children[i]] = level[i] + 1
    return int(level.max())


class RootCut(Exception):
    """Raised with the root level's cuts (feature, lo, hi) to stop a grow there."""


def best_split(X, y_idx):
    """The root split (feature, threshold) of a one-tree _grow on rows X, or None,
    reached as DecisionTree.fit reaches it: through the rank keys of X. The grow
    stops once its root level has cut, so no child is searched. The cut must route
    the rows by their keys as their values and the threshold do, and its upper key
    must be the node's next rank above the cut."""
    X, y_idx = np.asarray(X, dtype=np.float64), np.asarray(y_idx)
    keys, class_bits, vals = _rank_keys(X, y_idx)

    def root_cut(vals, class_bits, f, lo, hi):
        raise RootCut(f, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trees, "_thresholds", root_cut)
        with pytest.raises(RootCut) as stop:
            _grow(keys, class_bits, vals, np.arange(len(keys))[None])
    if not len(stop.value.args[0]):
        return None
    f, lo, hi = (int(a[0]) for a in stop.value.args)
    threshold = float(_thresholds(vals, class_bits, f, lo, hi))
    left = keys[:, f] <= lo
    assert np.array_equal(left, X[:, f] <= threshold), (X, y_idx, (f, lo, hi))
    assert hi >> class_bits == (keys[~left, f] >> class_bits).min(), (X, y_idx, (f, lo, hi))
    return f, threshold


def reference_split(X, y_idx, n_classes):
    """_best_split in plain Python: class counts tallied row by row, each
    cut's weighted Gini an exact Fraction, cuts scanned feature-major and
    then left to right, the first strict minimum kept, and None unless it
    is below the parent's Gini. The threshold is the midpoint of the values
    either side of the cut, or the lower value where it rounds outside."""
    n, d = len(X), len(X[0])
    total = [0] * n_classes
    for c in y_idx:
        total[c] += 1
    parent = 1 - Fraction(sum(t * t for t in total), n * n)
    best = None
    for f in range(d):
        rows = sorted(range(n), key=lambda i: X[i][f])
        left = [0] * n_classes
        for cut in range(n - 1):
            left[y_idx[rows[cut]]] += 1
            lo, hi = X[rows[cut]][f], X[rows[cut + 1]][f]
            if not hi > lo:
                continue
            nl = cut + 1
            nr = n - nl
            gini_l = 1 - Fraction(sum(c * c for c in left), nl * nl)
            gini_r = 1 - Fraction(sum((t - c) ** 2 for t, c in zip(total, left)), nr * nr)
            weighted = (nl * gini_l + nr * gini_r) / n
            if best is None or weighted < best[0]:
                mid = (lo + hi) / 2.0
                best = (weighted, f, mid if lo <= mid < hi else lo)
    if best is None or best[0] >= parent:
        return None
    return best[1], best[2]


def node_from_columns(*columns):
    """A node whose sorted column f reads the classes columns[f]; the values
    are ranks, so every cut lies between two distinct values."""
    y_idx = np.array(columns[0])
    X = np.zeros((len(y_idx), len(columns)))
    for f, column in enumerate(columns):
        free = {c: list(np.flatnonzero(y_idx == c)) for c in set(columns[0])}
        for rank, c in enumerate(column):
            X[free[c].pop(0), f] = rank
    return X, y_idx


def random_node(rng):
    """A tie-heavy node: few distinct values, sometimes a constant column,
    sometimes fewer classes present than n_classes."""
    n = int(rng.choice([2, 3, int(rng.integers(4, 30))]))
    d = int(rng.integers(1, 5))
    n_classes = int(rng.integers(2, 6))
    X = rng.integers(0, int(rng.integers(1, 5)), size=(n, d)) * 0.25
    if rng.random() < 0.3:
        X[:, int(rng.integers(d))] = 1.5
    y_idx = rng.integers(0, int(rng.integers(1, n_classes + 1)), size=n)
    if rng.random() < 0.3:
        y_idx = n_classes - 1 - y_idx  # keep the low classes absent
    return X, y_idx, n_classes


def balanced_node(rng):
    """Blocks of tied rows that each hold the same class mix: every cut
    leaves the class proportions of the parent, so no split lowers Gini."""
    mix = rng.integers(0, 3, size=int(rng.integers(2, 4)))
    blocks = int(rng.integers(2, 5))
    X = np.repeat(rng.permutation(blocks) * 1.0, len(mix))[:, None]
    y_idx = np.tile(mix, blocks)
    return np.hstack([X, np.full_like(X, 2.0)]), y_idx, 3


def wide_node(rng):
    """A tie-heavy node at least ten times wider than tall, so its prefix sums
    run a row at a time; more classes than a count word holds (see
    count_words) need two words."""
    n = int(rng.integers(2, 41))
    d = int(rng.integers(10 * (n - 1), 12 * (n - 1) + 1))
    n_classes = int(rng.integers(2, 17))
    X = rng.integers(0, int(rng.integers(1, 5)), size=(n, d)) * 0.25
    y_idx = rng.integers(0, n_classes, size=n)
    return X, y_idx, n_classes


def many_class_node(rng):
    """A tie-heavy node with more classes than one count word holds;
    sometimes only some classes are present, so whole words can be empty.
    Two in three are tall; the others are short and as wide as wide_node's,
    with half their rows in one class, whose count widens every field."""
    wide = rng.random() < 1 / 3
    n = int(rng.integers(6, 17) if wide else rng.integers(64, 201))
    d = int(rng.integers(10 * (n - 1), 12 * (n - 1) + 1) if wide else rng.integers(1, 4))
    n_classes = int(rng.integers(10, 61))
    X = rng.integers(0, int(rng.integers(2, 12)), size=(n, d)) * 0.5
    present = rng.choice(n_classes, size=int(rng.integers(2, n_classes + 1)), replace=False)
    y_idx = rng.choice(present, size=n)
    if wide:
        y_idx[:n // 2] = present[0]
    return X, y_idx, n_classes


def signed_zero_node(rng):
    """random_node with each zero given a random sign."""
    X, y_idx, n_classes = random_node(rng)
    return np.where(X == 0, rng.choice([-0.0, 0.0], size=X.shape), X), y_idx, n_classes


def count_words(y_idx):
    """How many count words a node of these labels takes (words)."""
    return words(np.bincount(y_idx))


def words(total):
    """How many count words the split search packs the class counts of a node,
    scored alone, into. A class's field has as many bits as the largest class
    count, and a word holds the fields that fit below bit 63 - S_t.bit_length(),
    from which each word also sums Σ t_k l_k."""
    total = np.asarray(total)
    per_word = (63 - int(total @ total).bit_length()) // int(total.max()).bit_length()
    return -(-len(total) // per_word)


NODE_MAKERS = [random_node, signed_zero_node, balanced_node, wide_node, many_class_node]
NODE_IDS = ["random", "signed-zeros", "balanced", "wide", "many-class"]


# two values whose midpoint rounds out of [lo, hi)
ROUNDING_PAIRS = [(1 + 2 ** -52, 1 + 2 ** -51), (1e308, 1.7e308), (-1.7e308, -1e308), (-5e-324, 0.0)]


class TestBestSplitOracle:
    def test_matches_plain_python_reference(self):
        rng = np.random.default_rng(60)
        seen = {"split": 0, "none": 0, "n=2": 0, "absent class": 0}
        for _ in range(600):
            X, y_idx, n_classes = random_node(rng)
            got = best_split(X, y_idx)
            assert got == reference_split(X.tolist(), y_idx.tolist(), n_classes), (X, y_idx)
            seen["split" if got else "none"] += 1
            seen["n=2"] += len(y_idx) == 2
            seen["absent class"] += len(set(y_idx.tolist())) < n_classes
        assert min(seen.values()) >= 20, seen

    def test_no_gain_split_is_none(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            X, y_idx, n_classes = balanced_node(rng)
            if len(set(y_idx.tolist())) > 1:
                assert reference_split(X.tolist(), y_idx.tolist(), n_classes) is None
                assert best_split(X, y_idx) is None

    def test_continuous_features_match_reference(self):
        rng = np.random.default_rng(62)
        X, y = blobs(rng, THREE_BLOBS, 12, std=3.0)
        y_idx = np.array([sorted(set(y)).index(v) for v in y])
        for _ in range(100):
            rows = rng.integers(len(y_idx), size=int(rng.integers(2, 36)))
            Xn, yn = np.round(X[rows], 1), y_idx[rows]
            assert best_split(Xn, yn) == reference_split(Xn.tolist(), yn.tolist(), 3)

    def test_row_order_cannot_change_a_split(self):
        # the sort need not be stable: tied rows may come in any order
        rng = np.random.default_rng(64)
        for _ in range(300):
            X, y_idx, n_classes = random_node(rng)
            expected = best_split(X, y_idx)
            for _ in range(3):
                p = rng.permutation(len(y_idx))
                assert best_split(X[p], y_idx[p]) == expected, (X, y_idx, p)

    def test_row_at_a_time_and_multi_word_paths_match_reference(self):
        # the prefix sums go a row at a time when 10 (n - 1) <= d; count_words
        # says how many count words the classes take
        rng = np.random.default_rng(65)
        seen = {"row loop, n > 4": 0, "row loop, 2+ words": 0, "2+ words": 0, "split": 0, "none": 0}
        for make, count in ((wide_node, 80), (many_class_node, 60)):
            for _ in range(count):
                X, y_idx, n_classes = make(rng)
                n, d = X.shape
                expected = reference_split(X.tolist(), y_idx.tolist(), n_classes)
                assert best_split(X, y_idx) == expected, (X, y_idx)
                for _ in range(3):
                    p = rng.permutation(n)
                    assert best_split(X[p], y_idx[p]) == expected, (X, y_idx, p)
                words = count_words(y_idx) > 1
                seen["row loop, n > 4"] += 10 * (n - 1) <= d and n > 4
                seen["row loop, 2+ words"] += 10 * (n - 1) <= d and words
                seen["2+ words"] += words
                seen["split" if expected else "none"] += 1
        assert min(seen.values()) >= 10, seen

    def test_signed_zeros_are_one_value(self):
        # -0.0 == 0.0: they share a rank, and no cut falls between them even
        # where their labels differ
        X = np.array([[-0.0], [0.0], [-0.0], [0.0], [2.0], [2.0]])
        y_idx = np.array([0, 1, 0, 1, 1, 1])
        keys, class_bits, _ = _rank_keys(X, y_idx)
        assert (keys[:4, 0] >> class_bits).tolist() == [0] * 4
        assert reference_split(X.tolist(), y_idx.tolist(), 2) == (0, 1.0)
        assert best_split(X, y_idx) == (0, 1.0)

    def test_signed_zeros_match_reference(self):
        rng = np.random.default_rng(66)
        both = 0
        for _ in range(300):
            X, y_idx, n_classes = random_node(rng)
            X = np.where(X == 0, rng.choice([-0.0, 0.0], size=X.shape), X)
            expected = reference_split(X.tolist(), y_idx.tolist(), n_classes)
            assert best_split(X, y_idx) == expected, (X, y_idx)
            p = rng.permutation(len(y_idx))
            assert best_split(X[p], y_idx[p]) == expected, (X, y_idx, p)
            signs = np.signbit(X)[X == 0]
            both += bool(expected) and signs.any() and not signs.all()
        assert both >= 20, both

    @pytest.mark.parametrize("lo, hi", ROUNDING_PAIRS,
                             ids=["adjacent", "overflow", "negative-overflow", "to-minus-zero"])
    def test_midpoint_off_the_gap_takes_the_lower_value(self, lo, hi):
        # (lo + hi) / 2 rounds onto hi, to +-inf or to -0.0 (which 0.0 is <=),
        # so it would send both rows left; the lower value splits them
        mid = (lo + hi) / 2.0
        assert not lo <= mid < hi
        X, y_idx = np.array([[lo], [hi]]), np.array([0, 1])
        assert reference_split(X.tolist(), y_idx.tolist(), 2) == (0, lo)
        f, threshold = best_split(X, y_idx)
        assert (X[:, f] <= threshold).tolist() == [True, False]
        assert DecisionTree().fit(X, y_idx).predict(X).tolist() == [0, 1]
        model = IdentitySampled(n_trees=1, bootstrap_fraction=1.0).fit(X, ["a", "b"])
        assert model.predict(X) == ["a", "b"]

    @pytest.mark.parametrize("columns, expected", [
        (([7, 7, 7, 0, 3, 5, 5, 3, 3, 0, 5, 0], [0, 3, 0, 3, 0, 3, 5, 5, 7, 7, 5, 7]), (0, 2.5)),
        (([0, 4, 4, 4, 0, 6, 6, 6, 0, 5, 5, 5], [5, 4, 4, 4, 5, 5, 0, 6, 6, 0, 0, 6]), (0, 8.5)),
    ], ids=["node-1", "node-2"])
    def test_exact_tie_takes_the_lowest_feature(self, columns, expected):
        # two 12-row nodes of a seed-11 interaction-wide ensemble, reduced to
        # their tied columns: both cuts score exactly the same, and a float
        # Gini rounded the tie toward feature 1
        X, y_idx = node_from_columns(*columns)
        assert reference_split(X.tolist(), y_idx.tolist(), 8) == expected
        assert best_split(X, y_idx) == expected

    def test_large_node_compares_float_tied_cuts_exactly(self):
        X, y_idx = float_tied_node()
        assert reference_split(X.tolist(), y_idx.tolist(), 12) == (1, 0.5)
        assert best_split(X, y_idx) == (1, 0.5)

    @pytest.mark.parametrize("n", [32767, 32768], ids=["int32-counts", "int64-counts"])
    def test_largest_counts_match_reference(self, n):
        # nearly one class, cut off at the far end: Σ t·l and Σ l² near n²
        rng = np.random.default_rng(n)
        X = rng.permutation(np.arange(n) // 2)[:, None] * 1.0
        y_idx = (X[:, 0] == X.max()).astype(np.int64)
        got = best_split(X, y_idx)
        assert got == reference_split(X.tolist(), y_idx.tolist(), 2)
        assert got == (0, float(X.max()) - 0.5)


class TestNodeInvariants:
    """What the grower carries instead of recomputing: the class counts of every
    node, a split's children counted from the rows routed to each side, the value
    of each rank, and leaf labels from the counts pushed down the tree."""

    @pytest.mark.parametrize("make", NODE_MAKERS, ids=NODE_IDS)
    def test_left_counts_are_those_of_the_rows_routed_left(self, blocks, make):
        # the counts of every node the split search is given are those of the
        # training rows its tree's thresholds route there, and every node of
        # two classes or more is searched
        rng = np.random.default_rng(70)
        splits = 0
        for _ in range(40):
            X, y_idx, _ = make(rng)
            blocks.clear()
            tree = DecisionTree().fit(X, y_idx)
            reached = [path_of(tree, x) for x in X]
            routed = {tuple(np.bincount(y_idx[[i in path for path in reached]], minlength=y_idx.max() + 1).tolist())
                      for i in range(len(tree.feature))}
            searched = {tuple(total) for _, totals in blocks for total in totals}
            assert searched == {c for c in routed if np.count_nonzero(c) > 1}, (X, y_idx)
            splits += len(tree.feature) > 1
        assert splits >= (0 if make is balanced_node else 10), splits

    @pytest.mark.parametrize("make", NODE_MAKERS, ids=NODE_IDS)
    def test_each_rank_has_its_value(self, make):
        rng = np.random.default_rng(71)
        for _ in range(40):
            X, y_idx, _ = make(rng)
            keys, class_bits, vals = _rank_keys(X, y_idx)
            ranks = keys >> class_bits
            assert (vals[ranks, np.arange(X.shape[1])] == X).all(), (X, ranks, vals)
            # dense ranks: equal values share one, and the next value takes the next
            for j in range(X.shape[1]):
                assert sorted(set(ranks[:, j].tolist())) == list(range(len(set(X[:, j].tolist()))))

    @pytest.mark.parametrize("n", [129, 32769], ids=["int16-keys", "int32-keys"])
    def test_one_class_ranks_fit_their_dtype(self, n):
        # one class takes no class bit, so the last key is the last rank, n - 1:
        # 2**7 or 2**15, one more than int8 or int16 holds
        keys, class_bits, vals = _rank_keys(np.arange(n * 1.0)[:, None], np.zeros(n, dtype=np.int64))
        assert class_bits == 0
        assert keys[:, 0].tolist() == list(range(n))
        assert vals[n - 1, 0] == n - 1.0

    @pytest.mark.parametrize("make", NODE_MAKERS, ids=NODE_IDS)
    def test_leaf_labels_are_the_lowest_majority_of_their_rows(self, make):
        rng = np.random.default_rng(72)
        for _ in range(20):
            X, y_idx, _ = make(rng)
            tree = DecisionTree().fit(X, y_idx)
            leaves = np.array([leaf_of(tree, x) for x in X])
            # every leaf holds a training row
            assert set(leaves.tolist()) == set(np.flatnonzero(tree.feature < 0).tolist())
            for leaf in set(leaves.tolist()):
                assert tree.label[leaf] == np.argmax(np.bincount(y_idx[leaves == leaf])), (X, y_idx, leaf)


class TestPartitionBound:
    def test_is_the_best_score_of_any_left_counts(self):
        # every node of 2-5 classes of 1-6 rows: S_l·n_r + S_r·n_l over n_l·n_r
        # for every integer left-count vector 0 <= l <= t but l = 0 and l = t
        for k in range(2, 6):
            for counts in itertools.combinations_with_replacement(range(1, 7), k):
                t, n = np.array(counts), sum(counts)
                grid = np.meshgrid(*(np.arange(c + 1) for c in counts), indexing="ij")
                left = np.stack(grid, axis=-1).reshape(-1, k)
                nl = left.sum(axis=1)
                left, nl = left[(nl > 0) & (nl < n)], nl[(nl > 0) & (nl < n)]
                p = (left ** 2).sum(axis=1) * (n - nl) + ((t - left) ** 2).sum(axis=1) * nl
                q = nl * (n - nl)
                bound_p, bound_q = _partition_bound(counts)
                assert (p * bound_q <= bound_p * q).all(), counts  # no left counts score above it
                assert (p * bound_q == bound_p * q).any(), counts  # and some score it

    def test_one_class_is_the_parent_score(self):
        assert _partition_bound((5,)) == (25, 5)


def subset_bound(counts):
    """_partition_bound by search: the highest (S_L·n_R + S_R·n_L, n_L·n_R) over
    every split of whole classes, keeping each (n_L, S_L) of a left side once;
    the last class stays right, so each split is seen once."""
    n, sq = sum(counts), sum(t * t for t in counts)
    sides = {(0, 0)}
    for t in counts[:-1]:
        sides |= {(nl + t, sl + t * t) for nl, sl in sides}
    splits = [(sl * (n - nl) + (sq - sl) * nl, nl * (n - nl)) for nl, sl in sides if nl]
    return max(splits, key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]), default=(sq, n))


class TestLargestClassBound:
    """The largest class against the rest scores as the best split of whole classes."""

    @staticmethod
    def assert_is_subset_bound(counts, bound):
        p, q = subset_bound(counts)
        assert bound[0] * q == p * bound[1], counts

    def test_every_small_node(self):
        # every multiset of 1-9 classes of 1-5 rows: 2,001 of them
        for k in range(1, 10):
            for counts in itertools.combinations_with_replacement(range(1, 6), k):
                self.assert_is_subset_bound(counts, _partition_bound(counts))

    def test_random_nodes_in_any_order_with_absent_classes(self):
        # 2-16 classes of up to 1,000 rows in all, often with ties for the largest
        rng = np.random.default_rng(27)
        for _ in range(300):
            k = int(rng.integers(2, 17))
            counts = rng.integers(1, int(rng.integers(1, 1000 // k + 1)) + 1, size=k)
            total = rng.permutation(np.concatenate([counts, np.zeros(int(rng.integers(0, 4)), int)]))
            self.assert_is_subset_bound(tuple(counts.tolist()), _partition_bound(total))


def column_score(column, total):
    """The best exact S_l/n_l + S_r/n_r over the cuts of a column whose values,
    all distinct, read the classes column in ascending order."""
    n, left, best = len(column), [0] * len(total), 0
    for nl, label in enumerate(column[:-1], 1):
        left[label] += 1
        best = max(best, Fraction(sum(x * x for x in left), nl)
                   + Fraction(sum((t - x) ** 2 for t, x in zip(total, left)), n - nl))
    return best


def block_node(rng, total, d, below, placed):
    """A node of d columns (node_from_columns): column f reads placed[f] where
    given, and otherwise a random order of the classes scoring below `below`."""
    labels = np.repeat(np.arange(len(total)), total)
    columns = []
    for f in range(d):
        column = placed.get(f)
        while column is None:
            column = rng.permutation(labels).tolist()
            column = column if column_score(column, total) < below else None
        columns.append(column)
    return node_from_columns(*columns)


# classes of 3, 4 and 5 rows: only a cut that parts the class of 5 from the
# others reaches the bound, 60/7; parting the class of 4 scores 33/4
BOUND_FIRST = [2] * 5 + [0, 1, 0, 1, 1, 0, 1]
BOUND_LAST = [0, 1, 1, 0, 1, 1, 0] + [2] * 5
PARTS_FOUR = [1] * 4 + [0, 2, 0, 2, 2, 0, 2, 2]
PARTS_FOUR_LAST = [2, 2, 0, 2, 2, 0, 0, 2] + [1] * 4
SCORES_23_3 = [1, 1, 1, 0, 1, 0, 2, 2, 2, 0, 2, 2]


class TestBlockScan:
    """Nodes of 160 columns whose best cuts sit in the first block, [0, 32), or
    past it; every other column scores below 7."""

    def test_placed_columns_score_as_named(self):
        assert Fraction(*_partition_bound((3, 4, 5))) == Fraction(60, 7)
        for column, score in ((BOUND_FIRST, Fraction(60, 7)), (BOUND_LAST, Fraction(60, 7)),
                              (PARTS_FOUR, Fraction(33, 4)), (PARTS_FOUR_LAST, Fraction(33, 4)),
                              (SCORES_23_3, Fraction(23, 3))):
            assert column_score(column, [3, 4, 5]) == score

    @pytest.mark.parametrize("placed, feature", [
        ({31: BOUND_FIRST}, 31),
        ({32: BOUND_LAST, 100: BOUND_FIRST}, 32),
        ({127: BOUND_LAST}, 127),
        ({128: BOUND_FIRST}, 128),
        ({60: SCORES_23_3, 140: PARTS_FOUR}, 140),
        ({31: BOUND_LAST, 32: BOUND_FIRST}, 31),
        ({100: PARTS_FOUR_LAST, 130: PARTS_FOUR}, 100),
    ], ids=["bound-at-31", "bound-at-32", "bound-at-127", "bound-at-128", "later-block-wins",
            "tie-at-bound-across-blocks", "tie-below-bound-across-blocks"])
    def test_matches_reference(self, placed, feature):
        rng = np.random.default_rng(feature)
        X, y_idx = block_node(rng, [3, 4, 5], 160, Fraction(7), placed)
        expected = reference_split(X.tolist(), y_idx.tolist(), 3)
        assert expected[0] == feature
        assert best_split(X, y_idx) == expected
        p = rng.permutation(len(y_idx))
        assert best_split(X[p], y_idx[p]) == expected

    def test_more_classes_than_the_cap_match_reference(self):
        # 14 classes of 2 rows: whole classes either side of a cut score 4, which
        # only column 150, sorted by class, reaches
        rng = np.random.default_rng(68)
        X, y_idx = block_node(rng, [2] * 14, 160, Fraction(4), {150: np.repeat(np.arange(14), 2).tolist()})
        expected = reference_split(X.tolist(), y_idx.tolist(), 14)
        assert expected[0] == 150
        assert best_split(X, y_idx) == expected


def many_class_columns(k):
    """Columns of k classes, class 3 of 5 rows and the others of 2, in class order
    but for class 3: first ("lead") or last ("trail"), whose cuts reach the bound,
    7, or after class 1 ("near"), whose best cut parts classes 1 and 3 from the
    rest and scores 43/7."""
    rest = [c for c in range(k) if c != 3 for _ in range(2)]
    return {"lead": [3] * 5 + rest, "trail": rest + [3] * 5, "near": rest[2:4] + [3] * 5 + rest[:2] + rest[4:]}


class TestManyClassBlockScan:
    """Nodes of 160 columns and 10-20 classes, one of them largest: only a cut that
    parts it from the rest reaches the bound, so the scan stops after the first
    block holding a column that sorts it first or last. Every other column scores
    below 5. A block's prefix sums, as wide as the block, run once per count word
    and once for S_l; the blocks are [0, 32), then through the first column that
    sorts the largest class first or last, or else [32, 160)."""

    @pytest.mark.parametrize("k, placed, feature, blocks", [
        (10, {20: "lead"}, 20, (32,)),
        (15, {31: "lead", 32: "trail"}, 31, (32,)),
        (20, {140: "near"}, 140, (32, 128)),
        (20, {140: "lead"}, 140, (32, 109)),
    ], ids=["bound-at-20", "tie-at-bound-across-blocks", "no-bound-last-block-wins", "bound-at-140"])
    def test_stops_early_and_matches_reference(self, monkeypatch, k, placed, feature, blocks):
        total = [5 if c == 3 else 2 for c in range(k)]
        columns = many_class_columns(k)
        assert Fraction(*_partition_bound(total)) == column_score(columns["lead"], total) == 7
        assert column_score(columns["trail"], total) == 7 and column_score(columns["near"], total) == Fraction(43, 7)
        rng = np.random.default_rng(k)
        X, y_idx = block_node(rng, total, 160, Fraction(5), {f: columns[name] for f, name in placed.items()})
        expected = reference_split(X.tolist(), y_idx.tolist(), k)
        assert expected[0] == feature
        running, widths = trees._running, []
        monkeypatch.setattr(trees, "_running", lambda a: widths.append(a.shape[1]) or running(a))
        for p in (np.arange(len(y_idx)), rng.permutation(len(y_idx))):
            widths.clear()
            assert best_split(X[p], y_idx[p]) == expected
            assert widths == [w for w in blocks for _ in range(count_words(y_idx) + 1)]


class TestChunkedBlockSplits:
    """One _block_splits call scores several nodes; each must get reference_split's cut."""

    @settings(max_examples=settings.default.max_examples // 4, deadline=None)  # 25; 250 under the ci profile
    @given(sizes=st.lists(st.integers(2, 16), min_size=1, max_size=6), k=st.integers(2, 40),
           d=st.integers(1, 12), values=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_chunk_matches_reference_node_by_node(self, sizes, k, d, values, seed):
        # one _block_splits call on 1-6 nodes of 2-16 rows of few values (zeros of either sign),
        # each node holding its own 2 or more of k classes, so nodes differ in size, class counts
        # and count words; ranked together with a row of class k that no node holds, as a fit
        # ranks its whole matrix, so a chunk's keys can be narrower than the class bits
        rng = np.random.default_rng(seed)
        codes = np.concatenate([rng.choice(rng.choice(k, size=min(n, int(rng.integers(2, k + 1))), replace=False),
                                           size=n) for n in sizes])
        first = np.cumsum(sizes) - sizes
        codes[first + 1] = (codes[first] + 1 + rng.integers(0, k - 1, size=len(sizes))) % k  # 2 classes or more
        codes = np.append(codes, k)
        X = rng.integers(0, values, size=(len(codes), d)) * rng.choice([-1.0, 1.0], size=(len(codes), d))
        keys, class_bits, vals = _rank_keys(X, codes)
        totals = np.stack([np.bincount(codes[a:a + n], minlength=k + 1) for a, n in zip(first, sizes)])
        p, q, f, lo, hi = _block_splits(keys[:-1], class_bits, np.array(sizes), totals)
        threshold, found = _thresholds(vals, class_bits, f, lo, hi), []
        for j, (a, n) in enumerate(zip(first.tolist(), sizes)):
            found.append(reference_split(X[a:a + n].tolist(), codes[a:a + n].tolist(), k + 1))
            beats = int(p[j]) * n > int(totals[j] @ totals[j]) * int(q[j])  # p / q > S_t / n: a cut is taken
            assert beats == (found[j] is not None), (j, found[j])
            if found[j]:
                assert (int(f[j]), float(threshold[j])) == found[j], j
        per_word = (63 - int(max(t @ t for t in totals)).bit_length()) // int(totals.max()).bit_length()
        event(f"{len(sizes)} nodes, {-(-(k + 1) // per_word)} count words")
        event("a node without a split" if None in found else "every node splits")


@pytest.fixture
def blocks(monkeypatch):
    """(width, class counts of each node) of every _block_splits call in the test, in order."""
    seen, block_splits = [], trees._block_splits
    monkeypatch.setattr(trees, "_block_splits", lambda keys, class_bits, sizes, totals: seen.append(
        (keys.shape[1], totals.tolist())) or block_splits(keys, class_bits, sizes, totals))
    return seen


@pytest.fixture
def chunked(monkeypatch):
    """(each node's width, each node's class counts) of every _chunk_splits call in the test."""
    seen, chunk_splits = [], trees._chunk_splits
    monkeypatch.setattr(trees, "_chunk_splits", lambda *args: seen.append(
        (args[-1].tolist(), args[-2].tolist())) or chunk_splits(*args))  # (..., totals, widths)
    return seen


@pytest.fixture
def widths(monkeypatch):
    """The width of every prefix sum (trees._running) run in the test, in order."""
    running, seen = trees._running, []
    monkeypatch.setattr(trees, "_running", lambda a: seen.append(a.shape[1]) or running(a))
    return seen


def parting_node(rng):
    """A node of 33-300 columns of small integers (many ties) and 2-12 classes, some of
    whose columns give one class, mostly a largest one, the lowest values or the highest;
    in one such column in three, the class's edge value may be another class's too."""
    n, d, k = int(rng.integers(4, 17)), int(rng.integers(33, 301)), int(rng.integers(2, 13))
    y_idx = rng.integers(0, k, size=n)
    y_idx[:2] = rng.choice(k, size=2, replace=False)
    X = rng.integers(0, int(rng.integers(2, 8)), size=(n, d)) * 1.0
    counts = np.bincount(y_idx)
    for f in rng.choice(d, size=int(rng.integers(0, 4)), replace=False):
        c = rng.choice(np.flatnonzero(counts == counts.max())) if rng.random() < 0.8 else rng.choice(y_idx)
        rest = rng.integers(2 if rng.random() < 1 / 3 else 3, 6, size=n)
        X[:, f] = np.where(y_idx == c, rng.integers(0, 3, size=n), rest) * rng.choice([-1.0, 1.0])
    return X, y_idx, k


class TestPartingStop:
    """Past [0, 32), the scan stops after the first column whose ranks put every row of
    the largest class (the lowest such class code) below, or above, every other row:
    a cut there reaches the bound, and none after it can score higher."""

    @pytest.mark.parametrize("total, below, placed, tie, feature, blocks", [
        ([3, 4, 5], 7, {60: BOUND_FIRST, 140: BOUND_LAST}, (60, 5, 4), 140, (32, 109)),
        ([3, 4, 5], 7, {60: BOUND_LAST, 140: BOUND_FIRST}, (60, 7, 6), 140, (32, 109)),
        ([5, 5, 3, 2], 7, {60: [1] * 5 + [0, 2, 0, 3, 0, 2, 0, 3, 2, 0],
                           100: [0] * 5 + [1, 2, 1, 3, 1, 2, 1, 3, 2, 1]}, None, 60, (32, 69)),
        ([3, 3, 3, 3], 5, {50: [1, 0, 1, 0, 1, 0, 2, 3, 2, 3, 2, 3], 120: [0] * 3 + [1, 2, 3] * 3}, None, 50, (32, 89)),
    ], ids=["tie-at-top-edge", "tie-at-bottom-edge", "tied-largest-parted-first", "two-class-partition-first"])
    def test_directed_nodes_match_reference(self, widths, total, below, placed, tie, feature, blocks):
        # a tie (column, value, new value) moves the edge row of the largest class onto
        # its neighbour's value: that column no longer parts the class, so the scan goes on
        rng = np.random.default_rng(feature + len(total))
        X, y_idx = block_node(rng, total, 160, Fraction(below), placed)
        if tie:
            f, value, new = tie
            X[X[:, f] == value, f] = new
        for column in placed.values():
            assert column_score(column, total) == Fraction(*_partition_bound(total))
        expected = reference_split(X.tolist(), y_idx.tolist(), len(total))
        assert expected[0] == feature
        for p in (np.arange(len(y_idx)), rng.permutation(len(y_idx))):
            widths.clear()
            assert best_split(X[p], y_idx[p]) == expected
            assert widths == [w for w in blocks for _ in range(count_words(y_idx) + 1)]

    def test_random_wide_nodes_match_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(80):
            X, y_idx, n_classes = parting_node(rng)
            assert best_split(X, y_idx) == reference_split(X.tolist(), y_idx.tolist(), n_classes), (X, y_idx)

    def test_wide_ensemble_scans_a_pinned_width(self, blocks, chunked):
        # a 10-tree fit at the interaction-wide shape (96 x 1080): per node and block,
        # the columns the node needs, each taking a prefix sum per count word and one
        # for S_l as a scan of the node alone would; blocks ending at the fixed edges
        # 32 and 128 instead sum to 77,088 columns. A chunk of continuations scores each
        # of its nodes as wide as its widest, so the calls themselves score 60,224
        X, y = harness_training_split(**PINNED_MACHINES[1][0])
        BaggedTreeEnsemble(n_trees=10, seed=11).fit(X, y)
        assert sum(w * (words(t) + 1) for widths, totals in chunked for w, t in zip(widths, totals)) == 59_350
        assert sum(width * (words(total) + 1) for width, totals in blocks for total in totals) == 60_224


class TestEnsembleFit:
    def test_same_seed_identical_predictions_and_model(self):
        rng = np.random.default_rng(51)
        X, y = blobs(rng, THREE_BLOBS, 12)
        probe = rng.normal(size=(20, 2)) * 5.0
        m1 = BaggedTreeEnsemble(n_trees=25, seed=42).fit(X, y)
        m2 = BaggedTreeEnsemble(n_trees=25, seed=42).fit(X, y)
        assert m1.predict(probe) == m2.predict(probe)
        assert dumps_model(m1) == dumps_model(m2)

    def test_different_seed_differs_somewhere(self):
        rng = np.random.default_rng(52)
        X, y = blobs(rng, THREE_BLOBS, 12)
        m1 = BaggedTreeEnsemble(n_trees=10, seed=1).fit(X, y)
        m2 = BaggedTreeEnsemble(n_trees=10, seed=2).fit(X, y)
        assert dumps_model(m1) != dumps_model(m2)

    def test_pre_ranked_trees_match_trees_fit_on_their_rows(self):
        # the ensemble ranks X once; DecisionTree.fit ranks only a tree's rows
        rng = np.random.default_rng(67)
        X, y = blobs(rng, THREE_BLOBS, 12, std=3.0)
        X = np.round(X)  # ties, and zeros of either sign
        X = np.where(X == 0, rng.choice([-0.0, 0.0], size=X.shape), X)
        drawn = []

        class Recording(BaggedTreeEnsemble):
            def _draw_indices(self, n_samples, size):
                drawn.extend(super()._draw_indices(n_samples, size))
                return drawn

        model = Recording(n_trees=15, bootstrap_fraction=0.6, seed=9).fit(X, y)
        codes = np.array([model.classes_.index(v) for v in y])
        assert len(drawn) == len(model.trees_) == 15
        for tree, idx in zip(model.trees_, drawn):
            alone = DecisionTree().fit(X[idx], codes[idx])
            for name in ("feature", "threshold", "children", "label"):
                assert getattr(tree, name).tobytes() == getattr(alone, name).tobytes(), name
        assert max(len(tree.feature) for tree in model.trees_) > 5

    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    def test_draws_are_each_trees_own_stream(self, seed):
        # one array for every tree, each row the draw a per-tree generator made
        draws = BaggedTreeEnsemble(n_trees=7, seed=seed)._draw_indices(50, 15)
        assert draws.shape == (7, 15) and draws.dtype == np.int64
        for t, row in enumerate(draws):
            tree_seed = PortableRNG(seed).spawn(t).seed
            assert row.tolist() == [output(tree_seed, k) % 50 for k in range(1, 16)]

    def test_identity_hook_single_tree_matches_tree_accuracy(self):
        rng = np.random.default_rng(53)
        X, y = blobs(rng, THREE_BLOBS, 10, std=4.0)
        model = IdentitySampled(n_trees=1, bootstrap_fraction=1.0, seed=0).fit(X, y)
        tree = model.trees_[0]
        y_idx = np.array([model.classes_.index(v) for v in y])
        assert model.score(X, y) == np.mean(tree.predict(X) == y_idx)

    def test_blob_holdout_accuracy(self):
        rng = np.random.default_rng(54)
        X, y = blobs(rng, THREE_BLOBS, 30)
        Xt, yt = blobs(rng, THREE_BLOBS, 20)
        model = BaggedTreeEnsemble(seed=7).fit(X, y)
        assert model.score(Xt, yt) >= 0.95

    def test_single_class_rejected(self):
        with pytest.raises(TrainingDegenerateError):
            BaggedTreeEnsemble().fit(np.zeros((4, 2)), ["A"] * 4)

    def test_empty_bootstrap_rejected(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(InvalidBootstrapError):
            BaggedTreeEnsemble(bootstrap_fraction=0.3).fit(X, ["A", "B"])

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            BaggedTreeEnsemble(bootstrap_fraction=1.5).fit(np.zeros((4, 1)), ["A", "A", "B", "B"])


def reference_tree(X, y_idx, n_classes):
    """The (feature, threshold, left, right, label) rows of the tree reference_split
    grows on X node by node, numbered in pre-order, left subtree first; a leaf is a
    node of one class or none that a cut splits, labelled with its lowest majority class."""
    table, stack = [], [(list(range(len(X))), None, 0)]
    while stack:
        rows, parent, side = stack.pop()
        if parent is not None:
            table[parent][2 + side] = len(table)
        labels = [y_idx[i] for i in rows]
        split = reference_split([X[i] for i in rows], labels, n_classes) if len(set(labels)) > 1 else None
        if split is None:
            counts = [labels.count(c) for c in range(n_classes)]
            table.append([-1, 0.0, -1, -1, counts.index(max(counts))])
            continue
        f, threshold = split
        table.append([f, threshold, -1, -1, -1])
        stack.append(([i for i in rows if X[i][f] > threshold], len(table) - 1, 1))
        stack.append(([i for i in rows if X[i][f] <= threshold], len(table) - 1, 0))
    return table


def forest_on(X, codes, rows):
    """The ensemble whose tree t grows on rows[t] of X, with class codes 0..k-1 as labels."""
    class Drawn(BaggedTreeEnsemble):
        def _draw_indices(self, n_samples, size):
            return np.asarray(rows)

    model = Drawn(n_trees=len(rows)).fit(X, [f"{c:02d}" for c in codes])  # labels in code order
    assert model.classes_ == [f"{c:02d}" for c in range(max(codes) + 1)]
    return model


def assert_same_tree(tree, expected):
    for name in ("feature", "threshold", "children", "label"):
        assert getattr(tree, name).tobytes() == getattr(expected, name).tobytes(), name


def float_tied_node():
    """(X, y_idx) of 7,098 rows of 12 classes; each column holds 0s and 1s, so its one cut
    leaves fixed class counts on the left. Column 1's score is exactly higher than column
    0's, but both round to the same float, as distinct scores can from about 2,300 rows
    on. Column 2, a copy of column 1, ties it exactly. The best split is (1, 0.5)."""
    totals = 300 + 53 * np.arange(12)
    lefts = [[142, 257, 185, 308, 306, 270, 196, 194, 200, 231, 234, 478],
             [253, 268, 227, 358, 371, 216, 283, 267, 286, 362, 288, 320]]
    lefts.append(lefts[1])
    n = int(totals.sum())

    def score(left):  # S_l/n_l + S_r/n_r
        nl = sum(left)
        right = (totals - left).tolist()
        return Fraction(sum(c * c for c in left), nl) + Fraction(sum(c * c for c in right), n - nl)

    assert score(lefts[0]) < score(lefts[1]) and float(score(lefts[0])) == float(score(lefts[1]))
    X = np.column_stack([np.concatenate([np.arange(t) >= c for t, c in zip(totals, left)]) for left in lefts])
    return X * 1.0, np.repeat(np.arange(12), totals)


class TestLevelGrower:
    """_grow grows the trees of a fit together, a level at a time, and scores the
    first blocks of a level's nodes in chunks: every tree must be the one the plain-
    Python reference_split grows node by node on that tree's rows, byte for byte."""

    def test_level_mixing_one_and_multi_word_nodes(self, blocks):
        # 15 classes: scored alone, a node whose largest class has 8 rows or more
        # takes two count words and one of at most 7 rows per class takes one; a
        # chunk sizes its fields from its largest node, so it holds both in two words
        rng = np.random.default_rng(80)
        codes = np.concatenate([np.zeros(60, dtype=np.int64), np.repeat(np.arange(1, 15), 4)])
        X = rng.integers(0, 6, size=(len(codes), 3)) + 3.0 * (codes == 0)[:, None]
        rows = rng.integers(0, len(codes), size=(4, 110))
        model = forest_on(X, codes, rows)
        for tree, idx in zip(model.trees_, rows):
            assert_same_tree(tree, DecisionTree().set_nodes(reference_tree(X[idx].tolist(), codes[idx].tolist(), 15)))
        assert any(len(c) > 1 and max(map(words, c)) > 1 and min(map(words, c)) == 1 for _, c in blocks)

    def test_chunk_edges_large_nodes_and_unsplittable_nodes_match_reference(self, monkeypatch, blocks):
        # 270-row roots, each a chunk of its own at 256 rows; chunks of 2 rows (a node
        # each) and of 16; zeros of either sign; repeated rows of other classes, in
        # nodes no cut splits; and a tree of one class, a leaf
        rng = np.random.default_rng(81)
        codes = rng.integers(0, 3, size=270)
        X = np.round(rng.normal(size=(270, 2)) + codes[:, None])
        X = np.where(X == 0, rng.choice([-0.0, 0.0], size=X.shape), X)
        X[200:230] = X[:30]
        rows = np.stack([*rng.integers(0, 270, size=(3, 270)), np.resize(np.flatnonzero(codes == 1), 270)])
        expected = [DecisionTree().set_nodes(reference_tree(X[idx].tolist(), codes[idx].tolist(), 3)) for idx in rows]
        for chunk in (2, 16, 256):
            monkeypatch.setattr(trees, "_CHUNK_ROWS", chunk)
            blocks.clear()
            model = forest_on(X, codes, rows)
            for tree, want in zip(model.trees_, expected):
                assert_same_tree(tree, want)
            assert all(len(c) == 1 or np.sum(c) <= chunk for _, c in blocks)
            assert chunk == 2 or any(len(c) > 1 for _, c in blocks)
        assert len(model.trees_[3].feature) == 1
        assert any(sum(c[0]) > 256 for _, c in blocks)  # a root scored alone
        leaves = [leaf_of(model.trees_[0], x) for x in X[rows[0]]]
        assert any(len(set(codes[rows[0]][np.array(leaves) == leaf].tolist())) > 1 for leaf in set(leaves))

    def test_large_nodes_in_one_chunk_compare_float_tied_cuts_exactly(self, monkeypatch, blocks):
        # two roots of float_tied_node's rows, scored in one chunk: each node's own
        # size, not its chunk's, decides that its float ties are compared exactly
        X, y_idx = float_tied_node()
        monkeypatch.setattr(trees, "_CHUNK_ROWS", 2 * len(X))
        model = forest_on(X, y_idx, np.stack([np.arange(len(X)), np.arange(len(X))[::-1]]))
        assert [(t.feature[0], t.threshold[0]) for t in model.trees_] == [(1, 0.5), (1, 0.5)]
        assert [sum(c) for c in blocks[0][1]] == [len(X), len(X)]

    def test_chain_deeper_than_the_recursion_limit_beside_another_tree(self):
        # alternating labels on a line, every split peeling off one end row, grown
        # together with a bootstrap of the same rows
        X, codes = np.arange(1500.0)[:, None], np.arange(1500) % 2
        rows = np.stack([np.arange(1500), np.random.default_rng(82).integers(0, 1500, size=1500)])
        model = forest_on(X, codes, rows)
        assert depth(model.trees_[0]) == 1499
        assert np.array_equal(model.trees_[0].predict(X), codes)
        for tree, idx in zip(model.trees_, rows):
            assert_same_tree(tree, DecisionTree().fit(X[idx], codes[idx]))

    def test_fit_memory_is_bounded(self):
        # a 100-tree fit at the interaction-wide shape (96 x 1080): a level holds its
        # rows as indices, where copies of their keys would take 6.3 MB at the roots
        X, y = harness_training_split(**PINNED_MACHINES[1][0])
        tracemalloc.start()
        try:
            BaggedTreeEnsemble(seed=14).fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_chunk_of_continuations_keeps_ties_with_the_first_block(self, blocks, chunked):
        # two roots of 12 rows (classes of 3, 4 and 5) and 160 columns, every unplaced one
        # scoring below 7, in one chunk; neither reaches the bound, 60/7, in [0, 32). Node A
        # has no parting column, so it scans [32, 160); its columns 10 and 60 score 23/3, an
        # exact tie that the first block's column keeps. Node B parts the class of 5 at
        # column 50, a width of 19 padded to A's 128, and that cut beats its first block
        # strictly; column 100, in B's padding, ties it at the bound, and 50 keeps it
        rng = np.random.default_rng(83)
        a = block_node(rng, [3, 4, 5], 160, Fraction(7), {10: SCORES_23_3, 60: SCORES_23_3})
        b = block_node(rng, [3, 4, 5], 160, Fraction(7), {50: BOUND_FIRST, 100: BOUND_LAST})
        X, codes = np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1]])
        rows = np.stack([np.arange(12), np.arange(12, 24)])
        model = forest_on(X, codes, rows)
        for tree, idx in zip(model.trees_, rows):
            assert_same_tree(tree, DecisionTree().set_nodes(reference_tree(X[idx].tolist(), codes[idx].tolist(), 3)))
        assert [int(tree.feature[0]) for tree in model.trees_] == [10, 50]
        assert chunked[1] == ([19, 128], [[3, 4, 5], [3, 4, 5]])
        assert blocks[1] == (128, [[3, 4, 5], [3, 4, 5]])

    def test_chunk_of_keys_narrower_than_the_class_bits(self):
        # classes 0-2 take two class bits; roots of rows of classes 0 and 1 alone, all at one
        # value, are scored in one chunk with keys 0 and 1. Each node's keys must be lifted
        # past the class bits as well, or a lifted class 1 reads as class 3: a spurious cut,
        # or a count-table index past its end
        X, codes = np.array([[0.0], [0.0], [1.0], [1.0], [1.0], [1.0]]), np.array([0, 1, 2, 2, 2, 2])
        for rows in ([0, 1], [0, 1, 1], [1, 0, 0]):
            model = forest_on(X, codes, [rows] * 4)
            want = DecisionTree().set_nodes(reference_tree(X[rows].tolist(), codes[rows].tolist(), 3))
            for tree in model.trees_:
                assert_same_tree(tree, want)

    @settings(max_examples=settings.default.max_examples // 2, deadline=None)  # 50; 500 under the ci profile
    @given(n=st.integers(2, 24), d=st.integers(33, 80), k=st.integers(1, 20), values=st.integers(1, 4),
           parted=st.integers(0, 6), n_trees=st.integers(1, 5), chunk=st.sampled_from([2, 16, 256]),
           seed=st.integers(0, 2**32 - 1))
    def test_grower_matches_reference_past_the_first_block(self, n, d, k, values, parted, n_trees, chunk, seed):
        # bootstraps of n rows of 33-80 columns of few values, zeros of either sign, a row
        # repeated under another class, and columns whose values part one class from the
        # rest past column 32, so that nodes go on past it and stop at different widths
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, k, size=n)
        X = rng.integers(0, values, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
        for f in rng.choice(np.arange(32, d), size=min(parted, d - 32), replace=False):
            X[:, f] = np.where(codes == rng.choice(codes), 0, rng.integers(1, 3, size=n)) * rng.choice([-1.0, 1.0])
        X[rng.integers(0, n)] = X[rng.integers(0, n)]
        rows = rng.integers(0, n, size=(n_trees, n))
        calls = []  # node widths of each _chunk_splits call: a level's first blocks, then its continuations
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_CHUNK_ROWS", chunk)
            chunk_splits = trees._chunk_splits
            patch.setattr(trees, "_chunk_splits", lambda *args: calls.append(args[-1].tolist()) or chunk_splits(*args))
            keys, class_bits, vals = _rank_keys(X, codes)
            tables = _grow(keys, class_bits, vals, rows)
        for table, idx in zip(tables, rows):
            want = reference_tree(X[idx].tolist(), codes[idx].tolist(), k)
            assert_same_tree(DecisionTree().set_nodes(table), DecisionTree().set_nodes(want))
        target(sum(map(len, calls[1::2])))
        event("continued" if any(calls[1::2]) else "first block only")
        event(f"chunk {chunk}: a level's continuations of unequal widths: {any(len(set(w)) > 1 for w in calls[1::2])}")


def per_tree_tally(model, X):
    """vote_counts a tree at a time: each tree's predict adds one vote per row."""
    tally = np.zeros((len(X), len(model.classes_)), dtype=np.int64)
    for tree in model.trees_:
        tally[np.arange(len(X)), tree.predict(X)] += 1
    return tally


class TestEnsemblePredict:
    def test_vote_counts_sum_to_tree_count(self):
        rng = np.random.default_rng(55)
        X, y = blobs(rng, THREE_BLOBS, 12)
        model = BaggedTreeEnsemble(seed=3).fit(X, y)  # default 100 trees
        votes = model.vote_counts(rng.normal(size=(15, 2)) * 5.0)
        assert (votes.sum(axis=1) == 100).all()

    def test_unanimous_point_gets_full_count(self):
        rng = np.random.default_rng(56)
        X, y = blobs(rng, THREE_BLOBS, 12)
        # identical training sets make all 40 trees identical, hence unanimous
        model = IdentitySampled(n_trees=40, seed=4).fit(X, y)
        point = np.array([[0.0, 10.0]])  # deep inside class c
        assert model.predict(point) == ["c"]
        assert model.vote_counts(point)[0, model.classes_.index("c")] == 40

    def test_majority_matches_per_tree_recount(self):
        rng = np.random.default_rng(57)
        X, y = blobs(rng, THREE_BLOBS, 10, std=3.0)  # noisy: votes actually split
        model = BaggedTreeEnsemble(n_trees=30, seed=5).fit(X, y)
        probe = rng.normal(loc=3.0, size=(40, 2)) * 3.0
        votes = model.vote_counts(probe)
        tally = np.zeros_like(votes)
        for tree in model.trees_:
            pred = tree.predict(probe)
            for i, cls in enumerate(pred):
                tally[i, cls] += 1
        assert np.array_equal(votes, tally)
        preds = model.predict(probe)
        for row, pred in zip(tally, preds):
            assert model.classes_[int(np.argmax(row))] == pred

    def test_predict_matches_per_row_walk(self):
        rng = np.random.default_rng(63)
        X, y = blobs(rng, THREE_BLOBS, 12, std=3.0)
        model = BaggedTreeEnsemble(n_trees=20, seed=8).fit(X, y)
        # a threshold itself, in both columns, must take its split's <= side
        thresholds = np.concatenate([t.threshold for t in model.trees_])
        probe = np.vstack([X, rng.normal(size=(30, 2)) * 5.0, np.column_stack([thresholds] * 2)])
        tally = np.zeros((len(probe), 3), dtype=np.int64)
        for tree in model.trees_:
            walked = np.array([walk(tree, row) for row in probe])
            assert np.array_equal(tree.predict(probe), walked)
            tally[np.arange(len(probe)), walked] += 1
        assert np.array_equal(model.vote_counts(probe), tally)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_votes_match_per_tree_tally_at_a_chunk_edge(self, extra):
        # chunk - 1, chunk and chunk + 1 rows, some of them set at thresholds
        rng = np.random.default_rng(64)
        X, y = blobs(rng, THREE_BLOBS, 10, std=3.0)
        model = BaggedTreeEnsemble(seed=10).fit(X, y)
        probe = rng.normal(size=(trees._PAIRS // 100 + extra, 2)) * 5.0
        thresholds = np.concatenate([t.threshold[t.feature >= 0] for t in model.trees_])
        probe[:len(thresholds), 1] = thresholds[:len(probe)]
        assert np.array_equal(model.vote_counts(probe), per_tree_tally(model, probe))

    def test_one_leaf_trees_vote_their_label(self):
        rng = np.random.default_rng(65)
        X, y = blobs(rng, THREE_BLOBS, 10, std=3.0)
        model = BaggedTreeEnsemble(n_trees=10, seed=11).fit(X, y)
        for at, label in ((0, 2), (5, 1), (12, 0)):  # first, inside, last
            model.trees_.insert(at, DecisionTree().set_nodes([[-1, 0.0, -1, -1, label]]))
        probe = rng.normal(size=(25, 2)) * 5.0
        votes = model.vote_counts(probe)
        assert np.array_equal(votes, per_tree_tally(model, probe))
        assert (votes.sum(axis=1) == 13).all() and (votes >= 1).all()

    def test_no_rows(self):
        rng = np.random.default_rng(66)
        X, y = blobs(rng, THREE_BLOBS, 10)
        model = BaggedTreeEnsemble(n_trees=10, seed=12).fit(X, y)
        assert model.vote_counts(np.empty((0, 2))).shape == (0, 3)
        assert model.predict(np.empty((0, 2))) == []

    def test_loaded_model_votes_match_per_tree_tally(self):
        rng = np.random.default_rng(67)
        X, y = blobs(rng, THREE_BLOBS, 10, std=3.0)
        model = BaggedTreeEnsemble(n_trees=30, seed=13).fit(X, y)
        loaded = loads_model(dumps_model(model))
        probe = np.vstack([X, rng.normal(size=(40, 2)) * 5.0])
        votes = loaded.vote_counts(probe)
        assert np.array_equal(votes, per_tree_tally(loaded, probe))
        assert np.array_equal(votes, model.vote_counts(probe))

    def test_vote_memory_is_bounded(self):
        # 2,000,000 (row, tree) pairs, descended a chunk at a time
        rng = np.random.default_rng(68)
        X, y = rng.normal(size=(300, 4)), rng.choice(["a", "b", "c"], size=300)
        model = BaggedTreeEnsemble(seed=14).fit(X, y)
        probe = rng.normal(size=(20_000, 4))
        tracemalloc.start()
        try:
            votes = model.vote_counts(probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (votes.sum(axis=1) == 100).all()
        assert peak <= 4 * 2**20

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(58)
        X, y = blobs(rng, THREE_BLOBS, 5)
        model = BaggedTreeEnsemble(n_trees=5, seed=0).fit(X, y)
        with pytest.raises(DimensionMismatchError):
            model.predict(np.zeros((1, 7)))

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(59)
        X, y = blobs(rng, THREE_BLOBS, 10)
        probe = rng.normal(size=(20, 2)) * 5.0
        rename = {"a": "q", "b": "a", "c": "b"}
        base = BaggedTreeEnsemble(n_trees=20, seed=6).fit(X, y).predict(probe)
        renamed = BaggedTreeEnsemble(n_trees=20, seed=6).fit(X, [rename[v] for v in y]).predict(probe)
        assert [rename[v] for v in base] == renamed


# SHA-256 of dumps_model for ensembles trained through the harness. A change
# here means a seed no longer reproduces the model file it used to: a split,
# threshold, tie-break or bootstrap draw moved.
PINNED_ENSEMBLES = [
    (
        ExperimentConfig(
            classes=("waving", "punching", "push", "clap", "zoom_in"),
            samples_per_class=10, frames=12, seed=11, noise_std=0.08,
            feature_kind="single", classifier="edt",
            params={"n_trees": 12, "bootstrap_fraction": 0.7},
        ),
        "7708eb7016e16062dd36d164cd3ee0bb61a925ff5f0bdd61418f96d0d101b5e6",
    ),
    (
        ExperimentConfig(
            classes=("approaching", "departing", "exchanging", "hugging"),
            samples_per_class=10, frames=12, seed=12, noise_std=0.08,
            feature_kind="two_person", classifier="edt",
            params={"n_trees": 12, "bootstrap_fraction": 0.7},
        ),
        "2a8afdc7e801798ba3b4218253cd8c7071c995b8c49459323cf61f8f502de4d0",
    ),
    # the default 100-tree ensemble at the benchmark's two workload shapes
    (
        ExperimentConfig(**PINNED_MACHINES[0][0], classifier="edt"),
        "eea80a06bede69a88ca56556aff1a0457ad8aebc1949a94a7fd81988c9c34449",
    ),
    (
        ExperimentConfig(**PINNED_MACHINES[1][0], classifier="edt"),
        "94aaa14bc48d1bfa9e01df7dd864992591c5a5c6861d8d476e41f7db58585bd2",
    ),
]


@pytest.mark.parametrize("config, digest", PINNED_ENSEMBLES,
                         ids=["single", "two_person", "paper-single", "interaction-wide"])
def test_trained_ensemble_model_file_is_pinned(config, digest):
    train, _ = stratified_split(build_dataset(config), config.split_fraction, config.seed)
    model = make_classifier(config).fit(train.vectors, train.labels)
    assert hashlib.sha256(dumps_model(model).encode("ascii")).hexdigest() == digest

