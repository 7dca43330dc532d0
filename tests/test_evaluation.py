import math

import numpy as np
import pytest

from skelgest.evaluation import (
    BinaryCounts,
    ConfusionMatrix,
    binary_reduce,
    chi2_isf,
    chi2_sf,
    class_metrics,
    confusion,
    evaluate,
    friedman,
    friedman_table,
    macro_average,
    rank_algorithms,
)

# score grid ordering four algorithms into the reference rank pattern
FOUR_ALGO_SCORES = [
    [0.9, 0.9, 0.9],
    [0.5, 0.5, 0.5],
    [0.7, 0.7, 0.6],
    [0.6, 0.6, 0.7],
]
FOUR_ALGO_RANKS = [[1, 1, 1], [4, 4, 4], [2, 2, 3], [3, 3, 2]]

# upper points of the chi-squared distribution as printed in the published
# tables: {tail probability: {degrees of freedom: point}}
PUBLISHED_CHI2 = {
    0.05: {
        1: 3.841, 2: 5.991, 3: 7.815, 4: 9.488, 5: 11.070,
        6: 12.592, 7: 14.067, 8: 15.507, 9: 16.919, 10: 18.307,
        11: 19.675, 29: 42.557,
    },
    0.01: {1: 6.635, 2: 9.210, 3: 11.345, 5: 15.086, 10: 23.209, 20: 37.566, 30: 50.892},
    0.001: {1: 10.828, 2: 13.816, 3: 16.266, 5: 20.515, 10: 29.588, 20: 45.315, 30: 59.703},
}


def series_chi2_sf(x, df):
    """1 - P(df/2, x/2) from the power series of the regularized lower
    incomplete gamma, P(a, z) = z^a e^-z sum_n z^n / Gamma(a + n + 1)."""
    a, z = df / 2.0, x / 2.0
    terms = (math.exp((a + n) * math.log(z) - z - math.lgamma(a + n + 1)) for n in range(400))
    return 1.0 - math.fsum(terms)


def random_confusion(rng, k=4, high=20):
    return ConfusionMatrix(
        [f"c{i}" for i in range(k)], rng.integers(0, high, size=(k, k))
    )


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        y = ["a", "b", "c", "a", "b", "c"]
        cm = confusion(y, y)
        assert np.array_equal(cm.counts, 2 * np.eye(3, dtype=int))

    def test_everything_predicted_as_one_class(self):
        cm = confusion(["a", "b", "c"], ["a", "a", "a"])
        assert cm.counts[:, 0].tolist() == [1, 1, 1]
        assert cm.counts[:, 1:].sum() == 0

    def test_random_case_against_pairwise_tally(self):
        rng = np.random.default_rng(80)
        labels = [f"k{i}" for i in range(5)]
        y_true = [labels[i] for i in rng.integers(0, 5, size=200)]
        y_pred = [labels[i] for i in rng.integers(0, 5, size=200)]
        cm = confusion(y_true, y_pred, labels)
        for i, ti in enumerate(labels):
            for j, pj in enumerate(labels):
                want = sum(1 for t, p in zip(y_true, y_pred) if t == ti and p == pj)
                assert cm.counts[i, j] == want

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(["a"], ["a", "b"])

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            confusion(["a"], ["z"], labels=["a", "b"])

    def test_repeated_label_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ConfusionMatrix(["a", "a", "b"], np.eye(3))
        with pytest.raises(ValueError, match="distinct"):
            confusion(["a", "b"], ["a", "b"], labels=["a", "a", "b"])
        with pytest.raises(ValueError, match="distinct"):
            evaluate(["a", "b"], ["a", "b"], labels=["a", "a", "b"])

    def test_no_samples_and_no_labels_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [])

    def test_row_sums_are_class_support(self):
        y_true = ["a"] * 7 + ["b"] * 3
        y_pred = ["a", "b"] * 5
        cm = confusion(y_true, y_pred)
        assert cm.counts.sum() == 10
        assert cm.counts[0].sum() == 7 and cm.counts[1].sum() == 3


class TestBinaryReduce:
    def test_two_class_direct_read(self):
        cm = ConfusionMatrix(["x", "y"], [[5, 1], [2, 4]])
        b = binary_reduce(cm, "x")
        assert (b.tp, b.fn, b.fp, b.tn) == (5, 1, 2, 4)

    def test_diagonal_matrix_has_no_errors(self):
        cm = ConfusionMatrix(["a", "b", "c"], np.diag([3, 4, 5]))
        for lab in cm.labels:
            b = binary_reduce(cm, lab)
            assert b.fp == 0 and b.fn == 0

    def test_counts_sum_to_total_on_random_matrices(self):
        rng = np.random.default_rng(81)
        for _ in range(100):
            cm = random_confusion(rng)
            for lab in cm.labels:
                assert binary_reduce(cm, lab).total == cm.total


class TestClassMetrics:
    def test_worked_example(self):
        m = class_metrics(BinaryCounts(tp=5, fn=1, fp=2, tn=4))
        assert m.precision == pytest.approx(5 / 7, abs=1e-9)
        assert m.recall == pytest.approx(5 / 6, abs=1e-9)
        assert m.accuracy == pytest.approx(0.75, abs=1e-9)
        assert m.error_rate == pytest.approx(0.25, abs=1e-9)
        assert m.f1 == pytest.approx(10 / 13, abs=1e-9)
        assert m.specificity == pytest.approx(2 / 3, abs=1e-9)
        assert m.npv == pytest.approx(4 / 5, abs=1e-9)
        assert not m.degenerate

    def test_all_true_positives(self):
        m = class_metrics(BinaryCounts(tp=9, fn=0, fp=0, tn=0))
        assert (m.precision, m.recall, m.accuracy, m.f1) == (1.0, 1.0, 1.0, 1.0)
        assert m.error_rate == 0.0

    def test_zero_over_zero_convention(self):
        m = class_metrics(BinaryCounts(tp=0, fn=0, fp=0, tn=5))
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
        assert m.degenerate

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            class_metrics(BinaryCounts(0, 0, 0, 0))

    def test_accuracy_plus_error_is_exactly_one(self):
        rng = np.random.default_rng(82)
        for _ in range(100):
            cm = random_confusion(rng)
            if cm.total == 0:
                continue
            for lab in cm.labels:
                m = class_metrics(binary_reduce(cm, lab))
                assert m.accuracy + m.error_rate == 1.0

    def test_alias_names_are_the_same_values(self):
        m = class_metrics(BinaryCounts(3, 2, 1, 4))
        assert m.ppv is m.precision
        assert m.sensitivity is m.recall

    def test_f1_equals_precision_when_balanced(self):
        m = class_metrics(BinaryCounts(tp=6, fn=2, fp=2, tn=5))
        assert m.precision == m.recall
        assert abs(m.f1 - m.precision) < 1e-12


class TestMacro:
    def test_unweighted_mean(self):
        cm = ConfusionMatrix(["a", "b"], [[5, 1], [2, 4]])
        per = [class_metrics(binary_reduce(cm, lab)) for lab in cm.labels]
        macro = macro_average(per)
        assert macro.accuracy == pytest.approx((per[0].accuracy + per[1].accuracy) / 2)

    def test_report_round_trip(self):
        y_true = ["a", "a", "b", "b", "c", "c"]
        y_pred = ["a", "b", "b", "b", "c", "a"]
        report = evaluate(y_true, y_pred)
        assert set(report.per_class) == {"a", "b", "c"}
        csv = report.to_csv().splitlines()
        assert csv[0] == "class,precision,recall,specificity,npv,accuracy,error_rate,f1"
        assert len(csv) == 5
        assert report.summary() == evaluate(y_true, y_pred).summary()


class TestRanking:
    def test_reference_rank_pattern(self):
        ranks = rank_algorithms(FOUR_ALGO_SCORES)
        assert ranks.tolist() == FOUR_ALGO_RANKS

    def test_ties_share_average_rank(self):
        ranks = rank_algorithms([[0.8], [0.8]])
        assert ranks.tolist() == [[1.5], [1.5]]

    def test_single_dataset_strict_order_is_permutation(self):
        ranks = rank_algorithms([[0.1], [0.9], [0.5]])
        assert sorted(ranks[:, 0].tolist()) == [1.0, 2.0, 3.0]
        assert ranks[1, 0] == 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rank_algorithms([[1.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            rank_algorithms([[0.9, 0.8, 0.7], [0.5, bad, 0.6], [0.1, 0.2, 0.3]])


class TestFriedman:
    def test_reference_statistic(self):
        result = friedman(np.array(FOUR_ALGO_RANKS, dtype=float))
        assert result.chi_squared == pytest.approx(8.2000, abs=1e-3)
        assert result.critical_value == 7.815
        assert result.reject_null
        np.testing.assert_allclose(result.avg_ranks, [1.0, 4.0, 7 / 3, 8 / 3])

    def test_equal_ranks_give_zero(self):
        ranks = np.tile([[2.5]], (4, 3))
        result = friedman(ranks)
        assert result.chi_squared == pytest.approx(0.0, abs=1e-12)
        assert not result.reject_null

    def test_formula_reevaluation_on_random_matrices(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            c = int(rng.integers(2, 8))
            d = int(rng.integers(1, 6))
            ranks = rank_algorithms(rng.normal(size=(c, d)))
            result = friedman(ranks)
            # direct transcription of the statistic with plain python
            avg = [sum(ranks[i]) / d for i in range(c)]
            want = (12 * d) / (c * (c + 1)) * (
                math.fsum(r * r for r in avg) - c * (c + 1) ** 2 / 4
            )
            assert abs(result.chi_squared - want) < 1e-9

    def test_invariant_under_algorithm_relabeling(self):
        rng = np.random.default_rng(84)
        ranks = rank_algorithms(rng.normal(size=(5, 4)))
        base = friedman(ranks).chi_squared
        perm = rng.permutation(5)
        assert friedman(ranks[perm]).chi_squared == pytest.approx(base, abs=1e-12)

    def test_zero_iff_all_average_ranks_equal(self):
        ranks = np.array([[1.0, 2.0], [2.0, 1.0]])  # averages equal
        assert friedman(ranks).chi_squared == pytest.approx(0.0, abs=1e-12)

    def test_critical_table(self):
        # the computed points round to the published three decimals; at 5%
        # that rounded point is what friedman reports and tests against
        for p, points in PUBLISHED_CHI2.items():
            for df, printed in points.items():
                assert round(chi2_isf(p, df), 3) == printed, (p, df)
        for df, printed in PUBLISHED_CHI2[0.05].items():
            assert friedman(np.tile(np.arange(1.0, df + 2)[:, None], 2)).critical_value == printed

    def test_survival_function_matches_power_series(self):
        for df in range(1, 41):
            for x in [0.01, 0.5, df / 2.0, df - 0.5, df + 2.0, 2.0 * df + 5.0]:
                assert chi2_sf(x, df) == pytest.approx(series_chi2_sf(x, df), abs=1e-12)
            assert chi2_sf(0.0, df) == 1.0
            assert chi2_sf(math.inf, df) == 0.0
            assert chi2_sf(chi2_isf(0.05, df), df) == pytest.approx(0.05, rel=1e-12)

    @pytest.mark.parametrize("c", [12, 30])
    def test_many_algorithms(self, c):
        rng = np.random.default_rng(85 + c)
        for d in (1, 4, 9):
            ranks = rank_algorithms(rng.normal(size=(c, d)))
            result = friedman(ranks)
            assert result.critical_value == PUBLISHED_CHI2[0.05][c - 1]
            assert result.p_value == pytest.approx(series_chi2_sf(result.chi_squared, c - 1), abs=1e-12)
            assert result.reject_null == (result.chi_squared > result.critical_value)
        # every dataset ranks the algorithms in the same order
        ranks = np.tile(np.arange(1.0, c + 1)[:, None], 6)
        result = friedman(ranks)
        assert result.reject_null and result.p_value < 1e-6

    def test_p_value_at_reference_statistic(self):
        result = friedman(np.array(FOUR_ALGO_RANKS, dtype=float))
        # chi2 = 8.2 at df 3, just past the 5% point 7.815
        assert result.p_value == pytest.approx(series_chi2_sf(8.2, 3), abs=1e-12)
        assert 0.04 < result.p_value < 0.05

    @pytest.mark.parametrize("p, df", [(0.05, 0), (0.05, -1), (0.05, 1.5), (0.05, float("inf")),
                                       (0.05, float("nan")), (0.0, 2), (1.0, 2), (-0.1, 2),
                                       (float("nan"), 2)])
    def test_chi2_isf_rejects_values_outside_its_domain(self, p, df):
        # unchecked, df 0 loops forever and p 0 gives a finite point (1490.27)
        with pytest.raises(ValueError):
            chi2_isf(p, df)

    @pytest.mark.parametrize("df", [0, 2.5, float("inf")])
    def test_chi2_sf_rejects_df_that_is_not_whole_and_positive(self, df):
        with pytest.raises(ValueError, match="df"):
            chi2_sf(3.0, df)

    @pytest.mark.parametrize("shape", [(1, 3), (3, 0), (3,), (2, 2, 2), (0, 0)])
    def test_rejects_rank_matrix_without_two_algorithms_and_a_dataset(self, shape):
        with pytest.raises(ValueError, match="rank matrix"):
            friedman(np.ones(shape))

    def test_table_rendering(self):
        ranks = np.array(FOUR_ALGO_RANKS, dtype=float)
        text = friedman_table(friedman(ranks), ranks, ["SVM", "kNN", "EDT", "LMA-NN"])
        assert "8.2000" in text
        assert "reject" in text and "fail to reject" not in text
