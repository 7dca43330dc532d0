"""Classifier evaluation: confusion matrices, per-class metrics, macro
averages, and nonparametric comparison of algorithms across datasets.

Per-class metrics come from the one-vs-rest reduction of the confusion
matrix. Ratios of the form 0/0 resolve to 0 and set a degenerate flag
instead of propagating NaN. The cross-dataset comparison ranks algorithms
per dataset (rank 1 best, average ranks on ties) and applies the Friedman
chi-squared test at significance 0.05.
"""

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .skeleton import format_floats


@dataclass
class ConfusionMatrix:
    """K x K counts over K >= 1 distinct labels; rows are true classes,
    columns predicted classes."""

    labels: list[str]
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.labels)
        if k == 0 or len(set(self.labels)) != k:
            raise ValueError(f"labels must be one or more distinct names, got {self.labels}")
        if self.counts.shape != (k, k):
            raise ValueError(f"counts must be ({k}, {k}), got {self.counts.shape}")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    @property
    def total(self):
        return int(self.counts.sum())

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None


@dataclass(frozen=True)
class BinaryCounts:
    """One-vs-rest reduction for a single class."""

    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self):
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class ClassMetrics:
    precision: float   # == positive predictive value
    recall: float      # == sensitivity
    specificity: float
    npv: float
    accuracy: float
    error_rate: float
    f1: float
    degenerate: bool = False  # some 0/0 ratio was forced to 0

    # the report uses both naming conventions
    @property
    def ppv(self):
        return self.precision

    @property
    def sensitivity(self):
        return self.recall

    FIELDS = ("precision", "recall", "specificity", "npv", "accuracy", "error_rate", "f1")


def confusion(true_labels, predicted_labels, labels=None):
    """Tally a ConfusionMatrix from parallel label lists."""
    true_labels = [str(v) for v in true_labels]
    predicted_labels = [str(v) for v in predicted_labels]
    if len(true_labels) != len(predicted_labels):
        raise ValueError(
            f"{len(true_labels)} true labels vs {len(predicted_labels)} predictions"
        )
    if labels is None:
        labels = sorted(set(true_labels) | set(predicted_labels))
    else:
        labels = [str(v) for v in labels]
        known = set(labels)
        for v in true_labels + predicted_labels:
            if v not in known:
                raise ValueError(f"label {v!r} outside declared set")
    pos = {lab: i for i, lab in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(true_labels, predicted_labels):
        counts[pos[t], pos[p]] += 1
    return ConfusionMatrix(list(labels), counts)


def binary_reduce(cm, label):
    """TP/FN/FP/TN of one class against the rest."""
    k = cm.index(label) if isinstance(label, str) else int(label)
    tp = int(cm.counts[k, k])
    fn = int(cm.counts[k].sum()) - tp
    fp = int(cm.counts[:, k].sum()) - tp
    tn = cm.total - tp - fn - fp
    return BinaryCounts(tp, fn, fp, tn)


def _ratio(num, den):
    """num/den with the 0/0 -> 0 convention; returns (value, was_degenerate)."""
    if den == 0:
        return 0.0, True
    return num / den, False


def class_metrics(b):
    """The seven per-class metrics from one-vs-rest counts."""
    if b.total <= 0:
        raise ValueError("metrics need at least one sample")
    precision, d1 = _ratio(b.tp, b.tp + b.fp)
    recall, d2 = _ratio(b.tp, b.tp + b.fn)
    specificity, d3 = _ratio(b.tn, b.fp + b.tn)
    npv, d4 = _ratio(b.tn, b.tn + b.fn)
    accuracy = (b.tp + b.tn) / b.total
    # complement of accuracy; equals (FP+FN)/total and keeps the sum at
    # exactly 1.0 in floating point
    error_rate = 1.0 - accuracy
    if precision + recall == 0.0:
        f1, d5 = 0.0, True
    else:
        f1, d5 = 2.0 * (precision * recall) / (precision + recall), False
    return ClassMetrics(
        precision=precision,
        recall=recall,
        specificity=specificity,
        npv=npv,
        accuracy=accuracy,
        error_rate=error_rate,
        f1=f1,
        degenerate=d1 or d2 or d3 or d4 or d5,
    )


def macro_average(per_class):
    """Unweighted mean of each metric over the classes."""
    values = {
        name: float(np.mean([getattr(m, name) for m in per_class]))
        for name in ClassMetrics.FIELDS
    }
    return ClassMetrics(degenerate=any(m.degenerate for m in per_class), **values)


@dataclass
class EvaluationReport:
    """Confusion matrix plus per-class and macro-averaged metrics."""

    matrix: ConfusionMatrix
    per_class: dict[str, ClassMetrics]
    macro: ClassMetrics
    timings: dict[str, float] = field(default_factory=dict)

    def summary(self):
        """Deterministic plain-text report (timings excluded)."""
        out = io.StringIO()
        labels = self.matrix.labels
        width = max(12, max(len(lab) for lab in labels) + 2)
        out.write("confusion matrix (rows true, columns predicted)\n")
        out.write(" " * width + "".join(f"{lab:>{width}}" for lab in labels) + "\n")
        for i, lab in enumerate(labels):
            row = "".join(f"{int(v):>{width}}" for v in self.matrix.counts[i])
            out.write(f"{lab:>{width}}" + row + "\n")
        out.write("\nmetrics\n")
        header = f"{'class':>{width}}" + "".join(f"{m:>12}" for m in ClassMetrics.FIELDS)
        out.write(header + "\n")
        for lab, m in self._metric_rows():
            out.write(
                f"{lab:>{width}}"
                + "".join(f"{getattr(m, name):>12.6f}" for name in ClassMetrics.FIELDS)
                + "\n"
            )
        return out.getvalue()

    def to_csv(self):
        """Per-class rows plus a macro row, full float precision."""
        out = io.StringIO()
        out.write("class," + ",".join(ClassMetrics.FIELDS) + "\n")
        for lab, m in self._metric_rows():
            values = [getattr(m, name) for name in ClassMetrics.FIELDS]
            out.write(lab + "," + format_floats(values, ",") + "\n")
        return out.getvalue()

    def _metric_rows(self):
        """(name, metrics) per class in label order, then ("macro", macro)."""
        return [(lab, self.per_class[lab]) for lab in self.matrix.labels] + [("macro", self.macro)]


def evaluate(true_labels, predicted_labels, labels=None):
    """Confusion, per-class metrics, and macro averages in one report."""
    cm = confusion(true_labels, predicted_labels, labels)
    per_class = {lab: class_metrics(binary_reduce(cm, lab)) for lab in cm.labels}
    return EvaluationReport(cm, per_class, macro_average(per_class.values()))


def rank_algorithms(scores):
    """Per-dataset ranks of algorithm scores.

    scores: (C, D) array, one row per algorithm, one column per dataset.
    Within each column the best score gets rank 1 and the worst rank C;
    tied scores share the average of the ranks they span. A nan or
    infinite score has no rank and raises ValueError.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be (algorithms, datasets), got {scores.shape}")
    c, d = scores.shape
    if c < 2 or d < 1:
        raise ValueError(f"need at least 2 algorithms and 1 dataset, got {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    ranks = np.empty_like(scores)
    for col, s in enumerate(scores.T):
        higher = np.sum(s[None, :] > s[:, None], axis=1)
        equal = np.sum(s[None, :] == s[:, None], axis=1)
        ranks[:, col] = higher + (equal + 1) / 2.0  # mean of ranks higher+1 .. higher+equal
    return ranks


def chi2_sf(x, df):
    """P(X > x) for X chi-squared with whole df: the regularized upper
    incomplete gamma Q(df/2, x/2) by Q(a + 1, z) = Q(a, z) + z^a e^-z / Gamma(a + 1)
    from Q(1, z) = e^-z or Q(1/2, z) = erfc(sqrt z) (Abramowitz & Stegun 6.5)."""
    if not (df >= 1 and float(df).is_integer()):
        raise ValueError(f"df must be a whole number >= 1, got {df}")
    z = x / 2.0
    if z <= 0.0:
        return 1.0
    if z == math.inf:  # z^a e^-z would be inf * 0
        return 0.0
    a, q = (1.0, math.exp(-z)) if df % 2 == 0 else (0.5, math.erfc(math.sqrt(z)))
    while a < df / 2.0:
        q += math.exp(a * math.log(z) - z - math.lgamma(a + 1.0))
        a += 1.0
    return q


def chi2_isf(p, df):
    """The x with chi2_sf(x, df) = p, by bisection."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    lo, hi = 0.0, float(df)
    while chi2_sf(hi, df) > p:
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if chi2_sf(mid, df) > p else (lo, mid)
    return hi


@dataclass(frozen=True)
class FriedmanResult:
    n_algorithms: int
    n_datasets: int
    avg_ranks: np.ndarray
    chi_squared: float
    critical_value: float
    reject_null: bool
    p_value: float


def friedman(ranks):
    """Friedman chi-squared over a (C, D) rank matrix at significance 0.05.

    chi2 = 12 D / (C (C+1)) * (sum_c R_c^2 - C (C+1)^2 / 4) with R_c the
    mean rank of algorithm c. The null (all algorithms equivalent) is
    rejected when chi2 exceeds the upper 5% point at C-1 degrees of freedom,
    rounded to the three decimals of the printed tables; p_value is P(X > chi2).
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.ndim != 2 or ranks.shape[0] < 2 or ranks.shape[1] < 1:
        raise ValueError(f"need a (C, D) rank matrix with C >= 2 and D >= 1, got {ranks.shape}")
    c, d = ranks.shape
    avg = ranks.mean(axis=1)
    chi2 = 12.0 * d / (c * (c + 1)) * (float(np.sum(avg**2)) - c * (c + 1) ** 2 / 4.0)
    critical = round(chi2_isf(0.05, c - 1), 3)
    return FriedmanResult(c, d, avg, chi2, critical, chi2 > critical, chi2_sf(chi2, c - 1))


def friedman_table(result, ranks, names=None):
    """Plain-text table: algorithm, per-dataset ranks, mean rank, chi2.
    A name that is None shows as algorithm-N, N its 1-based row."""
    ranks = np.asarray(ranks, dtype=np.float64)
    c, d = ranks.shape
    names = [f"algorithm-{i + 1}" if n is None else n for i, n in enumerate(names or [None] * c)]
    width = max(12, max(len(n) for n in names) + 2)
    out = io.StringIO()
    out.write(
        f"{'Algorithm':<{width}}"
        + "".join(f"{f'Dataset {j + 1}':>12}" for j in range(d))
        + f"{'R_c':>10}{'chi2':>10}\n"
    )
    for i, name in enumerate(names):
        chi_cell = f"{result.chi_squared:>10.4f}" if i == 0 else " " * 10
        out.write(
            f"{name:<{width}}"
            + "".join(f"{ranks[i, j]:>12.4f}" for j in range(d))
            + f"{result.avg_ranks[i]:>10.4f}"
            + chi_cell
            + "\n"
        )
    decision = "reject" if result.reject_null else "fail to reject"
    out.write(
        f"\nchi2 = {result.chi_squared:.4f} vs critical {result.critical_value:.3f}"
        f" (df={result.n_algorithms - 1}, alpha=0.05): {decision} the null hypothesis\n"
    )
    return out.getvalue()
