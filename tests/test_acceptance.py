"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see every line as it prints;
without -s pytest still shows the lines of failing criteria.

Criteria 1 and 2 recompute the worked fixtures in `conftest.py` with the
feature code: the four mean joints and twelve direction cosines of the
worked two-person frame, and the 24 rows of the normalization table. The
fixtures print their inputs as well as their results to a fixed number of
decimals, so a computed value may differ from the printed one by half a
unit of the result plus the largest change that moving each printed input
by half a unit can cause. `mean_joint_window` and `quotient_window` derive
that window from the declared precision. The direction cosines keep the
fixed WORKED_COSINE_TOLERANCE, since their printed values do not follow
from the printed mean joints at that precision (see `conftest.py`). Every
failure message prints the computed value, the printed value and the
window.
"""

import itertools
import time

import numpy as np

from skelgest import (
    Frame,
    SkeletonSequence,
    parse_skeleton_stream,
    serialize_skeleton_stream,
)
from skelgest.classifiers import BaggedTreeEnsemble, KNearestNeighbors
from skelgest.evaluation import BinaryCounts, ConfusionMatrix, binary_reduce, class_metrics, friedman
from skelgest.features import single_person, two_person
from skelgest.harness import ExperimentConfig, build_dataset, run_experiment, stratified_split
from skelgest.harness.templates import SINGLE_PERSON_TEMPLATES

from conftest import (
    WORKED_COSINE_TOLERANCE,
    WORKED_NORMALIZATION_ROWS,
    WORKED_DIRECTION_COSINES,
    WORKED_FRAME_JOINTS,
    WORKED_MEAN_JOINTS,
    make_frame,
    mean_joint_window,
    quotient_window,
    random_frames,
)
from test_knn import oracle_knn
from test_svm import THREE_BLOBS, blobs


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[ACCEPTANCE] criterion {number} ({name}): {status}{suffix}")


def test_criterion_1_worked_two_person_frame():
    t0 = time.perf_counter()
    problems = []

    names = ("J1", "J2", "J3", "J4")
    for i, (name, joints, weights) in enumerate(two_person.MEAN_JOINT_GROUPS):
        pts = [WORKED_FRAME_JOINTS[j] for j in joints]
        got = two_person.mean_joint(*pts, *weights)
        want = WORKED_MEAN_JOINTS[names[i]]
        window = mean_joint_window(weights)
        for axis, (g, w) in enumerate(zip(got, want)):
            if abs(g - w) > window:
                problems.append(
                    f"{names[i]}.{'xyz'[axis]}: computed {g:.6f} vs printed {w} "
                    f"(|diff| = {abs(g - w):.2e} > {window:.2e})"
                )

    angles = two_person.frame_features(make_frame(WORKED_FRAME_JOINTS))
    cosines = np.cos(np.radians(angles))
    want = np.concatenate([WORKED_DIRECTION_COSINES[n] for n in names])
    for k, (g, w) in enumerate(zip(cosines, want)):
        if abs(g - w) > WORKED_COSINE_TOLERANCE:
            problems.append(
                f"cosine {k}: computed {g:.6f} vs printed {w} "
                f"(|diff| = {abs(g - w):.2e} > {WORKED_COSINE_TOLERANCE:.2e})"
            )

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    report(1, "worked two-person frame", ok, "; ".join(problems) or f"{elapsed:.3f}s")
    assert elapsed < 1.0
    assert not problems, (
        "computed values deviate from the printed fixtures: " + "; ".join(problems)
    )


def test_criterion_2_worked_normalization_rows():
    t0 = time.perf_counter()
    problems = []
    for frame_no, feat, dist, depth, norm in WORKED_NORMALIZATION_ROWS:
        c = np.array([dist, 0.0, depth])
        s = np.array([0.0, 0.0, depth])
        got = single_person.normalized_distance(c, s)
        window = quotient_window(dist, depth)
        if abs(got - norm) > window:
            problems.append(
                f"frame {frame_no} feature {feat}: {dist}/{depth} = {got:.7f} "
                f"vs printed {norm} (|diff| = {abs(got - norm):.2e} > {window:.2e})"
            )
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    report(2, "worked normalization table", ok, "; ".join(problems) or f"all 24 rows, {elapsed:.3f}s")
    assert elapsed < 1.0
    assert not problems, (
        "computed values deviate from the printed fixtures: " + "; ".join(problems)
    )


def test_criterion_3_friedman_oracle():
    t0 = time.perf_counter()
    ranks = np.array([[1, 1, 1], [4, 4, 4], [2, 2, 3], [3, 3, 2]], dtype=float)
    result = friedman(ranks)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(result.chi_squared - 8.2000) <= 1e-3
        and result.critical_value == 7.815
        and result.n_algorithms - 1 == 3
        and result.reject_null
        and elapsed < 1.0
    )
    report(3, "rank-test statistic", ok, f"chi2 = {result.chi_squared:.4f}, reject = {result.reject_null}")
    assert abs(result.chi_squared - 8.2000) <= 1e-3
    assert result.critical_value == 7.815
    assert result.reject_null
    assert elapsed < 1.0


def test_criterion_4_dimensional_claims():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    seq = SkeletonSequence(random_frames(rng, 90))
    single_vec = single_person.sequence_features(seq).reshape(-1)
    two_vec = two_person.sequence_features(seq).reshape(-1)

    all_classes = tuple(sorted(SINGLE_PERSON_TEMPLATES))
    cfg_single = ExperimentConfig(classes=all_classes, samples_per_class=15,
                                  frames=90, noise_std=0.0, feature_kind="single")
    data_single = build_dataset(cfg_single)
    cfg_two = ExperimentConfig(classes=all_classes, samples_per_class=30,
                               frames=90, noise_std=0.0, feature_kind="two_person")
    data_two = build_dataset(cfg_two)
    elapsed = time.perf_counter() - t0

    ok = (
        single_vec.shape == (540,)
        and two_vec.shape == (1080,)
        and data_single.vectors.shape == (300, 540)
        and data_single.total_scalars == 162000
        and data_two.vectors.shape == (600, 1080)
        and data_two.total_scalars == 648000
        and elapsed < 5.0
    )
    report(4, "feature dimensions", ok,
           f"540/1080 per sequence; totals {data_single.total_scalars}/{data_two.total_scalars}; {elapsed:.2f}s")
    assert single_vec.shape == (540,)
    assert two_vec.shape == (1080,)
    assert data_single.total_scalars == 162000
    assert data_two.total_scalars == 648000
    assert elapsed < 5.0


def test_criterion_5_synthetic_benchmark():
    t0 = time.perf_counter()
    results = {}
    thresholds = {"svm": 0.85, "edt": 0.85, "knn": 0.80}
    for clf in ("svm", "edt", "knn"):
        params = {"k": 1} if clf == "knn" else {}
        cfg = ExperimentConfig(classifier=clf, params=params, noise_std=0.01, seed=7)
        results[clf] = run_experiment(cfg).macro.accuracy
    elapsed = time.perf_counter() - t0
    ok = all(results[c] >= thresholds[c] for c in thresholds) and elapsed < 60.0
    report(5, "synthetic benchmark", ok,
           ", ".join(f"{c} macro acc {results[c]:.4f} (need {thresholds[c]})" for c in results)
           + f"; {elapsed:.1f}s")
    for clf, need in thresholds.items():
        assert results[clf] >= need, f"{clf}: {results[clf]:.4f} < {need}"
    assert elapsed < 60.0


def test_criterion_6_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    # direction cosines: unit norm and positive-scale invariance
    for _ in range(1000):
        v = rng.normal(scale=3.0, size=3)
        cos = two_person.direction_cosines(v)
        assert abs(float(np.sum(cos**2)) - 1.0) < 1e-9
        k = rng.uniform(1e-3, 1e3)
        np.testing.assert_allclose(
            two_person.direction_angles(k * v), two_person.direction_angles(v), atol=1e-9
        )

    # centroid: permutation invariance and affine equivariance
    for _ in range(1000):
        pts = rng.normal(scale=2.0, size=(3, 3))
        base = single_person.triangle_centroid(*pts)
        for perm in itertools.permutations(range(3)):
            np.testing.assert_allclose(
                single_person.triangle_centroid(*pts[list(perm)]), base, atol=1e-9
            )
        A = rng.normal(size=(3, 3))
        shift = rng.normal(size=3)
        np.testing.assert_allclose(
            single_person.triangle_centroid(*(pts @ A.T + shift)),
            A @ base + shift, atol=1e-9,
        )

    # single-person features: x/y translation and uniform scale invariance
    for joints in random_frames(rng, 100):
        base = single_person.frame_features(Frame(joints))
        shifted = joints + np.array([0.83, -0.41, 0.0])
        np.testing.assert_allclose(
            single_person.frame_features(Frame(shifted)), base, atol=1e-12
        )
        np.testing.assert_allclose(
            single_person.frame_features(Frame(2.7 * joints)), base, atol=1e-12
        )

    # parse/serialize round trip is exact
    joints = rng.normal(scale=2.0, size=(90, 20, 3))
    seq = SkeletonSequence(joints)
    assert np.array_equal(parse_skeleton_stream(serialize_skeleton_stream(seq)).joints, seq.joints)

    # ensemble majority vote equals a per-tree brute-force recount
    X, y = blobs(np.random.default_rng(102), THREE_BLOBS, 10, std=3.0)
    edt = BaggedTreeEnsemble(n_trees=30, seed=5).fit(X, y)
    probe = rng.normal(loc=4.0, scale=4.0, size=(40, 2))
    votes = edt.vote_counts(probe)
    tally = np.zeros_like(votes)
    for tree in edt.trees_:
        for i, cls in enumerate(tree.predict(probe)):
            tally[i, cls] += 1
    assert np.array_equal(votes, tally)
    for row, pred in zip(tally, edt.predict(probe)):
        assert edt.classes_[int(np.argmax(row))] == pred

    # knn agrees with an exhaustive scan on 500 queries
    knn = KNearestNeighbors(k=3).fit(X, y)
    queries = rng.uniform(-5.0, 15.0, size=(500, 2))
    got = knn.predict(queries)
    want = [oracle_knn(X.tolist(), y, q.tolist(), 3) for q in queries]
    assert got == want

    # every harness artifact is seed deterministic
    cfg = ExperimentConfig(classes=("waving", "punching"), samples_per_class=5,
                           frames=12, seed=31, classifier="knn", params={"k": 1})
    d1, d2 = build_dataset(cfg), build_dataset(cfg)
    assert np.array_equal(d1.vectors, d2.vectors) and d1.labels == d2.labels
    s1 = stratified_split(d1, 0.8, seed=31)
    s2 = stratified_split(d2, 0.8, seed=31)
    assert np.array_equal(s1[0].vectors, s2[0].vectors)
    assert np.array_equal(s1[1].vectors, s2[1].vectors)
    assert run_experiment(cfg).summary() == run_experiment(cfg).summary()

    elapsed = time.perf_counter() - t0
    report(6, "property suites", elapsed < 30.0, f"{elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_7_metric_algebra():
    rng = np.random.default_rng(103)
    for _ in range(100):
        counts = rng.integers(0, 25, size=(4, 4))
        if counts.sum() == 0:
            counts[0, 0] = 1
        cm = ConfusionMatrix([f"c{i}" for i in range(4)], counts)
        for lab in cm.labels:
            m = class_metrics(binary_reduce(cm, lab))
            assert m.accuracy + m.error_rate == 1.0  # exact
            assert m.ppv is m.precision
            assert m.sensitivity is m.recall

    m = class_metrics(BinaryCounts(tp=5, fn=1, fp=2, tn=4))
    worked = {
        "precision": 5 / 7, "recall": 5 / 6, "accuracy": 0.75, "error_rate": 0.25,
        "f1": 10 / 13, "specificity": 2 / 3, "npv": 4 / 5,
    }
    for name, want in worked.items():
        assert abs(getattr(m, name) - want) <= 1e-9, name
    report(7, "metric algebra", True, "accuracy + error_rate == 1, aliases exact, worked counts ok")
