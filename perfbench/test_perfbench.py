"""Tests of the benchmark's own code: metric names, statistics, span
arithmetic, and a tiny run of each workload."""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import Recorder, Span, per_group_totals, self_times  # noqa: E402
from stats import high_percentile, spread  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="ascii") as _fh:
    BENCH = json.load(_fh)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in BENCH["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_high_percentile_leaves_ten_samples_beyond():
    assert high_percentile(list(range(10))) is None
    assert high_percentile(list(range(11))) == (100.0 / 11, 0)
    p, v = high_percentile([float(x) for x in range(100, 0, -1)])
    assert (p, v) == (90.0, 90.0)
    assert sum(x > v for x in range(1, 101)) == 10


def test_spread_is_interquartile_range_over_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_self_time_of_a_hand_built_tree():
    # nested and disjoint, as the Recorder makes them
    spans = [
        Span(3, "a.child", 2.0, 3.0, 1, "g"),
        Span(1, "a", 1.0, 4.0, 0, "g"),
        Span(2, "b", 5.0, 7.5, 0, "g"),
        Span(0, "root", 0.0, 10.0, None, "g"),
    ]
    assert self_times(spans) == pytest.approx({0: 10.0 - 3.0 - 2.5, 1: 3.0 - 1.0, 2: 2.5, 3: 1.0})


def test_per_group_totals_split_layers_from_glue():
    rec = Recorder()
    for group in ("pass0", "pass1"):
        rec.group = group
        with rec.span("pass"):
            with rec.span("experiment.svm"):
                with rec.span("svm.fit_s"):
                    pass
            rec.count("svm.machines", 8)
    assert len({s.id for s in rec.spans}) == len(rec.spans)
    totals = per_group_totals(rec.spans, rec.counts, {"svm.fit_s"})
    assert set(totals) == {"svm.fit_s", "glue.self_s", "svm.machines"}
    assert set(totals["svm.fit_s"]) == {"pass0", "pass1"}
    assert totals["svm.machines"] == {"pass0": 8, "pass1": 8}
    for group in ("pass0", "pass1"):
        whole = sum(s.end - s.start for s in rec.spans if s.group == group and s.name == "pass")
        assert totals["glue.self_s"][group] + totals["svm.fit_s"][group] == pytest.approx(whole)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_of_each_workload(workload, trace, tmp_path):
    metrics, tally, details = run.measure(workload, 3, 0, trace, str(tmp_path), samples_per_class=2, frames=12)
    assert tally.failed == 0, tally.problems
    assert tally.attempted > 0
    assert details["setup_s"] > 0
    assert details["timings"]["pass_s"]["n"] == (1 if trace else WORKLOADS[workload][0])
    declared = {m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    # setup_s adds the import and the fresh interpreters' set-ups, in main()
    assert set(metrics) == declared - {"setup_s"}
    assert all(isinstance(v, (int, float)) for v in metrics.values())
