"""Benchmark of the skelgest pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a skelgest checkout; it imports the package from
./src. It sets the workload up, runs timed passes in a closed loop for S
seconds (and, untraced, at least the workload's quality passes), runs the workload's
checks, and, untraced, times four more set-ups in fresh interpreters for
the median set-up time. Each timed call follows a timed run of a fixed
reference task (reference.py), and the end-to-end timings are given in
multiples of the reference task's mean time. The last line
of standard output is one JSON object: whether every check held, the
operations attempted and failed, and the metrics named in BENCHMARK.json
(the end-to-end ones with --trace 0, the per-layer ones with --trace 1).
The lines before it give each timing's median, high percentile and sample
count, the environment, and any failed check. A traced run also writes its
spans to .perfbench_out/.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SPAN_DIR = os.path.join(ROOT, ".perfbench_out")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# A fresh interpreter's import and set-up, timed as main() times the run's
# own; argv: src, perfbench, workload, seed, work dir.
COLD_SETUP = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import numpy
start = time.perf_counter()
import workloads
workloads.make_workload(sys.argv[3], int(sys.argv[4]), sys.argv[5], workloads.Tally()).setup()
print(time.perf_counter() - start)
"""

CALL_TIMINGS = ("svm_s", "edt_s", "knn_s")
END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_refs": "refs",
    "svm_refs": "refs",
    "edt_refs": "refs",
    "knn_refs": "refs",
    **{f"{q}.{c}": "ratio" for q in ("macro_f1", "accuracy") for c in ("svm", "edt", "knn")},
    "peak_rss_mb": "MB",
}


def per_layer_units():
    from workloads import LAYER_COUNTS, LAYER_SPANS

    units = {name: "s" for name in LAYER_SPANS}
    units.update({name: "bytes" if "bytes" in name else "count" for name in LAYER_COUNTS})
    units.update({"glue.self_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    return units


def environment(seed):
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "seed": seed,
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            env["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu"] = "unknown"
    return env


def _median_by_group(by_group):
    """Median over pass groups, or over the check group for a layer that
    runs only there."""
    passes = [v for g, v in by_group.items() if g.startswith("pass")]
    return statistics.median(passes or list(by_group.values()))


def measure(workload, seed, seconds, trace, work_dir, **overrides):
    """Set up, loop, check. Returns (metrics, tally, details); details
    hold the set-up's seconds."""
    from spans import NullRecorder, Recorder, per_group_totals
    from stats import describe
    from workloads import LAYER_SPANS, Tally, make_workload

    tally = Tally()
    null = NullRecorder()
    rec = Recorder() if trace else null
    wl = make_workload(workload, seed, work_dir, tally, **overrides)
    t0 = time.perf_counter()
    wl.setup()
    setup_s = time.perf_counter() - t0

    samples = defaultdict(list)
    overhead = []
    # quality is reported only untraced, so only then must the quality passes run
    min_passes = 1 if trace else wl.quality_passes
    start = time.perf_counter()
    i = 0
    while i < min_passes or time.perf_counter() - start < seconds:
        steps = wl.run_pass(i, null)
        for name, value in steps:
            samples[name].append(value)
        samples["pass_s"].append(sum(value for name, value in steps if name in CALL_TIMINGS))
        if trace:
            rec.group = f"pass{i}"
            t0 = time.perf_counter()
            with rec.span("pass"):
                wl.run_pass(i, rec)
            overhead.append(time.perf_counter() - t0 - samples["pass_s"][-1])
            wl.record_model_facts(rec)
        i += 1

    rec.group = "check"
    with rec.span("check"):
        wl.check(rec)

    details = {"setup_s": setup_s, "timings": {k: describe(v) for k, v in samples.items()}, "samples": samples}
    if trace:
        totals = per_group_totals(rec.spans, rec.counts, set(LAYER_SPANS))
        metrics = {name: _median_by_group(by_group) for name, by_group in totals.items()}
        metrics["trace.overhead_s"] = statistics.median(overhead)
        metrics["trace.spans"] = len(rec.spans)
        details["spans"] = rec.spans
    else:
        ref = statistics.fmean(samples["ref_s"])
        metrics = {
            **{f"{name[:-2]}_refs": statistics.fmean(samples[name]) / ref for name in ("pass_s", *CALL_TIMINGS)},
            **wl.quality.metrics(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return metrics, tally, details


def cold_setup(workload, seed, work_dir):
    """Set-up seconds of a fresh interpreter, timed as the run times its own."""
    argv = [sys.executable, "-c", COLD_SETUP, SRC, HERE, workload, str(seed), work_dir]
    return float(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)


def _write_spans(spans, workload, seed):
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w", encoding="ascii") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__) + "\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "skelgest", "__init__.py")):
        print(f"perfbench: no skelgest package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # one thread of control: numpy's BLAS must not start worker threads
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (a dependency: its import is not skelgest's set-up)

    start = time.perf_counter()
    import skelgest
    import workloads

    if not os.path.abspath(skelgest.__file__).startswith(SRC + os.sep):
        print(f"perfbench: skelgest imported from {skelgest.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - start

    work_dir = os.path.join(WORK_ROOT, str(os.getpid()))
    crashed = False
    try:
        metrics, tally, details = measure(args.workload, args.seed, args.seconds, args.trace, work_dir)
        if not args.trace:
            # the run's own set-up, and more of them in fresh interpreters:
            # a second set-up in this one would be warm
            setups = [import_s + details.pop("setup_s")]
            setups += [cold_setup(args.workload, args.seed, work_dir) for _ in range(SETUP_SAMPLES - 1)]
            metrics["setup_s"] = statistics.median(setups)
            details["setup_samples_s"] = setups
    except Exception:
        traceback.print_exc()
        crashed = True
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other run is using it
    if crashed:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    if args.trace:
        details["spans_file"] = os.path.relpath(_write_spans(details.pop("spans"), args.workload, args.seed))
    print("environment " + json.dumps(environment(args.seed)))
    print("details " + json.dumps(details))
    for name in tally.problems:
        print(f"FAILED CHECK: {name}")
    for name in sorted(units):
        print(f"{name:28s} {metrics[name]:>16.6f} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
