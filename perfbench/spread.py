"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Runs the command of BENCHMARK.json untraced once per seed, one run at a
time, and prints for each end-to-end metric the median of the runs and
the distance between the first and third quartile as a share of that
median, beside the metric's bound. Each run's result line is also printed, so two sets can be
compared afterwards.
"""

import argparse
import json
import statistics
import subprocess
import sys

from stats import spread


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="ascii") as fh:
        bench = json.load(fh)
    values = {}
    for seed in args.seeds:
        argv = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(next((ln for ln in lines if ln.startswith("details ")), "details {}"))
        print(json.dumps({"seed": seed, **result}), flush=True)
        if not result["correct"]:
            sys.exit(f"seed {seed}: a check failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vs in values.items():
        median = statistics.median(vs)
        s = spread(vs) if len(vs) >= 2 and median else 0.0
        print(f"{name:28s} median {median:14.6f}  spread {s:7.4f}  bound {bounds[name]}")


if __name__ == "__main__":
    main()
