"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload tower-verify --seeds 1-10

Runs run.py once per seed, each in its own process, and prints for every
end-to-end metric the median over the runs, the quartiles from
statistics.quantiles(values, n=4), and the spread (third quartile minus
first, as a share of the median) next to the metric's bound from
BENCHMARK.json.  --out writes the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    failed = 0
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
               "failed_ops": failed, "metrics": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        median = statistics.median(values[name])
        spread = (q3 - q1) / median
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": metric["bound"], "values": values[name]}
        print(f"{name:<16} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {spread:6.3f}  bound {metric['bound']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
