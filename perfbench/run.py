"""Benchmark harness for the wildram package.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload group-certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One run drives one workload in this process: a single client in a closed
loop, single-threaded, the next operation issued only when the last one has
returned.  Set-up (a fresh import of the package plus generation of the
inputs from the seed) is repeated SETUP_REPEATS times and its median is
reported.  The timed phase then runs whole cycles of the workload's fixed
operation mix until the next cycle would overrun --seconds.  Every output
is checked; a mismatch or an exception counts the operation failed and
never aborts the run.  Times are in reference seconds (see ReferenceClock).

With --trace 0 the last line of stdout is the JSON result holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, recorded
by spans the harness puts around each call into a package layer.  The
package itself is not instrumented.  The line before it holds the failure
ratio, tail latencies and cycle count.  --workload all runs every workload
in its own process, untraced and traced, and prints a table including the
tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from types import SimpleNamespace

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_REPEATS = 7
RUN_TIMEOUT_S = 180

MODULES = ("exactmath", "psl2", "ramification", "towers", "tails", "checks", "cli")

# end-to-end metrics reported by every workload, as (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

CHECK_IDS = (
    "admissible-base-filtrations",
    "tail-config-unique",
    "tower-oracle-sweep",
    "deformation-random",
    "genus-golden",
    "class-triple-97",
    "subgroup-claims-1092",
    "tame-base-change",
    "enumeration-complete",
    "herbrand-roundtrip",
    "generation-obstructions",
)
SUBCOMMANDS = (
    "params",
    "triple",
    "candidates",
    "admissible",
    "enumerate",
    "genus",
    "base-sigma",
    "tower-predict",
    "tower-oracle",
    "deform",
    "tails",
    "infer",
    "verify-group",
    "check-all",
)
# every wrapped call site, named <layer>.<function>
SITES = (
    "psl2.psl2_atlas",
    "psl2.subgroups",
    "psl2.verify_subgroup_claims",
    "towers.oracle_jumps.raw",
    "towers.oracle_jumps.reduced",
    "towers.predicted_jumps",
    "towers.verify_deformation",
    "towers.parse_tower_spec",
    "exactmath.as_reduce",
    "ramification.enumerate_admissible",
    "ramification.genus",
    "ramification.herbrand",
    "tails.solve_tail_configs",
    "tails.generation_obstruction",
    "tails.branch_cycle_feasible",
    *(f"checks.{c}" for c in CHECK_IDS),
    *(f"cli.{s}" for s in SUBCOMMANDS),
)
COUNTERS = ("psl2.group_order", "psl2.subgroups.found")


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for site in SITES:
        out.append((f"{site}.calls", "count", "higher"))
        out.append((f"{site}.busy_s", "s", "lower"))
        out.append((f"{site}.failed", "count", "lower"))
    out += [(c, "count", "higher") for c in COUNTERS]
    out.append(("trace.ops_per_s", "1/s", "higher"))
    return out


class Tracer:
    """Aggregated spans around calls into the package's layers.

    Disabled, call() is a plain call.  Enabled, each call adds its duration
    to the site's busy time, counts it, and counts it failed when it raises.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.failed = Counter()
        self.counts = Counter()

    def call(self, site, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed[site] += 1
            raise
        finally:
            self.busy[site] += time.perf_counter() - start
            self.calls[site] += 1

    def record(self, site, seconds, failed=False):
        """A span measured elsewhere, such as a check-all suite's own timing."""
        if self.enabled:
            self.calls[site] += 1
            self.busy[site] += seconds
            self.failed[site] += int(failed)

    def count(self, name, n):
        if self.enabled:
            self.counts[name] += n


def reference_kernel():
    """Fixed pure-Python work, a mix of what the interpreter does for the
    package: integer arithmetic, list indexing, tuple building, dict stores."""
    xs = list(range(64))
    table = {}
    acc = 0
    for i in range(400):
        acc = (acc * 31 + xs[i & 63] * i) % 1000003
        table[i & 31] = (acc, i)
    return acc


class ReferenceClock:
    """Durations stated at a reference speed of the core.

    A shared host can run the same code at speeds 1.6x apart for spells
    from seconds to minutes, in CPU time as much as in wall time.  While the
    clock runs, a timer signal runs reference_kernel every INTERVAL_S
    seconds.  since() scales a measured interval by the kernel's speed
    around it (harmonic mean over the samples from WINDOW_S before the
    interval to its end), relative to KERNEL_NOMINAL_S, and leaves out the
    time the samples themselves took.  On a core that runs the kernel in
    KERNEL_NOMINAL_S a reference second is a second.
    """

    INTERVAL_S = 0.05
    WINDOW_S = 0.5
    KERNEL_NOMINAL_S = 80e-6

    def __init__(self):
        self.stamps = []
        self.costs = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_kernel()
        cost = time.perf_counter() - start
        self.stamps.append(start)
        self.costs.append(cost)
        self.spent += cost

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return time.perf_counter(), self.spent

    def since(self, mark):
        """Reference seconds from mark to now."""
        start, spent = mark
        spent = self.spent - spent  # read first: a later sample must not be subtracted
        end = time.perf_counter()
        lo = bisect_left(self.stamps, start - self.WINDOW_S)
        costs = self.costs[lo:bisect_right(self.stamps, end)] or self.costs[-10:]
        scale = self.KERNEL_NOMINAL_S * sum(1 / c for c in costs) / len(costs) if costs else 1.0
        return (end - start - spent) * scale


def import_program():
    """Import the package afresh from the checkout, dropping earlier copies."""
    for name in [n for n in sys.modules if n == "wildram" or n.startswith("wildram.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"wildram.{m}") for m in MODULES})


def run_ops(ops, clock, tracer, latencies, tally):
    """Run one cycle; append the latency of each op, tally failures."""
    for op in ops:
        tally["attempted"] += 1
        if op.reset is not None:
            op.reset()
        mark = clock.mark()
        try:
            output = op.run(tracer)
        except Exception as exc:  # counted, reported, never fatal
            latencies.append(clock.since(mark))
            _fail(tally, f"{op.label}: raised {exc!r}")
            continue
        latencies.append(clock.since(mark))
        try:
            ok = op.check(output)
        except Exception as exc:
            ok = False
            _fail(tally, f"{op.label}: check raised {exc!r}")
            continue
        if not ok:
            _fail(tally, f"{op.label}: wrong output")


def _fail(tally, message):
    tally["failed"] += 1
    if len(tally["errors"]) < 10:
        tally["errors"].append(message)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(name, seed, seconds, trace, smoke=False, setup_repeats=SETUP_REPEATS):
    """Set up, warm up and time one workload; return the result record."""
    workload = WORKLOADS[name]
    workroot = os.path.join(HERE, ".work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=workroot)
    try:
        with ReferenceClock() as clock:
            setup_times = []
            for _ in range(setup_repeats):
                mark = clock.mark()
                mods = import_program()
                plan = workload(mods, seed, workdir, smoke)
                setup_times.append(clock.since(mark))

            tally = {"attempted": 0, "failed": 0, "errors": []}
            tracer = Tracer(bool(trace))
            for _ in range(plan.warm_cycles):
                run_ops(plan.ops, clock, tracer, [], tally)
            run_ops(plan.contract_ops, clock, tracer, [], tally)
            tracer.reset()
            gc.collect()

            samples = []  # one latency list per cycle, in op order
            phase_start = time.perf_counter()
            while True:
                cycle_start = time.perf_counter()
                samples.append([])
                run_ops(plan.ops, clock, tracer, samples[-1], tally)
                now = time.perf_counter()
                if now - phase_start + (now - cycle_start) > seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:
            pass

    # each op counts with its median time over the run's cycles
    cycles = len(samples)
    typical = [statistics.median(times) for times in zip(*samples)]
    ops_per_s = len(typical) / sum(typical)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_s,
        "latency_p50_ms": 1e3 * statistics.median(typical),
        "peak_rss_mb": peak_rss_mb,
    }
    # tail percentiles over every timed sample, each reported only with at
    # least ten samples beyond it
    ordered = sorted(t for times in samples for t in times)
    tail = {}
    for label, q in (("latency_p90_ms", 0.90), ("latency_p99_ms", 0.99)):
        if len(ordered) * (1 - q) >= 10:
            tail[label] = 1e3 * percentile(ordered, q)
    detail = {
        "workload": name,
        "seed": seed,
        "cycles": cycles,
        "timed_ops": len(ordered),
        "fail_ratio": tally["failed"] / tally["attempted"],
        "fail_ratio_denominator": tally["attempted"],
        **tail,
        "errors": tally["errors"],
    }
    if trace:
        metrics = {}
        for metric, unit, _ in per_layer_metrics():
            metrics[metric] = {"value": 0, "unit": unit}
        for site in SITES:
            metrics[f"{site}.calls"]["value"] = tracer.calls[site]
            metrics[f"{site}.busy_s"]["value"] = tracer.busy[site] / cycles
            metrics[f"{site}.failed"]["value"] = tracer.failed[site]
        for counter in COUNTERS:
            metrics[counter]["value"] = tracer.counts[counter]
        metrics["trace.ops_per_s"]["value"] = ops_per_s
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()}
    return {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
        "detail": detail,
    }


def run_all(seed, seconds):
    """Every workload in its own process, untraced then traced."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} --trace {trace} exited {proc.returncode}")
            results[name, trace] = (json.loads(lines[-2]), json.loads(lines[-1]))

    correct = True
    for name in WORKLOADS:
        detail, plain = results[name, 0]
        _, traced = results[name, 1]
        correct = correct and plain["correct"] and traced["correct"]
        print(f"== {name}  (seed {seed}, {detail['timed_ops']} timed ops, "
              f"{detail['cycles']} cycles)")
        for metric, unit in END_TO_END:
            print(f"  {metric:<22} {plain['metrics'][metric]['value']:>14.4f} {unit}")
        for metric in ("latency_p90_ms", "latency_p99_ms"):
            value = detail.get(metric)
            text = f"{value:>14.4f} ms" if value is not None else "   (under 10 ops beyond)"
            print(f"  {metric:<22} {text}")
        print(f"  {'fail_ratio':<22} {detail['fail_ratio']:>14.4f} "
              f"of {detail['fail_ratio_denominator']} ops")
        overhead = 1 - traced["metrics"]["trace.ops_per_s"]["value"] / plain["metrics"]["ops_per_s"]["value"]
        print(f"  {'trace_overhead':<22} {100 * overhead:>14.2f} % of untraced ops_per_s")
        busy = {k[: -len(".busy_s")]: v["value"] for k, v in traced["metrics"].items()
                if k.endswith(".busy_s") and v["value"] > 0}
        total = sum(v for k, v in busy.items() if not k.startswith("checks."))
        for site, value in sorted(busy.items(), key=lambda kv: -kv[1]):
            calls = traced["metrics"][f"{site}.calls"]["value"]
            share = f"{100 * value / total:5.1f}%" if not site.startswith("checks.") else "  (in)"
            print(f"    {site:<40} {value:>10.5f} s/cycle {share} {calls:>8} calls")
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wildram", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return 0 if run_all(args.seed, args.seconds) else 1
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    detail = result.pop("detail")
    for error in detail["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
