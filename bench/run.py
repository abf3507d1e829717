"""abelcheck benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop: one caller, each call sent after the
previous one returned.  Every iteration is a fresh interpreter (a CLI
process, or bench/worker.py for the in-process workloads), so the
package's unbounded caches never carry over.  Set-up time is measured
apart from the iterations by starting interpreters that only import the
package and build the inputs.

With --trace 0 the run repeats iterations for S seconds (at least three)
and reports the end-to-end metrics.  With --trace 1 it makes one
untraced iteration, one traced iteration (spans and counters), one
iteration under tracemalloc, and the serial-against-sharded comparison,
and reports the per-layer metrics.  Every output is checked; the last
line of stdout is one JSON object with the verdict and the metrics.
`--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

from spec import (
    BENCH, CLI_WORKLOADS, SRC, WORK, WORKLOADS, cli_invocations, record_count, write_schedule,
)

SETUP_PROBES = 15  # after one unmeasured probe that writes the bytecode cache
MIN_ITERATIONS = 3
RUN_LIMIT_S = 170  # children still running this long after a run starts are killed

# Span name -> counters reported besides its self time.
SPAN_METRICS = {
    "special_points.enumerate": ("records", "peak_mb"),
    "special_points.node_order": ("calls",),
    "special_points.extend": ("children",),
    "blowups.schedule_order": ("calls",),
    "extension.verify": ("records", "peak_mb", "failures_cond1", "failures_cond2"),
    "extension.to_json": ("bytes",),
    "extension.admissibility": ("calls", "failures"),
    "extension.stability": ("calls", "failures"),
    "curves.twist_search": ("calls", "radius_total"),
    "curves.admissible_subcurves": ("subcurves",),
    "curves.is_quasistable": ("calls",),
    "chains.semistabilize": ("calls", "iterations"),
    "chains.pushforward": ("calls",),
}
LAYERS = ("cli", "special_points", "blowups", "extension", "curves", "chains")
UNITS = {"peak_mb": "MB", "bytes": "bytes"}


class Child:
    """A finished child process: its wall time, exit code, stdout and peak RSS."""

    deadline = float("inf")  # perf_counter time at which a child is killed

    def __init__(self, argv: list[str]):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.spawned = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=BENCH.parent, env=env)
        watchdog = threading.Timer(max(Child.deadline - self.spawned, 0.0), proc.kill)
        watchdog.start()
        try:
            self.stdout = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - self.spawned
            watchdog.cancel()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024


def worker(mode: str, workload: str, seed: int, index: int = 0) -> tuple[Child, dict]:
    child = Child([sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed), str(index)])
    if child.code != 0:
        return child, {"problems": [f"worker {mode} {workload} exited {child.code}"], "attempted": 1}
    return child, json.loads(child.stdout)  # one problem per wrong call or count


class Iteration:
    def __init__(self, wall_s, calls_ms, records, record_s, rss_mb, attempted, problems, failed=None):
        self.wall_s = wall_s
        self.calls_ms = calls_ms
        self.records_per_s = records / record_s if record_s else 0.0
        self.rss_mb = rss_mb
        self.attempted = attempted
        self.problems = problems
        self.failed = len(problems) if failed is None else failed


def iteration(workload: str, seed: int) -> Iteration:
    if workload in CLI_WORKLOADS:
        calls = cli_invocations(workload, seed)
        children = [Child([sys.executable, "-m", "abelcheck.cli", *c.args]) for c in calls]
        checks = [c.check(ch.code, ch.stdout) for c, ch in zip(calls, children)]
        wall = sum(ch.wall_s for ch in children)
        records = sum(record_count(c.depth, c.node_count) for c in calls)
        return Iteration(wall, [ch.wall_s * 1e3 for ch in children], records, wall,
                         max(ch.rss_mb for ch in children), len(calls),
                         [p for found in checks for p in found], sum(map(bool, checks)))
    child, data = worker("run", workload, seed)
    if "t_end" not in data:
        return Iteration(child.wall_s, [], 0, 0, child.rss_mb, data["attempted"], data["problems"])
    return Iteration(data["t_end"] - data["t_first"], data["calls_ms"], data["records"],
                     data["record_s"], child.rss_mb, data["attempted"], data["problems"])


def setup_time(workload: str, seed: int) -> float:
    child, data = worker("setup", workload, seed)
    return data["t_first"] - child.spawned if "t_first" in data else float("nan")


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics from untraced iterations."""
    setups = [setup_time(workload, seed) for _ in range(SETUP_PROBES + 1)][1:]
    runs: list[Iteration] = []
    start = time.perf_counter()
    while len(runs) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        runs.append(iteration(workload, seed))
    # Every iteration makes the same calls, so each call's latency is taken
    # as its median over the iterations; this keeps a burst of host noise
    # in one iteration out of the percentiles.
    calls = [statistics.median(column) for column in zip(*(it.calls_ms for it in runs))]
    cuts = statistics.quantiles(calls * 2 if len(calls) == 1 else calls or [0.0, 0.0],
                                n=100, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(it.wall_s for it in runs), "s"),
        "records_per_s": (statistics.median(it.records_per_s for it in runs), "1/s"),
        "call_p50_ms": (cuts[49], "ms"),
        "call_p95_ms": (cuts[94], "ms"),
        "peak_rss_mb": (statistics.median(it.rss_mb for it in runs), "MB"),
    }
    print(f"{workload}: {len(runs)} iterations of {len(calls)} calls, {len(setups)} set-ups")
    attempted, failed = sum(it.attempted for it in runs), sum(it.failed for it in runs)
    return metrics, attempted, failed, [p for it in runs for p in it.problems]


def trace(workload: str, seed: int) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics from a traced iteration, a tracemalloc iteration and the shard comparison."""
    untraced = iteration(workload, seed)
    attempted, failed, problems = untraced.attempted, untraced.failed, list(untraced.problems)
    cli = workload in CLI_WORKLOADS
    indices = range(len(cli_invocations(workload, seed))) if cli else (0,)
    passes = {}
    for mode in ("trace", "memory"):
        wall, counts, self_s, peaks, spans = 0.0, Counter(), Counter(), {}, 0
        for index in indices:
            child, data = worker(mode, workload, seed, index)
            attempted += data["attempted"]
            failed += len(data["problems"])
            problems += data["problems"]
            wall += child.wall_s if cli else data.get("t_end", 0) - data.get("t_first", 0)
            summary = data.get("trace", {})
            for name in summary.get("missing", ()):
                print(f"warning: {name} not found; its metrics read 0", file=sys.stderr)
            counts.update(summary.get("counts", {}))
            self_s.update(summary.get("self_s", {}))
            spans += summary.get("spans", 0)
            for name, peak in summary.get("peak_bytes", {}).items():
                peaks[name] = max(peak, peaks.get(name, 0))
        passes[mode] = wall, counts, self_s, peaks, spans
    _, shards = worker("shards", workload, seed)
    attempted += shards["attempted"]
    failed += len(shards["problems"])
    problems += shards["problems"]

    wall, counts, self_s, _, spans = passes["trace"]
    peaks = passes["memory"][3]
    metrics = {}
    for span, extras in SPAN_METRICS.items():
        metrics[f"{span}.time_s"] = (self_s.get(span, 0.0), "s")
        for extra in extras:
            if extra == "peak_mb":
                value = peaks.get(span, 0) / 2**20
            else:
                value = counts.get(f"{span}.{extra}", 0)
            metrics[f"{span}.{extra}"] = (value, UNITS.get(extra, "count"))
    for layer in LAYERS:
        mine = [name for name in set(self_s) | set(peaks) if name.startswith(layer + ".")]
        metrics[f"{layer}.self_s"] = (sum(self_s.get(n, 0.0) for n in mine), "s")
        metrics[f"{layer}.peak_mb"] = (max([peaks.get(n, 0) for n in mine] or [0]) / 2**20, "MB")
    serial, sharded = shards.get("serial_s", 0.0), shards.get("sharded_s", 0.0)
    metrics["extension.verify_serial.time_s"] = (serial, "s")
    metrics["extension.verify_sharded.time_s"] = (sharded, "s")
    metrics["extension.shard_speedup"] = (serial / sharded if sharded else 0.0, "x")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced.wall_s, "s")
    metrics["trace.overhead_s"] = (wall - untraced.wall_s, "s")
    metrics["trace.spans"] = (spans, "count")
    print(f"{workload}: traced {spans} spans; shard comparison with "
          f"{shards.get('shards', 0)} workers")
    return metrics, attempted, failed, problems


def run_one(workload: str, seed: int, seconds: int, traced: bool) -> bool:
    Child.deadline = time.perf_counter() + RUN_LIMIT_S
    if workload == "schedule-fail":
        write_schedule()
    if traced:
        metrics, attempted, failed, problems = trace(workload, seed)
    else:
        metrics, attempted, failed, problems = measure(workload, seed, seconds)
    failed = min(failed, attempted)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_share':40s} {failed / max(attempted, 1):14.6g} ({failed} of {attempted} units)")
    print(json.dumps({
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    sys.stdout.flush()
    return not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "abelcheck" / "__init__.py").is_file():
        print(f"error: no abelcheck sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [run_one(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
