"""Workload inputs and output checks shared by the runner and its workers.

Nothing here imports abelcheck, so the runner can build command lines
and check CLI reports without loading the package it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))

WORKLOADS = ("verify-cli", "param-grid", "schedule-fail", "general-graphs")
CLI_WORKLOADS = ("verify-cli", "schedule-fail")

# Seeded shifts s give L = (s, -s); the polarization keeps the offset
# c = weight(far) - degree(far) fixed, so every seed does the same work
# and gets the same verdicts while the report text (and digest) differ.
SHIFTS = (-2, -1, 0, 1, 2)
SCHEDULE_MOVES = ("components-lex",)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def record_count(depth: int, node_count: int) -> int:
    return math.factorial(depth) * node_count**depth


class Invocation:
    """One `abelcheck verify --json` command line and what it must print."""

    def __init__(self, workload: str, depth: int, node_count: int, shift: int):
        self.workload = workload
        self.depth = depth
        self.node_count = node_count
        self.key = f"{depth},{node_count},{shift}"
        if workload == "verify-cli":
            pol = f"{2 * shift + 1}/2,{-2 * shift - 1}/2"
        else:
            pol = f"{shift},{-shift}"
        # "--L=-2,2" rather than "--L -2,2": argparse reads "-2,2" as a flag.
        self.args = [
            "verify", "--d", str(depth), "--q", str(node_count),
            f"--L={shift},{-shift}", f"--pol={pol}", "--json",
        ]
        if workload == "schedule-fail":
            self.args[-1:-1] = ["--order", str(schedule_path())]
        self.expect = EXPECTED[workload]

    def check(self, exit_code: int, stdout: bytes) -> list[str]:
        """Problems with one invocation's exit code and report; empty if none."""
        where = f"{self.workload} {' '.join(self.args[:5])}"
        problems = []
        want_exit = self.expect["exit_code"]
        if exit_code != want_exit:
            problems.append(f"{where}: exit {exit_code}, expected {want_exit}")
        try:
            report = json.loads(stdout)
        except ValueError:
            return problems + [f"{where}: stdout is not a JSON report"]
        points = record_count(self.depth, self.node_count)
        if report.get("points") != points:
            problems.append(f"{where}: {report.get('points')} records, expected {points}")
        failures = Counter(f["condition"] for f in report.get("failures", ()))
        for condition in (1, 2):
            got = failures.get(condition, 0)
            want = self.expect["failures_cond%d" % condition]
            if got != want:
                problems.append(
                    f"{where}: {got} condition-{condition} failures, expected {want}"
                )
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != self.expect["sha256"][self.key]:
            problems.append(f"{where}: report sha256 {digest} differs from the stored one")
        return problems


def schedule_path() -> Path:
    return WORK / "schedule-components-lex.json"


def write_schedule() -> None:
    """Write the schedule file unless it is already there, unchanged."""
    text = json.dumps({"moves": list(SCHEDULE_MOVES)})
    path = schedule_path()
    if not path.is_file() or path.read_text(encoding="utf-8") != text:
        WORK.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")


def cli_invocations(workload: str, seed: int) -> list[Invocation]:
    """The CLI calls of one iteration of a CLI workload.

    The order is fixed, so that it adds no spread between seeds.
    """
    rng = rng_for(workload, seed)
    if workload == "verify-cli":
        return [
            Invocation(workload, 6, 2, rng.choice(SHIFTS)),
            Invocation(workload, 5, 3, rng.choice(SHIFTS)),
        ]
    return [Invocation(workload, 6, 2, rng.choice(SHIFTS))]
