"""One fresh interpreter's share of a benchmark run.

    python3 bench/worker.py MODE WORKLOAD SEED INDEX

MODE is one of
  setup   import the package and build the workload's inputs, then stop;
  run     build the inputs and make the timed calls of one iteration;
  trace   the same calls with spans and counters (see tracer.py);
  memory  the same calls with tracemalloc peaks per span;
  shards  verify_extension serial against sharded at the verify-cli sizes.
For the CLI workloads, trace and memory run `abelcheck.cli.main` in this
process on the CLI call numbered INDEX.  The result is one JSON object
on stdout.  Every iteration is a fresh interpreter because the package's
caches would otherwise make later iterations faster than the first.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction

from spec import (
    EXPECTED, SCHEDULE_MOVES, SRC, WORK, cli_invocations, record_count, rng_for, write_schedule,
)

sys.path.insert(0, str(SRC))

import abelcheck  # noqa: E402
from abelcheck import chains, cli, curves, extension, special_points  # noqa: E402

if not os.path.realpath(abelcheck.__file__).startswith(os.path.realpath(SRC) + os.sep):
    sys.exit(f"abelcheck was imported from {abelcheck.__file__}, not from {SRC}")


# --- independent oracles (the benchmark's own code, not the package's) ---

def _connected(members: set[int], nodes) -> bool:
    if not members:
        return False
    seen = {min(members)}
    frontier = list(seen)
    while frontier:
        here = frontier.pop()
        for r, s in nodes:
            for a, b in ((r, s), (s, r)):
                if a == here and b in members and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return seen == members


def _subset_ok(members, nodes, marked, weights, degs) -> bool:
    half = Fraction(sum((r in members) != (s in members) for r, s in nodes), 2)
    margin = sum(degs[i - 1] for i in members) - sum(weights[i - 1] for i in members)
    if marked in members:
        return -half < margin <= half
    return -half <= margin < half


def _subsets(p: int):
    for mask in range(1, 2**p - 1):
        yield {i + 1 for i in range(p) if mask >> i & 1}


def quasistable_all_subsets(p, nodes, marked, weights, degs) -> bool:
    return all(_subset_ok(y, nodes, marked, weights, degs) for y in _subsets(p))


def twisted(nodes, degs, coeffs) -> list[int]:
    out = list(degs)
    for r, s in nodes:
        step = coeffs[r - 1] - coeffs[s - 1]
        out[r - 1] += step
        out[s - 1] -= step
    return out


def _windows(row):
    for lo in range(len(row)):
        for hi in range(lo, len(row)):
            yield sum(row[lo:hi + 1])


def stretched_nodes(p: int, nodes, d: int):
    out = []
    for t, (r, s) in enumerate(nodes):
        first = p + t * d + 1
        out.append((r, first))
        out += [(i, i + 1) for i in range(first, first + d - 1)]
        out.append((first + d - 1, s))
    return out


def pushforward_oracle(base, d, base_degs, rows, weights) -> bool:
    if any(w not in (-1, 0, 1) for row in rows for w in _windows(row)):
        return False
    p = base.components
    nodes = stretched_nodes(p, base.nodes, d)
    n = p + len(base.nodes) * d
    degs = list(base_degs) + [x for row in rows for x in row]
    weights = list(weights) + [0] * (n - p)
    everything = set(range(1, n + 1))
    for y in _subsets(n):
        rest = everything - y
        if min(y) > p or min(rest) > p:
            continue  # one side is contracted onto a node
        if _connected(y, nodes) and _connected(rest, nodes):
            if not _subset_ok(y, nodes, base.marked, weights, degs):
                return False
    return True


def semistabilize_problem(curve, result) -> str | None:
    """Why a semistabilize result is wrong, or None when it checks out."""
    final, mult = result.curve, result.twister.multiplicities
    d = curve.chain_len
    base = list(curve.base_degs)
    for t, (r, s) in enumerate(curve.base.nodes):
        m = [0] + list(mult[t]) + [0]
        base[r - 1] += m[1]
        base[s - 1] += m[d]
        row = [curve.chain_degs[t][k] + m[k] + m[k + 2] - 2 * m[k + 1] for k in range(d)]
        if tuple(row) != final.chain_degs[t]:
            return f"chain {t} degrees {final.chain_degs[t]} are not the twist of the input"
        if any(w not in (-1, 0) for w in _windows(row)):
            return f"chain {t} keeps a subchain of degree outside {{-1, 0}}: {row}"
    if tuple(base) != final.base_degs:
        return f"base degrees {final.base_degs}, twist gives {tuple(base)}"
    return None


# --- workloads ---

def _graph(kind: str, p: int):
    nodes = tuple((i, i + 1) for i in range(1, p))
    if kind == "cycle":
        nodes += ((p, 1),)
    return curves.DualGraph(p, nodes, marked=1)


def _bounded_weights(rng, p: int) -> tuple[Fraction, ...]:
    # Prefix sums in [-1/2, 1/2): on a path graph this keeps the balancing
    # twist of (k, 0, ..., 0, -k) at the zero-polarization one, so the
    # seed changes the weights but not the amount of search.
    prefix = [Fraction(0)] + [Fraction(rng.randint(-2, 1), 4) for _ in range(p - 1)] + [Fraction(0)]
    return tuple(prefix[i + 1] - prefix[i] for i in range(p))


# (graph kind, components, k): degrees (k, 0, ..., 0, -k).  Sized so that
# no single search took much over 2.5 s on a 2-CPU machine when written.
SEARCHES = (
    ("path", 6, 2), ("path", 7, 1), ("path", 5, 3), ("path", 4, 8),
    ("path", 4, 6), ("path", 3, 8), ("cycle", 4, 8), ("cycle", 5, 4),
    ("cycle", 6, 3), ("cycle", 7, 2), ("cycle", 8, 1),
)
CHAIN_BASES = (("two", 1), ("two", 2), ("path", 3), ("cycle", 3))
SEMISTABILIZE_CALLS = 2000
PUSHFORWARD_CALLS = 200


class ParamGrid:
    """Criterion-3 sweep: 73 offset classes x q in 1..3 x d in 1..4, plus spot checks."""

    def __init__(self, seed: int):
        rng = rng_for("param-grid", seed)
        values = sorted({Fraction(n, den) for den in (1, 2, 3, 4) for n in range(-3 * den, 3 * den + 1)})
        classes = defaultdict(list)
        pairs = []
        for l0 in range(-3, 4):
            for l1 in range(-3, 4):
                for w1 in values:
                    w0 = l0 + l1 - w1
                    if abs(w0) <= 3:
                        pairs.append(((l0, l1), (w0, w1)))
                        classes[w1 - l1].append(pairs[-1])
        reps = [rng.choice(classes[c]) for c in sorted(classes)]
        self.calls = [(d, q, *rep) for q in (1, 2, 3) for d in (1, 2, 3, 4) for rep in reps]
        self.grid_calls = len(self.calls)
        # Spot checks of whole pairs, all at (3,3): a fixed size keeps the
        # work the same for every seed, and keeps the median call inside
        # the (2,3) size class instead of on its boundary with (2,2).
        self.calls += [(3, 3, *pair) for pair in rng.sample(pairs, 24)]

    def run(self, out):
        start = time.perf_counter()
        for d, q, degs, weights in self.calls:
            t = time.perf_counter()
            report = extension.verify_extension(d, q, degs, weights)
            text = report.to_json()
            out["calls_ms"].append((time.perf_counter() - t) * 1e3)
            out["outputs"].append(text)
        out["record_s"] = time.perf_counter() - start

    def check(self, out):
        expect = EXPECTED["param-grid"]
        grid_records = 0
        for i, ((d, q, degs, weights), text) in enumerate(zip(self.calls, out["outputs"])):
            points = record_count(d, q)
            grid_records += points if i < self.grid_calls else 0
            out["records"] += points
            want = {
                "params": {
                    "depth": d, "node_count": q, "degrees": list(degs),
                    "weights": [str(Fraction(w)) for w in weights],
                    "order": "default", "mode": "separable",
                },
                "points": points, "failures": [], "verdict": "pass",
            }
            if text != json.dumps(want, sort_keys=True, indent=2):
                out["problems"].append(f"verify d={d} q={q} L={degs} pol={weights}: report differs")
        out["attempted"] += len(self.calls)
        if (self.grid_calls, grid_records) != (expect["grid_calls"], expect["grid_records"]):
            out["problems"].append(
                f"grid made {self.grid_calls} calls over {grid_records} records, expected "
                f"{expect['grid_calls']} over {expect['grid_records']}")


class GeneralGraphs:
    """Twist searches, the general-route conditions, and chain semistabilization."""

    def __init__(self, seed: int):
        rng = rng_for("general-graphs", seed)
        self.searches = []
        for kind, p, k in SEARCHES:
            g = _graph(kind, p)
            self.searches.append((g, curves.Polarization(_bounded_weights(rng, p)),
                                  curves.Multidegree((k,) + (0,) * (p - 2) + (-k,))))
        # The route's twist searches depend on the line bundle and the
        # polarization only through c = weight(far) - degree(far); c is
        # fixed so that every seed makes the same searches.
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        w1 = b + Fraction(1, 4)
        self.route_md = curves.Multidegree((a, b))
        self.route_pol = curves.Polarization((a + b - w1, w1))
        self.route_graph = extension.two_component_graph(3)
        self.sections = [extension.sections_from_point(point)
                         for point in special_points.enumerate_special_points(4, 3)]
        bases = {("two", q): extension.two_component_graph(q) for q in (1, 2)}
        bases.update({(kind, 3): _graph(kind, 3) for kind in ("path", "cycle")})
        self.chains = []
        for i in range(SEMISTABILIZE_CALLS):
            if i < PUSHFORWARD_CALLS:
                base, d = bases[("two", 2)], 3
            else:
                base, d = bases[rng.choice(CHAIN_BASES)], rng.randint(2, 5)
            rows = []
            for _ in base.nodes:
                low = rng.choice((-1, 0))
                prefix = [0] + [rng.choice((low, low + 1)) for _ in range(d)]
                rows.append(tuple(prefix[k + 1] - prefix[k] for k in range(d)))
            base_degs = tuple(rng.randint(-3, 3) for _ in range(base.components))
            self.chains.append(chains.ChainCurve(base, d, base_degs, tuple(rows)))
        self.pushforward = []
        for c in self.chains[:PUSHFORWARD_CALLS]:
            w0 = Fraction(rng.randint(-2, 2), 4) + c.base_degs[0]
            self.pushforward.append((c, curves.Polarization((w0, c.total - w0))))

    def run(self, out):
        calls, results = out["calls_ms"], out["outputs"]

        def timed(fn, *args):
            t = time.perf_counter()
            result = fn(*args)
            calls.append((time.perf_counter() - t) * 1e3)
            results.append(result)

        for g, pol, md in self.searches:
            timed(curves.quasistable_twist_search, g, pol, md)
        route_start = len(calls)
        for sections in self.sections:
            args = (self.route_graph, self.route_pol, self.route_md, sections, 5)
            timed(extension.check_admissibility_condition, *args)
            timed(extension.check_stability_condition, *args)
        out["record_s"] = sum(calls[route_start:]) / 1e3
        for c in self.chains:
            timed(chains.semistabilize, c)
        for c, pol in self.pushforward:
            timed(chains.pushforward_quasistable, c, pol)

    def check(self, out):
        problems = out["problems"]
        results = iter(out["outputs"])
        for (g, pol, md), twist in zip(self.searches, results):
            z = twist.coeffs
            degs = twisted(g.nodes, md.degs, z)
            if min(z) != 0:
                problems.append(f"twist {z} on {g.components} components is not canonical")
            elif not quasistable_all_subsets(g.components, g.nodes, g.marked, pol.weights, degs):
                problems.append(f"twist {z} leaves {degs} unstable on {g.components} components")
        failing = [(i // 2, r.witness) for i, r in
                   zip(range(2 * len(self.sections)), results) if not r.ok]
        if len(failing) != EXPECTED["general-graphs"]["route_failures"]:
            problems += [f"general route fails record {i}: {witness}" for i, witness in failing]
        for c in self.chains:
            problem = semistabilize_problem(c, next(results))
            if problem:
                problems.append(problem)
        for (c, pol), verdict in zip(self.pushforward, results):
            if verdict != pushforward_oracle(c.base, c.chain_len, c.base_degs, c.chain_degs, pol.weights):
                problems.append(f"pushforward says {verdict} on {c}")
        out["records"] = len(self.sections)
        out["attempted"] = len(out["calls_ms"])
        if out["records"] != EXPECTED["general-graphs"]["route_records"]:
            problems.append(f"{out['records']} general-route records, expected "
                            f"{EXPECTED['general-graphs']['route_records']}")


class CliCall:
    """One CLI call of a CLI workload, run in this process by cli.main."""

    def __init__(self, workload: str, seed: int, index: int):
        if workload == "schedule-fail":
            write_schedule()
        self.call = cli_invocations(workload, seed)[index]
        self.schedule = None
        if workload == "schedule-fail":
            self.schedule = special_points.BlowupSchedule(SCHEDULE_MOVES)

    def run(self, out):
        # Enumerate first so the traced verify span has a warm enumeration,
        # as extension.verify is defined; the CLI's own call then hits it.
        special_points.enumerate_special_points(self.call.depth, self.call.node_count, self.schedule)
        buffer = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(self.call.args)
        out["calls_ms"].append((time.perf_counter() - t) * 1e3)
        out["outputs"].append((code, buffer.getvalue().encode()))

    def check(self, out):
        (code, stdout), = out["outputs"]
        problems = self.call.check(code, stdout)
        if problems:
            out["problems"].append("; ".join(problems))
        out["records"] = record_count(self.call.depth, self.call.node_count)
        out["attempted"] = 1


def shard_comparison(out):
    """Serial against sharded verify_extension at the verify-cli sizes."""
    shards = min(2, os.cpu_count() or 1)
    sizes = ((6, 2), (5, 3))
    for d, q in sizes:
        special_points.enumerate_special_points(d, q)
    out.update(serial_s=0.0, sharded_s=0.0, shards=shards)
    for d, q in sizes:
        texts = []
        for key, n in (("serial_s", 1), ("sharded_s", shards)):
            t = time.perf_counter()
            texts.append(extension.verify_extension(d, q, (0, 0), (Fraction(1, 2), Fraction(-1, 2)),
                                                    shards=n).to_json())
            out[key] += time.perf_counter() - t
        if texts[0] != texts[1]:
            out["problems"].append(f"sharded report at d={d} q={q} differs from the serial one")
    out["attempted"] = len(sizes)


def main(argv: list[str]) -> int:
    mode, workload, seed, index = argv[0], argv[1], int(argv[2]), int(argv[3])
    tracer = None
    if mode in ("trace", "memory"):
        from tracer import Tracer

        tracer = Tracer(memory=mode == "memory")
        tracer.install()
        if tracer.memory:
            tracemalloc.start()
    out = {"calls_ms": [], "outputs": [], "problems": [], "records": 0, "attempted": 0}
    if mode == "shards":
        shard_comparison(out)
    else:
        if workload == "param-grid":
            work = ParamGrid(seed)
        elif workload == "general-graphs":
            work = GeneralGraphs(seed)
        else:
            work = CliCall(workload, seed, index)
        out["t_first"] = time.perf_counter()
        if mode != "setup":
            work.run(out)
            out["t_end"] = time.perf_counter()
            tracemalloc.stop()
            work.check(out)
    del out["outputs"]
    if tracer is not None:
        out["trace"] = tracer.summary()
        if mode == "trace":
            WORK.mkdir(exist_ok=True)
            with open(WORK / f"spans-{workload}-{index}.jsonl", "w") as fh:
                fh.writelines(json.dumps(span) + "\n" for span in tracer.spans)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
