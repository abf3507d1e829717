"""Spans and counters around the package's public calls, for the traced run.

The tracer replaces each listed function, in every abelcheck module that
holds it, with a wrapper that records a span (name, start, end, parent)
and updates counters at the same call site.  Spans stay in memory until
the run ends.  With ``memory=True`` each span also records its
tracemalloc peak above the memory in use when it started; that pass is
kept apart from the timing pass because tracemalloc slows allocation.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import Counter


def _first_call_records(counts, seen, args, result):
    # Records of the first call per parameter set: later calls with the
    # same parameters may be served from a cache and enumerate nothing.
    key = tuple(args) + (None,) * (3 - len(args))
    if key not in seen:
        seen.add(key)
        counts["special_points.enumerate.records"] += len(result)


def _verify_counts(counts, seen, args, result):
    counts["extension.verify.records"] += result.points
    for failure in result.failures:
        counts[f"extension.verify.failures_cond{failure.condition}"] += 1


# (module, attribute, span name, counter update or None).  Span names
# are "<layer>.<operation>"; the layer is the module's name, except that
# schedule-induced orders count as blowups work wherever they live.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("special_points", "enumerate_special_points", "special_points.enumerate",
     _first_call_records),
    ("special_points", "node_order", "special_points.node_order", None),
    ("special_points", "extend_special_point", "special_points.extend",
     lambda c, s, a, r: c.update({"special_points.extend.children": len(r)})),
    ("special_points", "schedule_order", "blowups.schedule_order", None),
    ("extension", "verify_extension", "extension.verify", _verify_counts),
    ("extension", "ExtensionReport.to_json", "extension.to_json",
     lambda c, s, a, r: c.update({"extension.to_json.bytes": len(r)})),
    ("extension", "check_admissibility_condition", "extension.admissibility",
     lambda c, s, a, r: c.update({"extension.admissibility.failures": not r.ok})),
    ("extension", "check_stability_condition", "extension.stability",
     lambda c, s, a, r: c.update({"extension.stability.failures": not r.ok})),
    ("curves", "quasistable_twist_search", "curves.twist_search",
     lambda c, s, a, r: c.update({"curves.twist_search.radius_total": max(r.coeffs)})),
    ("curves", "admissible_subcurves", "curves.admissible_subcurves",
     lambda c, s, a, r: c.update({"curves.admissible_subcurves.subcurves": len(r)})),
    ("curves", "is_quasistable", "curves.is_quasistable", None),
    ("chains", "semistabilize", "chains.semistabilize",
     lambda c, s, a, r: c.update({"chains.semistabilize.iterations": len(r.twister.history)})),
    ("chains", "pushforward_quasistable", "chains.pushforward", None),
)


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._frames: list[list[int]] = []  # [memory at entry, running peak]

    def install(self) -> None:
        """Wrap every target in every loaded abelcheck module that holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "abelcheck" or name.startswith("abelcheck.")]
        for module_name, attr, span, update in TARGETS:
            home = importlib.import_module(f"abelcheck.{module_name}")
            owner_name, _, attr_name = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr_name, None)
            if original is None:
                self.missing.append(f"abelcheck.{module_name}.{attr}")
                continue
            wrapper = self._wrap(span, original, update)
            if owner_name:
                setattr(owner, attr_name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name, fn, update):
        seen: set = set()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            if self.memory:
                self._enter_memory()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if self.memory:
                    self._exit_memory(name)
            self.counts[name + ".calls"] += 1
            if update is not None:
                update(self.counts, seen, args, result)
            return result

        return traced

    def _enter_memory(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], peak)
        tracemalloc.reset_peak()
        self._frames.append([current, current])

    def _exit_memory(self, name: str) -> None:
        start, running = self._frames.pop()
        peak = max(running, tracemalloc.get_traced_memory()[1])
        self.peaks[name] = max(self.peaks.get(name, 0), peak - start)
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], peak)

    def summary(self) -> dict:
        """Counts, self time and tracemalloc peak per span name."""
        self_time = Counter()
        for name, start, end, _ in self.spans:
            self_time[name] += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        return {
            "counts": dict(self.counts),
            "self_s": dict(self_time),
            "peak_bytes": self.peaks,
            "spans": len(self.spans),
            "missing": self.missing,
        }
