"""Numerical extension conditions for limits of line bundles at a degeneration.

Over a one-parameter smoothing pulled back d times, each local branch
chart j carries a twisted sheaf whose fiber multidegree differs from the
original line bundle by the marked-point correction and by one unit per
section, placed on whichever component the section approaches on that
chart.  Balancing the multidegree by the exhaustive twist search yields
one level per component; the relevant invariant of a node is the level
difference across it.

A class of limit sheaves glues to a single object over the whole base
exactly when two families of inequalities hold for every admissible
subcurve Y containing the marked component:

1. the per-node correction a - b varies by at most 1 across charts
   (the induced degrees on the exceptional chains stay admissible);
2. for every assignment of a chart to each node, the corrected degree
   of Y stays inside the usual half-open stability interval.

For the two-component curve these conditions close up: Y is the marked
component, the twist level has the closed form of
special_points.twist_level, and both conditions depend on the line
bundle and polarization only through the single rational
c = weight(far) - degree(far).  verify_extension exploits that to sweep
entire parameter grids cheaply, while the general route recomputes
everything from explicit section data on an arbitrary dual graph.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .curves import (
    DualGraph,
    Multidegree,
    Polarization,
    Subcurve,
    admissible_subcurves,
    quasistable_twist_search,
)
from .fileio import format_json, write_json_array
from .special_points import (
    BlowupSchedule,
    SpecialPoint,
    enumerate_special_points,
    record_count,
)


@dataclass(frozen=True)
class NodeSection:
    """A section through a node, with its branch choice per chart.

    ``node`` indexes the graph's node list (1-based).  ``on_first``
    holds the charts where the section approaches the branch of the
    node's first endpoint component; on every other chart it approaches
    the second endpoint's branch.
    """

    node: int
    on_first: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "node", int(self.node))
        object.__setattr__(
            self, "on_first", frozenset(int(j) for j in self.on_first)
        )
        if self.node < 1:
            raise ValueError("node indices start at 1")


def two_component_graph(node_count: int) -> DualGraph:
    """Two components joined at the given number of nodes, marked on 1."""
    return DualGraph(2, tuple((1, 2) for _ in range(node_count)), marked=1)


def sections_from_point(point: SpecialPoint) -> tuple[NodeSection, ...]:
    """Translate a stratum record into explicit section data.

    Section k sits at the node it lands on; chart j is on the near side
    exactly when letter k of word j is 1.  Node indices double as node
    labels because two_component_graph lists its nodes in label order.
    """
    sections = []
    for k in range(point.depth):
        near = frozenset(
            j + 1
            for j, w in enumerate(point.branch_words)
            if w[k] == "1"
        )
        sections.append(NodeSection(point.section_nodes[k], near))
    return tuple(sections)


def fiber_multidegree(
    g: DualGraph,
    l_md: Multidegree,
    sections: tuple[NodeSection, ...],
    chart: int,
    marked_extra: int | None = None,
) -> Multidegree:
    """Multidegree of the twisted sheaf on the fiber over one chart.

    Adds marked_extra (default: the section count) on the marked
    component and subtracts one on the component whose branch each
    section approaches at this chart.
    """
    if marked_extra is None:
        marked_extra = len(sections)
    degs = list(l_md.degs)
    degs[g.marked - 1] += marked_extra
    for s in sections:
        r, t = g.nodes[s.node - 1]
        comp = r if chart in s.on_first else t
        degs[comp - 1] -= 1
    return Multidegree(tuple(degs))


def section_count_away(
    g: DualGraph,
    sections: tuple[NodeSection, ...],
    y: Subcurve,
    node: int,
    chart: int,
) -> int:
    """Sections at a node whose branch at this chart leaves the subcurve."""
    count = 0
    for s in sections:
        if s.node != node:
            continue
        r, t = g.nodes[s.node - 1]
        comp = r if chart in s.on_first else t
        if comp not in y.members:
            count += 1
    return count


def twist_level_difference(
    g: DualGraph, levels: tuple[int, ...], y: Subcurve, node: int
) -> int:
    """Level gap across a node: outside level minus inside level.

    Zero when the node does not lie on the boundary of the subcurve.
    The gap is invariant under shifting all levels, so the canonical
    normalization of the search does not matter.
    """
    r, t = g.nodes[node - 1]
    r_in, t_in = r in y.members, t in y.members
    if r_in == t_in:
        return 0
    inside, outside = (r, t) if r_in else (t, r)
    return levels[outside - 1] - levels[inside - 1]


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def _chart_levels(
    g: DualGraph,
    pol: Polarization,
    l_md: Multidegree,
    sections: tuple[NodeSection, ...],
    chart_count: int,
    marked_extra: int | None,
) -> dict[int, tuple[int, ...]]:
    return {
        j: quasistable_twist_search(
            g, pol, fiber_multidegree(g, l_md, sections, j, marked_extra)
        ).coeffs
        for j in range(1, chart_count + 1)
    }


def _marked_admissible(g: DualGraph) -> list[Subcurve]:
    return [y for y in admissible_subcurves(g) if g.marked in y.members]


def _interval(
    g: DualGraph, pol: Polarization, l_md: Multidegree, y: Subcurve
) -> tuple[Fraction, Fraction]:
    """deg(Y) - weight(Y), and half the number of nodes on Y's boundary."""
    base = Fraction(sum(l_md.degs[i - 1] for i in y.members)) - sum(
        pol.weights[i - 1] for i in y.members
    )
    boundary = sum(1 for r, t in g.nodes if (r in y.members) != (t in y.members))
    return base, Fraction(boundary, 2)


def check_admissibility_condition(
    g: DualGraph,
    pol: Polarization,
    l_md: Multidegree,
    sections: tuple[NodeSection, ...],
    chart_count: int,
    marked_extra: int | None = None,
) -> CheckResult:
    """Spread of the per-node correction a - b across charts is at most 1.

    Quantified over every admissible subcurve containing the marked
    component and every node on its boundary.  A failure is returned
    with the subcurve, node, and the two extreme charts.
    """
    levels = _chart_levels(g, pol, l_md, sections, chart_count, marked_extra)
    for y in _marked_admissible(g):
        for node in range(1, len(g.nodes) + 1):
            r, t = g.nodes[node - 1]
            if (r in y.members) == (t in y.members):
                continue
            values = {
                j: section_count_away(g, sections, y, node, j)
                - twist_level_difference(g, levels[j], y, node)
                for j in range(1, chart_count + 1)
            }
            lo = min(values, key=values.get)
            hi = max(values, key=values.get)
            if values[hi] - values[lo] > 1:
                return CheckResult(
                    False,
                    {
                        "subcurve": list(y.sorted_members()),
                        "node": node,
                        "charts": [lo, hi],
                        "values": [values[lo], values[hi]],
                    },
                )
    return CheckResult(True)


def check_stability_condition(
    g: DualGraph,
    pol: Polarization,
    l_md: Multidegree,
    sections: tuple[NodeSection, ...],
    chart_count: int,
    marked_extra: int | None = None,
    mode: str = "separable",
) -> CheckResult:
    """Corrected degree of every marked subcurve stays in its interval.

    For an assignment of a chart to each node, the correction adds
    a - b summed over all nodes to deg(Y) - weight(Y), and the result
    must lie in (-k/2, k/2].  Brute mode tries every assignment;
    separable mode tests only the two extreme sums, which is equivalent
    because the terms are independent across nodes.
    """
    if mode not in ("brute", "separable"):
        raise ValueError(f"unknown mode {mode!r}")
    levels = _chart_levels(g, pol, l_md, sections, chart_count, marked_extra)
    node_range = range(1, len(g.nodes) + 1)
    for y in _marked_admissible(g):
        base, half_k = _interval(g, pol, l_md, y)
        per_node = {
            node: {
                j: section_count_away(g, sections, y, node, j)
                - twist_level_difference(g, levels[j], y, node)
                for j in range(1, chart_count + 1)
            }
            for node in node_range
        }

        def fails(assignment: dict[int, int]) -> dict | None:
            total = base + sum(per_node[n][assignment[n]] for n in node_range)
            if -half_k < total <= half_k:
                return None
            return {
                "subcurve": list(y.sorted_members()),
                "assignment": {str(n): assignment[n] for n in node_range},
                "margin": str(total),
                "bound": str(half_k),
            }

        if mode == "brute":
            for combo in itertools.product(
                range(1, chart_count + 1), repeat=len(g.nodes)
            ):
                witness = fails(dict(zip(node_range, combo)))
                if witness:
                    return CheckResult(False, witness)
        else:
            low = {n: min(per_node[n], key=per_node[n].get) for n in node_range}
            high = {n: max(per_node[n], key=per_node[n].get) for n in node_range}
            for assignment in (low, high):
                witness = fails(assignment)
                if witness:
                    return CheckResult(False, witness)
    return CheckResult(True)


def check_fixed_chart_bound(
    g: DualGraph,
    pol: Polarization,
    l_md: Multidegree,
    sections: tuple[NodeSection, ...],
    chart_count: int,
    marked_extra: int | None = None,
) -> bool:
    """Interval condition for constant assignments only.

    Assigning the same chart to every node reproduces the quasistability
    of the balanced sheaf on that chart, so this must always pass; a
    False indicates a bookkeeping bug upstream and is surfaced in tests.
    """
    levels = _chart_levels(g, pol, l_md, sections, chart_count, marked_extra)
    for y in _marked_admissible(g):
        base, half_k = _interval(g, pol, l_md, y)
        for j in range(1, chart_count + 1):
            total = base + sum(
                section_count_away(g, sections, y, node, j)
                - twist_level_difference(g, levels[j], y, node)
                for node in range(1, len(g.nodes) + 1)
            )
            if not (-half_k < total <= half_k):
                return False
    return True


def _check_chunk(
    points: tuple[SpecialPoint, ...], c: Fraction, node_count: int, mode: str
) -> list[tuple[SpecialPoint, int, dict]]:
    """(record, condition, witness) for each record failing a condition.

    Node n's correction on a word is its count of 2s at the positions
    whose section lands on n, minus the word's chart level, which for t
    far sections is ceil((t + c)/q - 1/2).  On the marked component
    deg(Y) - weight(Y) equals c, so corrections summing to the integer
    S stay in the interval (-q/2, q/2] exactly when s_lo < S <= s_hi.
    """
    depth = max((p.depth for p in points), default=0)
    levels = [
        math.ceil((t + c) / node_count - Fraction(1, 2)) for t in range(depth + 1)
    ]
    half_k = Fraction(node_count, 2)
    s_lo, s_hi = math.floor(-half_k - c), math.floor(half_k - c)

    def check_point(point: SpecialPoint) -> tuple[int, dict] | None:
        words = point.branch_words
        word_levels = [levels[w.count("2")] for w in words]
        table = []
        for n in range(1, node_count + 1):
            positions = [k for k, m in enumerate(point.section_nodes) if m == n]
            far = operator.itemgetter(*positions) if positions else lambda w: ""
            row = [far(w).count("2") - lv for w, lv in zip(words, word_levels)]
            lo, hi = min(row), max(row)
            if hi - lo > 1:
                return 1, {
                    "node": n,
                    "charts": [words[row.index(lo)], words[row.index(hi)]],
                    "values": [lo, hi],
                }
            table.append(row)
        if mode == "brute":
            choices = itertools.product(range(len(words)), repeat=node_count)
        else:
            choices = (
                [row.index(min(row)) for row in table],
                [row.index(max(row)) for row in table],
            )
        for choice in choices:
            total = sum(row[i] for row, i in zip(table, choice))
            if not s_lo < total <= s_hi:
                return 2, {
                    "assignment": {
                        str(n): words[i] for n, i in enumerate(choice, start=1)
                    },
                    "margin": str(c + total),
                    "bound": str(half_k),
                }
        return None

    return [(p, *r) for p in points if (r := check_point(p)) is not None]


def _check_sharded(
    points: tuple[SpecialPoint, ...],
    c: Fraction,
    node_count: int,
    mode: str,
    workers: int,
) -> list[tuple[SpecialPoint, int, dict]]:
    """_check_chunk over round-robin shards in a process pool.

    Falls back to one serial pass, with a note on stderr, only when the
    pool cannot be started; an error raised inside a worker propagates.
    """
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_check_chunk, points[i::workers], c, node_count, mode)
                for i in range(workers)
            ]
    except (OSError, NotImplementedError) as exc:
        print(
            f"abelcheck: cannot start a process pool ({exc}); checking serially",
            file=sys.stderr,
        )
        return _check_chunk(points, c, node_count, mode)
    return [found for fut in futures for found in fut.result()]


@dataclass(frozen=True, slots=True)
class PointFailure:
    point: SpecialPoint
    condition: int
    witness: dict

    def to_dict(self) -> dict:
        return {
            "point": {
                "section_nodes": list(self.point.section_nodes),
                "branch_words": list(self.point.branch_words),
            },
            "condition": self.condition,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class ExtensionReport:
    depth: int
    node_count: int
    degrees: tuple[int, int]
    weights: tuple[Fraction, Fraction]
    order: tuple[str, ...] | None
    mode: str
    points: int
    failures: tuple[PointFailure, ...]
    # "theorem" or "records": how verify_extension reached the verdict.
    # Not part of equality or of the report's JSON.
    path: str = field(compare=False)

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def _summary(self) -> dict:
        return {
            "params": {
                "depth": self.depth,
                "node_count": self.node_count,
                "degrees": list(self.degrees),
                "weights": [str(w) for w in self.weights],
                "order": "default" if self.order is None else list(self.order),
                "mode": self.mode,
            },
            "points": self.points,
            "verdict": self.verdict,
        }

    def to_dict(self) -> dict:
        return {**self._summary(), "failures": [f.to_dict() for f in self.failures]}

    def write_json(self, fp) -> None:
        """Write to_json()'s text to fp, one failure at a time.

        With sorted keys "failures" comes first, ahead of the summary's
        "params", "points" and "verdict"; neither the failure dicts nor
        the whole text is ever built.
        """
        fp.write('{\n  "failures": ')
        write_json_array(fp, (f.to_dict() for f in self.failures), level=1)
        for key, value in sorted(self._summary().items()):
            fp.write(f',\n  "{key}": {format_json(value, 1)}')
        fp.write("\n}")

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2)``."""
        buffer = io.StringIO()
        self.write_json(buffer)
        return buffer.getvalue()


def _checked_inputs(
    degrees: tuple[int, int],
    weights: tuple[Fraction, Fraction] | tuple[int, int],
    mode: str,
    shards: int,
) -> tuple[Multidegree, Polarization]:
    if mode not in ("brute", "separable"):
        raise ValueError(f"unknown mode {mode!r}")
    if shards < 1:
        raise ValueError("shards must be positive")
    l_md = Multidegree(tuple(degrees))
    pol = Polarization(tuple(weights))
    if len(l_md.degs) != 2 or len(pol.weights) != 2:
        raise ValueError("two components expected")
    if l_md.total != pol.e:
        raise ValueError(
            f"degree total {l_md.total} does not match weight total {pol.e}"
        )
    return l_md, pol


def verify_extension(
    depth: int,
    node_count: int,
    degrees: tuple[int, int],
    weights: tuple[Fraction, Fraction] | tuple[int, int],
    order: BlowupSchedule | None = None,
    mode: str = "separable",
    shards: int = 1,
) -> ExtensionReport:
    """Run both conditions over every stratum record at these parameters.

    degrees is the line bundle multidegree on (near, far); weights the
    polarization, summing to the same total.  All-pass means the sheaf
    family extends over the whole resolved base.  A custom order swaps
    the enumeration's word ordering for the schedule-induced one, which
    changes the set of records and typically breaks the conditions;
    InvalidOrderError propagates when the schedule fails to resolve a
    stratum.  Sharding splits the record list round-robin over at most
    os.cpu_count() worker processes and never changes the report.

    The default order in separable mode enumerates nothing: by the
    rotation theorem (abelcheck.theorem) all d!*q^d records pass, and
    the report says so with path "theorem".  Brute mode and every
    custom order check each record (_verify_records).
    """
    if order is not None or mode != "separable":
        return _verify_records(
            depth, node_count, degrees, weights, order, mode, shards
        )
    _, pol = _checked_inputs(degrees, weights, mode, shards)
    return ExtensionReport(
        depth=depth,
        node_count=node_count,
        degrees=tuple(int(x) for x in degrees),
        weights=(pol.weights[0], pol.weights[1]),
        order=None,
        mode=mode,
        points=record_count(depth, node_count),
        failures=(),
        path="theorem",
    )


def _verify_records(
    depth: int,
    node_count: int,
    degrees: tuple[int, int],
    weights: tuple[Fraction, Fraction] | tuple[int, int],
    order: BlowupSchedule | None = None,
    mode: str = "separable",
    shards: int = 1,
) -> ExtensionReport:
    """verify_extension by enumerating and checking every record."""
    l_md, pol = _checked_inputs(degrees, weights, mode, shards)
    c = pol.weights[1] - Fraction(l_md.degs[1])
    points = enumerate_special_points(depth, node_count, order)

    workers = min(shards, os.cpu_count() or 1, len(points))
    if workers > 1:
        results = _check_sharded(points, c, node_count, mode, workers)
    else:
        results = _check_chunk(points, c, node_count, mode)

    results.sort(key=lambda r: (r[0].section_nodes, r[0].branch_words, r[1]))
    failures = tuple(PointFailure(p, cond, wit) for p, cond, wit in results)
    return ExtensionReport(
        depth=depth,
        node_count=node_count,
        degrees=tuple(int(x) for x in degrees),
        weights=(pol.weights[0], pol.weights[1]),
        order=None if order is None else order.moves,
        mode=mode,
        points=len(points),
        failures=failures,
        path="records",
    )
