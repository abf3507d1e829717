"""Deepest-stratum records for iterated degenerations of a two-component curve.

Take a one-parameter smoothing of a curve with two smooth components
joined at q nodes, and pull it back d times along sections landing on
nodes.  Over the deepest strata of the resolved total space the fiber is
the curve with every node replaced by a chain of d rational components.
Such a stratum point is captured by two finite records:

* ``section_nodes``: for each of the d sections, the node (1..q) it
  lands on;
* ``branch_words``: d + 1 words of length d over the alphabet "12".
  Locally the stratum sits on d + 1 branch charts; letter k of word j
  says whether section k approaches the near (1) or the far (2)
  component of the curve on chart j.

Which records actually occur is decided recursively.  A record of depth
d plus a choice of node for the next section yields d + 1 records of
depth d + 1, built from a specific reordering of the words: compare two
words at the positions whose section lands on the chosen node, scanning
from the last such position, with letter 2 first; if all those positions
agree, fall back to plain lexicographic order with letter 1 first.  The
reordering is both derivable from first principles (as the chart order
of the resolving subset sequence, see the blowups module) and stated
here directly as the comparison rule.

The far-branch counts of a word (how many sections approach the far
component, per node) drive the numerical stability conditions checked in
the extension module.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .blowups import SubsetCollection, collection_order, is_smooth_collection


class NotConstructibleError(ValueError):
    """Extension was requested from a record not produced by enumeration."""


class OrderIncompleteError(ValueError):
    """The comparison rule failed to totally order the words."""


class InvalidOrderError(ValueError):
    """A custom blowup schedule does not resolve the stratum (non-smooth)."""


@dataclass(frozen=True, slots=True)
class SpecialPoint:
    """One deepest-stratum record.

    The flag ``constructible`` marks records produced by
    :func:`enumerate_special_points`; hand-built records default to
    False and are accepted by the checkers but refused by the extension
    step.  The flag is excluded from equality.
    """

    section_nodes: tuple[int, ...]
    branch_words: tuple[str, ...]
    constructible: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "section_nodes", tuple(int(n) for n in self.section_nodes)
        )
        object.__setattr__(
            self, "branch_words", tuple(str(w) for w in self.branch_words)
        )
        d = len(self.section_nodes)
        if d < 1:
            raise ValueError("need at least one section")
        if any(n < 1 for n in self.section_nodes):
            raise ValueError("node indices start at 1")
        if len(self.branch_words) != d + 1:
            raise ValueError(f"expected {d + 1} words, got {len(self.branch_words)}")
        for w in self.branch_words:
            if len(w) != d or any(ch not in "12" for ch in w):
                raise ValueError(f"word {w!r} is not a length-{d} word over 12")
        if len(set(self.branch_words)) != d + 1:
            raise ValueError("words must be pairwise distinct")

    @classmethod
    def _trusted(
        cls, section_nodes: tuple[int, ...], branch_words: tuple[str, ...]
    ) -> "SpecialPoint":
        """A constructible record that skips __post_init__'s checks, for
        children of a record that passed them."""
        point = object.__new__(cls)
        object.__setattr__(point, "section_nodes", section_nodes)
        object.__setattr__(point, "branch_words", branch_words)
        object.__setattr__(point, "constructible", True)
        return point

    @property
    def depth(self) -> int:
        return len(self.section_nodes)

    def symbolic(self) -> "SpecialPoint":
        """Relabel nodes by first occurrence, keeping the words.

        Two records describe the same coincidence pattern exactly when
        their symbolic forms agree; the literal node values only matter
        up to which sections share a node.
        """
        seen: dict[int, int] = {}
        for n in self.section_nodes:
            if n not in seen:
                seen[n] = len(seen) + 1
        relabeled = tuple(seen[n] for n in self.section_nodes)
        return SpecialPoint(relabeled, self.branch_words, self.constructible)


def label_precedes(point: SpecialPoint, node: int, u: str, v: str) -> bool:
    """Strict comparison of two branch words relative to a node choice.

    Scan the positions whose section lands on ``node`` from the last one
    backwards; at the first disagreement the word carrying letter 2
    comes first.  If all those positions agree, compare the full words
    lexicographically with letter 1 first.
    """
    if u == v:
        return False
    for k in reversed(range(point.depth)):
        if point.section_nodes[k] == node and u[k] != v[k]:
            return u[k] == "2"
    for k in range(point.depth):
        if u[k] != v[k]:
            return u[k] == "1"
    return False


def node_order(point: SpecialPoint, node: int) -> tuple[str, ...]:
    """All branch words sorted by :func:`label_precedes` for this node.

    The rule is a strict total order on distinct words; totality is
    re-verified pairwise and a failure raises OrderIncompleteError.
    """
    ordered = sorted(
        point.branch_words,
        key=functools.cmp_to_key(
            lambda a, b: -1 if label_precedes(point, node, a, b) else 1
        ),
    )
    for i, u in enumerate(ordered):
        for v in ordered[i + 1 :]:
            if not label_precedes(point, node, u, v) or label_precedes(
                point, node, v, u
            ):
                raise OrderIncompleteError(
                    f"words {u!r} and {v!r} are not strictly ordered at node {node}"
                )
    return tuple(ordered)


@dataclass(frozen=True)
class BlowupSchedule:
    """A custom resolution recipe, given as a sequence of move blocks.

    Each move contributes subsets of the chart index set, in order:

    * "diagonals-descending": for sections landing on the chosen node,
      from the last position to the first, the set of charts whose word
      carries letter 2 there;
    * "diagonals-ascending": the same sets, first position to last;
    * "components-lex": for each word in lexicographic order, the
      singleton of its chart followed by the complement;
    * "components-c2-first": complement first, then the singleton;
    * "components-revlex": singleton then complement, words in reverse
      lexicographic order.

    Trivial sets (empty or the whole index set) are dropped.
    """

    moves: tuple[str, ...]

    _KNOWN = (
        "diagonals-descending",
        "diagonals-ascending",
        "components-lex",
        "components-c2-first",
        "components-revlex",
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "moves", tuple(str(m) for m in self.moves))
        if not self.moves:
            raise ValueError("schedule needs at least one move")
        for m in self.moves:
            if m not in self._KNOWN:
                raise ValueError(f"unknown move {m!r}")


DEFAULT_SCHEDULE = BlowupSchedule(("diagonals-descending", "components-lex"))


def schedule_collection(
    point: SpecialPoint, node: int, schedule: BlowupSchedule
) -> SubsetCollection:
    """Subset sequence produced by running a schedule at a stratum record.

    Chart j (1-based) refers to word j of the record as stored.
    """
    words = point.branch_words
    universe = frozenset(range(1, point.depth + 2))
    sets: list[frozenset[int]] = []

    def push(a: frozenset[int]) -> None:
        if a and a != universe:
            sets.append(a)

    lex = sorted(range(1, point.depth + 2), key=lambda j: words[j - 1])
    for move in schedule.moves:
        if move.startswith("diagonals"):
            positions = [
                k
                for k in range(point.depth)
                if point.section_nodes[k] == node
            ]
            if move.endswith("descending"):
                positions.reverse()
            for k in positions:
                push(
                    frozenset(
                        j for j in universe if words[j - 1][k] == "2"
                    )
                )
        else:
            order = list(reversed(lex)) if move.endswith("revlex") else lex
            for j in order:
                first, second = frozenset([j]), universe - frozenset([j])
                if move.endswith("c2-first"):
                    first, second = second, first
                push(first)
                push(second)
    return SubsetCollection(point.depth + 1, tuple(sets))


def schedule_order(
    point: SpecialPoint, node: int, schedule: BlowupSchedule
) -> tuple[str, ...]:
    """Word ordering induced by a schedule's subset sequence.

    Raises InvalidOrderError when the sequence fails to separate some
    pair of charts, meaning the schedule does not resolve this stratum.
    """
    col = schedule_collection(point, node, schedule)
    if not is_smooth_collection(col):
        raise InvalidOrderError(
            f"schedule {schedule.moves} does not separate all chart pairs"
        )
    return tuple(point.branch_words[j - 1] for j in collection_order(col))


def extend_special_point(
    point: SpecialPoint, node: int, schedule: BlowupSchedule | None = None
) -> tuple[SpecialPoint, ...]:
    """The depth d+1 records lying over a record and a node choice.

    With words v_1 < ... < v_{d+1} in the node ordering, the h-th child
    (h = 1..d+1) keeps the first h words on the near branch and the
    words from position h on the far branch:

        v_1 1, ..., v_h 1, v_h 2, ..., v_{d+1} 2

    so exactly the word v_h splits into both continuations.  Words are
    re-sorted lexicographically for storage.  A non-default schedule
    replaces the node ordering by the schedule-induced one.
    """
    if not point.constructible:
        raise NotConstructibleError("can only extend enumerated records")
    node = int(node)
    if node < 1:
        raise ValueError("node indices start at 1")
    if schedule is None:
        ordered = node_order(point, node)
    else:
        ordered = schedule_order(point, node, schedule)
    section_nodes = point.section_nodes + (node,)
    # Interned, so that all records share one string per distinct word.
    near = [sys.intern(w + "1") for w in ordered]
    far = [sys.intern(w + "2") for w in ordered]
    return tuple(
        SpecialPoint._trusted(section_nodes, tuple(sorted(near[:h] + far[h - 1 :])))
        for h in range(1, point.depth + 2)
    )


@functools.lru_cache(maxsize=32)
def _enumerate(
    depth: int, node_count: int, schedule: BlowupSchedule | None
) -> tuple[SpecialPoint, ...]:
    points = [
        SpecialPoint((n,), ("1", "2"), constructible=True)
        for n in range(1, node_count + 1)
    ]
    for _ in range(depth - 1):
        grown = set()
        for p in points:
            for node in range(1, node_count + 1):
                grown.update(extend_special_point(p, node, schedule))
        points = sorted(
            grown, key=lambda p: (p.section_nodes, p.branch_words)
        )
    return tuple(points)


def record_count(depth: int, node_count: int) -> int:
    """d! * q^d, the number of depth-d records over q nodes: one per
    sequence of node and split choices."""
    if depth < 1 or node_count < 1:
        raise ValueError("depth and node count must be positive")
    return math.factorial(depth) * node_count**depth


def enumerate_special_points(
    depth: int, node_count: int, schedule: BlowupSchedule | None = None
) -> tuple[SpecialPoint, ...]:
    """All depth-d records over a curve with the given number of nodes.

    Starts from the two-word records at depth 1 (one per node) and
    extends over every node choice, deduplicating and sorting by
    (section_nodes, branch_words).  The results of the 32 most recently
    used parameter sets are cached.
    """
    if depth < 1 or node_count < 1:
        raise ValueError("depth and node count must be positive")
    return _enumerate(depth, node_count, schedule)


@dataclass(frozen=True)
class BranchCounts:
    """Per-node counts of sections approaching the far branch."""

    per_node: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.per_node)


def far_branch_counts(
    point: SpecialPoint, word: str, node_count: int
) -> BranchCounts:
    """Count, per node, the sections whose letter in ``word`` is 2."""
    if node_count < max(point.section_nodes):
        raise ValueError("node_count smaller than a used node index")
    counts = [0] * node_count
    for k in range(point.depth):
        if word[k] == "2":
            counts[point.section_nodes[k] - 1] += 1
    return BranchCounts(tuple(counts))


def twist_level(
    point: SpecialPoint,
    word: str,
    deg_far: int,
    weight_far: Fraction,
    node_count: int,
) -> int:
    """Closed form for the balancing twist of one branch chart.

    Equals ceil((|a| - deg_far + weight_far) / q - 1/2) where |a| is the
    total far-branch count of the word, deg_far and weight_far are the
    line bundle degree and polarization weight on the far component, and
    q is the node count.  The extension module validates this against
    the exhaustive twist search on the two-component graph.
    """
    total = far_branch_counts(point, word, node_count).total
    inner = Fraction(total - deg_far) + Fraction(weight_far)
    return math.ceil(inner / node_count - Fraction(1, 2))


@dataclass(frozen=True)
class ItemCheck:
    number: int
    ok: bool
    witness: str = ""


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the five structural facts checked on a record."""

    items: tuple[ItemCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.items)

    def failed(self) -> tuple[int, ...]:
        return tuple(c.number for c in self.items if not c.ok)


def check_special_point(
    point: SpecialPoint, node: int, node_count: int | None = None
) -> StructureReport:
    """Verify the five structural facts a constructible record satisfies.

    Using the stored word sequence u_1, ..., u_{d+1} and the node
    ordering v_1, ..., v_{d+1}:

    1. the node ordering is a cyclic rotation of the stored sequence;
    2. far-branch count vectors are componentwise non-decreasing along
       the stored sequence;
    3. the chosen node's count is non-increasing along the node
       ordering;
    4. that count drops by at most 1 from v_1 to v_{d+1}, with equality
       exactly when some section lands on the chosen node;
    5. total far-branch counts grow by at most 1 per step along the
       stored sequence.

    Hand-built records may violate any of these; each item carries a
    short witness string on failure.
    """
    if node_count is None:
        node_count = max((*point.section_nodes, node))
    stored = point.branch_words
    ordered = node_order(point, node)
    vectors = {
        w: far_branch_counts(point, w, node_count) for w in stored
    }
    items = []

    rotations = {
        stored[i:] + stored[:i] for i in range(len(stored))
    }
    items.append(
        ItemCheck(
            1,
            ordered in rotations,
            "" if ordered in rotations else f"order {ordered} is not a rotation",
        )
    )

    bad = ""
    for j in range(point.depth):
        a, b = vectors[stored[j]].per_node, vectors[stored[j + 1]].per_node
        if any(x > y for x, y in zip(a, b)):
            bad = f"step {j + 1}: {a} > {b} componentwise"
            break
    items.append(ItemCheck(2, not bad, bad))

    bad = ""
    at_node = [vectors[w].per_node[node - 1] for w in ordered]
    for j in range(point.depth):
        if at_node[j] < at_node[j + 1]:
            bad = f"step {j + 1}: {at_node[j]} < {at_node[j + 1]} at node {node}"
            break
    items.append(ItemCheck(3, not bad, bad))

    drop = at_node[0] - at_node[-1]
    lands = node in point.section_nodes
    ok4 = drop <= 1 and (drop == 1) == lands
    items.append(
        ItemCheck(
            4,
            ok4,
            "" if ok4 else f"drop {drop}, node used: {lands}",
        )
    )

    bad = ""
    for j in range(point.depth):
        lo, hi = vectors[stored[j]].total, vectors[stored[j + 1]].total
        if hi - lo > 1:
            bad = f"step {j + 1}: total jumps {lo} -> {hi}"
            break
    items.append(ItemCheck(5, not bad, bad))

    return StructureReport(tuple(items))
