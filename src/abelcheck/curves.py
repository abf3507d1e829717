"""Dual graphs of nodal curves and quasistability of multidegrees.

A nodal curve with smooth components is modelled by its dual graph: one
vertex per component, one edge per node.  All degree bookkeeping is exact;
polarizations are tuples of :class:`fractions.Fraction`.

The central notion is quasistability of a multidegree with respect to a
polarization and a marked component.  For a subcurve Y with boundary size
k(Y), write m(Y) = deg(Y) - weight(Y) for its stability margin.  The
multidegree is quasistable when every subcurve satisfies

    -k(Y)/2 <  m(Y) <= k(Y)/2   if Y carries the marked point,
    -k(Y)/2 <= m(Y) <  k(Y)/2   otherwise.

It suffices to test connected subcurves with connected complement; the
test suite checks this reduction against an all-subsets oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class DegreeMismatchError(ValueError):
    """Total degree of the multidegree does not match the polarization."""


class TwistSearchExhaustedError(RuntimeError):
    """No quasistable representative was found within the search radius."""


@dataclass(frozen=True)
class DualGraph:
    """Connected dual graph of a nodal curve with a marked component.

    Components are numbered 1..components.  ``nodes`` is a multiset of
    pairs (r, s) with r != s; parallel pairs are allowed and count
    separately.  The pair order is preserved because callers may attach
    orientation-dependent data (which branch a section meets) to it.
    """

    components: int
    nodes: tuple[tuple[int, int], ...]
    marked: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", int(self.components))
        object.__setattr__(
            self, "nodes", tuple((int(r), int(s)) for r, s in self.nodes)
        )
        object.__setattr__(self, "marked", int(self.marked))
        p = self.components
        if p < 1:
            raise ValueError("a curve needs at least one component")
        for r, s in self.nodes:
            if not (1 <= r <= p and 1 <= s <= p):
                raise ValueError(f"node ({r}, {s}) mentions a missing component")
            if r == s:
                raise ValueError("components are smooth: no node joins one to itself")
        if not (1 <= self.marked <= p):
            raise ValueError("marked component out of range")
        if not _is_connected(p, self.nodes, frozenset(range(1, p + 1))):
            raise ValueError("dual graph must be connected")

    def valence(self, i: int) -> int:
        """Number of nodes touching component i, with multiplicity."""
        return sum((r == i) + (s == i) for r, s in self.nodes)


@dataclass(frozen=True)
class Subcurve:
    """A nonempty proper set of components of some dual graph."""

    members: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(int(i) for i in self.members))
        if not self.members:
            raise ValueError("a subcurve has at least one component")

    def complement(self, g: DualGraph) -> "Subcurve":
        return Subcurve(frozenset(range(1, g.components + 1)) - self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


@dataclass(frozen=True)
class Polarization:
    """Rational component weights whose total is an integer."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights", tuple(Fraction(w) for w in self.weights)
        )
        if not self.weights:
            raise ValueError("empty polarization")
        if sum(self.weights).denominator != 1:
            raise ValueError("polarization weights must sum to an integer")

    @property
    def e(self) -> int:
        """Total degree of the polarization."""
        return int(sum(self.weights))


@dataclass(frozen=True)
class Multidegree:
    """Integer degree of a line bundle on each component."""

    degs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "degs", tuple(int(d) for d in self.degs))
        if not self.degs:
            raise ValueError("empty multidegree")

    @property
    def total(self) -> int:
        return sum(self.degs)


@dataclass(frozen=True)
class TwistVector:
    """Integer coefficients of a component-supported twist divisor."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("empty twist vector")

    def canonical(self) -> "TwistVector":
        """Shift by a constant so the minimum coefficient is zero.

        Constant vectors act trivially, so this picks one representative
        per equivalence class of twists.
        """
        low = min(self.coeffs)
        return TwistVector(tuple(c - low for c in self.coeffs))


def _is_connected(
    p: int, nodes: tuple[tuple[int, int], ...], members: frozenset[int]
) -> bool:
    if not members:
        return False
    adjacency: dict[int, set[int]] = {i: set() for i in members}
    for r, s in nodes:
        if r in members and s in members:
            adjacency[r].add(s)
            adjacency[s].add(r)
    seen = {next(iter(members))}
    frontier = list(seen)
    while frontier:
        current = frontier.pop()
        for other in adjacency[current]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(members)


def boundary_count(g: DualGraph, y: Subcurve) -> int:
    """Number of nodes joining y to its complement (k(Y))."""
    members = y.members
    return sum(1 for r, s in g.nodes if (r in members) != (s in members))


def subcurve_degree(md: Multidegree, y: Subcurve) -> int:
    return sum(md.degs[i - 1] for i in y.members)


def subcurve_weight(pol: Polarization, y: Subcurve) -> Fraction:
    return sum((pol.weights[i - 1] for i in y.members), Fraction(0))


@lru_cache(maxsize=128)
def admissible_subcurves(g: DualGraph) -> tuple[Subcurve, ...]:
    """Connected subcurves with connected complement, smallest first.

    These are exactly the subcurves that need checking for
    quasistability; the order is deterministic (by size, then members).
    """
    p = g.components
    everything = frozenset(range(1, p + 1))
    found = []
    for size in range(1, p):
        for combo in itertools.combinations(range(1, p + 1), size):
            members = frozenset(combo)
            if _is_connected(p, g.nodes, members) and _is_connected(
                p, g.nodes, everything - members
            ):
                found.append(Subcurve(members))
    return tuple(found)


def quasistable_over(
    g: DualGraph, pol: Polarization, md: Multidegree, y: Subcurve
) -> bool:
    """Stability inequality for a single subcurve.

    The side carrying the marked point gets the half-open interval that
    is closed on the right; the other side gets the mirror image.
    """
    margin = subcurve_degree(md, y) - subcurve_weight(pol, y)
    half = Fraction(boundary_count(g, y), 2)
    if g.marked in y.members:
        return -half < margin <= half
    return -half <= margin < half


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a quasistability test, with the first violation if any."""

    ok: bool
    witness: Subcurve | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_quasistable(g: DualGraph, pol: Polarization, md: Multidegree) -> StabilityVerdict:
    """Test quasistability of ``md`` against ``pol`` on ``g``.

    Raises DegreeMismatchError when the totals disagree.  On failure the
    verdict carries the first violating subcurve in the deterministic
    order of :func:`admissible_subcurves`.
    """
    _check_sizes(g, pol, md)
    if md.total != pol.e:
        raise DegreeMismatchError(
            f"multidegree total {md.total} != polarization degree {pol.e}"
        )
    for y in admissible_subcurves(g):
        if not quasistable_over(g, pol, md, y):
            return StabilityVerdict(False, y)
    return StabilityVerdict(True, None)


def _check_sizes(g: DualGraph, pol: Polarization | None, md: Multidegree | None) -> None:
    if pol is not None and len(pol.weights) != g.components:
        raise ValueError("polarization length does not match component count")
    if md is not None and len(md.degs) != g.components:
        raise ValueError("multidegree length does not match component count")


def twist_action(g: DualGraph, md: Multidegree, z: TwistVector) -> Multidegree:
    """Apply a twist to a multidegree.

    Component i changes by sum over nodes at i of (z_i - z_other); the
    total degree is conserved and constant vectors act trivially.
    """
    _check_sizes(g, None, md)
    if len(z.coeffs) != g.components:
        raise ValueError("twist vector length does not match component count")
    degs = list(md.degs)
    for r, s in g.nodes:
        step = z.coeffs[r - 1] - z.coeffs[s - 1]
        degs[r - 1] += step
        degs[s - 1] -= step
    return Multidegree(tuple(degs))


def iter_canonical_twists(p: int, max_radius: int):
    """Yield canonical twist tuples by increasing radius, lexicographic within.

    Canonical means the minimum coefficient is 0; the radius is the
    maximum coefficient.  Every twist class appears exactly once.
    """
    yield (0,) * p
    for radius in range(1, max_radius + 1):
        for coeffs in itertools.product(range(radius + 1), repeat=p):
            if min(coeffs) == 0 and max(coeffs) == radius:
                yield coeffs


def default_search_radius(g: DualGraph, pol: Polarization, md: Multidegree) -> int:
    """Search bound derived from the per-component imbalance.

    A stabilizing twist only has to shuttle the excess deg_i - w_i
    across the graph, so its coefficient spread is controlled by the
    total imbalance; the bound below is deliberately generous because
    the descent needs no bound and the cap only matters for the
    exhaustion error path.
    """
    peak = max(math.ceil(abs(Fraction(d) - w)) for d, w in zip(md.degs, pol.weights))
    return 2 * (abs(pol.e) + g.components * peak) + g.components


@lru_cache(maxsize=128)
def _twist_rows(
    g: DualGraph, pol: Polarization
) -> tuple[int, tuple[int, ...], tuple[tuple, ...]]:
    """The stability inequalities of ``g`` and ``pol`` in integers.

    Returns ``(scale, weights, rows)``: ``scale`` is twice the lcm of the
    weight denominators, ``weights[i]`` is scale times the weight of
    component i + 1, and each admissible subcurve Y gives a row
    ``(members, has_mark, half, boundary)`` with 0-based members,
    half = scale * k(Y) / 2 and one (inside, outside) index pair per
    node leaving Y.
    """
    scale = 2 * math.lcm(*(w.denominator for w in pol.weights))
    weights = tuple(int(w * scale) for w in pol.weights)
    rows = []
    for y in admissible_subcurves(g):
        inside = y.members
        boundary = tuple(
            (r - 1, s - 1) if r in inside else (s - 1, r - 1)
            for r, s in g.nodes
            if (r in inside) != (s in inside)
        )
        rows.append(
            (
                tuple(i - 1 for i in y.sorted_members()),
                g.marked in inside,
                scale * len(boundary) // 2,
                boundary,
            )
        )
    return scale, weights, tuple(rows)


def quasistable_twist_search(
    g: DualGraph,
    pol: Polarization,
    md: Multidegree,
    max_radius: int | None = None,
) -> TwistVector:
    """Find the canonical twist whose action makes ``md`` quasistable.

    There is exactly one such twist up to constants (Esteves, Trans. AMS
    2001; the test suite checks uniqueness by exhaustion), and it is
    found by descent.  Start from z = 0 with the excesses
    x_i = deg_i - w_i, scaled to integers.  While some admissible
    subcurve Y violates its inequality, take the most violated one and
    twist by +1_Y (margin too low) or -1_Y (too high), repeated until
    Y's margin is in range; each unit twist moves x(Y) by k(Y) and
    moves one degree across each boundary node.

    Why this stops, and only at the answer: twisting by z sends x to
    x + Lz, with L the Laplacian of the dual graph.  Put
    x~ = x - eps * (e_marked - 1/p) for a small eps > 0 and
    E(z) = z^T L z / 2 + z^T x~.  Since sum(x) = 0, E is invariant
    under adding constants, and since the graph is connected, L is
    positive definite modulo constants, so E takes finitely many
    values below E(0) on integer twists.  A unit twist by t * 1_Y
    (t = +-1) changes E by t * x~(Y) + k(Y) / 2, where x~(Y) is taken
    at the current twist.  The eps shifts x(Y) down by
    eps * (1 - |Y|/p) when Y carries the marked point and up by
    eps * |Y|/p otherwise, so Y violates its half-open inequality
    exactly when |x~(Y)| > k(Y)/2, and then the move against the sign
    of x~(Y) lowers E by |x~(Y)| - k(Y)/2 > 0.  So the descent ends,
    and it ends where no admissible subcurve is violated, which is
    quasistability.

    Raises TwistSearchExhaustedError when the answer's radius (its
    largest canonical coefficient) exceeds ``max_radius``; the zero
    twist is always accepted.  ``max_radius=None`` means
    :func:`default_search_radius`, which is at least the number of
    components, so it is only computed for answers wider than that.
    """
    _check_sizes(g, pol, md)
    scale, weights, rows = _twist_rows(g, pol)
    excess = [scale * d - w for d, w in zip(md.degs, weights)]
    if sum(excess):
        raise DegreeMismatchError(
            f"multidegree total {md.total} != polarization degree {pol.e}"
        )
    z = [0] * g.components
    while True:
        worst, move = -1, None
        for row in rows:
            members, has_mark, half, _ = row
            x = sum(excess[i] for i in members)
            # The number of unit twists along Y that brings x(Y) into
            # (-half, half] when Y is marked, [-half, half) otherwise.
            if has_mark:
                steps = (half - x) // (2 * half)
            else:
                steps = -((x + half) // (2 * half))
            if steps and abs(x) - half > worst:
                worst, move = abs(x) - half, (row, steps)
        if move is None:
            break
        (members, _, _, boundary), steps = move
        for i in members:
            z[i] += steps
        for inside, outside in boundary:
            excess[inside] += steps * scale
            excess[outside] -= steps * scale
    low = min(z)
    twist = TwistVector(tuple(c - low for c in z))
    radius = max(twist.coeffs)
    limit = max_radius
    if limit is None and radius > g.components:
        limit = default_search_radius(g, pol, md)
    if limit is not None and radius > max(limit, 0):
        raise TwistSearchExhaustedError(
            f"no quasistable twist within radius {limit}; "
            "this points at malformed input or a bookkeeping bug"
        )
    return twist
