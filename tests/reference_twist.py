"""Breadth-first reference for the quasistable twist search.

This is the search in its most direct form: walk the canonical twist
vectors by increasing radius (``iter_canonical_twists``), apply each one,
and return the first whose multidegree satisfies every admissible
subcurve's inequality in exact ``Fraction`` arithmetic.  Its cost grows
like (radius + 1) ** components, so the tests run it on small graphs
only.  ``quasistable_twist_search`` must return exactly what this
returns, and raise ``TwistSearchExhaustedError`` exactly when this does.
"""

from __future__ import annotations

from fractions import Fraction

from abelcheck import (
    DegreeMismatchError,
    DualGraph,
    Multidegree,
    Polarization,
    TwistSearchExhaustedError,
    TwistVector,
    admissible_subcurves,
    boundary_count,
    default_search_radius,
    iter_canonical_twists,
    subcurve_weight,
    twist_action,
)


class StabilityTable:
    """Precomputed subcurve data for repeated stability tests on one graph."""

    def __init__(self, g: DualGraph, pol: Polarization):
        self.rows: list[tuple[tuple[int, ...], bool, Fraction, Fraction]] = []
        for y in admissible_subcurves(g):
            self.rows.append(
                (
                    y.sorted_members(),
                    g.marked in y.members,
                    subcurve_weight(pol, y),
                    Fraction(boundary_count(g, y), 2),
                )
            )

    def accepts(self, degs: tuple[int, ...]) -> bool:
        for members, has_mark, weight, half in self.rows:
            margin = sum(degs[i - 1] for i in members) - weight
            if has_mark:
                if not (-half < margin <= half):
                    return False
            elif not (-half <= margin < half):
                return False
        return True


def reference_twist_search(
    g: DualGraph,
    pol: Polarization,
    md: Multidegree,
    max_radius: int | None = None,
) -> TwistVector:
    """The canonical balancing twist with the smallest radius, by enumeration."""
    if len(pol.weights) != g.components or len(md.degs) != g.components:
        raise ValueError("sizes do not match the component count")
    if md.total != pol.e:
        raise DegreeMismatchError(
            f"multidegree total {md.total} != polarization degree {pol.e}"
        )
    if max_radius is None:
        max_radius = default_search_radius(g, pol, md)
    table = StabilityTable(g, pol)
    for coeffs in iter_canonical_twists(g.components, max_radius):
        candidate = twist_action(g, md, TwistVector(coeffs))
        if table.accepts(candidate.degs):
            return TwistVector(coeffs)
    raise TwistSearchExhaustedError(
        f"no quasistable twist within radius {max_radius}; "
        "this points at malformed input or a bookkeeping bug"
    )
