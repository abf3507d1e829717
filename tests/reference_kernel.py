"""Rational-arithmetic reference for the two-component fast checker.

This is the straightforward form of the per-record check: build every
chart level and every per-node correction as a ``Fraction``, then test
both conditions on the resulting table.  The package's integer kernel
(``extension._check_chunk``) must return exactly what this returns,
witnesses included; the tests compare the two record by record.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from abelcheck import SpecialPoint, far_branch_counts


def point_corrections(
    point: SpecialPoint, c: Fraction, node_count: int
) -> tuple[list[list[int]], list[int]]:
    """(table, level): table[n][i] is a - b for node n+1 and word i."""
    words = point.branch_words
    counts = [far_branch_counts(point, w, node_count) for w in words]
    levels = [
        math.ceil((Fraction(b.total) + c) / node_count - Fraction(1, 2))
        for b in counts
    ]
    table = [
        [counts[i].per_node[n] - levels[i] for i in range(len(words))]
        for n in range(node_count)
    ]
    return table, levels


def check_point(
    point: SpecialPoint, c: Fraction, node_count: int, mode: str
) -> tuple[int, dict] | None:
    """First failed condition for one stratum record, or None."""
    table, _ = point_corrections(point, c, node_count)
    words = point.branch_words
    for n in range(node_count):
        row = table[n]
        lo = min(range(len(row)), key=row.__getitem__)
        hi = max(range(len(row)), key=row.__getitem__)
        if row[hi] - row[lo] > 1:
            return 1, {
                "node": n + 1,
                "charts": [words[lo], words[hi]],
                "values": [row[lo], row[hi]],
            }
    half_k = Fraction(node_count, 2)

    def interval_fails(choice: tuple[int, ...]) -> dict | None:
        total = c + sum(table[n][choice[n]] for n in range(node_count))
        if -half_k < total <= half_k:
            return None
        return {
            "assignment": {str(n + 1): words[choice[n]] for n in range(node_count)},
            "margin": str(total),
            "bound": str(half_k),
        }

    if mode == "brute":
        for combo in itertools.product(range(len(words)), repeat=node_count):
            witness = interval_fails(combo)
            if witness:
                return 2, witness
    else:
        low = tuple(
            min(range(len(words)), key=table[n].__getitem__)
            for n in range(node_count)
        )
        high = tuple(
            max(range(len(words)), key=table[n].__getitem__)
            for n in range(node_count)
        )
        for choice in (low, high):
            witness = interval_fails(choice)
            if witness:
                return 2, witness
    return None
