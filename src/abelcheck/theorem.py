"""Why every record under the default order passes both extension conditions.

Notation.  A record has words u_1 < ... < u_{d+1} in stored (lex) order.
a(w) in Z^q counts, per node, the 2s of w at the positions whose section
lands on that node; t(w) = |a(w)|.  The chart level is
L(w) = ceil((t(w) + c)/q - 1/2), node n's correction is a_n(w) - L(w),
and the margin M(w) = t(w) + c - q L(w) lies in (-q/2, q/2].

Invariant J.  Along the stored order every step a(u_{i+1}) - a(u_i) is
zero or a unit vector e_n, and no node steps twice.

Pass lemma.  If J holds, both conditions hold at every offset c.
Let v_1 < ... < v_m be the distinct count vectors.  No node steps twice,
so t takes at most q + 1 consecutive values and L rises at most once,
say between entries J* and J* + 1.  Condition 1: per node, a_n - L goes
up by one at most once (when n steps) and down by one at most once (when
L rises), so its spread is at most 1.  Condition 2 without a rise: the
low sum is M(v_1) > -q/2 and the high sum is M(v_m) <= q/2.  With a rise,
M(v_1) + J* > q/2 >= M(v_1) + J* - 1.  Each node that has not stepped by
entry J* + 1 gives -1 to the low sum, so it is M(v_1) + J* - q > -q/2;
each node that has stepped by entry J* gives +1 to the high sum, so it
is M(v_1) + J* - 1 <= q/2.

Rotation lemma.  Claim S: node_order(p, n) is the stored order rotated to
start at r_n, the first stored index where a_n is largest.  S and J hold
on every default-order record.  Base: the depth-1 record at node n has
words 1 < 2 with counts 0 and e_n; its order is (2, 1) at n and (1, 2)
elsewhere.  Step: take parent p, node m, v = node_order(p, m) and split
h, so the child's words are v_i1 for i <= h and v_i2 for i >= h, and its
stored order is the parent's with v_h replaced by v_h1 < v_h2.
(a) At n != m the new position is not on n, so keys and a_n are
inherited, the two copies of v_h sort together, and the order is the
parent's with v_h expanded in place: S holds.  (b) At n = m the new
position is compared first, 2 before 1, so the order is
(v_h2, ..., v_{d+1}2, v_1 1, ..., v_h 1), the stored order read cyclically
from v_h2.  (c) By S and J on the parent a_m is A on v_1 ... v_s and A-1
on the rest, where v_1 ... v_s is the lex suffix u_r ... u_{d+1}.  If
h <= s the child's maximum A+1 is reached exactly on the lex suffix from
v_h2; if h > s the maximum A is reached by v_h2 ... v_{d+1}2 and
v_1 1 ... v_s 1, and v_h2 comes first in lex order.  Either way r_m is the
index of v_h2.  (d) The child's counts add e_m on the cyclic block from
v_h2 to v_{d+1}2.  Two junctions change: u_{r-1} -> u_r, the parent's
only e_m step (r is the first maximum), becomes a zero step, and
v_h1 -> v_h2 becomes the new e_m step.  If r = 1 the parent has no e_m
step.  Every other step is unchanged, so J holds.

Theorem.  Under the default order every record, at every depth, node
count and offset c, passes both conditions, in separable and (the
per-node terms being independent) brute mode alike.  So verify_extension
answers the default order in separable mode without enumerating.
"""

from __future__ import annotations

from .special_points import SpecialPoint, far_branch_counts


def chain_invariant(point: SpecialPoint, q: int) -> dict | None:
    """None when the record satisfies invariant J, else a witness.

    The witness names the broken part: ``"non-unit step"`` with the step
    (1-based, between stored words ``step`` and ``step + 1``) and its
    two count vectors, or ``"node steps twice"`` with the node and both
    steps.
    """
    vectors = [
        far_branch_counts(point, w, q).per_node for w in point.branch_words
    ]
    stepped: dict[int, int] = {}
    for step, (a, b) in enumerate(zip(vectors, vectors[1:]), start=1):
        moved = [n for n, (x, y) in enumerate(zip(a, b), start=1) if x != y]
        if not moved:
            continue
        n = moved[0]
        if len(moved) > 1 or b[n - 1] - a[n - 1] != 1:
            return {
                "part": "non-unit step",
                "step": step,
                "counts": [list(a), list(b)],
            }
        if n in stepped:
            return {
                "part": "node steps twice",
                "node": n,
                "steps": [stepped[n], step],
            }
        stepped[n] = step
    return None
