from __future__ import annotations

import itertools
import math

import pytest

from abelcheck import (
    DEFAULT_SCHEDULE,
    BlowupSchedule,
    InvalidOrderError,
    NotConstructibleError,
    SpecialPoint,
    chart_order,
    check_special_point,
    enumerate_special_points,
    extend_special_point,
    far_branch_counts,
    label_precedes,
    node_order,
    schedule_collection,
    schedule_order,
)
from catalog_d3 import DEPTH_THREE_BLOCKS, DEPTH_TWO_FAMILIES, flatten_blocks


def _pt(nodes, words):
    return SpecialPoint(tuple(nodes), tuple(words))


def _symbolic_set(points):
    return {
        (p.symbolic().section_nodes, p.symbolic().branch_words) for p in points
    }


def test_depth_one_ordering_puts_the_far_letter_first_at_the_landing_node():
    p = _pt((1,), ("1", "2"))
    assert node_order(p, 1) == ("2", "1")
    assert node_order(p, 2) == ("1", "2")


def test_ordering_scans_landing_positions_from_the_last_one():
    p = _pt((1, 1), ("11", "12", "21"))
    assert node_order(p, 1) == ("12", "21", "11")
    assert node_order(p, 2) == ("11", "12", "21")

    p = _pt((1, 1), ("12", "21", "22"))
    assert node_order(p, 1) == ("22", "12", "21")


def test_ordering_on_mixed_nodes_uses_only_the_matching_positions():
    p = _pt((1, 2), ("11", "12", "22"))
    assert node_order(p, 1) == ("22", "11", "12")
    assert node_order(p, 2) == ("12", "22", "11")

    p = _pt((1, 2), ("11", "21", "22"))
    assert node_order(p, 1) == ("21", "22", "11")
    assert node_order(p, 2) == ("22", "11", "21")


def test_ordering_at_an_unused_node_is_plain_lexicographic():
    p = _pt((1, 2), ("11", "21", "22"))
    assert node_order(p, 3) == ("11", "21", "22")
    p = _pt((1, 1), ("12", "21", "22"))
    assert node_order(p, 2) == ("12", "21", "22")


def test_label_precedes_is_irreflexive_and_asymmetric():
    p = _pt((1, 2), ("11", "12", "22"))
    for u in p.branch_words:
        assert not label_precedes(p, 1, u, u)
        for v in p.branch_words:
            if u != v:
                assert label_precedes(p, 1, u, v) != label_precedes(p, 1, v, u)


def test_depth_one_extension_produces_the_two_known_families():
    start = enumerate_special_points(1, 1)[0]
    children = extend_special_point(start, 1)
    assert [c.branch_words for c in children] == [
        ("12", "21", "22"),
        ("11", "12", "21"),
    ]
    assert all(c.section_nodes == (1, 1) for c in children)
    assert all(c.constructible for c in children)


def test_extension_to_a_fresh_node_uses_the_lexicographic_order():
    start = enumerate_special_points(1, 2)[0]
    assert start.section_nodes == (1,)
    children = extend_special_point(start, 2)
    assert [c.branch_words for c in children] == [
        ("11", "12", "22"),
        ("11", "21", "22"),
    ]


def test_every_child_contains_exactly_one_split_prefix_pair():
    for q in (1, 2):
        for p in enumerate_special_points(2, q):
            for node in range(1, q + 1):
                for child in extend_special_point(p, node):
                    prefixes = [w[:-1] for w in child.branch_words]
                    doubled = [
                        w for w in set(prefixes) if prefixes.count(w) == 2
                    ]
                    assert len(doubled) == 1
                    # All other prefixes appear exactly once.
                    assert len(set(prefixes)) == len(prefixes) - 1
                    assert set(prefixes) == set(p.branch_words)


def test_extension_refuses_hand_built_records():
    p = _pt((1,), ("1", "2"))
    assert not p.constructible
    with pytest.raises(NotConstructibleError):
        extend_special_point(p, 1)


def test_constructible_flag_does_not_affect_equality():
    built = enumerate_special_points(1, 1)[0]
    assert built == _pt((1,), ("1", "2"))


@pytest.mark.parametrize(
    "depth,node_count,expected",
    [
        (1, 1, 1),
        (2, 1, 2),
        (2, 2, 8),
        (3, 2, 48),
        (3, 3, 162),
        (4, 2, 384),
    ],
)
def test_enumeration_counts_match_the_product_formula(depth, node_count, expected):
    points = enumerate_special_points(depth, node_count)
    assert len(points) == expected
    assert expected == math.factorial(depth) * node_count**depth


def test_enumeration_is_sorted_and_duplicate_free():
    points = enumerate_special_points(3, 2)
    keys = [(p.section_nodes, p.branch_words) for p in points]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_depth_two_records_collapse_to_the_four_known_families():
    got = _symbolic_set(enumerate_special_points(2, 2))
    assert got == set(DEPTH_TWO_FAMILIES)


def test_depth_three_records_at_two_nodes_give_the_first_eight_blocks():
    got = _symbolic_set(enumerate_special_points(3, 2))
    want = flatten_blocks(DEPTH_THREE_BLOCKS[:8])
    assert len(want) == 24
    assert got == want


def test_depth_three_records_at_three_nodes_give_all_ten_blocks():
    got = _symbolic_set(enumerate_special_points(3, 3))
    want = flatten_blocks(DEPTH_THREE_BLOCKS)
    assert len(want) == 30
    assert got == want


def test_symbolic_relabels_nodes_by_first_occurrence():
    p = _pt((3, 1, 3), ("111", "112", "122", "222"))
    assert p.symbolic().section_nodes == (1, 2, 1)
    assert p.symbolic().branch_words == p.branch_words
    q = _pt((2, 2), ("11", "12", "21"))
    assert q.symbolic().section_nodes == (1, 1)


def test_default_schedule_reproduces_the_comparison_rule():
    for depth, q in ((2, 2), (3, 2), (3, 3)):
        for p in enumerate_special_points(depth, q):
            for node in range(1, q + 1):
                assert schedule_order(p, node, DEFAULT_SCHEDULE) == node_order(
                    p, node
                )


def test_schedule_collections_agree_with_the_chart_recursion():
    for p in enumerate_special_points(3, 2):
        for node in (1, 2):
            col = schedule_collection(p, node, DEFAULT_SCHEDULE)
            order = tuple(
                p.branch_words[j - 1] for j in chart_order(col)
            )
            assert order == node_order(p, node)


def test_lexicographic_component_schedule_orders_words_lexicographically():
    sched = BlowupSchedule(("components-lex",))
    for p in enumerate_special_points(2, 2):
        for node in (1, 2):
            assert schedule_order(p, node, sched) == tuple(
                sorted(p.branch_words)
            )


def test_reverse_component_schedules_order_words_in_reverse():
    for moves in (("components-revlex",), ("components-c2-first",)):
        sched = BlowupSchedule(moves)
        p = enumerate_special_points(2, 2)[0]
        assert schedule_order(p, 1, sched) == tuple(
            sorted(p.branch_words, reverse=True)
        )


def test_diagonals_alone_cannot_separate_charts_across_two_nodes():
    point = next(
        p
        for p in enumerate_special_points(2, 2)
        if p.section_nodes == (1, 2)
    )
    with pytest.raises(InvalidOrderError):
        schedule_order(point, 1, BlowupSchedule(("diagonals-descending",)))


def test_diagonals_alone_suffice_when_every_section_shares_the_node():
    point = next(
        p
        for p in enumerate_special_points(2, 1)
        if p.branch_words == ("11", "12", "21")
    )
    sched = BlowupSchedule(("diagonals-descending",))
    assert schedule_order(point, 1, sched) == node_order(point, 1)


def test_schedule_validation_rejects_unknown_moves():
    with pytest.raises(ValueError):
        BlowupSchedule(("sideways",))
    with pytest.raises(ValueError):
        BlowupSchedule(())


def test_far_branch_counts_split_by_landing_node():
    p = _pt((1, 2, 1), ("111", "112", "122", "221"))
    counts = far_branch_counts(p, "221", 2)
    assert counts.per_node == (1, 1)
    assert counts.total == 2
    assert far_branch_counts(p, "111", 2).per_node == (0, 0)
    with pytest.raises(ValueError):
        far_branch_counts(p, "111", 1)


def test_structure_checks_pass_on_every_enumerated_record():
    for depth, q in ((1, 1), (2, 2), (3, 2), (3, 3)):
        for p in enumerate_special_points(depth, q):
            for node in range(1, q + 1):
                report = check_special_point(p, node, q)
                assert report.ok, report.failed()


def test_structure_checks_catch_a_reversed_hand_built_record():
    # Stored backwards: the count vectors decrease along the sequence, so
    # exactly the monotonicity item fails.
    p = _pt((1,), ("2", "1"))
    report = check_special_point(p, 1)
    assert not report.ok
    assert report.failed() == (2,)


def test_structure_check_witnesses_name_the_failing_step():
    p = _pt((1,), ("2", "1"))
    report = check_special_point(p, 1)
    failing = [c for c in report.items if not c.ok]
    assert len(failing) == 1
    assert failing[0].witness != ""


def test_record_validation_rejects_malformed_input():
    with pytest.raises(ValueError):
        SpecialPoint((), ("1",))
    with pytest.raises(ValueError):
        SpecialPoint((0,), ("1", "2"))
    with pytest.raises(ValueError):
        SpecialPoint((1,), ("1", "2", "1"))
    with pytest.raises(ValueError):
        SpecialPoint((1,), ("1", "1"))
    with pytest.raises(ValueError):
        SpecialPoint((1,), ("13", "2"))
    with pytest.raises(ValueError):
        enumerate_special_points(0, 1)
    with pytest.raises(ValueError):
        enumerate_special_points(1, 0)


def test_enumerated_records_equal_their_validated_rebuild():
    # Children are built without re-validation; rebuilding each one
    # through the public constructor shows nothing was skipped wrongly.
    for d, q in ((4, 3), (5, 2)):
        points = enumerate_special_points(d, q)
        assert len(points) == math.factorial(d) * q**d
        for p in points:
            rebuilt = SpecialPoint(p.section_nodes, p.branch_words, True)
            assert rebuilt == p
            assert hash(rebuilt) == hash(p)
            assert p.constructible
            assert type(p.section_nodes) is tuple and type(p.branch_words) is tuple


def test_extension_still_rejects_a_node_below_one():
    point = enumerate_special_points(2, 2)[0]
    for node in (0, -1):
        with pytest.raises(ValueError, match="start at 1"):
            extend_special_point(point, node)
