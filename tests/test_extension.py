from __future__ import annotations

import json
import pickle
from fractions import Fraction

import pytest

from abelcheck import (
    BlowupSchedule,
    DualGraph,
    Multidegree,
    NodeSection,
    Polarization,
    SpecialPoint,
    check_admissibility_condition,
    check_fixed_chart_bound,
    check_stability_condition,
    enumerate_special_points,
    extend_special_point,
    fiber_multidegree,
    quasistable_twist_search,
    section_count_away,
    sections_from_point,
    twist_level,
    twist_level_difference,
    two_component_graph,
    verify_extension,
)
from abelcheck.curves import Subcurve

HALVES = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))

LEX_SCHEDULE = BlowupSchedule(("components-lex",))


def _signature(report):
    return {
        (f.point.section_nodes, f.point.branch_words, f.condition)
        for f in report.failures
    }


def test_single_section_chart_balances_with_one_level_step():
    # Simplest skewed chart: everything trivial except one section that
    # approaches the far component.
    g = two_component_graph(1)
    point = enumerate_special_points(1, 1)[0]
    sections = sections_from_point(point)
    md = fiber_multidegree(g, Multidegree((0, 0)), sections, chart=2)
    assert md == Multidegree((1, -1))
    pol = Polarization((Fraction(0), Fraction(0)))
    z = quasistable_twist_search(g, pol, md).coeffs
    assert z == (0, 1)
    gap = twist_level_difference(g, z, Subcurve(frozenset({1})), 1)
    assert gap == 1
    assert twist_level(point, "2", 0, Fraction(0), 1) == 1


def test_closed_form_level_matches_the_twist_search_everywhere():
    for q in (1, 2):
        g = two_component_graph(q)
        marked = Subcurve(frozenset({1}))
        for d in (1, 2):
            for point in enumerate_special_points(d, q):
                sections = sections_from_point(point)
                for l_far in (-2, -1, 0, 1, 2):
                    for w_far in HALVES:
                        l_md = Multidegree((1, l_far))
                        pol = Polarization(
                            (Fraction(1 + l_far) - w_far, w_far)
                        )
                        for j, word in enumerate(point.branch_words, start=1):
                            md = fiber_multidegree(g, l_md, sections, j)
                            z = quasistable_twist_search(g, pol, md).coeffs
                            searched = twist_level_difference(g, z, marked, 1)
                            closed = twist_level(point, word, l_far, w_far, q)
                            assert searched == closed, (point, word, l_far, w_far)


def test_fiber_multidegree_places_corrections_as_documented():
    g = two_component_graph(2)
    sections = (
        NodeSection(1, frozenset({1, 3})),
        NodeSection(2, frozenset({2})),
    )
    # Chart 1: section 1 near, section 2 far; default bump is 2.
    assert fiber_multidegree(g, Multidegree((0, 0)), sections, 1) == Multidegree(
        (1, -1)
    )
    # Chart 3: section 1 near, section 2 far, explicit bump 0.
    assert fiber_multidegree(
        g, Multidegree((0, 0)), sections, 3, marked_extra=0
    ) == Multidegree((-1, -1))


def test_section_count_away_reads_the_chart_membership():
    g = two_component_graph(2)
    y = Subcurve(frozenset({1}))
    sections = (
        NodeSection(1, frozenset({1})),
        NodeSection(1, frozenset()),
        NodeSection(2, frozenset({1})),
    )
    assert section_count_away(g, sections, y, 1, 1) == 1
    assert section_count_away(g, sections, y, 1, 2) == 2
    assert section_count_away(g, sections, y, 2, 2) == 1


def test_level_gap_is_zero_off_the_boundary_and_shift_invariant():
    g = DualGraph(3, ((1, 2), (2, 3)), marked=1)
    y = Subcurve(frozenset({1, 2}))
    assert twist_level_difference(g, (0, 4, 9), y, 1) == 0
    assert twist_level_difference(g, (0, 4, 9), y, 2) == 5
    assert twist_level_difference(g, (7, 11, 16), y, 2) == 5


def test_default_parameters_pass_both_conditions_at_depth_three():
    report = verify_extension(
        3, 2, (0, 0), (Fraction(1, 2), Fraction(-1, 2))
    )
    assert report.verdict == "pass"
    assert report.points == 48
    assert report.failures == ()


def test_depth_two_single_node_passes_for_skewed_degrees():
    report = verify_extension(2, 1, (3, -3), (0, 0))
    assert report.verdict == "pass"
    assert report.points == 2


def test_lexicographic_schedule_breaks_the_interval_condition():
    report = verify_extension(
        2, 2, (0, 0), (0, 0), order=LEX_SCHEDULE
    )
    assert report.verdict == "fail"
    assert report.points == 8
    assert len(report.failures) == 4
    assert all(f.condition == 2 for f in report.failures)
    assert all(f.witness["margin"] == "-1" for f in report.failures)
    first = report.failures[0]
    assert first.point.section_nodes == (1, 1)
    assert first.point.branch_words == ("11", "12", "22")
    assert first.witness["assignment"] == {"1": "11", "2": "22"}
    failing_nodes = {f.point.section_nodes for f in report.failures}
    assert failing_nodes == {(1, 1), (2, 2)}


def test_general_route_reproduces_the_schedule_failures():
    g = two_component_graph(2)
    l_md = Multidegree((0, 0))
    pol = Polarization((Fraction(0), Fraction(0)))
    report = verify_extension(2, 2, (0, 0), (0, 0), order=LEX_SCHEDULE)
    expected = {
        (f.point.section_nodes, f.point.branch_words)
        for f in report.failures
    }
    got = set()
    for point in enumerate_special_points(2, 2, LEX_SCHEDULE):
        sections = sections_from_point(point)
        first = check_admissibility_condition(g, pol, l_md, sections, 3)
        second = check_stability_condition(g, pol, l_md, sections, 3)
        if not (first and second):
            got.add((point.section_nodes, point.branch_words))
        # The failure is the interval condition, never admissibility.
        assert first.ok
    assert got == expected


def test_general_route_agrees_with_the_fast_path_across_parameters():
    g = two_component_graph(2)
    for l_far, w_far in ((0, Fraction(0)), (1, Fraction(1, 2)), (-2, Fraction(-1, 2))):
        l_md = Multidegree((2, l_far))
        pol = Polarization((Fraction(2 + l_far) - w_far, w_far))
        report = verify_extension(
            2, 2, l_md.degs, (pol.weights[0], pol.weights[1])
        )
        assert report.verdict == "pass"
        for point in enumerate_special_points(2, 2):
            sections = sections_from_point(point)
            assert check_admissibility_condition(g, pol, l_md, sections, 3).ok
            assert check_stability_condition(g, pol, l_md, sections, 3).ok


def test_hand_built_record_with_spread_two_fails_admissibility():
    # Two sections per node; the middle chart sits one level up while a
    # mixed chart keeps both of its far sections, giving spread 2.
    point = SpecialPoint(
        (1, 1, 2, 2), ("1111", "1112", "1122", "2211", "2222")
    )
    g = two_component_graph(2)
    sections = sections_from_point(point)
    result = check_admissibility_condition(
        g, Polarization((Fraction(0), Fraction(0))), Multidegree((0, 0)), sections, 5
    )
    assert not result.ok
    assert result.witness["subcurve"] == [1]
    assert result.witness["node"] == 1
    assert result.witness["charts"] == [3, 4]
    assert result.witness["values"] == [-1, 1]


def test_brute_and_separable_modes_agree_on_two_component_grids():
    for q, d in ((1, 2), (2, 2)):
        for l_far in (-1, 0, 1):
            for w_far in (Fraction(0), Fraction(1, 2)):
                degs = (0, l_far)
                weights = (Fraction(l_far) - w_far, w_far)
                fast = verify_extension(d, q, degs, weights, mode="separable")
                slow = verify_extension(d, q, degs, weights, mode="brute")
                assert fast.verdict == slow.verdict
                assert _signature(fast) == _signature(slow)
    sched_fast = verify_extension(
        2, 2, (0, 0), (0, 0), order=LEX_SCHEDULE, mode="separable"
    )
    sched_slow = verify_extension(
        2, 2, (0, 0), (0, 0), order=LEX_SCHEDULE, mode="brute"
    )
    assert _signature(sched_fast) == _signature(sched_slow)


def test_three_component_checks_pass_on_a_worked_example():
    # Path with the mark on one end, one section through its node.
    g = DualGraph(3, ((1, 2), (2, 3)), marked=1)
    l_md = Multidegree((1, 0, 0))
    pol = Polarization((Fraction(1), Fraction(0), Fraction(0)))
    sections = (NodeSection(1, frozenset({1})),)
    assert check_admissibility_condition(g, pol, l_md, sections, 2).ok
    assert check_stability_condition(g, pol, l_md, sections, 2).ok
    assert check_stability_condition(g, pol, l_md, sections, 2, mode="brute").ok
    assert check_fixed_chart_bound(g, pol, l_md, sections, 2)


def test_three_component_modes_agree_over_a_degree_sweep():
    g = DualGraph(3, ((1, 2), (2, 3)), marked=1)
    sections = (
        NodeSection(1, frozenset({1})),
        NodeSection(2, frozenset({2})),
    )
    for degs in ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (2, -1, 1)):
        l_md = Multidegree(degs)
        pol = Polarization((Fraction(2), Fraction(0), Fraction(0)))
        fast = check_stability_condition(g, pol, l_md, sections, 2)
        slow = check_stability_condition(g, pol, l_md, sections, 2, mode="brute")
        assert fast.ok == slow.ok
        assert check_fixed_chart_bound(g, pol, l_md, sections, 2)


def test_fixed_chart_bound_holds_on_every_enumerated_record():
    g = two_component_graph(2)
    for point in enumerate_special_points(2, 2):
        sections = sections_from_point(point)
        for w_far in HALVES:
            pol = Polarization((-w_far, w_far))
            assert check_fixed_chart_bound(
                g, pol, Multidegree((0, 0)), sections, 3
            )


def test_levels_rise_monotonically_along_the_stored_words():
    for q in (1, 2, 3):
        for d in (1, 2, 3):
            for point in enumerate_special_points(d, q):
                for w_far in HALVES:
                    levels = [
                        twist_level(point, w, 0, w_far, q)
                        for w in point.branch_words
                    ]
                    assert levels == sorted(levels)
                    assert levels[-1] - levels[0] in (0, 1)


def test_far_totals_span_at_most_the_node_count():
    for q in (1, 2, 3):
        for point in enumerate_special_points(3, q):
            totals = [w.count("2") for w in point.branch_words]
            assert max(totals) - min(totals) <= q


def test_sharded_runs_produce_identical_reports():
    texts = [
        verify_extension(
            2, 2, (0, 0), (0, 0), order=LEX_SCHEDULE, shards=n
        ).to_json()
        for n in (1, 2, 3, 5)
    ]
    assert len(set(texts)) == 1
    passing = [
        verify_extension(3, 2, (1, -1), (0, 0), shards=n).to_json()
        for n in (1, 4)
    ]
    assert len(set(passing)) == 1


def test_report_serialization_shape():
    report = verify_extension(1, 1, (0, 0), (0, 0))
    data = json.loads(report.to_json())
    assert data["params"] == {
        "depth": 1,
        "node_count": 1,
        "degrees": [0, 0],
        "weights": ["0", "0"],
        "order": "default",
        "mode": "separable",
    }
    assert data["points"] == 1
    assert data["verdict"] == "pass"
    assert data["failures"] == []

    custom = verify_extension(2, 2, (0, 0), (0, 0), order=LEX_SCHEDULE)
    data = json.loads(custom.to_json())
    assert data["params"]["order"] == ["components-lex"]
    assert data["verdict"] == "fail"
    witness = data["failures"][0]
    assert witness["point"] == {
        "section_nodes": [1, 1],
        "branch_words": ["11", "12", "22"],
    }
    assert witness["condition"] == 2


def test_spelling_out_the_default_schedule_changes_nothing_but_the_label():
    from abelcheck import DEFAULT_SCHEDULE

    plain = verify_extension(2, 2, (0, 0), (0, 0))
    spelled = verify_extension(2, 2, (0, 0), (0, 0), order=DEFAULT_SCHEDULE)
    assert plain.verdict == spelled.verdict == "pass"
    assert plain.points == spelled.points
    assert json.loads(spelled.to_json())["params"]["order"] == [
        "diagonals-descending",
        "components-lex",
    ]


def test_verify_extension_validates_its_input():
    with pytest.raises(ValueError):
        verify_extension(1, 1, (0, 0), (1, 0))
    with pytest.raises(ValueError):
        verify_extension(1, 1, (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        verify_extension(1, 1, (0, 0), (0, 0), mode="psychic")
    with pytest.raises(ValueError):
        verify_extension(1, 1, (0, 0), (0, 0), shards=0)
    with pytest.raises(ValueError):
        NodeSection(0, frozenset())
    with pytest.raises(ValueError):
        check_stability_condition(
            two_component_graph(1),
            Polarization((Fraction(0), Fraction(0))),
            Multidegree((0, 0)),
            (),
            1,
            mode="psychic",
        )


def test_records_and_failures_have_slots_and_pickle():
    point = enumerate_special_points(3, 2)[5]
    failure = verify_extension(3, 2, (0, 0), (0, 0), order=LEX_SCHEDULE).failures[0]
    for obj in (point, failure):
        assert not hasattr(obj, "__dict__")
        assert pickle.loads(pickle.dumps(obj)) == obj
    # The constructible flag is outside equality, so check it survives.
    copy = pickle.loads(pickle.dumps(point))
    assert copy.constructible
    assert extend_special_point(copy, 2) == extend_special_point(point, 2)
    hand = pickle.loads(pickle.dumps(SpecialPoint((1,), ("1", "2"))))
    assert not hand.constructible
