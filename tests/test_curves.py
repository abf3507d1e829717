from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from abelcheck import (
    DegreeMismatchError,
    DualGraph,
    Multidegree,
    Polarization,
    Subcurve,
    TwistSearchExhaustedError,
    TwistVector,
    admissible_subcurves,
    boundary_count,
    default_search_radius,
    is_quasistable,
    iter_canonical_twists,
    quasistable_over,
    quasistable_twist_search,
    twist_action,
)
from abelcheck import curves
from conftest import (
    all_proper_subsets,
    cycle_graph,
    multidegrees_summing,
    path_graph,
    two_component,
)
from reference_twist import reference_twist_search


def _oracle_quasistable(g, pol, md):
    """Check the stability inequality over every proper subset.

    Independent of the library's admissible-only reduction: no
    connectivity filtering at all.
    """
    for y in all_proper_subsets(g.components):
        if not quasistable_over(g, pol, md, y):
            return False
    return True


def _zero_pol(p):
    return Polarization((Fraction(0),) * p)


def test_single_node_unbalanced_degree_fails_with_the_first_component_as_witness():
    g = two_component(1)
    verdict = is_quasistable(g, _zero_pol(2), Multidegree((1, -1)))
    assert not verdict
    assert verdict.ok is False
    assert verdict.witness == Subcurve(frozenset({1}))


def test_single_node_balanced_degree_passes():
    g = two_component(1)
    verdict = is_quasistable(g, _zero_pol(2), Multidegree((0, 0)))
    assert verdict.ok
    assert verdict.witness is None
    assert bool(verdict)


def test_marked_component_gets_the_closed_upper_bound():
    # With one node, k(Y) = 1 for both sides.  A margin of exactly 1/2 is
    # allowed on the marked side and rejected on the other.
    g = two_component(1)
    pol = Polarization((Fraction(1, 2), Fraction(1, 2)))
    assert is_quasistable(g, pol, Multidegree((1, 0))).ok
    assert not is_quasistable(g, pol, Multidegree((0, 1))).ok


def test_twist_search_balances_the_simplest_skewed_example():
    g = two_component(1)
    twist = quasistable_twist_search(g, _zero_pol(2), Multidegree((1, -1)))
    assert twist == TwistVector((0, 1))
    assert twist_action(g, Multidegree((1, -1)), twist) == Multidegree((0, 0))


def test_twist_search_with_two_nodes_lands_in_the_balanced_range():
    g = two_component(2)
    twist = quasistable_twist_search(g, _zero_pol(2), Multidegree((3, -3)))
    assert twist == TwistVector((0, 1))
    assert twist_action(g, Multidegree((3, -3)), twist) == Multidegree((1, -1))


def test_already_quasistable_degree_needs_the_zero_twist():
    g = two_component(2)
    twist = quasistable_twist_search(g, _zero_pol(2), Multidegree((1, -1)))
    assert twist == TwistVector((0, 0))


def test_path_admissible_subcurves_need_a_connected_complement():
    g = path_graph(3)
    got = [y.sorted_members() for y in admissible_subcurves(g)]
    # {2} is connected but its complement {1, 3} is not, so it is skipped.
    assert got == [(1,), (3,), (1, 2), (2, 3)]


def test_cycle_admissible_subcurves_are_the_arcs():
    g = cycle_graph(4)
    got = {y.sorted_members() for y in admissible_subcurves(g)}
    arcs = {
        (1,), (2,), (3,), (4,),
        (1, 2), (2, 3), (3, 4), (1, 4),
        (1, 2, 3), (2, 3, 4), (1, 3, 4), (1, 2, 4),
    }
    assert got == arcs
    assert (1, 3) not in got and (2, 4) not in got


def test_admissible_subcurves_come_out_smallest_first_then_lexicographic():
    g = cycle_graph(4)
    listed = [y.sorted_members() for y in admissible_subcurves(g)]
    keyed = sorted(listed, key=lambda m: (len(m), m))
    assert listed == keyed


@pytest.mark.parametrize("builder", [path_graph, cycle_graph])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_admissible_only_check_agrees_with_the_all_subsets_oracle(builder, p):
    if builder is cycle_graph and p == 2:
        g = DualGraph(2, ((1, 2), (2, 1)), marked=1)
    else:
        g = builder(p)
    pols = [_zero_pol(p), Polarization((Fraction(1, 2),) * 2 + (Fraction(0),) * (p - 2))]
    for pol in pols:
        for md in multidegrees_summing(p, 2, pol.e):
            assert is_quasistable(g, pol, md).ok == _oracle_quasistable(g, pol, md)


def test_subcurve_and_complement_always_agree_on_the_verdict():
    g = cycle_graph(4)
    pol = Polarization((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))
    for md in multidegrees_summing(4, 2, 1):
        for y in all_proper_subsets(4):
            flipped = y.complement(g)
            assert quasistable_over(g, pol, md, y) == quasistable_over(
                g, pol, md, flipped
            )


def test_twist_search_result_is_the_only_stabilizing_twist_in_radius():
    g = two_component(2)
    pol = _zero_pol(2)
    for total_skew in range(-4, 5):
        md = Multidegree((total_skew, -total_skew))
        found = quasistable_twist_search(g, pol, md)
        hits = [
            coeffs
            for coeffs in iter_canonical_twists(2, 6)
            if is_quasistable(g, pol, twist_action(g, md, TwistVector(coeffs))).ok
        ]
        assert hits == [found.coeffs]


def test_twist_search_uniqueness_on_a_longer_path():
    g = path_graph(3)
    pol = _zero_pol(3)
    rng = random.Random(20260819)
    for _ in range(25):
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        md = Multidegree((a, b, -a - b))
        found = quasistable_twist_search(g, pol, md)
        hits = [
            coeffs
            for coeffs in iter_canonical_twists(3, 10)
            if is_quasistable(g, pol, twist_action(g, md, TwistVector(coeffs))).ok
        ]
        assert hits == [found.coeffs]


def test_twist_action_conserves_the_total_degree():
    g = cycle_graph(4)
    rng = random.Random(9)
    for _ in range(50):
        md = Multidegree(tuple(rng.randint(-5, 5) for _ in range(4)))
        z = TwistVector(tuple(rng.randint(-3, 3) for _ in range(4)))
        assert twist_action(g, md, z).total == md.total


def test_constant_twist_vectors_act_trivially():
    g = path_graph(3)
    md = Multidegree((2, -1, 0))
    for c in (-2, 0, 5):
        assert twist_action(g, md, TwistVector((c, c, c))) == md


def test_twist_action_moves_degree_along_each_node():
    g = two_component(1)
    moved = twist_action(g, Multidegree((0, 0)), TwistVector((1, 0)))
    assert moved == Multidegree((1, -1))


def test_canonical_twist_shifts_the_minimum_to_zero():
    z = TwistVector((-2, 1, 0)).canonical()
    assert z == TwistVector((0, 3, 2))
    assert TwistVector((0, 0)).canonical() == TwistVector((0, 0))


def test_canonical_twist_enumeration_has_no_duplicates_and_ascending_radius():
    seen = set()
    last_radius = 0
    for coeffs in iter_canonical_twists(3, 4):
        assert coeffs not in seen
        seen.add(coeffs)
        assert min(coeffs) == 0
        radius = max(coeffs)
        assert radius >= last_radius
        last_radius = radius
    # One class per vector with min 0 and max <= 4.
    expected = {
        coeffs
        for coeffs in itertools.product(range(5), repeat=3)
        if min(coeffs) == 0
    }
    assert seen == expected


def test_boundary_count_on_the_cycle():
    g = cycle_graph(4)
    assert boundary_count(g, Subcurve(frozenset({1}))) == 2
    assert boundary_count(g, Subcurve(frozenset({1, 2}))) == 2
    assert boundary_count(g, Subcurve(frozenset({1, 3}))) == 4


def test_default_search_radius_grows_with_the_data():
    g = two_component(1)
    small = default_search_radius(g, _zero_pol(2), Multidegree((0, 0)))
    big = default_search_radius(g, _zero_pol(2), Multidegree((7, -7)))
    assert big > small >= g.components


def test_exhausted_search_raises_instead_of_looping():
    g = two_component(1)
    with pytest.raises(TwistSearchExhaustedError):
        quasistable_twist_search(g, _zero_pol(2), Multidegree((9, -9)), max_radius=0)


def _oracle_grid():
    """Deterministic (graph, polarization, multidegree) cases for the oracle.

    Paths and cycles with up to 5 components, two components joined by 2
    or 3 nodes and the complete graph on 4 components, each with every
    marked component; weights with denominators 1, 2, 3, 4 and 6; small
    degrees (at most two nonzero entries from 4 components on, which
    keeps the breadth-first reference cheap).
    """
    shapes = [path_graph(p).nodes for p in range(2, 6)]
    shapes += [cycle_graph(p).nodes for p in range(3, 6)]
    shapes += [two_component(q).nodes for q in (2, 3)]
    shapes.append(tuple(itertools.combinations(range(1, 5), 2)))
    for nodes in shapes:
        p = max(max(pair) for pair in nodes)
        for marked in range(1, p + 1):
            g = DualGraph(p, nodes, marked)
            for den in (1, 2, 3, 4, 6):
                head = [Fraction((5 * i) % (den + 1) - den // 2, den) for i in range(1, p)]
                pol = Polarization(tuple(head) + (round(sum(head)) - sum(head),))
                degrees = [
                    md
                    for md in multidegrees_summing(p, 1 if p > 3 else 2, pol.e)
                    if p < 4 or sum(map(bool, md.degs)) <= 2
                ]
                for md in degrees[:: max(1, len(degrees) // 5)]:
                    yield g, pol, md


def test_descent_matches_the_breadth_first_reference_on_a_grid():
    cases = 0
    for g, pol, md in _oracle_grid():
        assert quasistable_twist_search(g, pol, md) == reference_twist_search(g, pol, md)
        cases += 1
    assert cases > 900


@pytest.mark.parametrize(
    "g, degs",
    [
        (two_component(1), (3, -3)),
        (path_graph(3), (2, 0, -2)),
        (cycle_graph(4), (3, 0, 0, -3)),
        (DualGraph(4, tuple(itertools.combinations(range(1, 5), 2)), marked=2), (4, 1, -2, -3)),
    ],
)
def test_search_raises_exactly_when_the_answer_is_past_max_radius(g, degs):
    pol = _zero_pol(g.components)
    md = Multidegree(degs)
    expected = reference_twist_search(g, pol, md)
    radius = max(expected.coeffs)
    assert radius >= 1
    assert quasistable_twist_search(g, pol, md, max_radius=radius) == expected
    with pytest.raises(TwistSearchExhaustedError) as ours:
        quasistable_twist_search(g, pol, md, max_radius=radius - 1)
    with pytest.raises(TwistSearchExhaustedError) as theirs:
        reference_twist_search(g, pol, md, max_radius=radius - 1)
    assert str(ours.value) == str(theirs.value)


def test_default_radius_is_computed_only_for_answers_wider_than_the_graph(monkeypatch):
    calls = []
    real = curves.default_search_radius
    monkeypatch.setattr(
        curves, "default_search_radius", lambda *args: calls.append(args) or real(*args)
    )
    g = path_graph(3)
    pol = _zero_pol(3)
    narrow = Multidegree((1, 0, -1))
    assert quasistable_twist_search(g, pol, narrow) == TwistVector((0, 1, 2))
    assert calls == []
    wide = Multidegree((3, 0, -3))
    found = quasistable_twist_search(g, pol, wide)
    assert max(found.coeffs) > g.components
    assert found == reference_twist_search(g, pol, wide)
    assert len(calls) == 1


@pytest.mark.parametrize("g, k", [(path_graph(12), 3), (cycle_graph(12), 5)])
def test_twist_search_scales_to_twelve_components(g, k):
    pol = _zero_pol(12)
    md = Multidegree((k,) + (0,) * 10 + (-k,))
    twist = quasistable_twist_search(g, pol, md)
    assert twist == twist.canonical()
    assert is_quasistable(g, pol, twist_action(g, md, twist)).ok


def test_subcurve_and_twist_row_caches_are_bounded():
    assert admissible_subcurves.cache_info().maxsize is not None
    assert curves._twist_rows.cache_info().maxsize is not None


def test_total_degree_mismatch_is_a_loud_error():
    g = two_component(1)
    with pytest.raises(DegreeMismatchError):
        is_quasistable(g, _zero_pol(2), Multidegree((1, 0)))
    with pytest.raises(DegreeMismatchError):
        quasistable_twist_search(g, _zero_pol(2), Multidegree((1, 0)))


def test_graph_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        DualGraph(0, ())
    with pytest.raises(ValueError):
        DualGraph(2, ((1, 1),))
    with pytest.raises(ValueError):
        DualGraph(2, ((1, 3),))
    with pytest.raises(ValueError):
        DualGraph(3, ((1, 2),))  # component 3 is stranded
    with pytest.raises(ValueError):
        DualGraph(2, ((1, 2),), marked=5)


def test_polarization_must_have_integer_total():
    with pytest.raises(ValueError):
        Polarization((Fraction(1, 2), Fraction(0)))
    pol = Polarization((Fraction(1, 2), Fraction(1, 2)))
    assert pol.e == 1


def test_size_mismatches_are_rejected():
    g = two_component(1)
    with pytest.raises(ValueError):
        is_quasistable(g, _zero_pol(3), Multidegree((0, 0)))
    with pytest.raises(ValueError):
        is_quasistable(g, _zero_pol(2), Multidegree((0, 0, 0)))
    with pytest.raises(ValueError):
        twist_action(g, Multidegree((0, 0)), TwistVector((0, 0, 1)))


def test_empty_containers_are_rejected():
    with pytest.raises(ValueError):
        Subcurve(frozenset())
    with pytest.raises(ValueError):
        Multidegree(())
    with pytest.raises(ValueError):
        Polarization(())
    with pytest.raises(ValueError):
        TwistVector(())
