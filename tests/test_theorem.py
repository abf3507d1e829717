"""The rotation theorem and the verify path it answers.

``theorem.chain_invariant`` is pinned on every default-order record
(invariant J, with the rotation claim S beside it), on schedule-induced
records (every record with J passes the kernel) and on synthetic step
chains (the pass lemma).  ``verify_extension`` answers the default
order in separable mode by the theorem; the enumeration path
(``extension._verify_records``) stays beside it as the oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from abelcheck import (
    DEFAULT_SCHEDULE,
    BlowupSchedule,
    InvalidOrderError,
    SpecialPoint,
    enumerate_special_points,
    far_branch_counts,
    node_order,
    verify_extension,
)
from abelcheck import extension
from abelcheck.cli import main
from abelcheck.theorem import chain_invariant

MOVES = BlowupSchedule._KNOWN
SCHEDULES = tuple(
    BlowupSchedule(moves)
    for moves in [(m,) for m in MOVES] + list(itertools.permutations(MOVES, 2))
)


def _grid(q, *denominators, start=0, stop=1):
    """Every c = k/den in [start*q, stop*q) for the given denominators."""
    return sorted(
        {
            Fraction(k, den)
            for den in denominators
            for k in range(start * q * den, stop * q * den)
        }
    )


def _rotation(point, node, q):
    """The stored order rotated to start at the first largest count."""
    words = point.branch_words
    counts = [far_branch_counts(point, w, q).per_node[node - 1] for w in words]
    r = counts.index(max(counts))
    return words[r:] + words[:r]


def test_default_records_satisfy_the_invariant_and_the_rotation_claim():
    checked = 0
    for q, depths in ((1, range(1, 6)), (2, range(1, 6)), (3, range(1, 5))):
        for d in depths:
            for point in enumerate_special_points(d, q):
                assert chain_invariant(point, q) is None, point
                for node in range(1, q + 1):
                    assert node_order(point, node) == _rotation(point, node, q)
                checked += 1
    assert checked == 153 + 4282 + 2127


def test_records_with_the_invariant_pass_under_every_resolving_schedule():
    resolving, held, broken = 0, 0, 0
    for schedule in SCHEDULES:
        for d, q in itertools.product(range(1, 5), range(1, 4)):
            try:
                points = enumerate_special_points(d, q, schedule)
            except InvalidOrderError:
                continue
            resolving += 1
            good = tuple(p for p in points if chain_invariant(p, q) is None)
            held += len(good)
            broken += len(points) - len(good)
            for c in _grid(q, 4):
                assert extension._check_chunk(good, c, q, "separable") == []
    # Every schedule with a components move resolves at all 12 sizes; the
    # four diagonal-only ones only at depth 1 (no order is induced there)
    # or with one node.  Schedules reach both sides of the invariant.
    assert resolving == 21 * 12 + 4 * 6
    assert held > 0 and broken > 0


def _step_chain(q, t1, steps):
    """A synthetic record whose count vectors start at t1 * e_1 and step
    by e_n for each n in steps, in order."""
    nodes = (1,) * t1 + tuple(steps)
    words = tuple(
        "2" * (t1 + j) + "1" * (len(steps) - j) for j in range(len(steps) + 1)
    )
    return SpecialPoint._trusted(nodes, words)


def test_the_pass_lemma_holds_on_every_synthetic_step_chain():
    cases = 0
    for q in range(1, 5):
        # t1 in q..2q-1 covers every residue of the first total mod q,
        # which is all the levels and margins depend on.
        chains = tuple(
            _step_chain(q, t1, steps)
            for k in range(q + 1)
            for steps in itertools.permutations(range(1, q + 1), k)
            for t1 in range(q, 2 * q)
        )
        assert all(chain_invariant(p, q) is None for p in chains)
        for c in _grid(q, 12):
            assert extension._check_chunk(chains, c, q, "separable") == []
            cases += len(chains)
    assert cases == 24 + 240 + 1728 + 12480


def test_the_witness_names_the_broken_part():
    crossing = SpecialPoint((1, 2), ("11", "12", "21"))
    assert chain_invariant(crossing, 2) == {
        "part": "non-unit step",
        "step": 2,
        "counts": [[0, 1], [1, 0]],
    }
    twice = SpecialPoint((1, 1), ("11", "12", "22"))
    assert chain_invariant(twice, 2) == {
        "part": "node steps twice",
        "node": 1,
        "steps": [1, 2],
    }


def _criterion_3_classes():
    """One (degrees, weights) pair per offset c = weights[1] - degrees[1]
    of criterion 3's grid: degrees in -3..3, weights with |w| <= 3 and
    denominator at most 4."""
    weights = sorted(
        {Fraction(k, den) for den in (1, 2, 3, 4) for k in range(-3 * den, 3 * den + 1)}
    )
    classes = {}
    for l0, l1, w1 in itertools.product(range(-3, 4), range(-3, 4), weights):
        if abs(l0 + l1 - w1) <= 3:
            classes.setdefault(w1 - l1, ((l0, l1), (l0 + l1 - w1, w1)))
    return classes


CRITERION_3_CLASSES = _criterion_3_classes()
ORACLE_SIZES = (
    [(d, 2) for d in range(1, 6)]
    + [(d, 3) for d in range(1, 5)]
    + [(d, 4) for d in range(1, 4)]
    + [(d, 1) for d in range(1, 7)]
)


def test_criterion_3_has_73_offset_classes_inside_the_oracle_sizes():
    assert len(CRITERION_3_CLASSES) == 73
    assert {(d, q) for d in range(1, 5) for q in range(1, 4)} <= set(ORACLE_SIZES)


@pytest.mark.parametrize("d, q", ORACLE_SIZES)
def test_the_theorem_path_matches_the_enumeration_path(d, q):
    # Each offset once: c on the 1/4 and 1/3 grids of [-q, 2q) with
    # L = (0, 0), and at criterion 3's sizes its 73 classes, each through
    # its own representative (which replaces the grid's pair for that c).
    inputs = {c: ((0, 0), (-c, c)) for c in _grid(q, 3, 4, start=-1, stop=2)}
    if d <= 4 and q <= 3:
        inputs.update(CRITERION_3_CLASSES)
    for degrees, weights in inputs.values():
        theorem = verify_extension(d, q, degrees, weights)
        records = extension._verify_records(d, q, degrees, weights)
        assert (theorem.path, records.path) == ("theorem", "records")
        assert records.verdict == "pass", (d, q, degrees, weights)
        assert theorem == records
        assert theorem.to_json() == records.to_json()


def test_only_the_theorem_path_avoids_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(extension, "enumerate_special_points", refuse)
    report = verify_extension(7, 2, (0, 0), (0, 0))
    assert (report.path, report.points, report.verdict) == ("theorem", 645120, "pass")
    for kwargs in (
        {"mode": "brute"},
        {"order": DEFAULT_SCHEDULE},
        {"order": BlowupSchedule(("components-lex",))},
    ):
        with pytest.raises(AssertionError, match="enumerated"):
            verify_extension(2, 2, (0, 0), (0, 0), **kwargs)
    with pytest.raises(AssertionError, match="enumerated"):
        extension._verify_records(2, 2, (0, 0), (0, 0))


def test_the_text_line_names_the_theorem_path_only(capsys):
    base = ["verify", "--d", "3", "--q", "2", "--L=0,0", "--pol=0,0"]
    assert main(base) == 0
    assert capsys.readouterr().out == (
        "checked 48 stratum records at depth 3, 2 node(s) by the rotation theorem: pass\n"
    )
    assert main(base + ["--mode", "brute"]) == 0
    assert capsys.readouterr().out == (
        "checked 48 stratum records at depth 3, 2 node(s): pass\n"
    )


@pytest.mark.parametrize("mode", ["separable", "brute"])
@pytest.mark.parametrize("d, q", [("0", "2"), ("2", "0"), ("-1", "1")])
def test_verify_rejects_nonpositive_sizes_on_both_paths(capsys, mode, d, q):
    argv = ["verify", "--d", d, "--q", q, "--L=0,0", "--pol=0,0", "--mode", mode]
    assert main(argv) == 2
    assert "must be positive" in capsys.readouterr().err
