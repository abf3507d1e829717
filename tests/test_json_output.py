"""The streamed JSON writer against ``json.dumps`` as its oracle.

``json.dumps(value, sort_keys=True, indent=2)`` stays the reference for
every JSON text the package writes: the formatter, the streamed
extension report and the CLI's ``--json`` output must reproduce its
bytes exactly.  The last tests guard the memory the streaming and the
shared branch words save.
"""

from __future__ import annotations

import io
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelcheck import BlowupSchedule, enumerate_special_points, verify_extension
from abelcheck.cli import main
from abelcheck.fileio import format_json, write_json_array
from abelcheck.special_points import _enumerate

ORDERS = (None,) + tuple(
    BlowupSchedule((move,))
    for move in ("components-lex", "components-revlex", "components-c2-first")
)
LEX = ORDERS[1]


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(st.sampled_from('aZ"\\/\n\t\x00\x1f\x7fé€😀')),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(max_size=4), children),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_formatter_matches_json_dumps(value):
    assert format_json(value) == reference(value)


@settings(max_examples=50, deadline=None)
@given(st.lists(json_values, max_size=8), st.integers(0, 3))
def test_streamed_array_matches_the_formatted_list(items, level):
    out = io.StringIO()
    write_json_array(out, iter(items), level)
    assert out.getvalue() == format_json(items, level)


@pytest.mark.parametrize(
    "value", [0.5, Fraction(1, 2), {1: "x"}, {"a": [1, {2.0}]}, b"raw"]
)
def test_formatter_refuses_what_it_cannot_write_exactly(value):
    with pytest.raises(TypeError):
        format_json(value)


@pytest.mark.parametrize("size", [(3, 2), (4, 2), (3, 3)])
@pytest.mark.parametrize("order", ORDERS, ids=["default", "lex", "revlex", "c2-first"])
def test_streamed_report_matches_json_dumps(size, order):
    d, q = size
    for mode in ("separable", "brute"):
        for k in range(4 * q):
            c = Fraction(k, 4)
            report = verify_extension(d, q, (0, 0), (-c, c), order=order, mode=mode)
            out = io.StringIO()
            report.write_json(out)
            assert out.getvalue() == reference(report.to_dict())
            assert report.to_json() == out.getvalue()


@pytest.mark.parametrize("shards", ["1", "2"])
def test_verify_json_stdout_matches_json_dumps(tmp_path, capsys, shards):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"moves": list(LEX.moves)}), encoding="utf-8")
    argv = ["verify", "--d", "3", "--q", "2", "--L", "1,-1", "--pol", "1/4,-1/4"]
    for order, expected_code in ((None, 0), (LEX, 1)):
        extra = [] if order is None else ["--order", str(sched)]
        code = main(argv + extra + ["--shards", shards, "--json"])
        report = verify_extension(
            3, 2, (1, -1), (Fraction(1, 4), Fraction(-1, 4)), order=order
        )
        assert code == expected_code
        assert capsys.readouterr().out == reference(report.to_dict()) + "\n"


@pytest.mark.parametrize("d, q", [(3, 2), (4, 2)])
def test_enumerate_json_stdout_matches_json_dumps(capsys, d, q):
    assert main(["enumerate", "--d", str(d), "--q", str(q), "--json"]) == 0
    payload = [
        {"section_nodes": list(p.section_nodes), "branch_words": list(p.branch_words)}
        for p in enumerate_special_points(d, q)
    ]
    assert capsys.readouterr().out == reference(payload) + "\n"


class _CountingSink:
    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_a_failing_report_holds_a_fraction_of_its_text():
    report = verify_extension(5, 2, (0, 0), (0, 0), order=LEX)
    assert len(report.failures) == 3600
    sink = _CountingSink()
    streamed = _traced_peak(lambda: report.write_json(sink))
    whole = _traced_peak(report.to_json)
    assert sink.chars == len(report.to_json())
    assert streamed * 10 < whole


def test_enumerated_records_share_one_string_per_distinct_word():
    points = enumerate_special_points(4, 2)
    words = [w for p in points for w in p.branch_words]
    assert len({id(w) for w in words}) == len(set(words))


def test_enumeration_cache_is_bounded_and_keeps_the_parameter_grid():
    assert _enumerate.cache_info().maxsize is not None
    sizes = [(d, q) for q in (1, 2, 3) for d in (1, 2, 3, 4)]
    for d, q in sizes:
        enumerate_special_points(d, q)
    misses = _enumerate.cache_info().misses
    for d, q in sizes:
        enumerate_special_points(d, q)
    assert _enumerate.cache_info().misses == misses
