"""The two-component fast checker against its oracles, and its process pool.

The fast checker (``extension._check_chunk``) works in integers.  It is
pinned three ways: against the rational reference kernel record by
record, witnesses included; against the general route, which recomputes
both conditions from explicit section data with the exhaustive twist
search; and by per-condition failure counts on schedule-induced records,
the only records that fail (the default order passes everywhere).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from fractions import Fraction

import pytest

from abelcheck import (
    BlowupSchedule,
    Multidegree,
    Polarization,
    check_admissibility_condition,
    check_stability_condition,
    enumerate_special_points,
    sections_from_point,
    two_component_graph,
    verify_extension,
)
from abelcheck import extension
from reference_kernel import check_point

COMPONENT_SCHEDULES = tuple(
    BlowupSchedule((move,))
    for move in ("components-lex", "components-revlex", "components-c2-first")
)
MODES = ("separable", "brute")


def _fast(point, c, q, mode):
    """First failed condition and witness from the integer kernel."""
    found = extension._check_chunk((point,), c, q, mode)
    return found[0][1:] if found else None


def test_fast_checker_names_the_general_routes_first_failed_condition():
    q, d = 2, 3
    g = two_component_graph(q)
    l_md = Multidegree((0, 0))
    seen = {1: 0, 2: 0, None: 0}
    for schedule in COMPONENT_SCHEDULES:
        points = enumerate_special_points(d, q, schedule)
        for k in range(4 * q):
            c = Fraction(k, 4)
            pol = Polarization((-c, c))
            for point in points:
                sections = sections_from_point(point)
                if not check_admissibility_condition(g, pol, l_md, sections, d + 1):
                    expected = 1
                elif not check_stability_condition(
                    g, pol, l_md, sections, d + 1, mode="brute"
                ):
                    expected = 2
                else:
                    expected = None
                seen[expected] += 1
                for mode in MODES:
                    got = _fast(point, c, q, mode)
                    assert (got and got[0]) == expected, (point, c, mode)
    # Every outcome occurs, so each branch of the checker is compared.
    assert min(seen.values()) > 0


@pytest.mark.parametrize(
    "moves, cond1, cond2",
    [(("components-lex",), 144, 192), (("components-revlex",), 164, 176)],
)
def test_schedule_failure_counts_per_condition_are_pinned(moves, cond1, cond2):
    for mode in MODES:
        report = verify_extension(
            4, 2, (0, 0), (0, 0), order=BlowupSchedule(moves), mode=mode
        )
        counts = [f.condition for f in report.failures]
        assert (counts.count(1), counts.count(2)) == (cond1, cond2)


OFFSETS = (Fraction(-5, 4), Fraction(-2, 3), Fraction(1, 3), Fraction(7, 6))


def _reference_cases():
    """(d, q, schedule, mode, offsets) compared against the reference.

    Separable mode runs on a quarter grid of [0, q) plus negative and
    non-dyadic offsets.  Brute mode sweeps every chart assignment in
    both kernels, so it runs on half of that grid, and on the default
    order, which never fails, only at (3,2).
    """
    for d, q in ((3, 2), (4, 2), (3, 3)):
        quarters = [Fraction(k, 4) for k in range(4 * q)]
        for schedule in (None,) + COMPONENT_SCHEDULES:
            yield d, q, schedule, "separable", quarters + list(OFFSETS)
            if schedule is not None or (d, q) == (3, 2):
                yield d, q, schedule, "brute", quarters[::2] + list(OFFSETS[1::2])


def test_integer_kernel_matches_the_rational_reference_with_witnesses():
    failures = {1: 0, 2: 0}
    for d, q, schedule, mode, offsets in _reference_cases():
        points = enumerate_special_points(d, q, schedule)
        for c in offsets:
            expected = [
                (p, *r)
                for p in points
                if (r := check_point(p, c, q, mode)) is not None
            ]
            assert extension._check_chunk(points, c, q, mode) == expected
            for _, condition, _ in expected:
                failures[condition] += 1
    assert min(failures.values()) > 0


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


_PARENT = os.getpid()
_REAL_CHECK_CHUNK = extension._check_chunk


def _raise_in_workers(points, c, node_count, mode):
    if os.getpid() != _PARENT:
        raise RuntimeError("bug inside a worker")
    return _REAL_CHECK_CHUNK(points, c, node_count, mode)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched kernel reaches the workers only through fork",
)
def test_an_error_inside_a_worker_propagates_instead_of_rerunning(
    monkeypatch, two_cpus
):
    monkeypatch.setattr(extension, "_check_chunk", _raise_in_workers)
    with pytest.raises(RuntimeError, match="inside a worker"):
        verify_extension(2, 2, (0, 0), (0, 0), order=COMPONENT_SCHEDULES[0], shards=2)


class _PoolThatCannotStart:
    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        raise OSError("no semaphores here")


def test_a_pool_that_cannot_start_falls_back_serially_and_says_so(
    monkeypatch, capsys, two_cpus
):
    serial = verify_extension(3, 2, (0, 0), (0, 0), order=COMPONENT_SCHEDULES[0])
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _PoolThatCannotStart
    )
    sharded = verify_extension(
        3, 2, (0, 0), (0, 0), order=COMPONENT_SCHEDULES[0], shards=2
    )
    assert sharded.to_json() == serial.to_json()
    assert "cannot start a process pool" in capsys.readouterr().err


def test_pool_workers_are_capped_at_the_cpu_count(monkeypatch):
    # The pool never starts, so no shard count here creates a process.
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _PoolThatCannotStart
    )
    # The default order in separable mode never enumerates, so never
    # reaches the pool; a custom order does.
    order = COMPONENT_SCHEDULES[0]
    expected = verify_extension(3, 2, (0, 0), (0, 0), order=order).to_json()
    for cpus, shards, sizes in ((2, 64, [2]), (3, 2, [2]), (None, 64, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        _PoolThatCannotStart.sizes = []
        report = verify_extension(3, 2, (0, 0), (0, 0), order=order, shards=shards)
        assert _PoolThatCannotStart.sizes == sizes
        assert report.to_json() == expected
