"""JSON loading for the command line, with exact rational parsing, and
the indented JSON writer behind every report.

All numeric weights travel as integers or strings like "3/4"; floats
are rejected outright because every check in this package is exact and
a float would silently change verdicts near interval endpoints.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .blowups import BlowupDivisor, SubsetCollection, normalize_divisor
from .chains import ChainCurve
from .curves import DualGraph, Multidegree, Polarization
from .special_points import BlowupSchedule


class InputError(ValueError):
    """Malformed or inexact input file content."""


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def parse_fraction(value) -> Fraction:
    """Exact rational from an int or a string like "3/4" or "-2"."""
    if isinstance(value, bool):
        raise InputError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(
            f"floats are not accepted (got {value!r}); write \"1/2\" instead"
        )
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL_RE.fullmatch(text) is None:
            raise InputError(
                f"cannot parse rational {value!r}; write an integer or \"3/4\""
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {value!r}") from exc
    raise InputError(f"expected a rational, got {type(value).__name__}")


def format_json(value, level: int = 0) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, nested ``level`` deep.

    Takes str, int, bool, None, lists, tuples and dicts with str keys;
    anything else, floats included, raises TypeError.  Every line after
    the first is indented as it would be at that depth of an enclosing
    document.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        brackets = "[]"
        parts = [format_json(v, level + 1) for v in value]
    elif isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise TypeError("JSON object keys must be str")
        brackets = "{}"
        parts = [
            f"{encode_basestring_ascii(k)}: {format_json(value[k], level + 1)}"
            for k in sorted(value)
        ]
    else:
        raise TypeError(f"cannot write {type(value).__name__} as exact JSON")
    if not parts:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return (
        brackets[0] + inner + ("," + inner).join(parts)
        + "\n" + "  " * level + brackets[1]
    )


def write_json_array(fp, items, level: int = 0) -> None:
    """Write ``format_json(list(items), level)`` to fp without building it.

    Items are formatted one at a time and written 256 at a time, so
    neither the list nor its whole text is ever held in memory.
    """
    inner = "\n" + "  " * (level + 1)
    sep, end, chunk = "[" + inner, "[]", []
    for item in items:
        chunk += (sep, format_json(item, level + 1))
        sep, end = "," + inner, "\n" + "  " * level + "]"
        if len(chunk) >= 512:
            fp.write("".join(chunk))
            chunk.clear()
    chunk.append(end)
    fp.write("".join(chunk))


def format_fraction(value: Fraction) -> str:
    return str(value)


def parse_integer(value) -> int:
    """Exact integer from an int or a digit string; floats are rejected."""
    if isinstance(value, bool):
        raise InputError(f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise InputError(
            f"floats are not accepted (got {value!r}); write an integer"
        )
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError as exc:
            raise InputError(f"cannot parse integer {value!r}") from exc
    raise InputError(f"expected an integer, got {type(value).__name__}")


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise InputError(f"{where}: missing field {key!r}")
    return data[key]


def curve_from_dict(data) -> tuple[DualGraph, Polarization, Multidegree]:
    if not isinstance(data, dict):
        raise InputError("curve file must hold a JSON object")
    components = _require(data, "components", "curve")
    nodes = _require(data, "nodes", "curve")
    weights = _require(data, "polarization", "curve")
    degs = _require(data, "multidegree", "curve")
    marked = data.get("marked", 1)
    try:
        g = DualGraph(
            parse_integer(components),
            tuple(tuple(parse_integer(x) for x in pair) for pair in nodes),
            marked=parse_integer(marked),
        )
        pol = Polarization(tuple(parse_fraction(w) for w in weights))
        md = Multidegree(tuple(parse_integer(x) for x in degs))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"curve: {exc}") from exc
    if len(pol.weights) != g.components or len(md.degs) != g.components:
        raise InputError(
            "curve: polarization and multidegree must have one entry per component"
        )
    return g, pol, md


def load_curve(path: str) -> tuple[DualGraph, Polarization, Multidegree]:
    return curve_from_dict(read_json(path))


def chain_from_dict(data) -> ChainCurve:
    if not isinstance(data, dict):
        raise InputError("chain file must hold a JSON object")
    base = _require(data, "base", "chain")
    chain_len = parse_integer(_require(data, "d", "chain"))
    base_degs = _require(data, "base_degs", "chain")
    raw_rows = data.get("chain_degs", {})
    try:
        g = DualGraph(
            parse_integer(_require(base, "components", "chain.base")),
            tuple(
                tuple(parse_integer(x) for x in pair)
                for pair in _require(base, "nodes", "chain.base")
            ),
            marked=parse_integer(base.get("marked", 1)),
        )
        stray = set(raw_rows) - {str(t) for t in range(len(g.nodes))}
        if stray:
            raise InputError(
                f"chain: chain_degs keys {sorted(stray)} are not node indices "
                f"0..{len(g.nodes) - 1}"
            )
        rows = []
        for t in range(len(g.nodes)):
            row = raw_rows.get(str(t), [0] * chain_len)
            rows.append(tuple(parse_integer(x) for x in row))
        curve = ChainCurve(
            g,
            chain_len,
            tuple(parse_integer(x) for x in base_degs),
            tuple(rows),
        )
    except (TypeError, ValueError, AttributeError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"chain: {exc}") from exc
    return curve


def load_chain(path: str) -> ChainCurve:
    return chain_from_dict(read_json(path))


def collection_from_dict(data) -> SubsetCollection:
    if not isinstance(data, dict):
        raise InputError("collection file must hold a JSON object")
    d_plus_1 = parse_integer(_require(data, "d_plus_1", "collection"))
    sets = _require(data, "sets", "collection")
    kinds = data.get("kinds")
    if kinds is None:
        kinds = ["x"] * len(sets)
    if len(kinds) != len(sets):
        raise InputError("collection: kinds must match sets in length")
    try:
        normalized = tuple(
            normalize_divisor(
                BlowupDivisor(d_plus_1, kind, frozenset(parse_integer(x) for x in a))
            )
            for kind, a in zip(kinds, sets)
        )
        return SubsetCollection(d_plus_1, normalized)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"collection: {exc}") from exc


def load_collection(path: str) -> SubsetCollection:
    return collection_from_dict(read_json(path))


def schedule_from_dict(data) -> BlowupSchedule:
    if not isinstance(data, dict):
        raise InputError("schedule file must hold a JSON object")
    moves = _require(data, "moves", "schedule")
    try:
        return BlowupSchedule(tuple(str(m) for m in moves))
    except (TypeError, ValueError) as exc:
        raise InputError(f"schedule: {exc}") from exc


def load_schedule(path: str) -> BlowupSchedule:
    return schedule_from_dict(read_json(path))
