from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from abelcheck import BlowupSchedule
from abelcheck.cli import main


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _curve(tmp_path, degs, weights=(0, 0), q=1, **extra):
    payload = {
        "components": 2,
        "nodes": [[1, 2]] * q,
        "polarization": list(weights),
        "multidegree": list(degs),
    }
    payload.update(extra)
    return _write(tmp_path, "curve.json", payload)


def test_check_stability_passes_with_exit_zero(tmp_path, capsys):
    code = main(["check-stability", _curve(tmp_path, (0, 0))])
    assert code == 0
    assert "quasistable" in capsys.readouterr().out


def test_check_stability_failure_names_the_witness(tmp_path, capsys):
    code = main(["check-stability", _curve(tmp_path, (1, -1))])
    assert code == 1
    out = capsys.readouterr().out
    assert "not quasistable" in out
    assert "[1]" in out


def test_check_stability_json_shape(tmp_path, capsys):
    code = main(["check-stability", _curve(tmp_path, (1, -1)), "--json"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data == {"verdict": "fail", "witness": [1]}


def test_check_stability_rejects_mismatched_totals(tmp_path, capsys):
    code = main(["check-stability", _curve(tmp_path, (1, 0))])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_and_broken_json_exit_two(tmp_path, capsys):
    assert main(["check-stability", str(tmp_path / "nope.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    assert main(["check-stability", str(broken)]) == 2
    capsys.readouterr()


def test_float_weights_are_rejected_loudly(tmp_path, capsys):
    path = _curve(tmp_path, (0, 0), weights=(0.5, -0.5))
    assert main(["check-stability", path]) == 2
    assert "float" in capsys.readouterr().err


def test_semistabilize_reports_degrees_and_twists(tmp_path, capsys):
    path = _write(
        tmp_path,
        "chain.json",
        {
            "base": {"components": 2, "nodes": [[1, 2]]},
            "d": 3,
            "base_degs": [5, 7],
            "chain_degs": {"0": [0, 1, 0]},
        },
    )
    code = main(["semistabilize", path, "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "base_degs": [6, 8],
        "chain_degs": {"0": [0, -1, 0]},
        "multiplicities": {"0": [1, 2, 1]},
    }


def test_semistabilize_text_output_mentions_each_node(tmp_path, capsys):
    path = _write(
        tmp_path,
        "chain.json",
        {
            "base": {"components": 2, "nodes": [[1, 2]]},
            "d": 1,
            "base_degs": [2, 3],
            "chain_degs": {"0": [1]},
        },
    )
    assert main(["semistabilize", path]) == 0
    out = capsys.readouterr().out
    assert "base degrees: [3, 4]" in out
    assert "node 0" in out


def test_semistabilize_rejects_inadmissible_chains(tmp_path, capsys):
    path = _write(
        tmp_path,
        "chain.json",
        {
            "base": {"components": 2, "nodes": [[1, 2]]},
            "d": 2,
            "base_degs": [0, 0],
            "chain_degs": {"0": [1, 1]},
        },
    )
    assert main(["semistabilize", path]) == 2
    assert "admissible" in capsys.readouterr().err


def test_collection_order_prints_the_induced_sequence(tmp_path, capsys):
    path = _write(tmp_path, "col.json", {"d_plus_1": 3, "sets": [[2], [1]]})
    assert main(["collection", "order", path]) == 0
    assert "order: 2 1 3" in capsys.readouterr().out

    assert main(["collection", "order", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"order": [2, 1, 3]}


def test_collection_order_flags_non_smooth_input_with_exit_one(tmp_path, capsys):
    path = _write(tmp_path, "col.json", {"d_plus_1": 3, "sets": [[1]]})
    assert main(["collection", "order", path]) == 1
    assert "not smooth" in capsys.readouterr().out


def test_collection_order_rejects_out_of_range_sets(tmp_path, capsys):
    path = _write(tmp_path, "col.json", {"d_plus_1": 3, "sets": [[7]]})
    assert main(["collection", "order", path]) == 2
    capsys.readouterr()


def test_enumerate_count_only_matches_the_formula(capsys):
    assert main(["enumerate", "--d", "2", "--q", "2", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert main(["enumerate", "--d", "3", "--q", "2", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "48"


def test_enumerate_text_lines_show_nodes_and_words(capsys):
    assert main(["enumerate", "--d", "2", "--q", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "nodes=(1,1) words: 11 12 21",
        "nodes=(1,1) words: 12 21 22",
    ]


def test_enumerate_json_lists_every_record(capsys):
    assert main(["enumerate", "--d", "2", "--q", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 8
    assert {"section_nodes": [1, 1], "branch_words": ["11", "12", "21"]} in data


def test_enumerate_rejects_nonpositive_parameters(capsys):
    assert main(["enumerate", "--d", "0", "--q", "2"]) == 2
    assert main(["enumerate", "--d", "2", "--q", "0"]) == 2
    capsys.readouterr()


def test_verify_passes_on_default_parameters(capsys):
    code = main(["verify", "--d", "2", "--q", "2", "--L", "0,0", "--pol", "0,0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "checked 8 stratum records" in out
    assert out.strip().endswith("pass")


def test_verify_json_report_round_trips(capsys):
    code = main(
        [
            "verify",
            "--d",
            "2",
            "--q",
            "2",
            "--L",
            "1,-1",
            "--pol",
            "1/2,-1/2",
            "--json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "pass"
    assert data["params"]["weights"] == ["1/2", "-1/2"]
    assert data["params"]["order"] == "default"


def test_verify_fails_with_exit_one_on_a_breaking_schedule(tmp_path, capsys):
    sched = _write(tmp_path, "sched.json", {"moves": ["components-lex"]})
    code = main(
        [
            "verify",
            "--d",
            "2",
            "--q",
            "2",
            "--L",
            "0,0",
            "--pol",
            "0,0",
            "--order",
            sched,
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "fail" in out
    assert "condition 2" in out


def test_verify_sharding_never_changes_the_json_report(tmp_path, capsys):
    sched = _write(tmp_path, "sched.json", {"moves": ["components-lex"]})
    outputs = []
    for shards in ("1", "3"):
        main(
            [
                "verify",
                "--d",
                "2",
                "--q",
                "2",
                "--L",
                "0,0",
                "--pol",
                "0,0",
                "--order",
                sched,
                "--shards",
                shards,
                "--json",
            ]
        )
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_verify_rejects_an_unresolvable_schedule(tmp_path, capsys):
    sched = _write(tmp_path, "sched.json", {"moves": ["diagonals-descending"]})
    code = main(
        [
            "verify",
            "--d",
            "2",
            "--q",
            "2",
            "--L",
            "0,0",
            "--pol",
            "0,0",
            "--order",
            sched,
        ]
    )
    assert code == 2
    assert "separate" in capsys.readouterr().err


def test_verify_argument_validation(tmp_path, capsys):
    base = ["verify", "--d", "1", "--q", "1"]
    assert main(base + ["--L", "0,0,0", "--pol", "0,0"]) == 2
    assert main(base + ["--L", "0,0", "--pol", "0,0,0"]) == 2
    assert main(base + ["--L", "0,0", "--pol", "0.5,-0.5"]) == 2
    assert main(base + ["--L", "x,y", "--pol", "0,0"]) == 2
    assert main(base + ["--L", "0,0", "--pol", "1,0"]) == 2
    assert (
        main(base + ["--L", "0,0", "--pol", "0,0", "--order", str(tmp_path / "no.json")])
        == 2
    )
    assert main(base + ["--L", "0,0", "--pol", "0,0", "--shards", "0"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(base + ["--L", "0,0", "--pol", "0,0", "--mode", "psychic"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_oracle_twist_search_prints_twist_and_balanced_degrees(tmp_path, capsys):
    path = _curve(tmp_path, (1, -1))
    assert main(["oracle", "twist-search", path]) == 0
    out = capsys.readouterr().out
    assert "twist: 0 1" in out
    assert "balanced multidegree: 0 0" in out

    assert main(["oracle", "twist-search", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"twist": [0, 1], "balanced": [0, 0]}


@pytest.mark.parametrize("rows", [{"7": [5, 5], "x": [1]}, {"0": [0, 0], "1": [0, 0]}])
def test_semistabilize_rejects_chain_rows_for_unknown_nodes(tmp_path, capsys, rows):
    path = _write(
        tmp_path,
        "chain.json",
        {
            "base": {"components": 2, "nodes": [[1, 2]]},
            "d": 2,
            "base_degs": [5, 5],
            "chain_degs": rows,
        },
    )
    assert main(["semistabilize", path]) == 2
    assert "not node indices" in capsys.readouterr().err


def test_every_move_the_readme_names_is_known():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    listing = re.search(r"\(known moves: (.*?);", readme, re.S)
    assert listing is not None
    moves = re.findall(r"`([^`]+)`", listing.group(1))
    assert len(moves) == len(BlowupSchedule._KNOWN)
    assert set(moves) == set(BlowupSchedule._KNOWN)
