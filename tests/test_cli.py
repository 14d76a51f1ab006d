"""Command line behavior: golden outputs and the 0/1/2 exit contract.

The golden files under tests/data were produced by the CLI itself and
then verified line by line against hand calculations for the (1, 2)
family: spheres for k = 2 (between q and r) and k = 3 (between p and
r), all checks passing, the c_1 and relation entries not-applicable in
dimension four.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from weightsys import cli
from weightsys.cli import run_cli

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


def _read(name):
    return (DATA / name).read_text(encoding="utf-8")


def test_check_golden_report(capsys):
    code = run_cli(["check", str(DATA / "cp2_12.json")])
    assert code == 0
    assert capsys.readouterr().out == _read("cp2_12_report.json")


def test_check_exit_1_on_constraint_failure(tmp_path, capsys):
    doc = {
        "dim": 4,
        "points": [
            {"label": "p", "weights": [1, 2]},
            {"label": "q", "weights": [-1, 2]},
            {"label": "r", "weights": [-2, -3]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli(["check", str(path)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "fail"


def test_check_exit_2_on_malformed_document(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(
        '{"dim": 2, "points": [{"label": "p", "weights": [0]}]}',
        encoding="utf-8",
    )
    assert run_cli(["check", str(path)]) == 2
    assert "zero weight at p" in capsys.readouterr().err


def test_check_exit_2_on_missing_file(capsys):
    assert run_cli(["check", "/no/such/file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_takes_no_flags(tmp_path, capsys):
    # effectivity is opt-in at the library level only; the command's
    # surface is just the file argument
    doc = {
        "dim": 4,
        "points": [
            {"label": "p", "weights": [2, 4]},
            {"label": "q", "weights": [-2, 2]},
            {"label": "r", "weights": [-4, -2]},
        ],
    }
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["check", str(path)]) == 0
    capsys.readouterr()
    assert run_cli(["check", "--effective", str(path)]) == 2
    capsys.readouterr()


def test_graph_golden_dot(tmp_path, capsys):
    out = tmp_path / "graph.dot"
    code = run_cli(["graph", str(DATA / "cp2_12.json"), "--dot", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == _read("cp2_12.dot")
    document = json.loads(capsys.readouterr().out)
    assert document["edges"] == [
        {"ends": ["p", "r"], "k": 3},
        {"ends": ["q", "r"], "k": 2},
    ]


def test_graph_exit_1_without_pairing(tmp_path, capsys):
    doc = {
        "dim": 4,
        "points": [
            {"label": "p", "weights": [1, 2]},
            {"label": "q", "weights": [-1, 2]},
            {"label": "r", "weights": [-2, -3]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli(["graph", str(path), "--dot", str(tmp_path / "x.dot")])
    assert code == 1
    assert "pairing" in capsys.readouterr().err


def test_enumerate_writes_deterministic_document(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["enumerate", "--n", "2", "--points", "3", "--bound", "3"]
    assert run_cli(args + ["--out", str(out_a)]) == 0
    assert run_cli(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    document = json.loads(out_a.read_text(encoding="utf-8"))
    assert document["survivor_count"] == 2
    capsys.readouterr()


def test_enumerate_oracle_flag_agrees(tmp_path):
    fast = tmp_path / "fast.json"
    slow = tmp_path / "slow.json"
    args = ["enumerate", "--n", "2", "--points", "3", "--bound", "3"]
    assert run_cli(args + ["--out", str(fast)]) == 0
    assert run_cli(args + ["--oracle", "--out", str(slow)]) == 0
    survivors = lambda p: json.loads(p.read_text(encoding="utf-8"))["survivors"]
    assert survivors(fast) == survivors(slow)


def test_enumerate_allow_ineffective(tmp_path):
    out = tmp_path / "all.json"
    assert (
        run_cli(
            [
                "enumerate",
                "--n",
                "2",
                "--points",
                "3",
                "--bound",
                "4",
                "--allow-ineffective",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert json.loads(out.read_text(encoding="utf-8"))["survivor_count"] == 4


def test_enumerate_rejects_bad_config(tmp_path, capsys):
    code = run_cli(
        ["enumerate", "--n", "0", "--points", "3", "--bound", "3",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 2
    assert "n must be" in capsys.readouterr().err


def test_enumerate_exit_2_on_unwritable_out(monkeypatch, capsys):
    # the path is checked before the search, which would otherwise run first
    def no_search(config):
        raise AssertionError("searched before checking --out")

    monkeypatch.setattr(cli, "enumerate_systems", no_search)
    args = ["enumerate", "--n", "2", "--points", "3", "--bound", "3"]
    assert run_cli(args + ["--out", "/nonexistent/x.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write /nonexistent/x.json")
    assert len(captured.err.splitlines()) == 1


def test_graph_exit_2_on_unwritable_dot(capsys):
    args = ["graph", str(DATA / "cp2_12.json"), "--dot", "/nonexistent/x.dot"]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write /nonexistent/x.dot")
    assert len(captured.err.splitlines()) == 1


def test_readme_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    # every README code block that runs the command and shows its output
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```$", text, re.S | re.M)
    examples = [
        block.splitlines()
        for block in blocks
        if block.startswith("$ weightsys ") and len(block.splitlines()) > 1
    ]
    assert [shlex.split(lines[0])[2] for lines in examples] == [
        "enumerate",
        "replay",
    ]
    monkeypatch.chdir(tmp_path)  # the enumerate example writes results.json
    for command, *shown in examples:
        assert run_cli(shlex.split(command)[2:]) == 0
        assert capsys.readouterr().out.splitlines() == shown


def test_replay_happy_path(capsys):
    assert run_cli(["replay", "--lemma", "l24", "--n", "2", "--bound", "3"]) == 0
    out = capsys.readouterr().out
    assert "l24: ok over 2 points" in out
    assert "l24: ok over 3 points" in out


def test_replay_unknown_lemma(capsys):
    assert run_cli(["replay", "--lemma", "l99", "--n", "2", "--bound", "3"]) == 2
    assert "unknown lemma" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert run_cli(["bogus"]) == 2
    assert run_cli(["enumerate", "--n", "2"]) == 2
    assert (
        run_cli(
            ["enumerate", "--n", "2", "--points", "3", "--bound", "3",
             "--out", "/tmp/x.json", "--frobnicate"]
        )
        == 2
    )
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run_cli(["--help"]) == 0
    assert "check" in capsys.readouterr().out
