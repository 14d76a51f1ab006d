"""Command line behavior: golden outputs and the 0/1/2 exit contract.

The golden files under tests/data were produced by the CLI itself and
then verified line by line against hand calculations for the (1, 2)
family: spheres for k = 2 (between q and r) and k = 3 (between p and
r), all checks passing, the c_1 and relation entries not-applicable in
dimension four.
"""

import errno
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from weightsys import cli, search
from weightsys.cli import run_cli
from weightsys.core import _all_digits

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"


def _read(name):
    return (DATA / name).read_text(encoding="utf-8")


def test_check_golden_report(capsys):
    code = run_cli(["check", str(DATA / "cp2_12.json")])
    assert code == 0
    assert capsys.readouterr().out == _read("cp2_12_report.json")


FAILING = {
    "dim": 4,
    "points": [
        {"label": "p", "weights": [1, 2]},
        {"label": "q", "weights": [-1, 2]},
        {"label": "r", "weights": [-2, -3]},
    ],
}


def test_check_exit_1_on_constraint_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(FAILING), encoding="utf-8")
    code = run_cli(["check", str(path)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "fail"


@pytest.mark.parametrize("module", ["weightsys", "weightsys.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(FAILING), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", module, "check", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["overall"] == "fail"


def test_import_loads_no_process_pool():
    # only enumerate_systems(..., workers > 1) starts a pool, and it
    # imports one then; a fresh interpreter importing the package and
    # its command line has loaded neither module
    probe = (
        "import sys, weightsys, weightsys.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_commands_in_one_process_run_as_they_run_alone(tmp_path, monkeypatch, capsys):
    # the parser is built once per process, so no run may leave state
    # behind for the next; usage text wraps at COLUMNS in both settings
    monkeypatch.setenv("COLUMNS", "80")
    failing = tmp_path / "bad.json"
    failing.write_text(json.dumps(FAILING), encoding="utf-8")
    dot = tmp_path / "graph.dot"
    commands = [
        ["enumerate", "--n", "2"],
        ["check", str(DATA / "cp2_12.json")],
        ["check", str(failing)],
        ["graph", str(DATA / "cp2_12.json"), "--dot", str(dot)],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    alone = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "weightsys", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in alone] == [2, 0, 1, 0]
    dot_alone = dot.read_text(encoding="utf-8")
    for _ in range(2):
        for argv, want in zip(commands, alone):
            code = run_cli(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == want, argv
    assert dot.read_text(encoding="utf-8") == dot_alone


def test_check_exit_2_on_malformed_document(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(
        '{"dim": 2, "points": [{"label": "p", "weights": [0]}]}',
        encoding="utf-8",
    )
    assert run_cli(["check", str(path)]) == 2
    assert "zero weight at p" in capsys.readouterr().err


# name -> (bytes, the one error line, {path} the file read)
MALFORMED = {
    "not_utf8": (
        b'{"dim": 2, "points": [{"label": "\xff", "weights": [1]}]}',
        "error: cannot read {path}: not UTF-8 (invalid start byte at byte 33)",
    ),
    "nested_too_deep": (
        b"[" * 100_000 + b"]" * 100_000,
        "error: invalid JSON: nested too deeply",
    ),
    # refused by the int/str digit limit, before dim is read
    "integer_too_long": (
        b'{"dim": ' + b"9" * 5000 + b', "points": []}',
        "error: invalid JSON: integer literal too long",
    ),
}


@pytest.mark.parametrize("command", ["check", "graph"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_bytes_exit_2_with_one_error_line(tmp_path, capsys, command, name):
    path = tmp_path / (name + ".json")
    document, line = MALFORMED[name]
    path.write_bytes(document)
    argv = [command, str(path)]
    if command == "graph":
        argv += ["--dot", str(tmp_path / "out.dot")]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line.format(path=path) + "\n"


FOUR_POINTS = {
    "dim": 4,
    "points": [
        {"label": label, "weights": weights}
        for label, weights in zip("pqrs", ([1, 2], [-1, 2], [-2, 1], [-2, -1]))
    ],
}

REFUSALS = {
    "oracle_space": (
        ["enumerate", "--oracle", "--n", "9", "--points", "2", "--bound", "8"],
        "error: oracle space has 1709566710016 candidates (> 100000000)",
    ),
    "graph_four_points": (
        ["graph", "{doc}", "--dot", "{dot}"],
        "error: the isotropy graph needs at most 3 fixed points",
    ),
    # in DOT a backslash before a quote or a newline has its own meaning
    "graph_backslash_label": (
        ["graph", "{backslash}", "--dot", "{dot}"],
        "error: label 'q\\\\' contains a backslash",
    ),
    "replay_n_0": (
        ["replay", "--lemma", "l22", "--n", "0", "--bound", "3"],
        "error: n and bound must be >= 1",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusals_exit_2_with_one_error_line(tmp_path, capsys, name):
    doc = tmp_path / "four.json"
    doc.write_text(json.dumps(FOUR_POINTS), encoding="utf-8")
    paths = {
        "doc": doc,
        "backslash": _relabelled_cp2_12(tmp_path, ["p", "q\\", "r"]),
        "dot": tmp_path / "out.dot",
        "out": tmp_path / "out.json",
    }
    argv, want = REFUSALS[name]
    argv = [arg.format(**paths) for arg in argv]
    if argv[0] == "enumerate":
        argv += ["--out", str(paths["out"])]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(want), captured.err
    assert captured.err.count("\n") == 1, captured.err
    assert not paths["dot"].exists()
    # a refused run creates no file, and a file already there keeps its bytes
    assert not paths["out"].exists()
    if argv[0] == "enumerate":
        paths["out"].write_text("kept", encoding="utf-8")
        assert run_cli(argv) == 2
        assert paths["out"].read_text(encoding="utf-8") == "kept"


def test_check_reports_a_sum_past_the_digit_limit(tmp_path, capsys):
    # v = 1..1600 and w = -v fail localization with the sum 1/(1600!/2),
    # whose denominator has more digits than int/str conversion allows by
    # default; the report writes it in full, and parsing keeps the limit
    n = 1600
    doc = {
        "dim": 2 * n,
        "points": [
            {"label": "p", "weights": list(range(1, n + 1))},
            {"label": "q", "weights": list(range(-n, 0))},
        ],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    checks = {check["id"]: check for check in report["checks"]}
    total = checks["localization"]["witness"]["sum"]
    with _all_digits():
        assert total == "1/%d" % (math.factorial(n) // 2)
    assert len(total) > 4302
    path.write_bytes(MALFORMED["integer_too_long"][0])
    assert run_cli(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid JSON: integer literal too long\n"


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


def _relabelled_cp2_12(tmp_path, labels):
    doc = json.loads(_read("cp2_12.json"))
    for point, label in zip(doc["points"], labels):
        point["label"] = label
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_graph_escapes_a_quote_in_a_label(tmp_path, capsys):
    path = _relabelled_cp2_12(tmp_path, ['p"x', "q", "r"])
    out = tmp_path / "graph.dot"
    assert run_cli(["graph", str(path), "--dot", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == _read("cp2_12.dot").replace(
        '"p"', '"p\\"x"'
    )
    assert json.loads(capsys.readouterr().out)["vertices"][0]["label"] == 'p"x'
    # a backslash label, which graph refuses (REFUSALS), passes check
    path = _relabelled_cp2_12(tmp_path, ["p", "q\\", "r"])
    assert run_cli(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "pass"


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


# a path that cannot be opened, and (where the system has one) a path
# that opens but takes no bytes
_UNWRITABLE = ["/nonexistent/x"]
if os.path.exists("/dev/full"):
    _UNWRITABLE.append("/dev/full")


def test_enumerate_exit_2_on_unwritable_out(monkeypatch, capsys):
    # a path that cannot be opened is refused before the search, which
    # would otherwise run first; /dev/full opens, so it fails at the write
    searched = []

    def recording(config):
        searched.append(config)
        return search.enumerate_systems(config)

    monkeypatch.setattr(cli, "enumerate_systems", recording)
    args = ["enumerate", "--n", "2", "--points", "3", "--bound", "3"]
    for path in _UNWRITABLE:
        searched.clear()
        assert run_cli(args + ["--out", path]) == 2
        assert len(searched) == (path == "/dev/full"), path
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write %s" % path)
        assert len(captured.err.splitlines()) == 1


def test_graph_exit_2_on_unwritable_dot(capsys):
    for path in _UNWRITABLE:
        args = ["graph", str(DATA / "cp2_12.json"), "--dot", path]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write %s" % path)
        assert len(captured.err.splitlines()) == 1


def test_output_to_a_device_is_written_without_truncating(capsys):
    # a device refuses truncate; only a regular file has old bytes to drop
    args = ["enumerate", "--n", "2", "--points", "3", "--bound", "3"]
    assert run_cli(args + ["--out", os.devnull]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "2 survivor(s), 27 candidate(s) examined, results in %s\n" % os.devnull
    )
    assert captured.err == ""
    assert run_cli(["graph", str(DATA / "cp2_12.json"), "--dot", os.devnull]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["vertices"][0]["label"] == "p"
    assert captured.err == ""


@pytest.mark.parametrize("command", ["enumerate", "graph"])
def test_output_over_a_longer_file_leaves_only_the_new_bytes(tmp_path, capsys, command):
    # a fresh file is written as it is; an existing one is emptied first
    args = {
        "enumerate": ["enumerate", "--n", "2", "--points", "3", "--bound", "3", "--out"],
        "graph": ["graph", str(DATA / "cp2_12.json"), "--dot"],
    }[command]
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    assert run_cli(args + [str(fresh)]) == 0
    old.write_bytes(b"x" * (2 * fresh.stat().st_size))
    assert run_cli(args + [str(old)]) == 0
    assert old.read_bytes() == fresh.read_bytes()
    assert capsys.readouterr().err == ""


# runs the command with the file size limit lowered below its output: the
# write then fails with EFBIG (the signal that would end the process is
# ignored), and the close that flushes the same bytes again fails too
_SIZE_LIMITED = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (64, hard))
from weightsys.cli import run_cli
sys.exit(run_cli(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
@pytest.mark.parametrize("command", ["enumerate", "graph"])
def test_failed_write_to_a_regular_file_exits_2(tmp_path, command):
    path = tmp_path / "out.txt"
    argv = {
        "enumerate": ["enumerate", "--n", "2", "--points", "3", "--bound", "6",
                      "--out", str(path)],
        "graph": ["graph", str(DATA / "cp2_12.json"), "--dot", str(path)],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _SIZE_LIMITED, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: cannot write %s: File too large\n" % path
    assert not path.exists()


# runs the command with stdout closed, as `weightsys ... >&-` does: the
# interpreter then starts with sys.stdout None
_STDOUT_CLOSED = """
import os, sys
os.close(1)
os.execv(sys.executable, [sys.executable, "-m", "weightsys", *sys.argv[1:]])
"""


@pytest.mark.parametrize("case", ["closed pipe", "full device", "closed descriptor"])
@pytest.mark.parametrize("command", ["check", "replay", "graph", "enumerate"])
def test_failed_write_to_stdout_exits_2(tmp_path, command, case):
    # one error line and exit 2, like a failed --out write; no traceback, and
    # nothing left for the interpreter's own flush at exit to report
    argv = {
        "check": ["check", str(DATA / "cp2_12.json")],
        "replay": ["replay", "--lemma", "l22", "--n", "2", "--bound", "3"],
        "graph": ["graph", str(DATA / "cp2_12.json"), "--dot", str(tmp_path / "g.dot")],
        "enumerate": ["enumerate", "--n", "2", "--points", "3", "--bound", "3",
                      "--out", str(tmp_path / "out.json")],
    }[command]
    args = [sys.executable, "-m", "weightsys", *argv]
    if case == "closed pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
        reason = errno.EPIPE
    elif case == "full device":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        stdout = os.open("/dev/full", os.O_WRONLY)
        reason = errno.ENOSPC
    else:
        args = [sys.executable, "-c", _STDOUT_CLOSED, *argv]
        stdout = os.open(os.devnull, os.O_WRONLY)
        reason = errno.EBADF
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            args, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60
        )
    finally:
        os.close(stdout)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: cannot write stdout: %s\n" % os.strerror(reason)


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


def test_replay_counterexample_exits_1(monkeypatch, capsys):
    def refuted(system, scope):
        yield False, {"planted": True}

    point_counts, pool, _ = search._REPLAYS["r35"]
    monkeypatch.setitem(search._REPLAYS, "r35", (point_counts, pool, refuted))
    assert run_cli(["replay", "--lemma", "r35", "--n", "2", "--bound", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the first point count fails, so the second is not replayed
    assert lines[0] == "r35: FAILED over 2 points (n=2, bound=3)"
    assert lines[1] == (
        '  counterexample: {"points": [[1, 2], [-1, 1], [-2, -1]], '
        '"detail": {"planted": true}}'
    )
    assert len(lines) == 7
    assert all(line.startswith("  counterexample: {") for line in lines[1:])


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


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_to_a_full_stdout_exits_2(argv):
    # argparse drops a failed write of the help; the one error line and
    # exit 2 of any failed stdout write report it
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    stdout = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "weightsys", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(stdout)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: cannot write stdout: %s\n" % os.strerror(errno.ENOSPC)
