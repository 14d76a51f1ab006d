"""Command line front end.

Four subcommands:

    check FILE             run the constraint suite on a system document
    enumerate --n N --points P --bound W --out FILE
                           exhaustive bounded search, JSON results
    replay --lemma ID --n N --bound W
                           re-derive a supported statement in a bounded scope
    graph FILE --dot FILE  isotropy multigraph, JSON to stdout + DOT file

Exit codes: 0 success, 1 constraint failure or counterexample, 2 usage
or malformed input.  Nothing else, ever.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager
from functools import lru_cache

from .constraints import check_system
from .documents import (
    DocumentError,
    emit_report,
    emit_search_document,
    parse_system,
    render_json,
)
from .graph import PairingRequired, build_graph, emit_dot
from .search import (
    REPLAY_LEMMAS,
    REPLAY_POINT_COUNTS,
    LemmaCounterexample,
    SearchConfig,
    SearchSpaceError,
    enumerate_systems,
    naive_oracle,
    replay_lemma,
)

__all__ = ["run_cli", "main"]


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightsys",
        description="constraint checking and bounded search for "
        "fixed-point weight systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the constraint suite on a document")
    p_check.add_argument("file", help="system document (JSON)")

    p_enum = sub.add_parser("enumerate", help="bounded exhaustive search")
    p_enum.add_argument("--n", type=int, required=True, help="weights per point")
    p_enum.add_argument(
        "--points", type=int, required=True, choices=(2, 3), help="fixed points"
    )
    p_enum.add_argument(
        "--bound", type=int, required=True, help="largest |weight| allowed"
    )
    p_enum.add_argument("--out", required=True, help="where to write the results")
    p_enum.add_argument(
        "--allow-ineffective",
        action="store_true",
        help="keep survivors whose weight gcd exceeds 1",
    )
    p_enum.add_argument(
        "--oracle",
        action="store_true",
        help="use the unpruned brute-force path (slow, for cross-checks)",
    )

    p_replay = sub.add_parser("replay", help="re-derive a supported statement")
    p_replay.add_argument("--lemma", required=True, help=", ".join(REPLAY_LEMMAS))
    p_replay.add_argument("--n", type=int, required=True)
    p_replay.add_argument("--bound", type=int, required=True)

    p_graph = sub.add_parser("graph", help="isotropy multigraph for a document")
    p_graph.add_argument("file", help="system document (JSON)")
    p_graph.add_argument("--dot", required=True, help="where to write DOT text")

    return parser


def _load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc.strerror)) from None
    except UnicodeDecodeError as exc:
        raise DocumentError(
            "cannot read %s: not UTF-8 (%s at byte %d)" % (path, exc.reason, exc.start)
        ) from None


def _cannot_write(path, exc):
    return DocumentError("cannot write %s: %s" % (path, exc.strerror))


@contextmanager
def _open_output(path):
    # append mode creates the file without truncating it: a bad path is
    # reported before any work, and what is there stays until the write;
    # a file created here is removed again when the run fails
    created = not os.path.exists(path)
    try:
        handle = open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    try:
        try:
            yield handle
        finally:
            # close flushes again what a failed write left buffered
            try:
                handle.close()
            except OSError as exc:
                raise _cannot_write(path, exc) from None
    except BaseException:
        if created:
            os.remove(path)
        raise


def _write_output(handle, text):
    # only a non-empty regular file has old bytes to drop; a device or a
    # pipe refuses truncate
    try:
        info = os.fstat(handle.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size:
            handle.truncate(0)
        handle.write(text)
        handle.flush()
    except OSError as exc:
        raise _cannot_write(handle.name, exc) from None


def _write_stdout(text):
    # a failed write exits 2, as a failed --out write does; fd 1 then points at
    # os.devnull, so the flush at exit has nothing to fail on (signal docs, SIGPIPE)
    if sys.stdout is None:  # fd 1 was closed at start-up
        raise DocumentError("cannot write stdout: Bad file descriptor")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _cannot_write("stdout", exc) from None


def _cmd_check(args) -> int:
    system = parse_system(_load_document(args.file))
    report = check_system(system)
    _write_stdout(render_json(emit_report(report)))
    return 0 if report.overall else 1


def _cmd_enumerate(args) -> int:
    try:
        config = SearchConfig(
            n=args.n,
            point_count=args.points,
            weight_bound=args.bound,
            require_effective=not args.allow_ineffective,
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    with _open_output(args.out) as out:
        try:
            outcome = (naive_oracle if args.oracle else enumerate_systems)(config)
        except SearchSpaceError as exc:
            raise DocumentError(str(exc)) from None
        _write_output(out, render_json(emit_search_document(config, outcome)))
    _write_stdout(
        "%d survivor(s), %d candidate(s) examined, results in %s\n"
        % (len(outcome.survivors), outcome.stats.nodes, args.out)
    )
    return 0


def _cmd_replay(args) -> int:
    if args.lemma not in REPLAY_LEMMAS:
        raise DocumentError(
            "unknown lemma %r (supported: %s)" % (args.lemma, ", ".join(REPLAY_LEMMAS))
        )
    if args.n < 1 or args.bound < 1:
        raise DocumentError("n and bound must be >= 1")
    for point_count in REPLAY_POINT_COUNTS[args.lemma]:
        scope = SearchConfig(
            n=args.n, point_count=point_count, weight_bound=args.bound
        )
        try:
            report = replay_lemma(args.lemma, scope)
        except LemmaCounterexample as exc:
            report = exc.report
            _write_stdout(
                "%s: FAILED over %d points (n=%d, bound=%d)\n"
                % (args.lemma, point_count, args.n, args.bound)
            )
            for failure in report.failures:
                _write_stdout("  counterexample: %s\n" % json.dumps(failure, default=str))
            return 1
        _write_stdout(
            "%s: ok over %d points (n=%d, bound=%d): "
            "%d candidate(s), %d assertion(s)\n"
            % (
                args.lemma,
                point_count,
                args.n,
                args.bound,
                report.candidates,
                report.assertions,
            )
        )
    return 0


def _cmd_graph(args) -> int:
    system = parse_system(_load_document(args.file))
    try:
        document = build_graph(system)
        dot = emit_dot(document)
    except PairingRequired as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    with _open_output(args.dot) as out:
        _write_output(out, dot)
    _write_stdout(render_json(document.as_dict()))
    return 0


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            return int(exc.code)
        # --help went to stdout, where argparse drops a failed write: the
        # flush below reports it as any failed stdout write is reported
        args = None

    try:
        if args is None:
            _write_stdout("")
            return 0
        handler = {
            "check": _cmd_check,
            "enumerate": _cmd_enumerate,
            "replay": _cmd_replay,
            "graph": _cmd_graph,
        }[args.command]
        return handler(args)
    except DocumentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
