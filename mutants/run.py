"""Mutation checks: each mutant is one small deliberate fault in the
source, and the tests named with it must fail on it.

    python3 mutants/run.py            # every mutant
    python3 mutants/run.py NAME ...   # only these

A mutant is a record: the file, a snippet that must occur in it exactly
once, the snippet's replacement, and the ids of the tests that must fail.
The script first checks every snippet, then runs every named test on an
unmutated copy of src/ and tests/, where each must pass.  Then, for each
mutant, it applies the replacement to a fresh copy and runs its tests
there with pytest.  It exits 1 when a snippet does not occur exactly
once, when a named test fails unmutated, or when a mutant survives (a
named test passes on it), so a mutant cannot rot silently.  It needs the
standard library and pytest.

A change that argues its tests catch a fault by a mutant adds the mutant
here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEARCH_TESTS = "tests/test_search.py::"

MUTANTS = (
    {
        "name": "lookup_key_sign",
        "file": "src/weightsys/lifts.py",
        "snippet": "closing = lasts.get((-sum(map(key_of.__getitem__, head)), target))",
        "replacement": "closing = lasts.get((sum(map(key_of.__getitem__, head)), target))",
        "tests": (
            SEARCH_TESTS + "test_uncut_staged_walk_matches_the_plain_product",
            SEARCH_TESTS + "test_grouped_localize_walk_matches_the_per_head_walk",
            SEARCH_TESTS + "test_localization_cut_keeps_every_pool",
        ),
    },
    {
        "name": "class_closes_at_any_lambda",
        "file": "src/weightsys/lifts.py",
        "snippet": "if odd or profile[ic] != pad + sum(x < 0 for x in forced):",
        "replacement": "if odd:",
        "tests": (
            SEARCH_TESTS + "test_dbranch_lifts_match_the_full_lift_walk",
            SEARCH_TESTS + "test_dbranch_unclosed_lifts_are_pairing_completion_prunes",
        ),
    },
    {
        "name": "free_last_points_cut_once",
        "file": "src/weightsys/lifts.py",
        "snippet": "cuts = 0 if pairing_complete else heads",
        "replacement": "cuts = 0 if pairing_complete else 1",
        "tests": (SEARCH_TESTS + "test_uncut_staged_walk_matches_the_plain_product",),
    },
    {
        "name": "unclosed_heads_uncounted",
        "file": "src/weightsys/lifts.py",
        "snippet": 'stats.pruned["pairing_completion"] += unclosed',
        "replacement": "pass",
        "tests": (SEARCH_TESTS + "test_uncut_staged_walk_matches_the_plain_product",),
    },
    {
        "name": "unclosed_class_counted_once",
        "file": "src/weightsys/lifts.py",
        "snippet": "# no third point closes: its lifts stay dropped\n",
        "replacement": "dropped -= count - scale\n",
        "tests": (SEARCH_TESTS + "test_dbranch_unclosed_lifts_are_pairing_completion_prunes",),
    },
    {
        "name": "pad_values_below_d_minus_1",
        "file": "src/weightsys/lifts.py",
        "snippet": "_closures(forced, combinations_with_replacement(range(1, d), pad))",
        "replacement": "_closures(forced, combinations_with_replacement(range(1, d - 1), pad))",
        "tests": (SEARCH_TESTS + "test_dbranch_lifts_match_the_full_lift_walk",),
    },
)


def _copy_tree(into: Path) -> None:
    """src/, tests/ and the pytest settings of the checkout, into into."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", into / "pyproject.toml")


def _failed_tests(tree: Path, ids) -> set:
    """The ids among ids that fail (or error) when run in tree; a missing
    id raises."""
    report = tree / "report.xml"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    command += ["--junitxml", str(report), *ids]
    subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, check=False)
    outcomes = {}
    if report.exists():
        for case in ElementTree.parse(report).iter("testcase"):
            test_id = case.get("classname").replace(".", "/") + ".py::" + case.get("name")
            failed = case.find("failure") is not None or case.find("error") is not None
            outcomes[test_id] = failed
    missing = set(ids) - set(outcomes)
    if missing:
        raise SystemExit("not collected: %s" % ", ".join(sorted(missing)))
    return {test_id for test_id in ids if outcomes[test_id]}


def main(names) -> int:
    unknown = set(names) - {mutant["name"] for mutant in MUTANTS}
    if unknown:
        raise SystemExit("unknown mutant(s): %s" % ", ".join(sorted(unknown)))
    chosen = [mutant for mutant in MUTANTS if not names or mutant["name"] in names]
    problems = []
    for mutant in chosen:
        found = (ROOT / mutant["file"]).read_text(encoding="utf-8").count(mutant["snippet"])
        if found != 1:
            problems.append("%s: its snippet occurs %d times" % (mutant["name"], found))
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="weightsys-mutants-") as scratch:
        unmutated = Path(scratch) / "unmutated"
        _copy_tree(unmutated)
        every_id = sorted({test_id for mutant in chosen for test_id in mutant["tests"]})
        broken = _failed_tests(unmutated, every_id)
        if broken:
            print("fail unmutated: %s" % ", ".join(sorted(broken)))
            return 1
        for index, mutant in enumerate(chosen):
            tree = Path(scratch) / str(index)
            _copy_tree(tree)
            path = tree / mutant["file"]
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(mutant["snippet"], mutant["replacement"]), encoding="utf-8")
            passed = set(mutant["tests"]) - _failed_tests(tree, mutant["tests"])
            if passed:
                problems.append("%s survives: %s" % (mutant["name"], ", ".join(sorted(passed))))
            else:
                print("killed %s by %d test(s)" % (mutant["name"], len(mutant["tests"])))
            shutil.rmtree(tree)
    print("\n".join(problems) or "every mutant killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
