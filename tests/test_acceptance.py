"""Acceptance gate: the eight contract criteria, one test each.

Each test finishes by printing a single pass line (visible with -s;
under plain -v the test name serves the same purpose).  Later criteria
lean on earlier ones through the RESULTS ledger, so this module is
meant to run in file order, which is how pytest collects it.
"""

import json
import time
from collections import Counter
from itertools import product

from weightsys.cli import run_cli
from weightsys.constraints import check_system, localization_sum
from weightsys.core import FixedPointSystem, canonicalize, reverse_action
from weightsys.search import (
    REPLAY_LEMMAS,
    REPLAY_POINT_COUNTS,
    PruneFlags,
    SearchConfig,
    cp2_family,
    dim6_pair_family,
    enumerate_systems,
    naive_oracle,
    replay_lemma,
    verify_nonexistence,
)
from weightsys.documents import emit_search_document, render_json
from weightsys.graph import build_graph

RESULTS = {}


def _families_from_document(path):
    document = json.loads(path.read_text(encoding="utf-8"))
    families = []
    for survivor in document["survivors"]:
        first = survivor["points"][0]["weights"]
        families.append((first[0], first[1] - first[0]))
    return document["survivor_count"], sorted(families)


def test_criterion_1_dim4_classification(tmp_path):
    budget = 5.0
    start = time.monotonic()
    out4 = tmp_path / "n2b4.json"
    assert run_cli(
        ["enumerate", "--n", "2", "--points", "3", "--bound", "4",
         "--out", str(out4)]
    ) == 0
    count4, families4 = _families_from_document(out4)
    elapsed4 = time.monotonic() - start
    assert count4 == 3
    assert families4 == [(1, 1), (1, 2), (1, 3)]
    assert elapsed4 < budget

    start = time.monotonic()
    out6 = tmp_path / "n2b6.json"
    assert run_cli(
        ["enumerate", "--n", "2", "--points", "3", "--bound", "6",
         "--out", str(out6)]
    ) == 0
    count6, families6 = _families_from_document(out6)
    elapsed6 = time.monotonic() - start
    assert count6 == 6
    assert families6 == [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3)]
    assert elapsed6 < budget

    RESULTS["c1"] = True
    print("criterion 1: pass (3 families at bound 4, 6 at bound 6, "
          "%.2fs + %.2fs)" % (elapsed4, elapsed6))


def test_criterion_2_bounded_nonexistence(tmp_path):
    budget = 600.0
    start = time.monotonic()

    out46 = tmp_path / "n4b6.json"
    assert run_cli(
        ["enumerate", "--n", "4", "--points", "3", "--bound", "6",
         "--out", str(out46)]
    ) == 0
    assert json.loads(out46.read_text(encoding="utf-8"))["survivor_count"] == 0

    out64 = tmp_path / "n6b4.json"
    assert run_cli(
        ["enumerate", "--n", "6", "--points", "3", "--bound", "4",
         "--out", str(out64)]
    ) == 0
    assert json.loads(out64.read_text(encoding="utf-8"))["survivor_count"] == 0

    # unpruned cross-check at n=4, bound 4, on the count-symmetric profiles
    config = SearchConfig(n=4, point_count=3, weight_bound=4)
    oracle_nodes = 0
    for profile in ((0, 2, 4), (1, 2, 3), (2, 2, 2)):
        outcome = naive_oracle(config, lambda_profile=profile)
        assert outcome.survivors == (), profile
        oracle_nodes += outcome.stats.nodes

    elapsed = time.monotonic() - start
    assert elapsed < budget
    RESULTS["c2"] = True
    print("criterion 2: pass (empty at n=4 W=6 and n=6 W=4; oracle "
          "re-checked %d candidates at n=4 W=4; %.1fs)"
          % (oracle_nodes, elapsed))


def test_criterion_3_localization_identities():
    budget = 1.0
    start = time.monotonic()
    for a in range(1, 21):
        for b in range(1, 21):
            assert localization_sum(cp2_family(a, b)) == 0
            assert localization_sum(dim6_pair_family(a, b)) == 0
    elapsed = time.monotonic() - start
    assert elapsed < budget
    RESULTS["c3"] = True
    print("criterion 3: pass (800 exact zero sums, %.2fs)" % elapsed)


def test_criterion_4_oracle_equivalence():
    checked = 0
    for n, bound, points, effective in product(
        (1, 2), (1, 2, 3, 4), (2, 3), (True, False)
    ):
        config = SearchConfig(
            n=n,
            point_count=points,
            weight_bound=bound,
            require_effective=effective,
        )
        fast = enumerate_systems(config)
        slow = naive_oracle(config)
        assert fast.survivors == slow.survivors, config
        checked += 1
    assert checked == 32
    RESULTS["c4"] = True
    print("criterion 4: pass (32 configs, exact canonical-set equality)")


def test_criterion_5_lemma_replays():
    total_candidates = 0
    assertions = Counter()
    for lemma in REPLAY_LEMMAS:
        for point_count in REPLAY_POINT_COUNTS[lemma]:
            for n in (1, 2, 3, 4):
                scope = SearchConfig(
                    n=n, point_count=point_count, weight_bound=6
                )
                report = replay_lemma(lemma, scope)
                assert report.passed, (lemma, point_count, n)
                total_candidates += report.candidates
                assertions[lemma] += report.assertions
    total_assertions = sum(assertions.values())
    assert total_assertions > 0
    # no lemma passes by asserting nothing
    assert [lemma for lemma in REPLAY_LEMMAS if assertions[lemma] == 0] == []
    RESULTS["c5"] = True
    print("criterion 5: pass (%d lemmas, %d candidates, %d assertions, "
          "zero counterexamples)"
          % (len(REPLAY_LEMMAS), total_candidates, total_assertions))


def test_criterion_6_invariance_suite():
    # verdicts stable under relabeling and reversal
    samples = [
        cp2_family(2, 3),
        dim6_pair_family(1, 2),
        FixedPointSystem.from_weights(2, [(1, 2), (-1, 2), (-2, -3)]),
    ]
    for system in samples:
        baseline = [(c.check_id, c.verdict) for c in check_system(system).checks]
        permuted = FixedPointSystem.from_weights(
            system.n,
            list(reversed(system.points)),
            labels=["x", "y", "z"][: len(system.points)],
        )
        assert [
            (c.check_id, c.verdict) for c in check_system(permuted).checks
        ] == baseline
        assert [
            (c.check_id, c.verdict)
            for c in check_system(reverse_action(system)).checks
        ] == baseline

    # survivor sets closed under reversal
    outcome = enumerate_systems(
        SearchConfig(n=2, point_count=3, weight_bound=5, require_effective=False)
    )
    for system in outcome.survivors:
        assert canonicalize(reverse_action(system)) == system

    # pruning toggles change nothing
    base = dict(n=2, point_count=3, weight_bound=4, require_effective=False)
    reference = None
    for bits in product((False, True), repeat=4):
        got = enumerate_systems(
            SearchConfig(prune_flags=PruneFlags(*bits), **base)
        ).survivors
        reference = got if reference is None else reference
        assert got == reference

    # worker splits are byte-identical, including on a nonexistence scope
    for config in (
        SearchConfig(n=2, point_count=3, weight_bound=6),
        SearchConfig(n=4, point_count=3, weight_bound=6),
    ):
        solo = render_json(
            emit_search_document(config, enumerate_systems(config, workers=1))
        )
        split = render_json(
            emit_search_document(config, enumerate_systems(config, workers=2))
        )
        assert solo == split

    RESULTS["c6"] = True
    print("criterion 6: pass (relabel/reversal, prune lattice, worker bytes)")


def test_criterion_7_bounded_substitution():
    # the full statement for n >= 4 is out of reach of any finite bound;
    # what stands in for it: bounded emptiness (criterion 2), the exact
    # identities and replays (3-5), and the invariance suite (6)
    for key in ("c2", "c3", "c4", "c5", "c6"):
        assert RESULTS.get(key), "criterion 7 rests on %s" % key

    # the checker accepts known families far outside any enumerated bound,
    # so the bounded window is a property of the search, not the theory
    far = cp2_family(7, 11)
    assert check_system(far, require_effective=True).overall
    huge = 10**9
    for system, edges in (
        (cp2_family(7, huge), (("p", "q", 7), ("p", "r", huge + 7), ("q", "r", huge))),
        (dim6_pair_family(7, huge), (("p", "q", huge + 7),)),
    ):
        assert check_system(system, require_effective=True).overall
        assert build_graph(system).edges == edges

    # and the nonexistence runner refuses scopes the theory does not cover
    try:
        verify_nonexistence(3, 4)
    except ValueError:
        pass
    else:
        raise AssertionError("n=3 must be rejected; dimension six has families")

    RESULTS["c7"] = True
    print("criterion 7: pass (bounded evidence substitutes, boundaries kept)")


def test_criterion_8_cli_contract(tmp_path, capsys):
    from pathlib import Path

    data = Path(__file__).parent / "data"

    assert run_cli(["check", str(data / "cp2_12.json")]) == 0
    assert capsys.readouterr().out == (data / "cp2_12_report.json").read_text(
        encoding="utf-8"
    )

    dot_path = tmp_path / "cp2_12.dot"
    assert run_cli(
        ["graph", str(data / "cp2_12.json"), "--dot", str(dot_path)]
    ) == 0
    assert dot_path.read_text(encoding="utf-8") == (
        data / "cp2_12.dot"
    ).read_text(encoding="utf-8")
    capsys.readouterr()

    failing = tmp_path / "failing.json"
    failing.write_text(
        json.dumps(
            {
                "dim": 4,
                "points": [
                    {"label": "p", "weights": [1, 2]},
                    {"label": "q", "weights": [-1, 2]},
                    {"label": "r", "weights": [-2, -3]},
                ],
            }
        ),
        encoding="utf-8",
    )
    assert run_cli(["check", str(failing)]) == 1

    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"dim": 5, "points": []}', encoding="utf-8")
    assert run_cli(["check", str(malformed)]) == 2
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()

    RESULTS["c8"] = True
    print("criterion 8: pass (golden report, golden DOT, exits 0/1/2)")
