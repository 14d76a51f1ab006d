"""Search engine: oracle agreement, pruning soundness, replays.

Frozen survivor sets below were derived by running naive_oracle (no
pruning, full product walk) and checked against the structured
enumerator before being written down.
"""

from collections import Counter
from itertools import combinations_with_replacement, permutations, product

import pytest

from weightsys.constraints import check_system
from weightsys.core import FixedPointSystem, canonicalize, reverse_action
from weightsys.documents import emit_search_document, render_json
from weightsys.search import (
    FamilyPatternError,
    LemmaCounterexample,
    PruneFlags,
    REPLAY_LEMMAS,
    REPLAY_POINT_COUNTS,
    SearchConfig,
    SearchSpaceError,
    SearchStats,
    classify_dim4,
    cp2_family,
    dim6_pair_family,
    enumerate_systems,
    first_failure,
    naive_oracle,
    replay_lemma,
    verify_nonexistence,
    _dbranch_candidates,
    _pairing_completions,
    _partial_pool,
    _profiles,
    _signed_multisets,
    _staged_candidates,
)

BOUND3_SURVIVORS = (
    ((1, 2), (-1, 1), (-2, -1)),
    ((1, 3), (-1, 2), (-3, -2)),
)


def test_smallest_scope_survivors_frozen():
    outcome = enumerate_systems(SearchConfig(n=2, point_count=3, weight_bound=3))
    assert tuple(k.points for k in outcome.survivors) == BOUND3_SURVIVORS


def test_oracle_equivalence_spot_checks():
    # the full n <= 2, W <= 4 sweep lives in the acceptance suite
    configs = [
        SearchConfig(n=2, point_count=3, weight_bound=3),
        SearchConfig(n=2, point_count=3, weight_bound=3, require_effective=False),
        SearchConfig(n=1, point_count=2, weight_bound=4),
        SearchConfig(n=2, point_count=2, weight_bound=4, require_effective=False),
    ]
    for config in configs:
        assert (
            enumerate_systems(config).survivors
            == naive_oracle(config).survivors
        )


def test_oracle_guard():
    with pytest.raises(SearchSpaceError):
        naive_oracle(SearchConfig(n=6, point_count=3, weight_bound=8))


def test_oracle_profile_restriction():
    config = SearchConfig(n=2, point_count=3, weight_bound=3)
    with pytest.raises(ValueError):
        naive_oracle(config, lambda_profile=(0, 1))
    restricted = naive_oracle(config, lambda_profile=(0, 1, 2))
    assert restricted.survivors == enumerate_systems(config).survivors


def test_monotone_in_the_bound():
    small = enumerate_systems(SearchConfig(n=2, point_count=3, weight_bound=3))
    large = enumerate_systems(SearchConfig(n=2, point_count=3, weight_bound=5))
    assert set(small.survivors) <= set(large.survivors)


def test_prune_toggles_never_change_survivors():
    base = dict(n=2, point_count=3, weight_bound=4, require_effective=False)
    reference = None
    for bits in product((False, True), repeat=4):
        flags = PruneFlags(*bits)
        outcome = enumerate_systems(SearchConfig(prune_flags=flags, **base))
        if reference is None:
            reference = outcome.survivors
        assert outcome.survivors == reference, flags


def test_prune_toggles_two_point_scope():
    base = dict(n=3, point_count=2, weight_bound=3, require_effective=False)
    reference = None
    for bits in product((False, True), repeat=4):
        flags = PruneFlags(*bits)
        outcome = enumerate_systems(SearchConfig(prune_flags=flags, **base))
        if reference is None:
            reference = outcome.survivors
        assert outcome.survivors == reference, flags
    assert len(reference) == 8


def test_all_ones_corner_is_reached():
    # two-point systems made of +-1 exist only through the d = 1 branch
    outcome = enumerate_systems(
        SearchConfig(n=3, point_count=2, weight_bound=1, require_effective=False)
    )
    assert tuple(k.points for k in outcome.survivors) == (
        ((-1, 1, 1), (-1, -1, 1)),
        ((1, 1, 1), (-1, -1, -1)),
    )


def _reference_dbranch(n, point_count, d, profile, chern_on, pairing_complete):
    """The d-branch generator written the plain way: walk all 2^(n-1)
    up/down lifts of v's residues, drop repeats, then filter w by lambda
    and c_1."""
    if point_count == 2 and d == 1:
        yield tuple((-1,) * lam + (1,) * (n - lam) for lam in profile)
        return
    for ia, ib in permutations(range(point_count), 2):
        lam_a, lam_b = profile[ia], profile[ib]
        if lam_a < 1 or lam_b > n - 1:
            continue
        for others in _signed_multisets(lam_a - 1, n - lam_a, d - 1):
            if chern_on and sum(others) != d:
                continue
            ws_a = tuple(sorted((-d,) + others))
            seen_b = set()
            for downs in product((False, True), repeat=len(others)):
                lifted = (x % d - (d if down else 0) for x, down in zip(others, downs))
                ws_b = tuple(sorted((d, *lifted)))
                if ws_b in seen_b:
                    continue
                seen_b.add(ws_b)
                if sum(1 for v in ws_b if v < 0) != lam_b:
                    continue
                if chern_on and sum(ws_b) != 0:
                    continue
                slots = [None] * point_count
                slots[ia], slots[ib] = ws_a, ws_b
                if point_count == 2:
                    yield tuple(slots)
                    continue
                ic = 3 - ia - ib
                lam_c = profile[ic]
                if pairing_complete:
                    third = _pairing_completions(
                        ws_a + ws_b, n, lam_c, d - 1, chern_on, SearchStats()
                    )
                else:
                    third = (
                        ws
                        for ws in _signed_multisets(lam_c, n - lam_c, d - 1)
                        if not (chern_on and sum(ws) != 0)
                    )
                for ws_c in third:
                    slots[ic] = ws_c
                    yield tuple(slots)


def test_dbranch_lifts_match_the_full_lift_walk():
    # the unrestricted profiles include every count-symmetric one
    branches = 0
    for point_count in (2, 3):
        for n in range(1, 17):
            for d in range(1, 16 // n + 1):
                for profile in _profiles(n, point_count, False):
                    for chern_on, pairing in product((False, True), repeat=2):
                        args = (n, point_count, d, profile, chern_on, pairing)
                        got = Counter(_dbranch_candidates(*args, SearchStats()))
                        assert got == Counter(_reference_dbranch(*args)), args
                        branches += 1
    assert branches == 27724


def test_frontier_counts_frozen():
    config = SearchConfig(n=8, point_count=3, weight_bound=6)
    outcome = enumerate_systems(config)
    assert outcome.survivors == ()
    assert outcome.stats.nodes == 14828
    assert outcome.stats.eliminated == {
        "odd": {"localization": 2276, "isotropy": 20},
        "even": {"localization": 12488, "isotropy": 44},
    }


def test_worker_split_is_byte_identical():
    config = SearchConfig(n=2, point_count=3, weight_bound=6)
    solo = enumerate_systems(config, workers=1)
    split = enumerate_systems(config, workers=3)
    assert render_json(emit_search_document(config, solo)) == render_json(
        emit_search_document(config, split)
    )


def test_survivors_closed_under_symmetry():
    outcome = enumerate_systems(
        SearchConfig(n=2, point_count=3, weight_bound=5, require_effective=False)
    )
    for key in outcome.survivors:
        system = key.system()
        assert canonicalize(reverse_action(system)) == key
        assert first_failure(reverse_action(system), False) is None


def _guard_candidates():
    # pairing-complete staged generation over every profile, plus one raw
    # oracle product (which keeps the pairing failures)
    for n, point_count, bound in ((1, 2, 8), (2, 3, 8), (3, 2, 6)):
        for profile in _profiles(n, point_count, False):
            for ws in _staged_candidates(
                n, point_count, bound, profile, False, True, SearchStats()
            ):
                yield FixedPointSystem.from_weights(n, ws)
    values = (-3, -2, -1, 1, 2, 3)
    for ws in product(combinations_with_replacement(values, 3), repeat=2):
        yield FixedPointSystem.from_weights(3, ws)


def test_first_failure_agrees_with_check_system():
    killed = Counter()
    survivors = 0
    for system in _guard_candidates():
        for effective in (False, True):
            failed = first_failure(system, effective)
            report = check_system(system, require_effective=effective)
            assert (failed is None) == report.overall, (system, effective)
            killed[failed] += 1
            survivors += failed is None
    assert survivors > 0
    assert {
        "pairing",
        "localization",
        "largest_weight_structure",
        "isotropy",
        "effectivity",
    } <= set(killed)


def test_classify_dim4_frozen_values():
    assert classify_dim4(4) == [(1, 1), (1, 2), (1, 3)]
    assert classify_dim4(4, effective=False) == [
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 2),
    ]
    assert classify_dim4(6) == [
        (1, 1),
        (1, 2),
        (1, 3),
        (1, 4),
        (1, 5),
        (2, 3),
    ]
    with pytest.raises(ValueError):
        classify_dim4(1)


def test_family_builders_validate():
    assert cp2_family(1, 2).point_by_label("p").weights.weights == (1, 3)
    assert dim6_pair_family(1, 2).n == 3
    with pytest.raises(ValueError):
        cp2_family(0, 1)
    with pytest.raises(ValueError):
        dim6_pair_family(1, -1)


def test_verify_nonexistence_small():
    outcome = verify_nonexistence(4, 4, report_mode=True)
    assert outcome.survivors == ()
    assert set(outcome.stats.eliminated) == {"odd", "even"}
    bare = verify_nonexistence(4, 4)
    assert bare.stats.eliminated == {}
    with pytest.raises(ValueError):
        verify_nonexistence(3, 4)


def test_partial_pool_cascade_at_the_desk_scope():
    cheap = ("pairing", "lambda_symmetry", "parity", "localization")
    base = _partial_pool(4, 3, 6, cheap)
    with_chern = _partial_pool(4, 3, 6, cheap + ("chern1_vanishing",))
    full = _partial_pool(
        4, 3, 6, cheap + ("chern1_vanishing", "largest_weight_structure")
    )
    assert (len(base), len(with_chern), len(full)) == (588, 1, 0)
    lone = with_chern[0]
    assert tuple(p.weights.weights for p in lone.points) == (
        (-4, 1, 1, 2),
        (-2, -1, 1, 2),
        (-2, -1, -1, 4),
    )


def test_partial_pool_requires_pairing():
    with pytest.raises(ValueError):
        _partial_pool(2, 3, 3, ("parity",))


def test_replay_rejects_unknown_lemma_and_scope():
    scope = SearchConfig(n=2, point_count=3, weight_bound=3)
    with pytest.raises(ValueError):
        replay_lemma("l99", scope)
    with pytest.raises(ValueError):
        replay_lemma("l33", SearchConfig(n=2, point_count=2, weight_bound=3))


def test_replays_clean_and_non_vacuous_at_small_scope():
    live = {}
    for lemma in REPLAY_LEMMAS:
        for point_count in REPLAY_POINT_COUNTS[lemma]:
            for n in (2, 3):
                scope = SearchConfig(
                    n=n, point_count=point_count, weight_bound=4
                )
                report = replay_lemma(lemma, scope)
                assert report.passed
                live[lemma] = live.get(lemma, 0) + report.assertions
    # every statement must actually fire somewhere in this sweep
    for lemma, count in live.items():
        assert count > 0, lemma


def test_replay_counterexample_type_exists():
    # no honest counterexample is constructible, which is the point;
    # the exception type is part of the public surface nevertheless
    assert issubclass(LemmaCounterexample, RuntimeError)
    assert issubclass(FamilyPatternError, RuntimeError)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=0, point_count=3, weight_bound=3)
    with pytest.raises(ValueError):
        SearchConfig(n=2, point_count=4, weight_bound=3)
    with pytest.raises(ValueError):
        SearchConfig(n=2, point_count=3, weight_bound=0)
