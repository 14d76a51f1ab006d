"""Search engine: oracle agreement, pruning soundness, replays.

Frozen survivor sets below were derived by running naive_oracle (no
pruning, full product walk) and checked against the structured
enumerator before being written down.
"""

import hashlib
import re
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod
from itertools import chain, combinations_with_replacement, permutations, product

import pytest

from weightsys import constraints, isotropy, lifts, search
from weightsys.constraints import (
    FAIL,
    CheckResult,
    _read_localization,
    _read_pairing,
    check_system,
)
from weightsys.core import FixedPointSystem, _canonical_points, canonicalize, reverse_action
from weightsys.documents import emit_search_document, render_json
from weightsys.isotropy import FILTER_CHECKS
from weightsys.lifts import (
    _excess_key,
    _factorizations,
    _free_points,
    _last_product,
    _signed_multisets,
)
from weightsys.search import (
    FamilyPatternError,
    LemmaCounterexample,
    NonexistenceViolation,
    PruneFlags,
    REPLAY_LEMMAS,
    REPLAY_POINT_COUNTS,
    SearchConfig,
    SearchOutcome,
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
    _L32_PREMISES,
    _L33_PREMISES,
    _PAIRWISE_PREMISES,
    _REPLAYS,
    _dbranch_candidates,
    _filter_plan,
    _first_failing,
    _partial_pool,
    _profiles,
    _sieve,
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
        # the scopes the dim-6 pair family lives in
        SearchConfig(n=3, point_count=2, weight_bound=6, require_effective=False),
        SearchConfig(n=5, point_count=2, weight_bound=3, require_effective=False),
        SearchConfig(n=4, point_count=2, weight_bound=5, require_effective=False),
    ]
    for config in configs:
        oracle = naive_oracle(config)
        assert enumerate_systems(config).survivors == oracle.survivors
    # the last scope walks C(13, 4)**2 multiset pairs, none consistent
    assert (oracle.stats.nodes, oracle.survivors) == (511225, ())


def test_oracle_two_point_range():
    # the unrestricted two-point oracle held to the enumerator past the
    # acceptance sweep: (nodes, survivors) under both effectivities
    scopes = {
        (3, 14): (16483600, {True: 49, False: 66}),
        (5, 5): (4008004, {True: 17, False: 17}),
        (7, 4): (11778624, {True: 17, False: 17}),
    }
    for (n, bound), (nodes, counts) in scopes.items():
        for effective, count in counts.items():
            config = SearchConfig(n, 2, bound, effective)
            oracle = naive_oracle(config)
            assert oracle.survivors == enumerate_systems(config).survivors, config
            assert (oracle.stats.nodes, len(oracle.survivors)) == (nodes, count), config


def _plain_pools(config, lambda_profile=None):
    """Each point's multisets, listed without the oracle's walk."""
    n, bound = config.n, config.weight_bound
    if lambda_profile is None:
        values = [w for w in range(-bound, bound + 1) if w]
        return [list(combinations_with_replacement(values, n))] * config.point_count
    return [list(_signed_multisets(lam, n - lam, bound)) for lam in lambda_profile]


def _reference_oracle(config, lambda_profile=None):
    """The oracle as one plain product walk: every candidate through the
    sieve, each failure bucketed by its own largest |weight|."""
    pools = _plain_pools(config, lambda_profile)
    stats = SearchStats()
    plan = _filter_plan(config.require_effective)
    survivors = _sieve(product(*pools), config.n, plan, stats)
    return stats, tuple(sorted(survivors))


def _oracle_reference_scopes():
    for n, bound, points, effective in product((1, 2), (1, 2, 3, 4), (2, 3), (True, False)):
        yield SearchConfig(n, points, bound, effective), None
    for n, points in product((3, 4), (2, 3)):
        yield SearchConfig(n, points, 1, False), None
    yield SearchConfig(4, 3, 3), (1, 2, 3)
    yield SearchConfig(2, 3, 5), (0, 1, 2)
    # a repeated lambda: two points share one pool
    yield SearchConfig(3, 3, 2), (1, 1, 2)
    # classes that pair but fail lambda symmetry, counted in bulk
    yield SearchConfig(4, 3, 3), (1, 1, 4)
    # unrestricted: lambda symmetry, localization and c_1 kills together
    yield SearchConfig(4, 3, 2, False), None


def test_oracle_largest_weight_walk_matches_the_plain_product():
    # the walk by largest |weight| lists each candidate once and buckets
    # its failures as the per-candidate max would; the checks it counts
    # in bulk, by class and by product lookup, each kill something here
    kinds = set()
    for config, profile in _oracle_reference_scopes():
        outcome = naive_oracle(config, profile)
        stats, survivors = _reference_oracle(config, profile)
        assert tuple(s.points for s in outcome.survivors) == survivors, config
        assert outcome.stats.nodes == stats.nodes, config
        killed = {b: dict(c) for b, c in outcome.stats.eliminated.items()}
        assert killed == {b: dict(c) for b, c in stats.eliminated.items()}, config
        assert all(chain.from_iterable(c.values() for c in killed.values())), config
        kinds.update(chain.from_iterable(killed.values()))
    assert {"pairing", "lambda_symmetry", "localization", "chern1_vanishing"} <= kinds


def test_oracle_is_the_union_of_its_profile_walks():
    # the unrestricted walk allows every lambda at every point, so it is
    # the profile walks over every ordered lambda tuple, merged: a lambda
    # dropped or listed twice would show in the nodes or the counts
    for n, bound, points, effective in product((1, 2), (1, 2, 3), (2, 3), (True, False)):
        config = SearchConfig(n, points, bound, effective)
        stats, survivors = SearchStats(), set()
        for profile in product(range(n + 1), repeat=points):
            outcome = naive_oracle(config, profile)
            stats.merge(outcome.stats)
            survivors.update(outcome.survivors)
        whole = naive_oracle(config)
        assert set(whole.survivors) == survivors, config
        assert whole.stats.nodes == stats.nodes, config
        assert whole.stats.eliminated == stats.eliminated, config


def test_oracle_spot_check_three_points_n6():
    # the smallest count-symmetric profile at W=3: 28 * 100 * 28 candidates
    config = SearchConfig(n=6, point_count=3, weight_bound=3, require_effective=False)
    oracle = naive_oracle(config, lambda_profile=(0, 3, 6))
    assert oracle.survivors == enumerate_systems(config).survivors == ()
    assert oracle.stats.nodes == 78400
    assert oracle.stats.eliminated == {
        "odd": {"pairing": 75952, "localization": 1642, "chern1_vanishing": 23},
        "even": {"pairing": 692, "localization": 88, "chern1_vanishing": 3},
    }


def test_oracle_spot_check_three_points_n8():
    # the smallest count-symmetric profile at W=3: 45 * 225 * 45 candidates
    config = SearchConfig(n=8, point_count=3, weight_bound=3, require_effective=False)
    oracle = naive_oracle(config, lambda_profile=(0, 4, 8))
    assert oracle.survivors == enumerate_systems(config).survivors == ()
    assert oracle.stats.nodes == 455625
    assert oracle.stats.eliminated == {
        "odd": {"pairing": 447440, "localization": 6161},
        "even": {"pairing": 1840, "localization": 184},
    }


def test_oracle_spot_check_three_points_n10():
    # the smallest count-symmetric profile at W=3: 66 * 441 * 66 candidates
    config = SearchConfig(n=10, point_count=3, weight_bound=3, require_effective=False)
    oracle = naive_oracle(config, lambda_profile=(0, 5, 10))
    assert oracle.survivors == enumerate_systems(config).survivors == ()
    assert oracle.stats.nodes == 1920996
    assert oracle.stats.eliminated == {
        "odd": {"pairing": 1898696, "localization": 17873, "chern1_vanishing": 72},
        "even": {"pairing": 4030, "localization": 320, "chern1_vanishing": 5},
    }


def test_oracle_spot_check_three_points_n12():
    # the smallest count-symmetric profile at W=3: 91 * 784 * 91 candidates
    config = SearchConfig(n=12, point_count=3, weight_bound=3, require_effective=False)
    oracle = naive_oracle(config, lambda_profile=(0, 6, 12))
    assert oracle.survivors == enumerate_systems(config).survivors == ()
    assert oracle.stats.nodes == 6492304
    assert oracle.stats.eliminated == {
        "odd": {"pairing": 6439664, "localization": 44360},
        "even": {"pairing": 7756, "localization": 524},
    }


def test_oracle_spot_check_three_points_n14(monkeypatch):
    # the smallest count-symmetric profile at W=3: 120 * 1296 * 120
    # candidates, of which the sieve reads the 156 passing localization,
    # each at scale 1, as a profile draws each point from its own pool
    config = SearchConfig(n=14, point_count=3, weight_bound=3, require_effective=False)
    received = _sieve_inputs(monkeypatch)
    oracle = naive_oracle(config, lambda_profile=(0, 7, 14))
    assert _reads(received) == {1: 156}
    assert oracle.survivors == enumerate_systems(config).survivors == ()
    assert oracle.stats.nodes == 18662400
    assert oracle.stats.eliminated == {
        "odd": {"pairing": 18550728, "localization": 97124, "chern1_vanishing": 149},
        "even": {"pairing": 13608, "localization": 784, "chern1_vanishing": 7},
    }


def test_oracle_spot_check_three_points_n16():
    # the smallest count-symmetric profile at W=3: 153 * 2025 * 153
    # candidates, the largest such scope under the 1e8 guard (n=18 has
    # 109M)
    config = SearchConfig(n=16, point_count=3, weight_bound=3, require_effective=False)
    oracle = naive_oracle(config, lambda_profile=(0, 8, 16))
    assert oracle.survivors == enumerate_systems(config).survivors == ()
    assert oracle.stats.nodes == 47403225
    assert oracle.stats.eliminated == {
        "odd": {"pairing": 47185176, "localization": 194641},
        "even": {"pairing": 22272, "localization": 1136},
    }


# the open three-point case, n=8, profile (3, 4, 5): every candidate
# with largest |weight| 4 or less (the even bucket at W=4 and W=5)
OPEN_CASE_EVEN = {
    "pairing": 1520699364,
    "localization": 6013844,
    "chern1_vanishing": 18620,
    "largest_weight_structure": 61,
    "isotropy": 10,
}


def _open_case_oracle(monkeypatch, bound):
    """The oracle at n=8, profile (3, 4, 5), effectivity off, past the
    shipped guard for this one call, held to the enumerator's survivors
    with that profile."""
    config = SearchConfig(n=8, point_count=3, weight_bound=bound, require_effective=False)
    with monkeypatch.context() as patch:
        patch.setattr(search, "_ORACLE_GUARD", 10**12)
        oracle = naive_oracle(config, lambda_profile=(3, 4, 5))
    enumerated = tuple(
        system
        for system in enumerate_systems(config).survivors
        if sorted(sum(w < 0 for w in ws) for ws in system.points) == [3, 4, 5]
    )
    assert oracle.survivors == enumerated == ()
    assert search._ORACLE_GUARD == 10**8
    return oracle


def test_oracle_open_case_n8_w4(monkeypatch):
    oracle = _open_case_oracle(monkeypatch, 4)
    assert oracle.stats.nodes == 1536640000
    assert oracle.stats.eliminated == {
        "odd": {
            "pairing": 9725912,
            "localization": 181388,
            "chern1_vanishing": 797,
            "largest_weight_structure": 2,
            "isotropy": 2,
        },
        "even": OPEN_CASE_EVEN,
    }


@pytest.mark.slow
def test_oracle_open_case_n8_w5(monkeypatch):
    oracle = _open_case_oracle(monkeypatch, 5)
    assert oracle.stats.nodes == 95295690000
    assert oracle.stats.eliminated == {
        "odd": {
            "pairing": 93673956826,
            "localization": 94924672,
            "chern1_vanishing": 76412,
            "largest_weight_structure": 171,
            "isotropy": 20,
        },
        "even": OPEN_CASE_EVEN,
    }


def test_oracle_reference_scopes_reach_the_verdict_cache_and_the_middle_walk(monkeypatch):
    # each ordered lambda tuple is read once per oracle call: at (1, 1, 4)
    # the one failing read kills in slices of both parities of t.  Some
    # three-point tuples close through their middle class, which builds
    # a (key, product) table past the one of the last point per slice.
    # Both paths are held to the plain product walk where they run
    reads, tables = [], []
    slices, by_product = search._oracle_slices, lifts._by_product

    def logged(check_id, read):
        def reader(n, points):
            reads.append((check_id, tuple(sum(w < 0 for w in ws) for ws in points)))
            return read(n, points)

        return reader

    def reading(n, lam_sets, bound, checks, stats, ascending):
        checks = [(cid, check, logged(cid, read)) for cid, check, read in checks]
        return slices(n, lam_sets, bound, checks, stats, ascending)

    def building(entries):
        tables.append(len(entries))
        return by_product(entries)

    monkeypatch.setattr(search, "_oracle_slices", reading)
    monkeypatch.setattr(lifts, "_by_product", building)
    middle_scopes = 0
    for config, profile in _oracle_reference_scopes():
        reads.clear()
        tables.clear()
        outcome = naive_oracle(config, profile)
        assert len(reads) == len(set(reads)), config
        middle = len(tables) > config.weight_bound * config.point_count
        if profile == (1, 1, 4):
            assert reads == [("lambda_symmetry", (1, 1, 4))]
            assert all(c["lambda_symmetry"] for c in outcome.stats.eliminated.values())
            assert set(outcome.stats.eliminated) == {"odd", "even"}
        elif not middle:
            continue
        middle_scopes += middle
        stats, survivors = _reference_oracle(config, profile)
        assert tuple(s.points for s in outcome.survivors) == survivors, config
        assert outcome.stats.eliminated == stats.eliminated, config
    assert middle_scopes >= 3


def _sieve_inputs(monkeypatch):
    """The list of the (scale, candidate list) each later _sieve call
    receives."""
    received = []
    sieve = search._sieve

    def recording(candidates, n, plan, stats, largest=None, scale=1):
        candidates = list(candidates)
        received.append((scale, candidates))
        return sieve(candidates, n, plan, stats, largest, scale)

    monkeypatch.setattr(search, "_sieve", recording)
    return received


def _reads(received):
    """How many candidates the recorded _sieve calls read, by scale."""
    reads = Counter()
    for scale, candidates in received:
        reads[scale] += len(candidates)
    return +reads


def _pairing_complete(candidate):
    union = sorted(chain.from_iterable(candidate))
    return union == [-w for w in reversed(union)]


def _passes_up_to_localization(n, candidate):
    """pairing, lambda symmetry, parity and localization, each read off
    its definition: the union is its own negation, the negative counts
    are symmetric under i -> n - i, an odd point count has n even, and
    sum_p 1/P_p = 0."""
    lams = sorted(sum(w < 0 for w in ws) for ws in candidate)
    return (
        _pairing_complete(candidate)
        and lams == [n - lam for lam in reversed(lams)]
        and (len(candidate) % 2 == 0 or n % 2 == 0)
        and sum(Fraction(1, prod(ws)) for ws in candidate) == 0
    )


def test_oracle_sieves_exactly_the_localization_passers(monkeypatch):
    # the oracle counts by class and by product lookup every candidate
    # that fails pairing, lambda symmetry, parity or localization.  Under
    # a profile the sieve must see every candidate of the plain product
    # that passes them once, at scale 1.  Without one it must see the
    # strictly ascending member of each passer's orbit under permuting
    # the points once, at scale k!, so that expanding its reads by their
    # orbits gives the passers.  No other candidate, and nodes unchanged
    received = _sieve_inputs(monkeypatch)
    for config, profile in _oracle_reference_scopes():
        candidates = list(product(*_plain_pools(config, profile)))
        received.clear()
        outcome = naive_oracle(config, profile)
        passers = Counter(c for c in candidates if _passes_up_to_localization(config.n, c))
        scale = 1 if profile else factorial(config.point_count)
        reads = [c for _, cs in received for c in cs]
        if scale > 1:
            assert all(a < b for c in reads for a, b in zip(c, c[1:])), config
            reads = [p for c in reads for p in permutations(c)]
        assert Counter(reads) == passers, config
        assert {s for s, _ in received} == {scale}, config
        assert outcome.stats.nodes == len(candidates), config


def test_oracle_orbit_reads_rest_on_order_free_verdicts_and_distinct_points():
    # the unrestricted oracle reads one member of each orbit under
    # permuting the points, at scale k!.  That needs every reader's
    # verdict and the first failing check to ignore point order, and no
    # candidate passing the filter up to localization to have two equal
    # points (so each orbit has k! members).  Checked on every candidate
    # of the plain product, orbit by orbit, at the unrestricted scopes
    plan = _filter_plan(True)
    scopes = {
        (c.n, c.point_count, c.weight_bound) for c, p in _oracle_reference_scopes() if p is None
    }
    passers = 0
    for n, points, bound in scopes:
        pool = _plain_pools(SearchConfig(n, points, bound))[0]
        for candidate in combinations_with_replacement(pool, points):
            orbit = set(permutations(candidate))
            verdicts = {tuple(read(n, p) is None for _, _, read in FILTER_CHECKS) for p in orbit}
            assert len(verdicts) == 1, candidate
            assert len({_first_failing(n, p, plan) for p in orbit}) == 1, candidate
            if _passes_up_to_localization(n, candidate):
                passers += 1
                assert len(set(candidate)) == points, candidate
    assert passers == 28


def test_oracle_sieve_inputs_at_the_benchmark_scopes(monkeypatch):
    # the oracle scopes of perfbench's oracle_crosscheck: (nodes, scales,
    # sieved).  Only the candidates passing localization reach the sieve,
    # 616 of the 3,114 that pass pairing.  The two-point scopes have no
    # profile, so the sieve reads the ascending member of each swapped
    # pair, at scale 2: 308 reads for the 616
    received = _sieve_inputs(monkeypatch)
    scopes = {
        (4, 3, 4, (0, 2, 4)): (122500, {1}, 0),
        (3, 2, 6, None): (132496, {2}, 182),
        (5, 2, 3, None): (63504, {2}, 126),
    }
    for (n, points, bound, profile), (nodes, scales, sieved) in scopes.items():
        received.clear()
        outcome = naive_oracle(SearchConfig(n, points, bound), profile)
        assert {scale for scale, _ in received} == scales, n
        sieves = sum(len(candidates) for _, candidates in received)
        assert (outcome.stats.nodes, sieves) == (nodes, sieved), n
    assert sum(sieved for _, _, sieved in scopes.values()) == 308


def test_enumerator_sieves_only_pairing_complete_candidates(monkeypatch):
    # under the default flags every generator settles pairing before the
    # sieve: a two-point d-branch counts its unpaired lifts itself, so the
    # sieve sees fewer candidates and nodes stay; (nodes, sieved by scale)
    # per scope.  At the enum_frontier scopes the twin d-branches read
    # each candidate once at scale 2, where reading both took 136 and 84
    received = _sieve_inputs(monkeypatch)
    scopes = {
        (3, 2, 6): (167, {1: 47}),
        (5, 2, 3): (65, {1: 27}),
        (2, 3, 6): (177, {1: 15}),
        (10, 3, 5): (24736, {2: 68}),
        (12, 3, 4): (9794, {2: 42}),
    }
    for (n, points, bound), (nodes, sieved) in scopes.items():
        received.clear()
        outcome = enumerate_systems(SearchConfig(n, points, bound, require_effective=False))
        assert all(_pairing_complete(c) for _, cs in received for c in cs), n
        assert (outcome.stats.nodes, _reads(received)) == (nodes, sieved), n


def _guard_message(space):
    return re.escape("oracle space has %d candidates (> 100000000)" % space)


def test_oracle_guard():
    # the refused space is the product of the per-point multiset counts
    values = [w for w in range(-8, 9) if w]
    everything = len(list(combinations_with_replacement(values, 6)))
    with pytest.raises(SearchSpaceError, match=_guard_message(everything**3)):
        naive_oracle(SearchConfig(n=6, point_count=3, weight_bound=8))
    profile = (0, 3, 6)
    space = prod(len(list(_signed_multisets(lam, 6 - lam, 8))) for lam in profile)
    with pytest.raises(SearchSpaceError, match=_guard_message(space)):
        naive_oracle(SearchConfig(n=6, point_count=3, weight_bound=8), profile)


def test_oracle_guard_refuses_before_listing_candidates():
    # 1,307,504 multisets per point: listing them would take about 170 MiB
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceError, match=_guard_message(1307504**2)):
            naive_oracle(SearchConfig(n=9, point_count=2, weight_bound=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oracle_profile_restriction():
    config = SearchConfig(n=2, point_count=3, weight_bound=3)
    with pytest.raises(ValueError):
        naive_oracle(config, lambda_profile=(0, 1))
    with pytest.raises(ValueError):
        # an entry outside 0..n would walk nothing and agree vacuously
        naive_oracle(config, lambda_profile=(0, 1, 3))
    # a float or str would fail later with a TypeError, and a bool would
    # run as the int it equals
    for profile in ((0.0, 1.0, 2.0), ("0", "1", "2"), (False, True, True)):
        with pytest.raises(ValueError, match="must be ints"):
            naive_oracle(config, lambda_profile=profile)
    restricted = naive_oracle(config, lambda_profile=(0, 1, 2))
    assert restricted.survivors == enumerate_systems(config).survivors


def test_profiles_are_the_closed_forms():
    # the count-symmetric profiles, written out: (i, n/2, n - i) for three
    # points (none at odd n) and (i, n - i) for two
    for n in range(1, 41):
        three = [] if n % 2 else [(i, n // 2, n - i) for i in range(n // 2 + 1)]
        assert _profiles(n, 3, True) == three, n
        assert _profiles(n, 2, True) == [(i, n - i) for i in range(n // 2 + 1)], n
        for point_count in (2, 3):
            unrestricted = _profiles(n, point_count, False)
            assert len(unrestricted) == comb(n + point_count, point_count)


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


# require_effective=False.  Keys: (n, points, W), then the PruneFlags bits
# (lambda_profile, largest_weight, chern_linear, pairing_completion).  Rows:
# survivor count, nodes, pruned per flag in that order, and eliminated odd
# and even per check in filter order (effectivity left out).  In (4, 3, 3)
# "0110" and "1110", chern_linear includes the c_1 cuts of d-branch third
# points that pairing completion does not close.
PRUNE_LATTICE_STATISTICS = {
    (4, 3, 2): {
        "0000": (0, 12346, (0, 0, 0, 0), (30, 2, 0, 3, 0, 0, 0), (11924, 106, 0, 275, 6, 0, 0)),
        "0001": (0, 392, (0, 0, 0, 1534), (0, 2, 0, 3, 0, 0, 0), (0, 106, 0, 275, 6, 0, 0)),
        "0010": (0, 27, (0, 0, 508, 0), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 26, 0, 0, 0)),
        "0011": (0, 27, (0, 0, 337, 18), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 26, 0, 0, 0)),
        "0100": (0, 133, (0, 154, 0, 0), (0, 0, 0, 0, 0, 0, 0), (110, 8, 0, 13, 2, 0, 0)),
        "0101": (0, 23, (0, 154, 0, 110), (0, 0, 0, 0, 0, 0, 0), (0, 8, 0, 13, 2, 0, 0)),
        "0110": (0, 0, (0, 154, 252, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
        "0111": (0, 0, (0, 154, 252, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
        "1000": (0, 1530, (32, 0, 0, 0), (0, 0, 0, 3, 0, 0, 0), (1246, 0, 0, 275, 6, 0, 0)),
        "1001": (0, 284, (32, 0, 0, 28), (0, 0, 0, 3, 0, 0, 0), (0, 0, 0, 275, 6, 0, 0)),
        "1010": (0, 27, (32, 0, 91, 0), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 26, 0, 0, 0)),
        "1011": (0, 27, (32, 0, 37, 0), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 26, 0, 0, 0)),
        "1100": (0, 15, (32, 6, 0, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 13, 2, 0, 0)),
        "1101": (0, 15, (32, 6, 0, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 13, 2, 0, 0)),
        "1110": (0, 0, (32, 6, 28, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
        "1111": (0, 0, (32, 6, 28, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    },
    (3, 2, 3): {
        "0000": (8, 1992, (0, 0, 0, 0), (1716, 0, 0, 14, 0, 0, 15), (230, 0, 0, 4, 0, 0, 5)),
        "0001": (8, 46, (0, 0, 0, 112), (0, 0, 0, 14, 0, 0, 15), (0, 0, 0, 4, 0, 0, 5)),
        "0010": (8, 1992, (0, 0, 0, 0), (1716, 0, 0, 14, 0, 0, 15), (230, 0, 0, 4, 0, 0, 5)),
        "0011": (8, 46, (0, 0, 0, 112), (0, 0, 0, 14, 0, 0, 15), (0, 0, 0, 4, 0, 0, 5)),
        "0100": (8, 63, (0, 18, 0, 0), (44, 0, 0, 2, 0, 0, 1), (8, 0, 0, 0, 0, 0, 0)),
        "0101": (8, 63, (0, 18, 0, 0), (44, 0, 0, 2, 0, 0, 1), (8, 0, 0, 0, 0, 0, 0)),
        "0110": (8, 63, (0, 18, 0, 0), (44, 0, 0, 2, 0, 0, 1), (8, 0, 0, 0, 0, 0, 0)),
        "0111": (8, 63, (0, 18, 0, 0), (44, 0, 0, 2, 0, 0, 1), (8, 0, 0, 0, 0, 0, 0)),
        "1000": (8, 424, (8, 0, 0, 0), (340, 0, 0, 14, 0, 0, 15), (38, 0, 0, 4, 0, 0, 5)),
        "1001": (8, 46, (8, 0, 0, 0), (0, 0, 0, 14, 0, 0, 15), (0, 0, 0, 4, 0, 0, 5)),
        "1010": (8, 424, (8, 0, 0, 0), (340, 0, 0, 14, 0, 0, 15), (38, 0, 0, 4, 0, 0, 5)),
        "1011": (8, 46, (8, 0, 0, 0), (0, 0, 0, 14, 0, 0, 15), (0, 0, 0, 4, 0, 0, 5)),
        "1100": (8, 17, (8, 2, 0, 0), (6, 0, 0, 2, 0, 0, 1), (0, 0, 0, 0, 0, 0, 0)),
        "1101": (8, 17, (8, 2, 0, 0), (6, 0, 0, 2, 0, 0, 1), (0, 0, 0, 0, 0, 0, 0)),
        "1110": (8, 17, (8, 2, 0, 0), (6, 0, 0, 2, 0, 0, 1), (0, 0, 0, 0, 0, 0, 0)),
        "1111": (8, 17, (8, 2, 0, 0), (6, 0, 0, 2, 0, 0, 1), (0, 0, 0, 0, 0, 0, 0)),
    },
    (4, 3, 3): {
        "0100": (0, 6523, (0, 231, 0, 0), (6166, 48, 0, 168, 8, 0, 0), (110, 8, 0, 13, 2, 0, 0)),
        "0101": (0, 247, (0, 231, 0, 868), (0, 48, 0, 168, 8, 0, 0), (0, 8, 0, 13, 2, 0, 0)),
        "0110": (0, 12, (0, 231, 519, 0), (12, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
        "0111": (0, 0, (0, 231, 427, 14), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
        "1100": (0, 1033, (32, 9, 0, 0), (842, 0, 0, 168, 8, 0, 0), (0, 0, 0, 13, 2, 0, 0)),
        "1101": (0, 191, (32, 9, 0, 30), (0, 0, 0, 168, 8, 0, 0), (0, 0, 0, 13, 2, 0, 0)),
        "1110": (0, 0, (32, 9, 65, 0), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
        "1111": (0, 0, (32, 9, 49, 2), (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    },
}

_PRUNES = tuple(f.name for f in fields(PruneFlags))
_KILLS = tuple(check_id for check_id, _, _ in FILTER_CHECKS if check_id != "effectivity")


def _lattice_row(outcome):
    stats = outcome.stats
    assert set(stats.pruned) <= set(_PRUNES)
    row = [len(outcome.survivors), stats.nodes, tuple(stats.pruned[p] for p in _PRUNES)]
    for bucket in ("odd", "even"):
        killed = stats.eliminated[bucket]
        assert set(killed) <= set(_KILLS)
        row.append(tuple(killed[c] for c in _KILLS))
    return tuple(row)


def test_prune_lattice_statistics_frozen():
    for (n, points, bound), rows in PRUNE_LATTICE_STATISTICS.items():
        for bits, want in rows.items():
            flags = PruneFlags(*(bit == "1" for bit in bits))
            config = SearchConfig(
                n=n,
                point_count=points,
                weight_bound=bound,
                require_effective=False,
                prune_flags=flags,
            )
            got = _lattice_row(enumerate_systems(config))
            assert got == want, ((n, points, bound), bits)


def test_all_ones_corner_is_reached():
    # two-point systems made of +-1 exist only through the d = 1 branch
    outcome = enumerate_systems(
        SearchConfig(n=3, point_count=2, weight_bound=1, require_effective=False)
    )
    assert tuple(k.points for k in outcome.survivors) == (
        ((-1, 1, 1), (-1, -1, 1)),
        ((1, 1, 1), (-1, -1, -1)),
    )


def _reference_lifts(n, point_count, d, profile, chern_on):
    """The d-branches' (v, w) pairs written the plain way: walk all
    2^(n-1) up/down lifts of v's residues, drop repeats, filter w by
    lambda and c_1; (ia, ib, v, w) per pair left."""
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
                yield ia, ib, ws_a, ws_b


def _reference_thirds(n, profile, ia, ib, ws_a, ws_b, d, chern_on, pairing_complete):
    """The third points of a (v, w) pair: those that pair the union (or
    pass c_1)."""
    lam_c = profile[3 - ia - ib]
    for ws_c in _signed_multisets(lam_c, n - lam_c, d - 1):
        if pairing_complete:
            if _read_pairing(n, (ws_a, ws_b, ws_c)) is None:
                yield ws_c
        elif not chern_on or sum(ws_c) == 0:
            yield ws_c


def _reference_dbranch(n, point_count, d, profile, chern_on, pairing_complete):
    """The d-branch generator written the plain way: the plain (v, w)
    pairs (_reference_lifts), each with its plain third points."""
    if point_count == 2 and d == 1:
        yield tuple((-1,) * lam + (1,) * (n - lam) for lam in profile)
        return
    for ia, ib, ws_a, ws_b in _reference_lifts(n, point_count, d, profile, chern_on):
        slots = [None] * point_count
        slots[ia], slots[ib] = ws_a, ws_b
        if point_count == 2:
            yield tuple(slots)
            continue
        for ws_c in _reference_thirds(n, profile, ia, ib, ws_a, ws_b, d, chern_on, pairing_complete):
            slots[3 - ia - ib] = ws_c
            yield tuple(slots)


def _reversed(points):
    """The candidate with the action reversed: the points in reverse
    order, each negated and ascending."""
    return tuple(tuple(-w for w in reversed(ws)) for ws in reversed(points))


def _listing(streams):
    """The candidates a d-branch call stands for, as a multiset: every
    candidate its (scale, candidates) streams list, and the reversal of
    each one a stream lists at scale 2 (the twin it stands for)."""
    listed = Counter()
    for scale, candidates in streams:
        for candidate in candidates:
            listed[candidate] += 1
            if scale == 2:
                listed[_reversed(candidate)] += 1
    return listed


@cache
def _dbranch_walk():
    """Every d-branch up to n d = 16, both point counts, every profile and
    c_1 / pairing-completion setting: (args, cut, streams, reference,
    stats), where streams lists the call's (scale, candidates) and cut
    says the branch lists only its localization passes (three points
    closed by pairing completion under a count-symmetric profile)."""
    walk = []
    for point_count in (2, 3):
        for n in range(1, 17):
            for d in range(1, 16 // n + 1):
                for profile in _profiles(n, point_count, False):
                    symmetric = list(profile) == [n - lam for lam in reversed(profile)]
                    for chern_on, pairing in product((False, True), repeat=2):
                        args = (n, point_count, d, profile, chern_on, pairing)
                        stats = SearchStats()
                        streams = [
                            (scale, list(candidates))
                            for scale, candidates in _dbranch_candidates(n, *args[2:], stats)
                        ]
                        reference = list(_reference_dbranch(*args))
                        cut = point_count == 3 and pairing and symmetric
                        walk.append((args, cut, streams, reference, stats))
    return tuple(walk)


def _kept(args, cut, reference):
    n, point_count, d = args[:3]
    if point_count == 2 and d >= 2:
        return [ws for ws in reference if _read_pairing(n, ws) is None]
    if not cut:
        return reference
    return [ws for ws in reference if _read_localization(n, ws) is None]


def test_dbranch_lifts_match_the_full_lift_walk():
    # the unrestricted profiles include every count-symmetric one; a cut
    # branch lists exactly the reference's localization passes, any other
    # branch exactly the reference, each candidate of a stream at scale 2
    # standing for its reversal too
    walk = _dbranch_walk()
    for args, cut, streams, reference, _ in walk:
        listed = _listing(streams)
        assert listed == Counter(_kept(args, cut, reference)), args
        # the sieve buckets a d-branch's failures by d without looking
        d = args[2]
        assert all(max(map(abs, chain.from_iterable(c))) == d for c in listed), args
    assert len(walk) == 27724


def test_dbranch_localization_cut_counts_what_it_drops():
    # the lift-walk test's branches again: each candidate a cut branch drops
    # is one node killed at localization, and each a two-point branch with
    # d >= 2 drops one killed at pairing, in the bucket of d's parity; no
    # zero count is recorded, and any other branch records nothing
    cut_branches = kept_total = 0
    dropped_total = Counter()
    for args, cut, _, reference, stats in _dbranch_walk():
        kept = _kept(args, cut, reference)
        dropped = len(reference) - len(kept)
        assert stats.nodes == dropped, args
        bucket = "odd" if args[2] % 2 == 1 else "even"
        check = "pairing" if args[1] == 2 else "localization"
        killed = {b: dict(c) for b, c in stats.eliminated.items() if c}
        assert killed == ({bucket: {check: dropped}} if dropped else {}), args
        if cut:
            cut_branches += 1
            kept_total += len(kept)
        dropped_total[check] += dropped
    assert (cut_branches, kept_total) == (152, 63)
    assert dropped_total == {"localization": 1376, "pairing": 2776}


def test_dbranch_unclosed_lifts_are_pairing_completion_prunes():
    # the lift-walk test's three-point branches closing by pairing: each
    # (v, w) pair that no third point pairs is one pairing_completion
    # prune, whether its class forces more than n weights or cannot close
    # (an odd pad count, the wrong lambda); a twin's count stands for both
    unclosed_total = 0
    for args, _, _, _, stats in _dbranch_walk():
        n, point_count, d, profile, chern_on, pairing = args
        if point_count == 2 or not pairing:
            continue
        unclosed = sum(
            next(_reference_thirds(n, profile, *lift, d, chern_on, True), None) is None
            for lift in _reference_lifts(n, point_count, d, profile, chern_on)
        )
        assert stats.pruned["pairing_completion"] == unclosed, args
        unclosed_total += unclosed
    assert unclosed_total


def test_dbranch_single_hit_misses_nothing():
    # n = 2, d = 2, profile (0, 1, 2): three (v, w) lifts close, each with
    # the one closure C(0 + 1, 1) allows.  v = (-2, -1), w = (1, 2) is the
    # cp2 family (1, 1), whose closure {-1, 1} hits the target and misses
    # nothing; the other two have P_v + P_w = 0, so their target is 0 and
    # each misses its one closure.  Those two are twins: the lower walks
    # for both, at scale 2, and lists nothing
    stats = SearchStats()
    streams = _dbranch_candidates(2, 2, (0, 1, 2), False, True, stats)
    listed = [(scale, list(candidates)) for scale, candidates in streams]
    assert listed == [(2, []), (1, [((1, 2), (-1, 1), (-2, -1))])]
    assert stats.nodes == 2
    assert stats.eliminated == {"odd": {}, "even": {"localization": 2}}


def test_dbranch_pruned_counts_frozen():
    # the lift-walk test's branches again: every branch's prune counters,
    # pinned when v was still listed whole and cut one multiset at a time
    digest = hashlib.sha256()
    for args, _, _, _, stats in _dbranch_walk():
        digest.update(repr((args, sorted(stats.pruned.items()))).encode())
    assert digest.hexdigest() == (
        "a771329e2f6b6a221736d5791f828b835a49e6ba98ba11d8248d7bfc87d093e5"
    )


def test_dbranch_class_walk_matches_the_reference_up_to_n_d_24():
    # the lift-walk test again past n d <= 16, up to n d <= 24, for the
    # branches closing by pairing under the count-symmetric profiles: d
    # reaches 12, v's weights fall in up to three residue pairs (n = 4,
    # d = 6), and a class is cut before its last pair once it forces more
    # than n weights (three points) or leaves any excess (two points)
    branches = 0
    for point_count, n in product((2, 3), range(1, 25)):
        profiles = _profiles(n, point_count, True)
        for d, profile in product(range(16 // n + 1, 24 // n + 1), profiles):
            for chern_on in (False, True):
                args = (n, point_count, d, profile, chern_on, True)
                stats = SearchStats()
                listed = _listing(_dbranch_candidates(n, d, profile, chern_on, True, stats))
                reference = list(_reference_dbranch(*args))
                kept = _kept(args, point_count == 3, reference)
                assert listed == Counter(kept), args
                assert stats.nodes == len(reference) - len(kept), args
                branches += 1
    assert branches == 492


def test_free_points_by_target_sum_match_the_filtered_multisets():
    # a d-branch's v beside -d sums to d, a staged point to 0; n d <= 64
    # within n <= 12, d <= 8: the whole rectangle lists 6.25M reference
    # multisets for v alone (3.7 s), this part 424k
    for n, d in product(range(1, 13), range(1, 9)):
        if n * d > 64:
            continue
        for lam, total in product(range(1, n + 1), (d, 0)):
            args = (lam - 1 if total else lam, n - lam, d - 1)
            every = list(_signed_multisets(*args))
            kept = [ws for ws in every if sum(ws) == total]
            stats = SearchStats()
            assert list(_free_points(*args, total, True, stats)) == kept, args
            rejected = len(every) - len(kept)
            want = {"chern_linear": rejected} if rejected else {}
            assert dict(stats.pruned) == want, args
            stats = SearchStats()
            assert list(_free_points(*args, total, False, stats)) == every, args
            assert dict(stats.pruned) == {}, args


def test_frontier_counts_frozen():
    config = SearchConfig(n=8, point_count=3, weight_bound=6)
    outcome = enumerate_systems(config)
    assert outcome.survivors == ()
    assert outcome.stats.nodes == 14828
    assert outcome.stats.eliminated == {
        "odd": {"localization": 2276, "isotropy": 20},
        "even": {"localization": 12488, "isotropy": 44},
    }


def test_frontier_counts_frozen_at_n10_w6(monkeypatch):
    # the d-branches stand for only the 412 candidates that hit their
    # localization target, and list 206 of them, each at scale 2 for its
    # reversal; every other node is a completion counted without being
    # listed
    streams = []
    dbranch_candidates = search._dbranch_candidates

    def recording(*args):
        for scale, candidates in dbranch_candidates(*args):
            streams.append((scale, list(candidates)))
            yield streams[-1]

    monkeypatch.setattr(search, "_dbranch_candidates", recording)
    config = SearchConfig(n=10, point_count=3, weight_bound=6)
    outcome = enumerate_systems(config)
    assert {scale for scale, _ in streams} == {2}
    assert sum(len(candidates) for _, candidates in streams) == 206
    assert sum(_listing(streams).values()) == 412
    assert outcome.survivors == ()
    assert outcome.stats.nodes == 185718
    assert outcome.stats.eliminated == {
        "odd": {"localization": 21944, "isotropy": 102},
        "even": {"localization": 163362, "isotropy": 310},
    }


def test_dbranch_self_mirror_listing_is_closed_under_reversal():
    # a self-mirror three-point profile walks one branch of each pair of
    # twins and lists its candidates at scale 2, for the other too: every
    # candidate the call stands for has its reversal as often; a stream at
    # scale 2 holds no candidate's reversal (the twin is not listed
    # again), and a branch that is its own twin lists every reversal;
    # 14,255 candidates are read for the 21,132 they stand for
    branches = listed_total = read_total = 0
    for args, _, streams, _, _ in _dbranch_walk():
        n, point_count, _, profile = args[:4]
        if point_count == 3 and profile == tuple(n - lam for lam in reversed(profile)):
            listed = _listing(streams)
            assert listed == Counter({_reversed(c): k for c, k in listed.items()}), args
            for scale, candidates in streams:
                reversals = Counter(map(_reversed, candidates))
                if scale == 2:
                    assert not reversals & Counter(candidates), args
                else:
                    assert reversals == Counter(candidates), args
                read_total += len(candidates)
            branches += 1
            listed_total += sum(listed.values())
    assert (branches, listed_total, read_total) == (304, 21132, 14255)


def test_dbranch_twins_walk_their_lifts_once(monkeypatch):
    # the enumerate_frontier scopes: a twin walks no lifts, so _classes is
    # called 155 and 50 times, where walking both twins took 338 and 105
    calls = Counter()
    classes = lifts._classes

    def counting(*args):
        calls[scope] += 1
        return classes(*args)

    monkeypatch.setattr(lifts, "_classes", counting)
    for scope in ((10, 5), (12, 4)):
        n, bound = scope
        enumerate_systems(SearchConfig(n=n, point_count=3, weight_bound=bound))
    assert calls == {(10, 5): 155, (12, 4): 50}


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
    for system in outcome.survivors:
        assert canonicalize(reverse_action(system)) == system
        assert first_failure(reverse_action(system), False) is None


def _guard_candidates():
    # pairing-complete staged generation over every profile, plus one raw
    # oracle product (which keeps the pairing failures)
    for n, point_count, bound in ((1, 2, 8), (2, 3, 8), (3, 2, 6)):
        for profile in _profiles(n, point_count, False):
            for ws in _staged_candidates(n, bound, profile, False, True, SearchStats()):
                yield FixedPointSystem.from_weights(n, ws)
    values = (-3, -2, -1, 1, 2, 3)
    for ws in product(combinations_with_replacement(values, 3), repeat=2):
        yield FixedPointSystem.from_weights(3, ws)


_FILTER_IDS = frozenset(check_id for check_id, _, _ in FILTER_CHECKS)


def _first_reported_failure(report):
    """Id of the first filter check the report fails, or None."""
    return next(
        (c.check_id for c in report.checks if c.check_id in _FILTER_IDS and c.verdict == FAIL),
        None,
    )


def _assert_same_first_failure(system, effective):
    failed = first_failure(system, effective)
    report = check_system(system, require_effective=effective)
    assert (failed is None) == report.overall, (system, effective)
    assert failed == _first_reported_failure(report), (system, effective)
    return failed


def test_first_failure_agrees_with_check_system():
    killed = Counter()
    survivors = 0
    for system in _guard_candidates():
        for effective in (False, True):
            failed = _assert_same_first_failure(system, effective)
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


def test_first_failure_names_the_reported_failure_on_raw_oracle_candidates():
    # every raw oracle candidate of the 3-point scopes n <= 2, W <= 3
    killed = Counter()
    for n in (1, 2):
        values = (-3, -2, -1, 1, 2, 3)
        for ws in product(combinations_with_replacement(values, n), repeat=3):
            system = FixedPointSystem.from_weights(n, ws)
            for effective in (False, True):
                killed[_assert_same_first_failure(system, effective)] += 1
    # pairing kills every n=1 candidate; at n=2 a paired union of three
    # points always has a symmetric lambda profile
    assert killed == {"pairing": 18336, "localization": 582, None: 36}


def test_unknown_check_ids_raise():
    with pytest.raises(ValueError, match="pairng"):
        _filter_plan(False, ("pairng",))
    assert [entry[0] for entry in _filter_plan(False, ("pairing",))] == ["pairing"]
    # a misspelt premise would make the pool, and every replay on it, weaker
    with pytest.raises(ValueError, match="localisation"):
        _partial_pool(2, 3, 3, ("pairing", "localisation"))
    # also where the pool is empty without listing a candidate
    with pytest.raises(ValueError, match="localisation"):
        _partial_pool(1, 3, 3, ("pairing", "localisation"))
    assert len(_partial_pool(2, 3, 3, ("pairing", "localization"))) == 2


def test_sieve_builds_no_object_for_a_cheap_failure(monkeypatch):
    # every check is decided by its tuple predicate, so no candidate gets a
    # system, a witnessed CheckResult or a Fraction: a system is built once
    # for each distinct survivor as it leaves the search, and nothing else
    systems, witnessed = [], []
    from_weights = FixedPointSystem.__dict__["from_weights"].__func__

    def counting_system(cls, *args, **kwargs):
        systems.append(args)
        return from_weights(cls, *args, **kwargs)

    def counting_result(check_id, verdict, anchor, witness=None):
        if witness is not None:
            witnessed.append(check_id)
        return CheckResult(check_id, verdict, anchor, witness)

    def no_fraction(*args):
        raise AssertionError("the sieve built a Fraction")

    monkeypatch.setattr(FixedPointSystem, "from_weights", classmethod(counting_system))
    monkeypatch.setattr(constraints, "CheckResult", counting_result)
    monkeypatch.setattr(constraints, "Fraction", no_fraction)
    outcome = naive_oracle(SearchConfig(n=3, point_count=2, weight_bound=4))
    killed = outcome.stats.eliminated["odd"] + outcome.stats.eliminated["even"]
    assert (outcome.stats.nodes, sum(killed.values())) == (14400, 14380)
    # the 20 candidates that pass are 10 systems, each in both point orders
    assert outcome.stats.nodes - 14380 == 2 * len(outcome.survivors) == 20
    assert len(systems) == len(outcome.survivors)
    assert witnessed == []


def test_sieve_lists_no_divisors_and_builds_no_fraction(monkeypatch):
    # the readers decide isotropy at the closed orders and localization in
    # integers; only a failing report lists the divisors of the weights or
    # builds a Fraction, so a sieve that did either would raise here
    def refuse(*args):
        raise AssertionError("the sieve listed divisors or built a Fraction")

    monkeypatch.setattr(isotropy, "isotropy_orders", refuse)
    monkeypatch.setattr(constraints, "Fraction", refuse)
    oracle = naive_oracle(SearchConfig(n=3, point_count=2, weight_bound=6))
    enumerated = enumerate_systems(SearchConfig(n=10, point_count=3, weight_bound=5))
    for outcome, kills in ((oracle, (328, 360)), (enumerated, (136, 24600))):
        killed = outcome.stats.eliminated["odd"] + outcome.stats.eliminated["even"]
        assert (killed["isotropy"], killed["localization"]) == kills
    assert (oracle.stats.nodes, len(oracle.survivors)) == (132496, 15)
    assert (enumerated.stats.nodes, len(enumerated.survivors)) == (24736, 0)


def _reference_sieve(candidates, n, plan, stats):
    """_sieve as a plain loop: _first_failing on every candidate, every
    failure bucketed by its own largest |weight|."""
    survivors = set()
    for points in candidates:
        stats.nodes += 1
        failed = search._first_failing(n, points, plan)
        if failed is None:
            survivors.add(_canonical_points(points))
        else:
            top = max(abs(w) for ws in points for w in ws)
            stats.eliminated["odd" if top % 2 else "even"][failed] += 1
    return survivors


def _sieve_streams():
    """(label, n, plan, [(candidates, largest, scale)]): each stream of
    calls is run through one SearchStats, so later calls add to earlier
    buckets."""
    # oracle levels: every candidate of the product, one call per largest t
    for n, point_count, bound, profile, effective in (
        (4, 3, 2, None, False),
        (3, 2, 4, None, False),
        (4, 3, 3, (1, 2, 3), True),
        (3, 2, 3, (1, 2), True),
    ):
        if profile is None:
            values = [w for w in range(-bound, bound + 1) if w]
            pools = [list(combinations_with_replacement(values, n))] * point_count
        else:
            pools = [list(_signed_multisets(lam, n - lam, bound)) for lam in profile]
        calls = [
            ([c for c in product(*pools) if max(abs(w) for ws in c for w in ws) == t], t)
            for t in range(1, bound + 1)
        ]
        calls = [(candidates, t, 1) for candidates, t in calls]
        yield ("oracle", n, point_count, bound, profile), n, _filter_plan(effective), calls
    # d-branches, a third point closed from the pairing excess or free;
    # a twin branch's streams at scale 2
    for n, point_count, bound, complete in ((2, 3, 6, True), (2, 3, 3, False), (3, 2, 5, True)):
        calls = [
            (list(candidates), d, scale)
            for profile in _profiles(n, point_count, False)
            for d in range(1, bound + 1)
            for scale, candidates in _dbranch_candidates(
                n, d, profile, False, complete, SearchStats()
            )
        ]
        yield ("dbranch", n, point_count, bound, complete), n, _filter_plan(False), calls
    # staged streams with their last point free, under the full plan, a
    # replay pool's plan and the pairwise premises' plan
    for n, point_count, bound in ((2, 3, 3), (3, 2, 4)):
        staged = [
            (list(_staged_candidates(n, bound, profile, False, False, SearchStats())), None, 1)
            for profile in _profiles(n, point_count, False)
        ]
        for checks in (None, _L32_PREMISES, _PAIRWISE_PREMISES):
            plan = _filter_plan(True) if checks is None else _filter_plan(False, checks)
            yield ("staged", n, point_count, bound, checks), n, plan, staged


def _counts(stats):
    """nodes and eliminated as plain dicts: a zero count would show."""
    return stats.nodes, {b: dict(c) for b, c in stats.eliminated.items()}


def test_sieve_matches_the_plain_reference_loop():
    # a call at scale 2 counts as the reference loop over its candidates
    # and their reversals
    deep_kinds, scales = set(), Counter()
    for label, n, plan, calls in _sieve_streams():
        got, want = SearchStats(), SearchStats()
        for candidates, largest, scale in calls:
            survivors = _sieve(iter(candidates), n, plan, got, largest, scale)
            stands_for = list(_listing([(scale, candidates)]).elements())
            assert survivors == _reference_sieve(stands_for, n, plan, want), label
            scales[scale] += len(candidates)
        assert _counts(got) == _counts(want), label
        assert got.nodes == sum(len(c) * scale for c, _, scale in calls), label
        for killed in want.eliminated.values():
            deep_kinds.update(killed)
    # every check kills something but parity, which nothing past pairing
    # fails, and the largest-weight structure, rare at these scopes
    assert deep_kinds == {entry[0] for entry in FILTER_CHECKS} - {
        "parity", "largest_weight_structure"
    }
    assert scales[2] > 0


def test_sieve_over_an_empty_stream_changes_no_count():
    stats = SearchStats(nodes=7)
    stats.eliminated["odd"]["pairing"] = 3
    stats.eliminated["even"]["isotropy"] = 2
    for checks in (None, _PAIRWISE_PREMISES):
        plan = _filter_plan(False, checks)
        for largest in (None, 1, 2):
            assert _sieve(iter(()), 3, plan, stats, largest) == set()
            assert _counts(stats) == (7, {"odd": {"pairing": 3}, "even": {"isotropy": 2}})


def test_tuple_predicates_lead_the_filter_table():
    # every entry has a reader of the weight tuples, so the sieve builds no
    # system to reject a candidate; the order, which attributes the
    # eliminations, stays
    assert [read.__name__ for _, _, read in FILTER_CHECKS] == [
        "_read_" + check_id for check_id, _, _ in FILTER_CHECKS
    ]
    assert [check_id for check_id, _, _ in FILTER_CHECKS] == [
        "pairing",
        "lambda_symmetry",
        "parity",
        "localization",
        "chern1_vanishing",
        "largest_weight_structure",
        "isotropy",
        "effectivity",
    ]


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


@pytest.mark.parametrize(
    "points", [((1, 2), (-1, 2), (-2, -2)), ((-1, 2), (-1, 2), (-2, 1))]
)
def test_classify_dim4_rejects_a_survivor_off_the_family(monkeypatch, points):
    system = FixedPointSystem.from_weights(2, points)
    monkeypatch.setattr(
        search,
        "enumerate_systems",
        lambda config, workers=1: SearchOutcome((system,), SearchStats()),
    )
    message = "survivor %r is not a projective-plane family" % (points,)
    with pytest.raises(FamilyPatternError, match=re.escape(message)):
        classify_dim4(4)


def test_verify_nonexistence_raises_on_a_survivor(monkeypatch):
    system = FixedPointSystem.from_weights(2, ((-1, 2), (-1, 2), (-2, 1)))
    outcome = SearchOutcome((system,), SearchStats())
    monkeypatch.setattr(
        search, "enumerate_systems", lambda config, workers=1: outcome
    )
    message = "expected no survivors at n=4, bound=3, found 1"
    with pytest.raises(NonexistenceViolation, match=message) as raised:
        verify_nonexistence(4, 3)
    assert raised.value.outcome is outcome


def test_family_builders_validate():
    family = cp2_family(1, 2)
    assert family.points[family.labels.index("p")] == (1, 3)
    assert dim6_pair_family(1, 2).n == 3
    with pytest.raises(ValueError):
        cp2_family(0, 1)
    with pytest.raises(ValueError):
        dim6_pair_family(1, -1)


def test_verify_nonexistence_small():
    outcome = verify_nonexistence(4, 4)
    assert outcome.survivors == ()
    assert set(outcome.stats.eliminated) == {"odd", "even"}
    assert outcome.stats.nodes == sum(
        sum(killed.values()) for killed in outcome.stats.eliminated.values()
    )
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
    assert lone.points == (
        (-4, 1, 1, 2),
        (-2, -1, 1, 2),
        (-2, -1, -1, 4),
    )


def test_factorizations_match_the_filtered_multisets():
    for k in range(5):
        for hi in range(1, 9):
            by_product = {}
            for c in combinations_with_replacement(range(1, hi + 1), k):
                by_product.setdefault(prod(c), []).append(c)
            for r in range(1, hi**k + 1):
                want = by_product.get(r, [])
                assert list(_factorizations(r, k, hi)) == want, (r, k, hi)
    # r = 1 closes every pair with l = 1
    assert list(_factorizations(1, 3, 5)) == [(1, 1, 1)]


# the replay premise sets, and the weakest set a pool may have; all four
# hold localization, so their pools cut the last point by its target
_CUT_PREMISES = (
    _PAIRWISE_PREMISES,
    _L32_PREMISES,
    _L33_PREMISES,
    ("pairing", "localization"),
)


def _pool_listing(n, profile, candidates):
    """A localize walk's candidates as a multiset, under a self-mirror
    three-point profile with each one's reversal added where it differs:
    the walk lists one candidate of each reversal pair there."""
    mirror = len(profile) == 3 and list(profile) == [n - lam for lam in reversed(profile)]
    listed = Counter()
    for candidate in candidates:
        listed[candidate] += 1
        if mirror and _reversed(candidate) != candidate:
            listed[_reversed(candidate)] += 1
    return listed


def test_localization_cut_keeps_every_pool():
    # n = 1..4 and W = 3..5; three-point n >= 3 stops at W = 3, where the
    # uncut walk over every profile still takes well under a second (the
    # n = 4 pools at W = 6 are pinned by criterion 5 and the desk cascade)
    scopes = [
        (n, point_count, bound)
        for n in (1, 2, 3, 4)
        for point_count in (2, 3)
        for bound in (3, 4, 5)
        if bound == 3 or point_count == 2 or n < 3
    ]
    for n, point_count, bound in scopes:
        # the cut drops exactly the uncut candidates failing localization,
        # and, under a self-mirror profile, the reversal of each it lists
        kept = {}
        for profile in _profiles(n, point_count, False):
            for chern_on in {False, point_count == 3 and n >= 4}:
                args = (n, bound, profile, chern_on, True)
                uncut = [
                    ws
                    for ws in _staged_candidates(*args, SearchStats())
                    if _read_localization(n, ws) is None
                ]
                cut = _staged_candidates(*args, SearchStats(), True)
                assert _pool_listing(n, profile, cut) == Counter(uncut), args
                kept[profile, chern_on] = uncut
        # so each pool is the reference sieve over the uncut generation
        # (whose localization failures the sieve would reject anyway)
        for checks in _CUT_PREMISES:
            chern_on = "chern1_vanishing" in checks and point_count == 3 and n >= 4
            profiles = _profiles(n, point_count, "lambda_symmetry" in checks)
            reference = _sieve(
                chain.from_iterable(kept[p, chern_on] for p in profiles),
                n,
                _filter_plan(False, checks),
                SearchStats(),
            )
            got = _partial_pool(n, point_count, bound, checks)
            assert tuple(s.points for s in got) == tuple(sorted(reference)), (
                n, point_count, bound, checks
            )


def _per_head_candidates(n, point_count, bound, profile, chern_on=False):
    """The localize walk one head at a time: every head (with c_1 = 0 when
    chern_on), its target taken per head (_last_product), then its
    closures with that product: the weights its pairing excess forces on
    the last point, then {l, -l} for each l of every pad tuple from [1,
    bound], where those leave the last point profile[-1] negatives."""
    points = [
        [ws for ws in _signed_multisets(lam, n - lam, bound) if not chern_on or sum(ws) == 0]
        for lam in profile[:-1]
    ]
    for head in product(*points):
        target = _last_product(tuple(prod(ws) for ws in head))
        if target == 0:
            continue
        weights = sum(head, ())
        forced = [-x for x in set(weights) for _ in range(weights.count(x) - weights.count(-x))]
        pads, odd = divmod(n - len(forced), 2)
        if pads < 0 or odd or pads + sum(x < 0 for x in forced) != profile[-1]:
            continue
        for pad in combinations_with_replacement(range(1, bound + 1), pads):
            ws_last = tuple(sorted(forced + [l for v in pad for l in (v, -v)]))
            if prod(ws_last) == target:
                yield head + (ws_last,)


def test_grouped_localize_walk_matches_the_per_head_walk():
    # every profile at n <= 4, W <= 5, but at (4, 3, 5) only the
    # count-symmetric ones, which its pairwise-premise pool walks; under a
    # self-mirror profile the grouped walk lists one of each reversal pair
    for n, point_count, bound in product(range(1, 5), (2, 3), range(1, 6)):
        symmetric = (n, point_count, bound) == (4, 3, 5)
        for profile in _profiles(n, point_count, symmetric):
            args = (n, point_count, bound, profile)
            grouped = _staged_candidates(n, bound, profile, False, True, SearchStats(), True)
            listed = _pool_listing(n, profile, grouped)
            assert listed == Counter(_per_head_candidates(*args)), args


def test_lookup_walk_matches_the_closure_walk_with_c1_cut():
    # the last points listed once, cut by c_1 like the heads, are exactly
    # the closures the per-head walk takes, with c_1 binding or not, one
    # candidate of each reversal pair listed
    kept = Counter()
    for bound, chern_on in product((5, 6), (False, True)):
        for profile in _profiles(4, 3, True):
            args = (4, 3, bound, profile, chern_on)
            lookup = _pool_listing(
                4, profile, _staged_candidates(4, bound, profile, chern_on, True, SearchStats(), True)
            )
            assert lookup == Counter(_per_head_candidates(*args)), args
            kept[chern_on] += sum(lookup.values())
    assert kept[True] and kept[False] > kept[True]


def test_pool_walk_takes_no_excess_per_head(monkeypatch):
    # the pools close the last point by (excess key, product) lookup: no
    # closure is listed per head.  One candidate of each reversal pair is
    # listed: the sieve reads exactly the 234 members, where listing both
    # twins gave 437
    def per_head(*args):
        raise AssertionError("the pool walk closed a head point by point")

    monkeypatch.setattr(lifts, "_closures", per_head)
    received = _sieve_inputs(monkeypatch)
    assert len(_partial_pool.__wrapped__(4, 3, 5, _PAIRWISE_PREMISES)) == 234
    assert _reads(received) == {1: 234}


def _plain_staged(n, bound, profile, chern_on, pairing_complete):
    """The uncut staged walk as a plain product of each point's
    _signed_multisets: (candidates, chern_linear, pairing_completion).
    With chern_on every point keeps c_1 = 0, and a point's cut multisets
    count once per listed tuple of the points before it (the last point's
    only without pairing completion, whose closures keep c_1 = 0).  With
    pairing completion a candidate must pair, and each head no last point
    pairs is one pairing_completion prune."""
    points = [list(_signed_multisets(lam, n - lam, bound)) for lam in profile]
    kept = [[ws for ws in ws_all if not chern_on or sum(ws) == 0] for ws_all in points]
    cuts = [prod(map(len, kept[:i])) * (len(points[i]) - len(kept[i])) for i in range(len(kept))]
    chern = sum(cuts[:-1] if pairing_complete else cuts)
    candidates, unclosed = Counter(), 0
    for head in product(*kept[:-1]):
        closing = [
            head + (ws,)
            for ws in kept[-1]
            if not pairing_complete or _read_pairing(n, head + (ws,)) is None
        ]
        candidates.update(closing)
        unclosed += pairing_complete and not closing
    return candidates, chern, unclosed


def test_uncut_staged_walk_matches_the_plain_product():
    # the enumerator's staged walk (largest_weight off): candidates, c_1
    # cuts and unclosed heads, with c_1 and pairing completion each on
    # and off, at n <= 4 and W <= 4 (three points at n >= 3: W <= 2)
    totals = Counter()
    for n, point_count, bound in product(range(1, 5), (2, 3), range(1, 5)):
        if point_count == 3 and n >= 3 and bound > 2:
            continue
        for profile, chern_on, complete in product(
            _profiles(n, point_count, False), (False, True), (False, True)
        ):
            stats = SearchStats()
            walk = Counter(_staged_candidates(n, bound, profile, chern_on, complete, stats))
            want, chern, unclosed = _plain_staged(n, bound, profile, chern_on, complete)
            got = (walk, stats.pruned["chern_linear"], stats.pruned["pairing_completion"])
            assert got == (want, chern, unclosed), (n, bound, profile, chern_on, complete)
            totals[chern_on, complete] += chern + unclosed
    # every setting cuts something
    assert all(totals[flags] for flags in product((False, True), repeat=2) if any(flags))


def test_excess_key_is_the_excess_read_in_base():
    for ws in chain.from_iterable(_signed_multisets(lam, 4 - lam, 5) for lam in range(5)):
        for base in (9, 13):
            excess = [ws.count(x) - ws.count(-x) for x in range(6)]
            want = sum(e * base**x for x, e in enumerate(excess))
            assert _excess_key(ws, base) == want, (ws, base)


def test_localize_walk_takes_one_target_per_product_pair(monkeypatch):
    # the target is decided once per tuple of head products, never again
    # per head: the pairwise-premise pool's (4, 3, 5) profiles and a
    # two-point scope.  A profile whose lambdas share one parity takes
    # none: every product then has one sign, so no candidate localizes
    calls = []
    last_product = lifts._last_product

    def counted(products):
        calls.append(products)
        return last_product(products)

    monkeypatch.setattr(lifts, "_last_product", counted)
    targets = 0
    for n, point_count, bound in ((4, 3, 5), (3, 2, 4)):
        for profile in _profiles(n, point_count, True):
            calls.clear()
            for _ in _staged_candidates(n, bound, profile, False, True, SearchStats(), True):
                pass
            pairs = prod(
                len({prod(ws) for ws in _signed_multisets(lam, n - lam, bound)})
                for lam in profile[:-1]
            )
            if len({lam % 2 for lam in profile}) == 1:
                pairs = 0
            assert len(calls) == len(set(calls)) == pairs, (n, profile)
            targets += len(calls)
    # (4, 3, 5): 9,075 targets before the parity skip, 6,050 of them at
    # (0, 2, 4) and (2, 2, 2); (3, 2, 4): 16 per profile
    assert targets == 9075 - 6050 + 32


def test_target_zero_misses_every_closure(monkeypatch):
    # 0 is no weight product: with every target 0, a cut d-branch lists
    # nothing and counts each closure of each closing lift (the reference
    # walk's candidates, all of which pair) as killed at localization
    monkeypatch.setattr(lifts, "_last_product", lambda products: 0)
    missed = 0
    for args, cut, _, reference, _ in _dbranch_walk():
        if not cut:
            continue
        n, _, d, profile, chern_on, _ = args
        stats = SearchStats()
        assert _listing(_dbranch_candidates(n, d, profile, chern_on, True, stats)) == {}, args
        bucket = "odd" if d % 2 == 1 else "even"
        want = {bucket: {"localization": len(reference)}} if reference else {}
        assert stats.nodes == len(reference), args
        assert {b: dict(c) for b, c in stats.eliminated.items() if c} == want, args
        missed += len(reference)
    assert missed == 1376 + 63


def test_partial_pool_requires_pairing():
    with pytest.raises(ValueError):
        _partial_pool(2, 3, 3, ("parity",))


def test_odd_three_point_pools_list_no_head(monkeypatch):
    # 3n weights, an odd count, never pair: the sieve over the uncut
    # generation keeps nothing at W = 3 ...
    for n in (1, 3):
        candidates = chain.from_iterable(
            _staged_candidates(n, 3, profile, False, True, SearchStats())
            for profile in _profiles(n, 3, False)
        )
        plan = _filter_plan(False, ("pairing",))
        assert _sieve(candidates, n, plan, SearchStats()) == set()
    # ... and the pools are empty without a head being listed
    def refuse(*args):
        raise AssertionError("an odd-n three-point pool listed a head")

    monkeypatch.setattr(search, "_staged_candidates", refuse)
    build = _partial_pool.__wrapped__
    assert build(5, 3, 4, ("pairing", "localization")) == ()
    for n in (1, 3, 5):
        for checks in _CUT_PREMISES + (("pairing",),):
            assert build(n, 3, 3, checks) == (), (n, checks)


def test_survivor_pools_enumerate_each_scope_once(monkeypatch):
    # l22, l24 and l46 read one enumeration per scope, run with
    # effectivity dropped
    calls = Counter()
    enumerate_all = search.enumerate_systems

    def counted(config, workers=1):
        calls[config] += 1
        return enumerate_all(config, workers)

    monkeypatch.setattr(search, "enumerate_systems", counted)
    search._survivor_pool.cache_clear()
    scopes = [SearchConfig(n=n, point_count=3, weight_bound=5) for n in (1, 2, 3, 4)]
    for lemma in ("l22", "l24", "l46"):
        for scope in scopes:
            replay_lemma(lemma, scope)
    assert calls == Counter(replace(scope, require_effective=False) for scope in scopes)


def test_scope_pool_is_the_enumerated_survivors():
    for n, point_count, bound in product(range(1, 5), (2, 3), range(1, 7)):
        for effective in (False, True):
            scope = SearchConfig(n, point_count, bound, require_effective=effective)
            assert search._scope_pool(scope) == enumerate_systems(scope).survivors, scope


def test_replay_rejects_unknown_lemma_and_scope():
    scope = SearchConfig(n=2, point_count=3, weight_bound=3)
    with pytest.raises(ValueError):
        replay_lemma("l99", scope)
    with pytest.raises(ValueError):
        replay_lemma("l33", SearchConfig(n=2, point_count=2, weight_bound=3))


# (lemma, points, n) -> (candidates, assertions) at bound 4
REPLAY_COUNTS_W4 = {
    ("l22", 2, 2): (0, 0), ("l22", 2, 3): (11, 11),
    ("l22", 3, 2): (4, 4), ("l22", 3, 3): (0, 0),
    ("l24", 2, 2): (0, 0), ("l24", 2, 3): (11, 11),
    ("l24", 3, 2): (4, 4), ("l24", 3, 3): (0, 0),
    ("l32", 3, 2): (4, 4), ("l32", 3, 3): (0, 0),
    ("l33", 3, 2): (4, 4), ("l33", 3, 3): (0, 0),
    ("l34", 2, 2): (0, 0), ("l34", 2, 3): (60, 4),
    ("l34", 3, 2): (4, 0), ("l34", 3, 3): (0, 0),
    ("l36", 2, 2): (0, 0), ("l36", 2, 3): (60, 1),
    ("l36", 3, 2): (4, 0), ("l36", 3, 3): (0, 0),
    ("r35", 2, 2): (12, 18), ("r35", 2, 3): (12, 18),
    ("r35", 3, 2): (12, 18), ("r35", 3, 3): (12, 18),
    ("l46", 3, 2): (3, 10), ("l46", 3, 3): (0, 0),
}


def test_replays_clean_and_non_vacuous_at_small_scope():
    counts = {}
    for lemma in REPLAY_LEMMAS:
        for point_count in REPLAY_POINT_COUNTS[lemma]:
            for n in (2, 3):
                scope = SearchConfig(
                    n=n, point_count=point_count, weight_bound=4
                )
                report = replay_lemma(lemma, scope)
                assert report.passed
                counts[lemma, point_count, n] = (report.candidates, report.assertions)
    assert counts == REPLAY_COUNTS_W4
    # every statement must actually fire somewhere in this sweep
    for lemma in REPLAY_LEMMAS:
        fired = sum(a for (name, _, _), (_, a) in counts.items() if name == lemma)
        assert fired > 0, lemma


# criterion 5 per scope: (lemma, points, n) -> (candidates, assertions)
# at bound 6; in total 1,900 candidates and 488 assertions
REPLAY_COUNTS_W6 = {
    ("l22", 2, 1): (6, 6), ("l22", 2, 2): (0, 0),
    ("l22", 2, 3): (18, 18), ("l22", 2, 4): (0, 0),
    ("l22", 3, 1): (0, 0), ("l22", 3, 2): (9, 9),
    ("l22", 3, 3): (0, 0), ("l22", 3, 4): (0, 0),
    ("l24", 2, 1): (6, 6), ("l24", 2, 2): (0, 0),
    ("l24", 2, 3): (18, 18), ("l24", 2, 4): (0, 0),
    ("l24", 3, 1): (0, 0), ("l24", 3, 2): (9, 9),
    ("l24", 3, 3): (0, 0), ("l24", 3, 4): (0, 0),
    ("l32", 3, 1): (0, 0), ("l32", 3, 2): (9, 9),
    ("l32", 3, 3): (0, 0), ("l32", 3, 4): (0, 0),
    ("l33", 3, 1): (0, 0), ("l33", 3, 2): (9, 9),
    ("l33", 3, 3): (0, 0), ("l33", 3, 4): (0, 0),
    ("l34", 2, 1): (6, 0), ("l34", 2, 2): (0, 0),
    ("l34", 2, 3): (182, 9), ("l34", 2, 4): (0, 0),
    ("l34", 3, 1): (0, 0), ("l34", 3, 2): (9, 0),
    ("l34", 3, 3): (0, 0), ("l34", 3, 4): (588, 7),
    ("l36", 2, 1): (6, 0), ("l36", 2, 2): (0, 0),
    ("l36", 2, 3): (182, 3), ("l36", 2, 4): (0, 0),
    ("l36", 3, 1): (0, 0), ("l36", 3, 2): (9, 0),
    ("l36", 3, 3): (0, 0), ("l36", 3, 4): (588, 3),
    ("r35", 2, 1): (30, 45), ("r35", 2, 2): (30, 45),
    ("r35", 2, 3): (30, 45), ("r35", 2, 4): (30, 45),
    ("r35", 3, 1): (30, 45), ("r35", 3, 2): (30, 45),
    ("r35", 3, 3): (30, 45), ("r35", 3, 4): (30, 45),
    ("l46", 3, 1): (0, 0), ("l46", 3, 2): (6, 22),
    ("l46", 3, 3): (0, 0), ("l46", 3, 4): (0, 0),
}


def test_replay_counts_at_the_criterion_5_scope():
    counts = {}
    for lemma in REPLAY_LEMMAS:
        for point_count in REPLAY_POINT_COUNTS[lemma]:
            for n in (1, 2, 3, 4):
                scope = SearchConfig(n=n, point_count=point_count, weight_bound=6)
                report = replay_lemma(lemma, scope)
                counts[lemma, point_count, n] = (report.candidates, report.assertions)
    assert counts == REPLAY_COUNTS_W6


def test_replay_statements_on_systems_no_pool_holds():
    # the l32/l33 pools are empty at n = 4 (up to W = 10) and no effective
    # n = 2 survivor repeats a weight with |e| >= 2, so the sweeps above
    # never reach these assertions
    # the desk cascade's lone system: the l33 profile, -d and d misplaced
    desk = FixedPointSystem.from_weights(4, [(-4, 1, 1, 2), (-2, -1, 1, 2), (-2, -1, -1, 4)])
    scope = SearchConfig(n=4, point_count=3, weight_bound=6)
    assert list(search._l33(desk, scope)) == [
        (True, {"profile": (1, 2, 3), "expected": (1, 2, 3)}),
        (False, {"d": 4, "placement": "off"}),
    ]
    scope = SearchConfig(n=2, point_count=3, weight_bound=6)
    # parts 2 and 4 at e = +-2, part 1 at e = +-4
    assert list(search._l46(cp2_family(2, 2), scope)) == [
        (True, {"e": 2, "part": 2}),
        (True, {"e": 2, "part": 4}),
        (True, {"e": 4, "part": 1}),
        (True, {"e": -2, "part": 2}),
        (True, {"e": -2, "part": 4}),
        (True, {"e": -4, "part": 1}),
    ]
    # part 3: +-2 twice at one point
    twice = FixedPointSystem.from_weights(3, [(-4, 2, 2), (-2, -2, 4), (-1, 1, 3)])
    scope = SearchConfig(n=3, point_count=3, weight_bound=4)
    assert list(search._l46(twice, scope)) == [
        (True, {"e": 2, "part": 3}),
        (True, {"e": 4, "part": 1}),
        (True, {"e": -2, "part": 3}),
        (True, {"e": -4, "part": 1}),
    ]


def _refuted(system, scope):
    yield False, {"planted": True}


def test_replay_counterexample_carries_each_failure(monkeypatch):
    point_counts, pool, _ = _REPLAYS["r35"]
    monkeypatch.setitem(_REPLAYS, "r35", (point_counts, pool, _refuted))
    with pytest.raises(LemmaCounterexample) as caught:
        replay_lemma("r35", SearchConfig(n=2, point_count=3, weight_bound=3))
    assert str(caught.value) == "lemma r35 failed on 6 candidate(s)"
    report = caught.value.report
    assert (report.candidates, report.assertions, report.passed) == (6, 6, False)
    # the pool is both families for (1, 1), (1, 2), (2, 1), in that order
    assert report.failures[:2] == (
        {"points": ((1, 2), (-1, 1), (-2, -1)), "detail": {"planted": True}},
        {"points": ((-2, 1, 1), (-1, -1, 2)), "detail": {"planted": True}},
    )
    assert all(set(entry) == {"points", "detail"} for entry in report.failures)


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
