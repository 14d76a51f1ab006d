"""Bounded exhaustive search for consistent fixed-point weight systems.

enumerate_systems finds every canonical system with 2 or 3 fixed points
and all |weights| <= W that passes the filter, isotropy.FILTER_CHECKS:
pairing, lambda symmetry, parity, vanishing localization sum, c_1
vanishing (3 points, n >= 4), the largest-weight sphere structure (3
points), Z_k classification for every k >= 2 dividing some weight, and
optionally effectivity.  Generation never relies on anything the filter
would not enforce, so every prune (PruneFlags) is sound and the survivor
set does not depend on which are switched on.  The parts:

- the lambda profiles, under lambda_profile only the count-symmetric
  ones (_profiles);
- the generators in lifts.py: per profile and largest weight d, the
  d-branches (lifts._dbranch_candidates); without largest-weight
  pruning, the staged walk (lifts._staged_candidates);
- the sieve (_sieve), which runs a plan of checks (_filter_plan) on the
  candidates' weight tuples and counts nodes and failures.  Survivors
  stay canonical tuples until they leave the search, as one
  FixedPointSystem per distinct survivor (_systems).

naive_oracle walks the full product of per-point multisets through the
same filter, with no pruning, and must agree with the enumerator
exactly (lifts._oracle_slices).

replay_lemma re-derives the statements the search machinery leans on
from weaker premise sets, over every candidate in a bounded pool, and
crashes on a counterexample.  The pools are built once per process: the
premise pools by the staged walk (_partial_pool), the survivor pools by
one enumeration per scope (_survivor_pool), and the families
(_families).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import chain, combinations_with_replacement, permutations

from .constraints import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    _chern1_binds,
    _count_symmetric,
    _read_effectivity,
    lambda_symmetry_check,
    pairing_check,
)
from .core import FixedPointSystem, _canonical_points, lambda_count, largest_weight
from .isotropy import (
    FILTER_CHECKS,
    _cp2_points,
    _dim6_points,
    _read_structure,
    even_count_relation_check,
    component_lambda_relation,
    lambda_step_check,
    largest_weight_structure,
)
from .lifts import _dbranch_candidates, _oracle_slices, _staged_candidates

__all__ = [
    "PruneFlags",
    "SearchConfig",
    "SearchStats",
    "SearchOutcome",
    "SearchSpaceError",
    "FamilyPatternError",
    "NonexistenceViolation",
    "LemmaCounterexample",
    "ReplayReport",
    "REPLAY_LEMMAS",
    "REPLAY_POINT_COUNTS",
    "enumerate_systems",
    "naive_oracle",
    "classify_dim4",
    "verify_nonexistence",
    "replay_lemma",
    "cp2_family",
    "dim6_pair_family",
    "first_failure",
]


class SearchSpaceError(ValueError):
    """Raised when the oracle's raw candidate count exceeds its guard."""


class FamilyPatternError(RuntimeError):
    """A dim-4 survivor does not match the projective-plane family shape."""


class NonexistenceViolation(RuntimeError):
    """A bounded search that must come back empty did not."""

    def __init__(self, message, outcome):
        super().__init__(message)
        self.outcome = outcome


class LemmaCounterexample(RuntimeError):
    """A replayed statement failed on a generated candidate."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class PruneFlags:
    """Generation-stage shortcuts; all sound, all on by default."""

    lambda_profile: bool = True
    largest_weight: bool = True
    chern_linear: bool = True
    pairing_completion: bool = True


@dataclass(frozen=True)
class SearchConfig:
    n: int
    point_count: int
    weight_bound: int
    require_effective: bool = True
    prune_flags: PruneFlags = PruneFlags()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.point_count not in (2, 3):
            raise ValueError("point_count must be 2 or 3")
        if self.weight_bound < 1:
            raise ValueError("weight_bound must be >= 1")


@dataclass
class SearchStats:
    """Deterministic counters: total over all branches, any worker split."""

    nodes: int = 0
    pruned: Counter = field(default_factory=Counter)
    eliminated: dict = field(
        default_factory=lambda: {"odd": Counter(), "even": Counter()}
    )

    def merge(self, other: SearchStats) -> None:
        self.nodes += other.nodes
        self.pruned.update(other.pruned)
        for bucket, killed in other.eliminated.items():
            self.eliminated.setdefault(bucket, Counter()).update(killed)


@dataclass
class SearchOutcome:
    survivors: tuple[FixedPointSystem, ...]
    stats: SearchStats


def _systems(n, survivors) -> tuple[FixedPointSystem, ...]:
    """One system per distinct canonical point tuple, in sorted order."""
    return tuple(FixedPointSystem.from_weights(n, pts) for pts in sorted(survivors))


def _filter_plan(require_effective: bool, check_ids=None):
    """The FILTER_CHECKS entries to run, in order.

    check_ids restricts the filter to a subset (used by the replay pools);
    an id outside FILTER_CHECKS raises ValueError, since a misspelt premise
    would silently weaken the filter.  Effectivity is skipped unless
    required.
    """
    if check_ids is not None:
        unknown = set(check_ids).difference(cid for cid, _, _ in FILTER_CHECKS)
        if unknown:
            raise ValueError("unknown check id(s): %s" % ", ".join(sorted(unknown)))
    return tuple(
        entry
        for entry in FILTER_CHECKS
        if (check_ids is None or entry[0] in check_ids)
        and (require_effective or entry[0] != "effectivity")
    )


def _first_failing(n, points, plan):
    """Id of the first check in plan that the ascending weight tuples
    points fail, or None: each check decided by its reader, building
    nothing."""
    for check_id, _, read in plan:
        if read(n, points) is not None:
            return check_id
    return None


def first_failure(system: FixedPointSystem, require_effective: bool) -> str | None:
    """Id of the first filter check the system fails, or None if it survives.

    Effectivity is skipped unless required.
    """
    plan = _filter_plan(require_effective)
    return _first_failing(system.n, system.points, plan)


def _profiles(n: int, point_count: int, restricted: bool):
    """Sorted lambda profiles in lexicographic order; restricted = only
    the count-symmetric ones (_count_symmetric)."""
    profiles = combinations_with_replacement(range(n + 1), point_count)
    return [p for p in profiles if not restricted or _count_symmetric(n, list(p))]


def _sieve(candidates, n, plan, stats, largest=None, scale=1):
    """Canonical point tuples of the candidates that pass every check in
    plan (a _filter_plan), the one loop the search and the pools share.

    Each check is decided by its reader, in plan order, building
    nothing.  Every candidate is scale nodes in stats (2 for a d-branch
    that stands for its twin too).  The call tallies its failures by
    check and largest |weight| (largest when given: a d-branch, an
    oracle level) and adds each count, scale times, to that bucket once.
    """
    survivors, tally, nodes = set(), Counter(), 0
    for points in candidates:
        nodes += 1
        for failed, _, read in plan:
            if read(n, points) is not None:
                break
        else:
            survivors.add(_canonical_points(points))
            continue
        tally[failed, largest or max(map(abs, chain.from_iterable(points)))] += 1
    stats.nodes += nodes * scale
    for (failed, top), count in tally.items():
        stats.eliminated["odd" if top % 2 else "even"][failed] += count * scale
    return survivors


def _run_branch(payload):
    """One top-level branch: a d-branch, or the staged path when d is None.
    Picklable."""
    config, profile, d = payload
    flags = config.prune_flags
    chern_on = flags.chern_linear and _chern1_binds(config.n, config.point_count)
    stats = SearchStats()
    args = (config.n, d or config.weight_bound, profile, chern_on, flags.pairing_completion, stats)
    streams = [(1, _staged_candidates(*args))] if d is None else _dbranch_candidates(*args)
    plan = _filter_plan(config.require_effective)
    survivors = set()
    for scale, candidates in streams:
        survivors |= _sieve(candidates, config.n, plan, stats, d, scale)
    return survivors, stats


def enumerate_systems(config: SearchConfig, workers: int = 1) -> SearchOutcome:
    """All canonical survivors of the full filter within the weight bound.

    workers > 1 spreads the top-level branches over processes; merged
    output is identical for any worker count (survivors are a sorted,
    deduplicated set and the counters are plain sums).
    """
    flags = config.prune_flags
    profiles = _profiles(config.n, config.point_count, flags.lambda_profile)
    if flags.largest_weight:
        payloads = [
            (config, profile, d)
            for profile in profiles
            for d in range(1, config.weight_bound + 1)
        ]
    else:
        payloads = [(config, profile, None) for profile in profiles]

    if workers <= 1 or len(payloads) <= 1:
        results = [_run_branch(p) for p in payloads]
    else:
        # imported here: the pool pulls in multiprocessing, which a single
        # worker never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_branch, payloads))

    survivors = set()
    stats = SearchStats()
    for branch_survivors, branch_stats in results:
        survivors.update(branch_survivors)
        stats.merge(branch_stats)
    if flags.lambda_profile:
        unrestricted = math.comb(config.n + config.point_count, config.point_count)
        stats.pruned["lambda_profile"] += unrestricted - len(profiles)
    return SearchOutcome(_systems(config.n, survivors), stats)


_ORACLE_GUARD = 10**8


def naive_oracle(config: SearchConfig, lambda_profile=None) -> SearchOutcome:
    """Brute force: the full product of per-point weight multisets, no
    structural pruning, every candidate counted and held to the same
    filter as the enumerator.  The 1e8 guard caps that product, counted
    with math.comb before any multiset is listed.  The slices
    (lifts._oracle_slices) settle the filter up to localization by class
    and product lookup; the sieve, told each slice's largest |weight| t,
    reads the rest.  An optional lambda_profile (one negative count per
    point, in point order) narrows each point's counts from 0..n to its
    own, which is how scopes otherwise past the guard get spot-checked.
    Single-threaded on purpose.

    Without a profile every point draws from one pool, and the sieve
    reads only the candidates whose points are strictly ascending, each
    at scale k! (k points).  That is exact for two reasons.  Every
    FILTER_CHECKS verdict, the first failing check and the largest
    |weight| are invariant under permuting the points.  And no candidate
    that reaches the sieve has two equal points: equal points force
    every lambda to n/2, so every weight product has one sign and
    sum_p 1/P_p != 0.  So each orbit has k! members, one of them
    ascending.  A profile keeps scale 1: one with a repeated lambda
    never reaches the sieve.
    """
    n, bound = config.n, config.weight_bound
    if lambda_profile is None:
        lam_sets = (tuple(range(n + 1)),) * config.point_count
        scale = math.factorial(config.point_count)
    else:
        if len(lambda_profile) != config.point_count:
            raise ValueError("lambda_profile length must equal point_count")
        if any(isinstance(lam, bool) or not isinstance(lam, int) for lam in lambda_profile):
            raise ValueError("lambda_profile entries must be ints")
        if not all(0 <= lam <= n for lam in lambda_profile):
            raise ValueError("lambda_profile entries must lie in 0..n")
        lam_sets = tuple((lam,) for lam in lambda_profile)
        scale = 1
    # lam negatives from [-W, -1] and n - lam positives from [1, W]
    space = math.prod(
        sum(
            math.comb(bound + lam - 1, lam) * math.comb(bound + n - lam - 1, n - lam)
            for lam in lams
        )
        for lams in lam_sets
    )
    if space > _ORACLE_GUARD:
        raise SearchSpaceError(
            "oracle space has %d candidates (> %d); shrink n or the bound, "
            "or restrict the lambda profile" % (space, _ORACLE_GUARD)
        )

    plan = _filter_plan(config.require_effective)
    stats = SearchStats()
    survivors = set()
    # the checks that read the lambdas alone, settled once per lambda tuple
    checks = tuple(row for row in plan if row[0] in ("lambda_symmetry", "parity"))
    for t, candidates in _oracle_slices(n, lam_sets, bound, checks, stats, scale > 1):
        survivors |= _sieve(candidates, n, plan, stats, largest=t, scale=scale)
    return SearchOutcome(_systems(n, survivors), stats)


def cp2_family(a: int, b: int) -> FixedPointSystem:
    """The three-point dim-4 family: the CP2 weights _cp2_points(a, b),
    {a, a+b}, {-a, b}, {-a-b, -b}, labelled p, q, r."""
    if a < 1 or b < 1:
        raise ValueError("family parameters must be natural numbers")
    return FixedPointSystem.from_weights(2, _cp2_points(a, b))


def dim6_pair_family(a: int, b: int) -> FixedPointSystem:
    """The two-point dim-6 family: _dim6_points(a, b), {a, b, -a-b} and
    {a+b, -a, -b}, labelled p, q; each point is sorted when a > b."""
    if a < 1 or b < 1:
        raise ValueError("family parameters must be natural numbers")
    return FixedPointSystem.from_weights(3, _dim6_points(a, b))


def classify_dim4(weight_bound: int, effective: bool = True):
    """Enumerate n=2, 3-point survivors and read off their (a, b) families.

    Every survivor must be _cp2_points(a, b) for positive a and b, read
    off its first point (canonical form reversal-reduces (a, b) to
    a <= b); anything else raises FamilyPatternError.
    """
    if weight_bound < 2:
        raise ValueError("weight_bound must be >= 2")
    config = SearchConfig(
        n=2, point_count=3, weight_bound=weight_bound, require_effective=effective
    )
    outcome = enumerate_systems(config)
    families = []
    for system in outcome.survivors:
        a, top = system.points[0]
        b = top - a
        if a < 1 or b < 1 or system.points != _cp2_points(a, b):
            raise FamilyPatternError(
                "survivor %r is not a projective-plane family" % (system.points,)
            )
        families.append((a, b))
    return sorted(families)


def verify_nonexistence(n: int, weight_bound: int) -> SearchOutcome:
    """Assert the bounded 3-point search is empty for n >= 4.

    The outcome keeps the per-constraint elimination counters, bucketed
    by the parity of each candidate's largest weight.  Nonempty
    survivors raise.
    """
    if n < 4:
        raise ValueError("nonexistence checks start at n = 4")
    config = SearchConfig(n=n, point_count=3, weight_bound=weight_bound)
    outcome = enumerate_systems(config)
    if outcome.survivors:
        raise NonexistenceViolation(
            "expected no survivors at n=%d, bound=%d, found %d"
            % (n, weight_bound, len(outcome.survivors)),
            outcome,
        )
    return outcome


# ---------------------------------------------------------------------------
# lemma replay


@dataclass
class ReplayReport:
    lemma_id: str
    n: int
    point_count: int
    weight_bound: int
    candidates: int
    assertions: int
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.failures


@lru_cache(maxsize=None)
def _partial_pool(n, point_count, bound, checks):
    """Canonical representatives passing just `checks`, within the bound:
    the sieve over the staged walk of every profile (restricted only when
    lambda_symmetry is assumed), closing by pairing, so the set must
    hold it, and, when localization is in the set, cut by its target (see
    lifts._staged_candidates).  Each pool is built once per process.
    """
    if "pairing" not in checks:
        raise ValueError("every replay pool assumes the pairing check")
    plan = _filter_plan(False, checks)
    if point_count * n % 2 == 1:  # an odd number of weights never pairs
        return ()
    chern_on = "chern1_vanishing" in checks and _chern1_binds(n, point_count)
    localize = "localization" in checks
    # the generators and the sieve count; a pool throws the counts away
    stats = SearchStats()
    candidates = chain.from_iterable(
        _staged_candidates(n, bound, profile, chern_on, True, stats, localize)
        for profile in _profiles(n, point_count, "lambda_symmetry" in checks)
    )
    return _systems(n, _sieve(candidates, n, plan, stats))


@lru_cache(maxsize=None)
def _survivor_pool(scope):
    """The enumerator's survivors, effective or not: one enumeration per
    scope and process, run with effectivity dropped."""
    if scope.require_effective:
        return _survivor_pool(replace(scope, require_effective=False))
    return enumerate_systems(scope).survivors


def _premise_pool(checks, scope):
    """The systems in scope passing just `checks` (see _partial_pool)."""
    return _partial_pool(scope.n, scope.point_count, scope.weight_bound, checks)


def _family_pool(scope):
    """Both families for every a + b <= W (_families)."""
    return _families(scope.weight_bound)


@lru_cache(maxsize=None)
def _families(bound):
    """Both families for every a + b <= bound, two systems per (a, b),
    built once per bound and process."""
    return tuple(
        system
        for a in range(1, bound)
        for b in range(1, bound - a + 1)
        for system in (cp2_family(a, b), dim6_pair_family(a, b))
    )


def _scope_pool(scope):
    """The scope's own survivors: its survivor pool, kept to the members
    passing effectivity when the scope requires it (generation never
    reads require_effective, so that is what enumerating it keeps)."""
    pool = _survivor_pool(scope)
    if scope.require_effective:
        pool = tuple(s for s in pool if _read_effectivity(s.n, s.points) is None)
    return pool


_PAIRWISE_PREMISES = ("pairing", "lambda_symmetry", "parity", "localization")
_L32_PREMISES = _PAIRWISE_PREMISES + ("chern1_vanishing", "isotropy")
_L33_PREMISES = _PAIRWISE_PREMISES + ("chern1_vanishing", "largest_weight_structure")


def _passes(result):
    """The assertion that a check passed, with its witness as the detail."""
    return result.verdict == PASS, result.witness or result.verdict


def _l22(system, scope):
    yield _passes(lambda_symmetry_check(system))


def _l24(system, scope):
    yield _passes(pairing_check(system))


def _l32(system, scope):
    yield _passes(largest_weight_structure(system))


def _l33(system, scope):
    n = scope.n
    want = (n // 2 - 1, n // 2, n // 2 + 1)
    ordered = sorted(system.points, key=lambda_count)
    profile = tuple(map(lambda_count, ordered))
    yield profile == want, {"profile": profile, "expected": want}
    if profile != want or n == 2:
        return
    # strict placement of -d and d, up to reversing the action
    d = largest_weight(system)
    low, mid, high = ordered
    placed = (-d in low and d in mid) or (d in high and -d in mid)
    yield placed, {"d": d, "placement": "off"}


def _pairwise(check, system):
    """One assertion per ordered pair of points the check applies to; the
    pools pass pairing, so a positive weight exists."""
    d = largest_weight(system)
    for (v, sv), (w, sw) in permutations(zip(system.labels, system.points), 2):
        got = check(sv, sw, d, system)
        if got.verdict != NOT_APPLICABLE:
            detail = {"v": v, "w": w, **(got.witness or {})}
            yield got.verdict != FAIL, detail


def _l34(system, scope):
    yield from _pairwise(lambda_step_check, system)


def _l36(system, scope):
    yield from _pairwise(even_count_relation_check, system)


def _r35(system, scope):
    d, sv, sw, _ = _read_structure(system.points)
    got = component_lambda_relation(sv, sw, d)
    yield got.verdict == PASS, {"d": d, "verdict": got.verdict}
    # the equal-c1 case must agree with the one-step statement
    step = lambda_step_check(sv, sw, d, system)
    if step.verdict != NOT_APPLICABLE:
        yield step.verdict == PASS, {"d": d, "step": step.verdict}


def _l46(system, scope):
    d = largest_weight(system)
    bound = scope.weight_bound
    points = system.points
    for e in chain(range(2, bound + 1), range(-2, -bound - 1, -1)):
        mults = [tuple(x for x in ws if x % e == 0) for ws in points]
        total = Counter(chain.from_iterable(mults))
        # the three sub-multisets are exactly the CP2 triple at a = b = |e|,
        # in some point order; the shape is the same for e and -e
        triple = sorted(mults) == sorted(_cp2_points(abs(e), abs(e)))

        # part 1: lone +-e across the top half of the weight range
        if 2 * abs(e) > d:
            for alpha, beta in permutations(points, 2):
                if e in alpha and -e in beta:
                    yield (
                        alpha.count(e) == 1
                        and beta.count(-e) == 1
                        and set(total) <= {e, -e}
                        and total[e] == 1
                        and total[-e] == 1
                        and sorted(x % abs(e) for x in alpha)
                        == sorted(x % abs(e) for x in beta)
                    ), {"e": e, "part": 1}

        # part 2: +e at two distinct points
        if sum(e in ws for ws in points) >= 2:
            yield triple, {"e": e, "part": 2}

        # part 3: +e twice at one point
        # the dim-6 pair at a = b = e, each point sorted for either sign of e
        want_a, want_b = (tuple(sorted(ws)) for ws in _dim6_points(e, e))
        for i, alpha in enumerate(points):
            if alpha.count(e) > 1:
                rest = (sub for j, sub in enumerate(mults) if j != i)
                yield (
                    mults[i] == want_a
                    and want_b in rest
                    and +total == Counter(want_a) + Counter(want_b)
                ), {"e": e, "part": 3}

        # part 4: +e and -e together at one point
        for beta, sub in zip(points, mults):
            if e in beta and -e in beta:
                both = sub == tuple(sorted((-e, e)))
                yield triple and both, {"e": e, "part": 4}


# lemma id -> (point counts the replay runs over, pool(scope), statement);
# three-point-only statements are fixed.  A statement(system, scope) yields
# one (holds, detail) per assertion it makes and replay_lemma counts them.
# Each statement names its check in its body, so a check wrapped in this
# module's namespace (by a profiler, say) is the one that runs.
_REPLAYS = {
    "l22": ((2, 3), _survivor_pool, _l22),
    "l24": ((2, 3), _survivor_pool, _l24),
    "l32": ((3,), partial(_premise_pool, _L32_PREMISES), _l32),
    "l33": ((3,), partial(_premise_pool, _L33_PREMISES), _l33),
    "l34": ((2, 3), partial(_premise_pool, _PAIRWISE_PREMISES), _l34),
    "l36": ((2, 3), partial(_premise_pool, _PAIRWISE_PREMISES), _l36),
    "r35": ((2, 3), _family_pool, _r35),
    "l46": ((3,), _scope_pool, _l46),
}

REPLAY_LEMMAS = tuple(_REPLAYS)

REPLAY_POINT_COUNTS = {lemma: counts for lemma, (counts, _, _) in _REPLAYS.items()}


def replay_lemma(lemma_id: str, scope: SearchConfig) -> ReplayReport:
    """Re-derive one supported statement over all in-scope candidates.

    Candidates are generated from the statement's own premise set (often
    much weaker than the full filter) and the statement's conclusion is
    asserted on each.  A counterexample raises LemmaCounterexample with
    the report attached; a clean sweep returns it.
    """
    if lemma_id not in REPLAY_LEMMAS:
        raise ValueError(
            "unsupported lemma %r (supported: %s)"
            % (lemma_id, ", ".join(REPLAY_LEMMAS))
        )
    point_counts, pool_of, statement = _REPLAYS[lemma_id]
    if scope.point_count not in point_counts:
        raise ValueError(
            "lemma %s replays over point counts %r" % (lemma_id, point_counts)
        )

    pool = pool_of(scope)
    assertions = 0
    failures = []
    for system in pool:
        for holds, detail in statement(system, scope):
            assertions += 1
            if not holds:
                failures.append({"points": system.points, "detail": detail})

    report = ReplayReport(
        lemma_id=lemma_id,
        n=scope.n,
        point_count=scope.point_count,
        weight_bound=scope.weight_bound,
        candidates=len(pool),
        assertions=assertions,
        failures=tuple(failures),
    )
    if report.failures:
        raise LemmaCounterexample(
            "lemma %s failed on %d candidate(s)" % (lemma_id, len(report.failures)),
            report,
        )
    return report
