"""Bounded exhaustive search for consistent fixed-point weight systems.

The enumerator finds every canonical system with 2 or 3 fixed points and
all |weights| <= W that passes the whole constraint suite: pairing,
lambda symmetry, parity, vanishing localization sum, c_1 vanishing
(3 points, n >= 4), the largest-weight sphere structure (3 points),
Z_k classification for every k in [2, max |w|], and optionally
effectivity: the checks of the filter table isotropy.FILTER_CHECKS.

Generation never relies on anything the final filter would not enforce,
so pruning is sound and the survivor set is independent of which prunes
are switched on.  The default (all prunes on) search runs, per lambda
profile and per candidate largest weight d:

    1. lambda profiles are restricted to the count-symmetric ones
       ((i, n/2, n-i) for three points, (i, n-i) for two);
    2. the point v holding -d is generated outright: -d occurs once,
       every other weight lies in [-(d-1), d-1] (the filter forces d and
       -d to occur exactly once overall, at distinct points, for d >= 2:
       for 3 points via the largest-weight structure, for 2 points via
       the Z_d classification, whose two-point shapes degenerate to the
       sphere pair {d},{-d} because a'+b' >= 2d would exceed d);
    3. the point w holding +d is completed from v's residues mod d: a
       weight congruent to rho in (0, d) and bounded by d-1 is rho or
       rho-d, and only rho-d is negative, so lambda(w) downs are spread
       over the residue classes, each distinct lift made once;
    4. the remaining point is completed from the pairing imbalance: the
       excess of -l over +l across the other points forces l's
       multiplicity, and what is left splits into {l, -l} padding pairs;
    5. when n >= 4 and there are three points, partial weight sums are
       cut against c_1 = 0; once c_1(v) = 0 every lift has c_1(w) =
       d * (1 + lambda(v) - lambda(w)), an O(1) test per (v, w) slot pair.

The one case none of the structure above covers is a two-point system
whose largest weight is 1 (all weights are +-1; the Z_k checks start at
k = 2 and say nothing).  That branch is enumerated directly - the
lambda profile pins both multisets.

naive_oracle does none of this: it walks the full product of per-point
weight multisets, applies the same filter to each candidate, and must
agree with the enumerator exactly.  Slot orderings of the same multiset
are the same system, so the oracle iterates multisets; the 1e8 guard is
on the number of candidates so walked.

replay_lemma re-derives the statements the search machinery leans on
from weaker premise sets, over every candidate in a bounded scope, and
treats any counterexample as an alarm worth crashing on.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product

from .constraints import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    lambda_symmetry_check,
    pairing_check,
)
from .core import (
    CanonicalKey,
    FixedPointSystem,
    canonicalize,
    lambda_count,
    largest_weight,
)
from .isotropy import (
    FILTER_CHECKS,
    _largest_weight_holders,
    even_count_relation_check,
    component_lambda_relation,
    lambda_step_check,
    largest_weight_structure,
)

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
    survivors: tuple[CanonicalKey, ...]
    stats: SearchStats
    elapsed: float


def first_failure(
    system: FixedPointSystem, require_effective: bool, check_ids=None
) -> str | None:
    """Id of the first filter check the system fails, or None if it survives.

    check_ids restricts the filter to a subset (used by the replay pools);
    omitted means the full enumeration filter.  Effectivity is skipped
    unless required.
    """
    for check_id, check in FILTER_CHECKS:
        if check_ids is not None and check_id not in check_ids:
            continue
        if check_id == "effectivity" and not require_effective:
            continue
        if check(system).verdict == FAIL:
            return check_id
    return None


def _profiles(n: int, point_count: int, restricted: bool):
    """Sorted lambda profiles; restricted = only count-symmetric ones."""
    if restricted:
        if point_count == 3:
            if n % 2 == 1:
                return []
            return [(i, n // 2, n - i) for i in range(n // 2 + 1)]
        return [(i, n - i) for i in range(n // 2 + 1)]
    return list(combinations_with_replacement(range(n + 1), point_count))


def _signed_multisets(neg_count: int, pos_count: int, max_abs: int):
    """Ascending tuples: neg_count values from [-max_abs, -1] followed by
    pos_count from [1, max_abs]."""
    if neg_count < 0 or pos_count < 0:
        return
    for negs in combinations_with_replacement(range(-max_abs, 0), neg_count):
        for poss in combinations_with_replacement(range(1, max_abs + 1), pos_count):
            yield negs + poss


def _pairing_completions(existing, n, lam, max_val, chern_on, stats):
    """Multisets closing the pairing imbalance of `existing`.

    The imbalance forces a minimum content; the leftover slots must split
    into {l, -l} pairs with l <= max_val.  lam pins the negative count,
    which pins the pair count, so feasibility is a handful of integer
    checks before any enumeration happens.
    """
    cnt = Counter(existing)
    forced = []
    neg_forced = 0
    for l in sorted({abs(w) for w in existing}):
        delta = cnt[-l] - cnt[l]
        if delta > 0:
            forced.extend([l] * delta)
        elif delta < 0:
            forced.extend([-l] * (-delta))
            neg_forced += -delta
    if forced and max(abs(v) for v in forced) > max_val:
        stats.pruned["pairing_completion"] += 1
        return
    rest = n - len(forced)
    if rest < 0 or rest % 2 == 1 or lam != neg_forced + rest // 2:
        stats.pruned["pairing_completion"] += 1
        return
    if chern_on and sum(forced) != 0:
        stats.pruned["chern_linear"] += 1
        return
    pairs = rest // 2
    for pvals in combinations_with_replacement(range(1, max_val + 1), pairs):
        yield tuple(sorted(forced + list(pvals) + [-v for v in pvals]))


def _lifts(classes, down_count, d):
    """Every distinct way to lift residue classes ((r, m_r), ...), r
    ascending, with exactly down_count members sent to r - d and the rest
    kept at r.  Yields (downs, ups), each an ascending tuple."""
    if not classes:
        yield (), ()
        return
    (r, m), rest = classes[0], classes[1:]
    room = sum(count for _, count in rest)
    for j in range(max(0, down_count - room), min(m, down_count) + 1):
        for downs, ups in _lifts(rest, down_count - j, d):
            yield (r - d,) * j + downs, (r,) * (m - j) + ups


def _dbranch_candidates(n, point_count, d, profile, chern_on, pairing_complete, stats):
    """Candidates whose largest weight is exactly d, via the +-d structure."""
    if point_count == 2 and d == 1:
        # every weight is +-1 and the profile determines both points
        ws = tuple(
            (-1,) * lam + (1,) * (n - lam)
            for lam in profile
        )
        yield ws
        return

    for ia, ib in permutations(range(point_count), 2):
        lam_a, lam_b = profile[ia], profile[ib]
        if lam_a < 1 or lam_b > n - 1:
            stats.pruned["largest_weight"] += 1
            continue
        # c_1(v) = 0 forces c_1(w) = d * (1 + lam_a - lam_b) (docstring step 5)
        if chern_on and lam_b != lam_a + 1:
            stats.pruned["chern_linear"] += 1
            continue
        for others in _signed_multisets(lam_a - 1, n - lam_a, d - 1):
            if chern_on and sum(others) != d:
                stats.pruned["chern_linear"] += 1
                continue
            ws_a = (-d,) + others
            classes = tuple(sorted(Counter(x % d for x in others).items()))
            for downs, ups in _lifts(classes, lam_b, d):
                ws_b = downs + ups + (d,)
                if point_count == 2:
                    slots = [None, None]
                    slots[ia], slots[ib] = ws_a, ws_b
                    yield tuple(slots)
                    continue
                ic = 3 - ia - ib
                lam_c = profile[ic]
                if pairing_complete:
                    third = _pairing_completions(
                        ws_a + ws_b, n, lam_c, d - 1, chern_on, stats
                    )
                else:
                    third = (
                        ws
                        for ws in _signed_multisets(lam_c, n - lam_c, d - 1)
                        if not (chern_on and sum(ws) != 0)
                    )
                for ws_c in third:
                    slots = [None, None, None]
                    slots[ia], slots[ib], slots[ic] = ws_a, ws_b, ws_c
                    yield tuple(slots)


def _staged_candidates(n, point_count, bound, profile, chern_on, pairing_complete, stats):
    """Plain per-point generation (the no-largest-weight-pruning path)."""
    for ws1 in _signed_multisets(profile[0], n - profile[0], bound):
        if chern_on and sum(ws1) != 0:
            stats.pruned["chern_linear"] += 1
            continue
        if point_count == 2:
            if pairing_complete:
                for ws2 in _pairing_completions(ws1, n, profile[1], bound, chern_on, stats):
                    yield (ws1, ws2)
            else:
                for ws2 in _signed_multisets(profile[1], n - profile[1], bound):
                    if chern_on and sum(ws2) != 0:
                        stats.pruned["chern_linear"] += 1
                        continue
                    yield (ws1, ws2)
            continue
        for ws2 in _signed_multisets(profile[1], n - profile[1], bound):
            if chern_on and sum(ws2) != 0:
                stats.pruned["chern_linear"] += 1
                continue
            if pairing_complete:
                for ws3 in _pairing_completions(
                    ws1 + ws2, n, profile[2], bound, chern_on, stats
                ):
                    yield (ws1, ws2, ws3)
            else:
                for ws3 in _signed_multisets(profile[2], n - profile[2], bound):
                    if chern_on and sum(ws3) != 0:
                        stats.pruned["chern_linear"] += 1
                        continue
                    yield (ws1, ws2, ws3)


def _run_branch(payload):
    """One top-level branch: generate, filter, canonicalize.  Picklable."""
    config, kind, profile, d = payload
    flags = config.prune_flags
    chern_on = flags.chern_linear and config.point_count == 3 and config.n >= 4
    stats = SearchStats()
    if kind == "d":
        generate, limit = _dbranch_candidates, d
    else:
        generate, limit = _staged_candidates, config.weight_bound
    gen = generate(
        config.n,
        config.point_count,
        limit,
        profile,
        chern_on,
        flags.pairing_completion,
        stats,
    )
    keys = set()
    for ws_tuple in gen:
        stats.nodes += 1
        system = FixedPointSystem.from_weights(config.n, ws_tuple)
        failed = first_failure(system, config.require_effective)
        if failed is None:
            keys.add(canonicalize(system))
        else:
            # every d-branch candidate has largest |weight| exactly d
            top = d if kind == "d" else max(abs(w) for w in system.all_weights())
            stats.eliminated["odd" if top % 2 == 1 else "even"][failed] += 1
    return keys, stats


def enumerate_systems(config: SearchConfig, workers: int = 1) -> SearchOutcome:
    """All canonical survivors of the full filter within the weight bound.

    workers > 1 spreads the top-level branches over processes; merged
    output is identical for any worker count (survivors are a sorted,
    deduplicated set and the counters are plain sums).
    """
    start = time.perf_counter()
    flags = config.prune_flags
    profiles = _profiles(config.n, config.point_count, flags.lambda_profile)
    if flags.largest_weight:
        payloads = [
            (config, "d", profile, d)
            for profile in profiles
            for d in range(1, config.weight_bound + 1)
        ]
    else:
        payloads = [(config, "staged", profile, None) for profile in profiles]

    if workers <= 1 or len(payloads) <= 1:
        results = [_run_branch(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_branch, payloads))

    keys: set[CanonicalKey] = set()
    stats = SearchStats()
    for branch_keys, branch_stats in results:
        keys.update(branch_keys)
        stats.merge(branch_stats)
    if flags.lambda_profile:
        stats.pruned["lambda_profile"] += len(
            _profiles(config.n, config.point_count, False)
        ) - len(profiles)
    return SearchOutcome(
        tuple(sorted(keys)), stats, time.perf_counter() - start
    )


_ORACLE_GUARD = 10**8


def naive_oracle(config: SearchConfig, lambda_profile=None) -> SearchOutcome:
    """Brute force: the full product of per-point weight multisets.

    No structural pruning at all - every candidate is built and pushed
    through the same filter the enumerator uses.  Weight order inside a
    point is meaningless (points carry multisets), so the walk is over
    per-point multisets; the 1e8 guard caps their product.  An optional
    lambda_profile (one negative-count per point, sorted) restricts each
    point's multisets, which is how scopes otherwise past the guard get
    spot-checked.  Single-threaded on purpose.
    """
    start = time.perf_counter()
    n, bound = config.n, config.weight_bound
    if lambda_profile is not None:
        if len(lambda_profile) != config.point_count:
            raise ValueError("lambda_profile length must equal point_count")
        per_point = [
            list(_signed_multisets(lam, n - lam, bound)) for lam in lambda_profile
        ]
    else:
        values = list(range(-bound, 0)) + list(range(1, bound + 1))
        all_multisets = list(combinations_with_replacement(values, n))
        per_point = [all_multisets] * config.point_count

    space = 1
    for choices in per_point:
        space *= len(choices)
    if space > _ORACLE_GUARD:
        raise SearchSpaceError(
            "oracle space has %d candidates (> %d); shrink n or the bound, "
            "or restrict the lambda profile" % (space, _ORACLE_GUARD)
        )

    stats = SearchStats()
    keys: set[CanonicalKey] = set()
    for ws_tuple in product(*per_point):
        stats.nodes += 1
        system = FixedPointSystem.from_weights(n, ws_tuple)
        failed = first_failure(system, config.require_effective)
        if failed is None:
            keys.add(canonicalize(system))
        else:
            bucket = (
                "odd"
                if max(abs(w) for w in system.all_weights()) % 2 == 1
                else "even"
            )
            stats.eliminated[bucket][failed] += 1
    return SearchOutcome(
        tuple(sorted(keys)), stats, time.perf_counter() - start
    )


def cp2_family(a: int, b: int) -> FixedPointSystem:
    """The three-point dim-4 family {a, a+b}, {-a, b}, {-b, -a-b}."""
    if a < 1 or b < 1:
        raise ValueError("family parameters must be natural numbers")
    return FixedPointSystem.from_weights(
        2, [(a, a + b), (-a, b), (-b, -a - b)]
    )


def dim6_pair_family(a: int, b: int) -> FixedPointSystem:
    """The two-point dim-6 family {a, b, -a-b}, {a+b, -a, -b}."""
    if a < 1 or b < 1:
        raise ValueError("family parameters must be natural numbers")
    return FixedPointSystem.from_weights(
        3, [(a, b, -a - b), (a + b, -a, -b)]
    )


def classify_dim4(weight_bound: int, effective: bool = True, workers: int = 1):
    """Enumerate n=2, 3-point survivors and read off their (a, b) families.

    Every survivor must match {a, a+b}, {-a, b}, {-b, -a-b} up to
    canonical form (which reversal-reduces (a, b) to a <= b); anything
    else raises FamilyPatternError.
    """
    if weight_bound < 2:
        raise ValueError("weight_bound must be >= 2")
    config = SearchConfig(
        n=2, point_count=3, weight_bound=weight_bound, require_effective=effective
    )
    outcome = enumerate_systems(config, workers=workers)
    families = []
    for key in outcome.survivors:
        (p0, p1, p2) = key.points
        a, top = p0
        b = top - a
        if (
            a < 1
            or b < 1
            or p1 != tuple(sorted((-a, b)))
            or p2 != tuple(sorted((-b, -a - b)))
        ):
            raise FamilyPatternError(
                "survivor %r is not a projective-plane family" % (key.points,)
            )
        families.append((a, b))
    return sorted(families)


def verify_nonexistence(
    n: int, weight_bound: int, report_mode: bool = False, workers: int = 1
) -> SearchOutcome:
    """Assert the bounded 3-point search is empty for n >= 4.

    report_mode keeps the per-constraint elimination counters, bucketed
    by the parity of each candidate's largest weight; otherwise the
    outcome carries only totals.  Nonempty survivors raise.
    """
    if n < 4:
        raise ValueError("nonexistence checks start at n = 4")
    config = SearchConfig(n=n, point_count=3, weight_bound=weight_bound)
    outcome = enumerate_systems(config, workers=workers)
    if outcome.survivors:
        raise NonexistenceViolation(
            "expected no survivors at n=%d, bound=%d, found %d"
            % (n, weight_bound, len(outcome.survivors)),
            outcome,
        )
    if not report_mode:
        outcome.stats.eliminated = {}
    return outcome


# ---------------------------------------------------------------------------
# lemma replay


REPLAY_LEMMAS = ("l22", "l24", "l32", "l33", "l34", "l36", "r35", "l46")

# point counts each replay runs over (three-point-only statements are fixed)
REPLAY_POINT_COUNTS = {
    "l22": (2, 3),
    "l24": (2, 3),
    "l32": (3,),
    "l33": (3,),
    "l34": (2, 3),
    "l36": (2, 3),
    "r35": (2, 3),
    "l46": (3,),
}


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
    """Canonical representatives passing just `checks`, within the bound.

    Generation is staged per lambda profile with the final point closed
    from the pairing imbalance, so "pairing" must be in the check set;
    profiles are restricted only when lambda_symmetry is being assumed.
    """
    if "pairing" not in checks:
        raise ValueError("every replay pool assumes the pairing check")
    stats = SearchStats()
    chern_on = "chern1_vanishing" in checks and point_count == 3 and n >= 4
    keys = set()
    for profile in _profiles(n, point_count, "lambda_symmetry" in checks):
        for ws_tuple in _staged_candidates(
            n, point_count, bound, profile, chern_on, True, stats
        ):
            system = FixedPointSystem.from_weights(n, ws_tuple)
            if first_failure(system, False, check_ids=checks) is None:
                keys.add(canonicalize(system))
    return tuple(key.system() for key in sorted(keys))


def _fail_entry(system, detail):
    return {
        "points": tuple(p.weights.weights for p in system.points),
        "detail": detail,
    }


def _replay_enforced(check, scope):
    pool = enumerate_systems(replace(scope, require_effective=False)).survivors
    failures = []
    for key in pool:
        system = key.system()
        if check(system).verdict != PASS:
            failures.append(_fail_entry(system, "enforced check failed"))
    return len(pool), len(pool), failures


def _replay_l32(scope):
    pool = _partial_pool(
        scope.n,
        scope.point_count,
        scope.weight_bound,
        (
            "pairing",
            "lambda_symmetry",
            "parity",
            "localization",
            "chern1_vanishing",
            "isotropy",
        ),
    )
    failures = []
    for system in pool:
        got = largest_weight_structure(system)
        if got.verdict != PASS:
            failures.append(_fail_entry(system, got.witness or got.verdict))
    return len(pool), len(pool), failures


def _replay_l33(scope):
    pool = _partial_pool(
        scope.n,
        scope.point_count,
        scope.weight_bound,
        (
            "pairing",
            "lambda_symmetry",
            "parity",
            "localization",
            "chern1_vanishing",
            "largest_weight_structure",
        ),
    )
    n = scope.n
    want = (n // 2 - 1, n // 2, n // 2 + 1)
    failures = []
    assertions = 0
    for system in pool:
        ordered = sorted(system.points, key=lambda p: lambda_count(p.weights))
        profile = tuple(lambda_count(p.weights) for p in ordered)
        assertions += 1
        if profile != want:
            failures.append(
                _fail_entry(system, {"profile": profile, "expected": want})
            )
            continue
        if n == 2:
            continue
        # strict placement of -d and d, up to reversing the action
        d = largest_weight(system)
        assertions += 1
        low, mid, high = ordered
        if not (
            (-d in low.weights and d in mid.weights)
            or (d in high.weights and -d in mid.weights)
        ):
            failures.append(_fail_entry(system, {"d": d, "placement": "off"}))
    return len(pool), assertions, failures


def _replay_pairwise(scope, check):
    pool = _partial_pool(
        scope.n,
        scope.point_count,
        scope.weight_bound,
        ("pairing", "lambda_symmetry", "parity", "localization"),
    )
    failures = []
    assertions = 0
    for system in pool:
        try:
            d = largest_weight(system)
        except ValueError:
            continue
        for v, w in permutations(system.points, 2):
            got = check(v, w, d, system)
            if got.verdict == FAIL:
                failures.append(
                    _fail_entry(system, {"v": v.label, "w": w.label, **got.witness})
                )
            if got.verdict != NOT_APPLICABLE:
                assertions += 1
    return len(pool), assertions, failures


def _replay_r35(scope):
    bound = scope.weight_bound
    failures = []
    assertions = 0
    candidates = 0
    for a in range(1, bound):
        for b in range(1, bound - a + 1):
            for system in (cp2_family(a, b), dim6_pair_family(a, b)):
                candidates += 1
                d, v, w, z_v, z_w = _largest_weight_holders(system)
                got = component_lambda_relation(v, w, d, z_v, z_w)
                assertions += 1
                if got.verdict != PASS:
                    failures.append(
                        _fail_entry(system, {"d": d, "verdict": got.verdict})
                    )
                # the equal-c1 case must agree with the one-step statement
                step = lambda_step_check(v, w, d, system)
                if step.verdict != NOT_APPLICABLE:
                    assertions += 1
                    if step.verdict != PASS:
                        failures.append(
                            _fail_entry(system, {"d": d, "step": step.verdict})
                        )
    return candidates, assertions, failures


def _multiples(ms, e):
    return tuple(x for x in ms if x % e == 0)


def _replay_l46(scope):
    pool = enumerate_systems(scope).survivors
    bound = scope.weight_bound
    failures = []
    assertions = 0
    for key in pool:
        system = key.system()
        d = largest_weight(system)
        for e in [x for x in range(2, bound + 1)] + [
            -x for x in range(2, bound + 1)
        ]:
            mults = {p.label: _multiples(p.weights, e) for p in system.points}
            total = Counter()
            for sub in mults.values():
                total.update(sub)

            def bad(detail):
                failures.append(_fail_entry(system, {"e": e, "part": detail}))

            # part 1: lone +-e across the top half of the weight range
            if 2 * abs(e) > d:
                for alpha, beta in permutations(system.points, 2):
                    if e in alpha.weights and -e in beta.weights:
                        assertions += 1
                        ok = (
                            alpha.weights.count(e) == 1
                            and beta.weights.count(-e) == 1
                            and set(total) <= {e, -e}
                            and total[e] == 1
                            and total[-e] == 1
                            and sorted(x % abs(e) for x in alpha.weights)
                            == sorted(x % abs(e) for x in beta.weights)
                        )
                        if not ok:
                            bad(1)

            def is_triple_pattern():
                # the three sub-multisets must be exactly
                # {2e, e}, {-e, e}, {-2e, -e} in some point order
                targets = [
                    tuple(sorted((2 * e, e))),
                    tuple(sorted((-e, e))),
                    tuple(sorted((-2 * e, -e))),
                ]
                got = sorted(mults.values())
                return got == sorted(targets)

            # part 2: +e at two distinct points
            holders_pos = [p for p in system.points if e in p.weights]
            if len(holders_pos) >= 2:
                assertions += 1
                if not is_triple_pattern():
                    bad(2)

            # part 3: +e twice at one point
            for alpha in system.points:
                if alpha.weights.count(e) > 1:
                    assertions += 1
                    want_a = tuple(sorted((-2 * e, e, e)))
                    want_b = tuple(sorted((2 * e, -e, -e)))
                    others = [
                        p for p in system.points if p.label != alpha.label
                    ]
                    ok = mults[alpha.label] == want_a and any(
                        mults[b.label] == want_b for b in others
                    )
                    named = Counter(want_a) + Counter(want_b)
                    if ok and +total != +named:
                        ok = False
                    if not ok:
                        bad(3)

            # part 4: +e and -e together at one point
            for beta in system.points:
                if e in beta.weights and -e in beta.weights:
                    assertions += 1
                    if not (
                        is_triple_pattern()
                        and mults[beta.label] == tuple(sorted((-e, e)))
                    ):
                        bad(4)
    return len(pool), assertions, failures


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
    if scope.point_count not in REPLAY_POINT_COUNTS[lemma_id]:
        raise ValueError(
            "lemma %s replays over point counts %r"
            % (lemma_id, REPLAY_POINT_COUNTS[lemma_id])
        )

    if lemma_id == "l22":
        candidates, assertions, failures = _replay_enforced(
            lambda_symmetry_check, scope
        )
    elif lemma_id == "l24":
        candidates, assertions, failures = _replay_enforced(pairing_check, scope)
    elif lemma_id == "l32":
        candidates, assertions, failures = _replay_l32(scope)
    elif lemma_id == "l33":
        candidates, assertions, failures = _replay_l33(scope)
    elif lemma_id == "l34":
        candidates, assertions, failures = _replay_pairwise(scope, lambda_step_check)
    elif lemma_id == "l36":
        candidates, assertions, failures = _replay_pairwise(
            scope, even_count_relation_check
        )
    elif lemma_id == "r35":
        candidates, assertions, failures = _replay_r35(scope)
    else:
        candidates, assertions, failures = _replay_l46(scope)

    report = ReplayReport(
        lemma_id=lemma_id,
        n=scope.n,
        point_count=scope.point_count,
        weight_bound=scope.weight_bound,
        candidates=candidates,
        assertions=assertions,
        failures=tuple(failures),
    )
    if report.failures:
        raise LemmaCounterexample(
            "lemma %s failed on %d candidate(s)" % (lemma_id, len(report.failures)),
            report,
        )
    return report
