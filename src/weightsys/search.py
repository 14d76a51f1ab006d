"""Bounded exhaustive search for consistent fixed-point weight systems.

The enumerator finds every canonical system with 2 or 3 fixed points and
all |weights| <= W that passes the whole constraint suite: pairing,
lambda symmetry, parity, vanishing localization sum, c_1 vanishing
(3 points, n >= 4), the largest-weight sphere structure (3 points),
Z_k classification for every k >= 2 dividing some weight, and optionally
effectivity: the checks of the filter table isotropy.FILTER_CHECKS.

Generation never relies on anything the final filter would not enforce,
so pruning is sound and the survivor set is independent of which prunes
are switched on.  The default (all prunes on) search runs, per lambda
profile and per candidate largest weight d:

    1. lambda profiles are restricted to the count-symmetric ones
       (constraints._count_symmetric);
    2. the point v holding -d is generated outright: -d occurs once,
       every other weight lies in [-(d-1), d-1] (the filter forces d and
       -d to occur exactly once overall, at distinct points, for d >= 2:
       for 3 points via the largest-weight structure, for 2 points via
       the Z_d classification, whose two-point shapes degenerate to the
       sphere pair {d},{-d} because a'+b' >= 2d would exceed d);
    3. the point w holding +d is completed from v's residues mod d: a
       weight congruent to rho in (0, d) and bounded by d-1 is rho or
       rho-d, and only rho-d is negative, so lambda(w) downs are spread
       over the residue classes: one iterative walk over the classes'
       down counts makes each distinct lift once;
    4. the remaining point is completed from the pairing imbalance: the
       excess of -l over +l across the other points forces l's
       multiplicity, and what is left splits into {l, -l} padding pairs;
       v's excess is taken once, and each lift adds w's to it;
    5. when n >= 4 and there are three points, v's positives are listed
       by the sum c_1(v) = 0 leaves them (the rest are counted); then
       every lift has c_1(w) = d * (1 + lambda(v) - lambda(w)), an O(1)
       test per (v, w) slot pair.

The one case none of the structure above covers is a two-point system
whose largest weight is 1 (all weights are +-1; the Z_k checks start at
k = 2 and say nothing).  That branch is enumerated directly - the
lambda profile pins both multisets.

naive_oracle does none of this: it walks the full product of per-point
weight multisets, applies the same filter to each candidate, and must
agree with the enumerator exactly.  Slot orderings of the same multiset
are the same system, so the oracle iterates multisets, listed by the
negative counts allowed at each point: a lambda profile's one per point,
or, unrestricted, every lambda in 0..n at every point.  The 1e8 guard on
the number of candidates so walked is counted from the same counts.  The
walk goes by largest |weight| t, one sub-product per t and per first
point reaching t, so each candidate falls in exactly one; t is only the
bucket its failures go to.  Inside a sub-product the candidates go by
pairing-excess class, and only those whose excess vectors add to 0 are
listed: every other one fails pairing, so it is counted as a node killed
there, as the sieve would, without being built.

The enumerator, the oracle and the replay premise pools share one sieve
(_sieve: run a plan of checks, count nodes and failures, keep survivors'
canonical point tuples), each building its _filter_plan once: the full
filter over d-branches or staged generation, over the raw product, and a
subset of the checks over staged generation (a pool drops the counts).
sum_p 1/P_p = 0 fixes the last point's weight product from the others'
(-P1 for two points, -P1 P2 / (P1 + P2) for three): the target
(_last_product; 0, which no closure reaches, when no integer fits).
Both generators close the last point with _last_points: given
the target, it lists only the closures with that product and counts the
rest.  A pool whose checks include localization drops the count (each
cut candidate fails the check its sieve runs); a three-point d-branch
counts each as a node killed at localization, as the sieve would.  The
enumerator's staged path makes no cut.

The sieve decides on the candidate's ascending weight tuples: every
check of the filter table is a predicate on the tuples (localization by
integer cross-multiplication, isotropy at the closed orders, the gcds of
sets of |w|), so no candidate is built to be rejected.  The loop tests
pairing itself and the other predicates inline, and adds a d-branch's or
an oracle level's failures to the bucket of its largest |weight| once
per call (a staged path's go one by one).  Survivors stay canonical
tuples until they leave the search, where one FixedPointSystem is built
per distinct survivor.  first_failure runs the same predicates on a
system's points.

replay_lemma re-derives the statements the search machinery leans on
from weaker premise sets, over every candidate in a bounded scope, and
treats any counterexample as an alarm worth crashing on.  A replay is a
pool of systems and a statement yielding one (holds, detail) per
assertion; replay_lemma alone counts them and records the failures.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import chain, combinations_with_replacement, groupby, permutations, product
from operator import itemgetter

from .constraints import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    _chern1_binds,
    _count_symmetric,
    lambda_symmetry_check,
    pairing_check,
)
from .core import FixedPointSystem, _canonical_points, lambda_count, largest_weight
from .isotropy import (
    FILTER_CHECKS,
    _cp2_points,
    _dim6_points,
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
    points fail, or None: each check decided by its tuple predicate,
    building nothing."""
    for check_id, _, holds in plan:
        if not holds(n, points):
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


def _signed_multisets(neg_count: int, pos_count: int, max_abs: int):
    """Ascending tuples: neg_count values from [-max_abs, -1] followed by
    pos_count from [1, max_abs]."""
    for negs in combinations_with_replacement(range(-max_abs, 0), neg_count):
        for poss in combinations_with_replacement(range(1, max_abs + 1), pos_count):
            yield negs + poss


def _excess(points, top):
    """The pairing excess of the weights of points, all |weights| <= top:
    e[x] = count(x) - count(-x) for x in 0..top (e[0] = 0)."""
    excess = [0] * (top + 1)
    for x in chain.from_iterable(points):
        excess[abs(x)] += 1 if x > 0 else -1
    return excess


def _factorizations(r, k, hi, lo=1):
    """Ascending k-tuples of factors in [lo, hi] whose product is r, in
    lexicographic order."""
    if k == 0:
        if r == 1:
            yield ()
        return
    # every later factor is at least f, so f^k <= r
    f = lo
    while f <= hi and f**k <= r:
        if r % f == 0:
            for tail in _factorizations(r // f, k - 1, hi, f):
                yield (f,) + tail
        f += 1


def _lifts(others, down_count, d):
    """Every distinct w over v's weights beside -d: class r mod d sends
    j_r of its m_r members to r - d and keeps the rest at r, sum j_r =
    down_count.  Yields (w, excess): w ascending, ending in d, and the
    pairing excess of v and w (_excess; +-d cancel)."""
    classes = sorted(Counter(x % d for x in others).items())
    # the product of the classes' j_r; the last class takes what is left
    *free, top = [m for _, m in classes] or [0]
    excess = _excess((others,), d - 1)
    for js in product(*(range(min(m, down_count) + 1) for m in free)):
        last = down_count - sum(js)
        if not 0 <= last <= top:
            continue
        joint = excess.copy()
        downs, ups = [], []
        for (r, m), j in zip(classes, js + (last,)):
            joint[r] += m - j  # m - j members stay at r
            joint[d - r] -= j  # j members go to r - d = -(d - r)
            downs += [r - d] * j
            ups += [r] * (m - j)
        yield tuple(downs + ups) + (d,), joint


def _free_points(neg_count, pos_count, max_abs, total, chern_on, stats):
    """neg_count weights from [-max_abs, -1], then pos_count from [1,
    max_abs], ascending (_signed_multisets).  With chern_on only those
    summing to total are listed, the positives by that sum, and the rest
    are counted as chern_linear prunes."""
    if not chern_on:
        yield from _signed_multisets(neg_count, pos_count, max_abs)
        return
    poss = sorted(combinations_with_replacement(range(1, max_abs + 1), pos_count), key=sum)
    by_sum = {key: list(group) for key, group in groupby(poss, sum)}
    for negs in combinations_with_replacement(range(-max_abs, 0), neg_count):
        fits = by_sum.get(total - sum(negs), ())
        if len(fits) < len(poss):
            stats.pruned["chern_linear"] += len(poss) - len(fits)
        yield from (negs + ws for ws in fits)


def _last_points(excess, n, lam, max_val, chern_on, pairing_complete, stats, target=None):
    """(points, missed): the last point's multisets given the pairing
    excess of the other points (_excess), and how many went unlisted.

    The points are every free multiset, or the closures of the excess:
    the weights it forces on an n-weight point with lam negatives and
    `pairs` {l, -l} pairs, l in [1, max_val]; a pairing_completion prune
    if none close.  Given the last point's weight product target
    (_last_product), only the closures with that product are listed, and
    missed counts the rest of the C(max_val - 1 + pairs, pairs).
    """
    if not pairing_complete:
        return _free_points(lam, n - lam, max_val, 0, chern_on, stats), 0
    negs, poss = [], []
    for x, e in enumerate(excess):
        # each x in excess of -x needs a -x at the last point, and back
        if e > 0:
            negs += [-x] * e
        elif e < 0:
            poss += [x] * -e
    rest = n - len(negs) - len(poss)
    if rest < 0 or rest % 2 == 1 or lam != len(negs) + rest // 2:
        stats.pruned["pairing_completion"] += 1
        return (), 0
    # every generator bounds the other points by max_val (in a d-branch,
    # +-d sits at v and w and cancels), so the forced weights need no
    # bound check; and when c_1 is cut, every other point already has
    # c_1 = 0, so sum(forced) = 0
    forced, pairs = negs + poss, rest // 2
    if target is None:
        pvals = combinations_with_replacement(range(1, max_val + 1), pairs)
    else:
        # the closure's product is prod(forced) * (-1)^pairs * r^2, r the
        # product of its pair values, so r is fixed and they factorize it
        square, left = divmod(target, math.prod(forced))
        square *= (-1) ** pairs
        exact = not left and square > 0 and math.isqrt(square) ** 2 == square
        pvals = _factorizations(math.isqrt(square), pairs, max_val) if exact else ()
    points = [tuple(sorted(forced + list(p) + [-v for v in p])) for p in pvals]
    if target is None:
        return points, 0
    return points, math.comb(max_val - 1 + pairs, pairs) - len(points)


def _dbranch_candidates(n, d, profile, chern_on, pairing_complete, stats):
    """Candidates whose largest weight is exactly d, via the +-d structure.

    A three-point branch that closes its third point from the pairing
    imbalance under a count-symmetric profile (so n is even and d >= 2)
    lists only the third points hitting the localization target of v and
    w (_last_product of their products, v's taken once per v; then
    _last_points).  Each one it leaves out would pass pairing, lambda
    symmetry and parity, have largest |weight| d, and fail localization,
    so it is counted as a node the sieve killed there, in d's bucket.
    """
    point_count = len(profile)
    if point_count == 2 and d == 1:
        # every weight is +-1 and the profile determines both points
        yield tuple((-1,) * lam + (1,) * (n - lam) for lam in profile)
        return

    symmetric = _count_symmetric(n, sorted(profile))
    counted = point_count == 3 and pairing_complete and symmetric
    for ia, ib in permutations(range(point_count), 2):
        lam_a, lam_b = profile[ia], profile[ib]
        if lam_a < 1 or lam_b > n - 1:
            stats.pruned["largest_weight"] += 1
            continue
        # c_1(v) = 0 forces c_1(w) = d * (1 + lam_a - lam_b) (docstring step 5)
        if chern_on and lam_b != lam_a + 1:
            stats.pruned["chern_linear"] += 1
            continue
        # v's weights beside -d, summing to d when c_1 is cut
        for others in _free_points(lam_a - 1, n - lam_a, d - 1, d, chern_on, stats):
            ws_a = (-d,) + others
            p_a = math.prod(ws_a)
            for ws_b, excess in _lifts(others, lam_b, d):
                slots = [None] * point_count
                slots[ia], slots[ib] = ws_a, ws_b
                if point_count == 2:
                    yield tuple(slots)
                    continue
                ic = 3 - ia - ib
                thirds, missed = _last_points(
                    excess, n, profile[ic], d - 1, chern_on, pairing_complete, stats,
                    _last_product((p_a, math.prod(ws_b))) if counted else None,
                )
                if missed:
                    stats.nodes += missed
                    stats.eliminated["odd" if d % 2 else "even"]["localization"] += missed
                for ws_c in thirds:
                    slots[ic] = ws_c
                    yield tuple(slots)


def _staged_candidates(n, bound, profile, chern_on, pairing_complete, stats, localize=False):
    """Plain per-point generation (the no-largest-weight-pruning path):
    free multisets for every point but the last, then the last point.

    The heads (the points before the last) are walked grouped by weight
    product.  With localize, sum_p 1/P_p = 0 fixes the last point's
    product, the target (_last_product), decided once per product pair
    (per first product for two points).  A pair is skipped whole when no
    integer fits, when the sign is not (-1)^lam (the last point's lam
    negative weights), or when |target| > bound^n; otherwise its heads
    hand the target to _last_points, which lists only the last points
    hitting it (the count of the others is dropped).  Only candidates failing the localization check are left
    out, so a sieve running it keeps the same survivors.
    """
    # the second point's multisets are listed once: their c_1 cuts count
    # once per first point, as if listed under each
    cuts = SearchStats()
    groups = []
    for head_lam, counts in zip(profile[:-1], (stats, cuts)):
        free = _free_points(head_lam, n - head_lam, bound, 0, chern_on, counts)
        free = sorted(free, key=math.prod)
        groups.append({p: list(g) for p, g in groupby(free, math.prod)})
    if groups[0]:
        for key, count in cuts.pruned.items():
            stats.pruned[key] += count * sum(map(len, groups[0].values()))
    lam = profile[-1]
    for pairs in product(*(g.items() for g in groups)):
        products, points = zip(*pairs)
        target = None
        if localize:
            target = _last_product(products)
            if not 0 < target * (-1) ** lam <= bound**n:
                continue
        for head in product(*points):
            lasts, _ = _last_points(
                _excess(head, bound), n, lam, bound, chern_on, pairing_complete, stats, target
            )
            for ws_last in lasts:
                yield head + (ws_last,)


def _last_product(products):
    """The last point's weight product that sum_p 1/P_p = 0 forces, given
    the other points' products: -P1 after one point, -P1 P2 / (P1 + P2)
    after two.  0 when no integer fits (P1 + P2 = 0 leaves 1/P3 = 0;
    an inexact quotient is no weight product): 0 is no weight product
    either, so no closure has it."""
    if len(products) == 1:
        return -products[0]
    p1, p2 = products
    if p1 + p2 == 0:
        return 0
    q, left = divmod(-p1 * p2, p1 + p2)
    return 0 if left else q


def _sieve(candidates, n, plan, stats, largest=None):
    """Canonical point tuples of the candidates that pass every check in
    plan (a _filter_plan), the one loop the search and the pools share.

    Every check is decided by its tuple predicate: the first (pairing on
    every plan) is tested in the loop, the others inline, and nothing is
    built.  Every candidate is a node in stats and every failure goes to
    the parity bucket of its largest |weight|: given as largest (a
    d-branch, an oracle level), the call's failures are tallied and added
    once; else each one's is taken.
    """
    (first_id, _, first), *rest = plan
    survivors, tally, first_failed, passed = set(), Counter(), 0, 0
    for points in candidates:
        if not first(n, points):
            first_failed += 1
            if largest:
                continue
            failed = first_id
        else:
            passed += 1
            for failed, _, holds in rest:
                if not holds(n, points):
                    break
            else:
                survivors.add(_canonical_points(points))
                continue
            if largest:
                tally[failed] += 1
                continue
        top = max(map(abs, chain.from_iterable(points)))
        stats.eliminated["odd" if top % 2 == 1 else "even"][failed] += 1
    stats.nodes += first_failed + passed
    if largest:
        tally[first_id] += first_failed
        stats.eliminated["odd" if largest % 2 == 1 else "even"].update(+tally)  # no zero count
    return survivors


def _run_branch(payload):
    """One top-level branch: a d-branch, or the staged path when d is None.
    Picklable."""
    config, profile, d = payload
    flags = config.prune_flags
    chern_on = flags.chern_linear and _chern1_binds(config.n, config.point_count)
    stats = SearchStats()
    generate = _staged_candidates if d is None else _dbranch_candidates
    candidates = generate(
        config.n,
        d or config.weight_bound,
        profile,
        chern_on,
        flags.pairing_completion,
        stats,
    )
    plan = _filter_plan(config.require_effective)
    return _sieve(candidates, config.n, plan, stats, largest=d), stats


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
    """Brute force: the full product of per-point weight multisets.

    No structural pruning at all - every candidate is counted, and every
    pairing-complete one is pushed through the same filter the
    enumerator uses, pairing first.  Weight order inside a point is
    meaningless (points carry multisets), so the walk is over per-point
    multisets; the 1e8 guard caps their product, which is counted with
    math.comb before any multiset is listed.  The product is walked as
    the disjoint sub-products of largest |weight| t = 1..W: with i the
    first point whose largest |weight| is t, the points before it take
    the multisets below t, point i those at t, and the points after it
    those at most t.  Each sub-product groups every point's multisets by
    excess key (_by_largest) and hands the sieve, told t for the parity
    bucket of its failures, only the products whose last point's key is
    minus the others' sum; every other candidate fails pairing, and is
    added to the nodes and to t's pairing failures without being built.
    An optional lambda_profile (one negative count per point, in point
    order) narrows each point's counts from 0..n to its own, which is how
    scopes otherwise past the guard get spot-checked.  Single-threaded on
    purpose.
    """
    n, bound = config.n, config.weight_bound
    if lambda_profile is None:
        lam_sets = (tuple(range(n + 1)),) * config.point_count
    else:
        if len(lambda_profile) != config.point_count:
            raise ValueError("lambda_profile length must equal point_count")
        if not all(0 <= lam <= n for lam in lambda_profile):
            raise ValueError("lambda_profile entries must lie in 0..n")
        lam_sets = tuple((lam,) for lam in lambda_profile)
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

    # one pool per distinct set, shared by the points that use it
    base = n * config.point_count + 1
    by_set = {lams: _by_largest(n, lams, bound, base) for lams in set(lam_sets)}
    pools = [by_set[lams] for lams in lam_sets]
    plan = _filter_plan(config.require_effective)
    stats = SearchStats()
    survivors = set()
    for t in range(1, bound + 1):
        for i in range(len(pools)):
            # i is the first point reaching t: the points before it stay
            # below t, the points after it at most t
            factors = [
                ranked[ends[t - 1] if j == i else 0 : ends[t if j >= i else t - 1]]
                for j, (ranked, ends) in enumerate(pools)
            ]
            # a candidate passes pairing only with its last point in the
            # excess class at minus the others'; every other one fails it
            *heads, last = (
                {e: [ws for _, ws in g] for e, g in groupby(sorted(f), itemgetter(0))}
                for f in factors
            )
            listed, missed = [], math.prod(map(len, factors))
            for classes in product(*(head.items() for head in heads)):
                keys, groups = zip(*classes)
                closing = last.get(-sum(keys), ())
                listed.append(product(*groups, closing))
                missed -= math.prod(map(len, groups)) * len(closing)
            survivors |= _sieve(chain.from_iterable(listed), n, plan, stats, largest=t)
            if missed:
                stats.nodes += missed
                stats.eliminated["odd" if t % 2 else "even"]["pairing"] += missed
    return SearchOutcome(_systems(n, survivors), stats)


def _by_largest(n, lams, bound, base):
    """(ranked, ends): the ascending multisets of n weights from +-[1, bound]
    with a negative count in lams, each after its excess key
    sum_x e[x] * base**x (_excess), sorted by largest |weight|, and
    ends[t] = how many have largest |weight| <= t, for t in 0..bound.
    Keys add as excess vectors do, and a base past a candidate's sum of
    |e[x]| lets no lower entry cancel the top one: 0 iff pairing holds."""
    def largest(pair):
        return max(-pair[1][0], pair[1][-1])

    multisets = chain.from_iterable(_signed_multisets(lam, n - lam, bound) for lam in lams)
    keyed = ((sum(base**w if w > 0 else -base**-w for w in ws), ws) for ws in multisets)
    ranked = sorted(keyed, key=largest)
    return ranked, [bisect_right(ranked, t, key=largest) for t in range(bound + 1)]


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
    """Canonical representatives passing just `checks`, within the bound.

    Generation is staged per lambda profile with the final point closed
    from the pairing imbalance, so "pairing" must be in the check set;
    profiles are restricted only when lambda_symmetry is being assumed.
    When "localization" is in the set, the final point is also cut by its
    target, decided once per weight-product pair of the head, which skips
    a pair's heads whole when the target has the wrong sign or size (see
    _staged_candidates): the sieve below rejects every candidate so
    dropped, so the pool is what the uncut generation gives.
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


def _survivor_pool(scope):
    """The enumerator's survivors, effective or not."""
    return enumerate_systems(replace(scope, require_effective=False)).survivors


def _premise_pool(checks, scope):
    """The systems in scope passing just `checks` (see _partial_pool)."""
    return _partial_pool(scope.n, scope.point_count, scope.weight_bound, checks)


def _family_pool(scope):
    """Both families for every a + b <= W: two systems per (a, b)."""
    bound = scope.weight_bound
    return tuple(
        system
        for a in range(1, bound)
        for b in range(1, bound - a + 1)
        for system in (cp2_family(a, b), dim6_pair_family(a, b))
    )


def _scope_pool(scope):
    """The scope's own survivors."""
    return enumerate_systems(scope).survivors


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
    d, sv, sw = _largest_weight_holders(system)
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
