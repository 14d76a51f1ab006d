"""The search's candidate generators and the point generators they share.

- _dbranch_candidates: the enumerator's branches, one per lambda
  profile and largest weight d, through the +-d structure: w's weights
  are lifts of v's residues mod d, walked by class (_classes);
- _staged_candidates: heads of free multisets, each closed by a lookup
  of the last point; the enumerator's walk without largest-weight
  pruning and the replay pools' walk;
- _oracle_slices: the oracle's full product, one slice per largest
  |weight|, settled up to localization by class and product lookup
  (_slice_candidates): the lambda-only checks once per lambda tuple,
  and each passing class tuple closed through the larger of its last
  two classes; with every point on one pool, only the candidates whose
  points ascend.

The point generators: free multisets (_signed_multisets, cut by c_1 in
_free_points), the closures of forced weights (_closures), the pairing
excess as one integer (_excess_key), and the weight product that
localization forces on the one point left out (_last_product).
"""

import math
from bisect import bisect_right
from collections import Counter
from itertools import chain, combinations_with_replacement, groupby, permutations, product

from .constraints import _count_symmetric


def _signed_multisets(neg_count: int, pos_count: int, max_abs: int):
    """Ascending tuples: neg_count values from [-max_abs, -1] followed by
    pos_count from [1, max_abs]."""
    for negs in combinations_with_replacement(range(-max_abs, 0), neg_count):
        for poss in combinations_with_replacement(range(1, max_abs + 1), pos_count):
            yield negs + poss


def _mirror(ws):
    """The point ws with the action reversed: every weight negated, in
    ascending order again."""
    return tuple(-w for w in reversed(ws))


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


def _free_points(neg_count, pos_count, max_abs, total, chern_on, stats, scale=1):
    """neg_count weights from [-max_abs, -1], then pos_count from [1,
    max_abs], ascending (_signed_multisets).  With chern_on only those
    summing to total are listed, the positives by that sum, and the rest
    are counted as chern_linear prunes, scale times each."""
    if not chern_on:
        yield from _signed_multisets(neg_count, pos_count, max_abs)
        return
    poss = sorted(combinations_with_replacement(range(1, max_abs + 1), pos_count), key=sum)
    by_sum = {key: list(group) for key, group in groupby(poss, sum)}
    for negs in combinations_with_replacement(range(-max_abs, 0), neg_count):
        fits = by_sum.get(total - sum(negs), ())
        if len(fits) < len(poss):
            stats.pruned["chern_linear"] += (len(poss) - len(fits)) * scale
        yield from (negs + ws for ws in fits)


def _closures(forced, pvals):
    """The points holding forced and a pair {l, -l} per l of each tuple
    of pvals."""
    return [tuple(sorted(forced + list(p) + [-v for v in p])) for p in pvals]


def _last_product(products):
    """The weight product that sum_p 1/P_p = 0 forces on the point left
    out, given the other points' products (the sum is symmetric, so that
    point may be any one): -P1 after one point, -P1 P2 / (P1 + P2) after
    two.  0 when no integer fits (P1 + P2 = 0 leaves 1/P3 = 0;
    an inexact quotient is no weight product): 0 is no weight product
    either, so no closure has it."""
    if len(products) == 1:
        return -products[0]
    p1, p2 = products
    if p1 + p2 == 0:
        return 0
    q, left = divmod(-p1 * p2, p1 + p2)
    return 0 if left else q


def _excess_key(ws, base):
    """sum_x e[x] * base**x over the pairing excess e[x] = count(x) -
    count(-x) of the weights ws, x >= 1, as one integer.  Keys add as
    excess vectors do, and a base past the sum of |e[x]| over the points
    whose keys are added (n times the point count, for a candidate's
    points) lets no lower entry cancel the top one: the sum is 0 iff
    their excess vectors cancel, that is iff their weights pair.  Base 0
    keys every multiset 0, as no weight is 0."""
    return sum(base**w if w > 0 else -(base**-w) for w in ws)


def _staged_candidates(n, bound, profile, chern_on, pairing_complete, stats, localize=False):
    """Plain per-point generation (the no-largest-weight-pruning path):
    free multisets for every point but the last, then the last point.

    The heads (the points before the last) are walked grouped by weight
    product.  At the first product pair left, the last point's multisets,
    cut by c_1 as the heads are, are listed once and keyed by (excess key
    (_excess_key), weight product), and each head is keyed once.  A head
    closes by one lookup at minus its key: exactly the closures of its
    pairing excess, so no head's excess is taken; without localize a head
    with none is one pairing_completion prune.  Without pairing
    completion every point keys 0, so each head takes every last point,
    whose c_1 cuts count once per head.
    With localize (the pools' path), a profile whose lambdas share one
    parity lists nothing: each product has the sign (-1)^lam, so sum_p
    1/P_p != 0.  Otherwise sum_p 1/P_p = 0 fixes the last point's product,
    the target (_last_product), decided once per product pair.  A pair is
    skipped whole when no integer fits, when the sign is not (-1)^lam (the
    last point's lam negatives), or when |target| > bound^n, and a head
    takes only its closures at the target.  Only candidates failing the
    localization check are left out, so a sieve running it keeps the same
    survivors; the pools drop the counts.
    Under a self-mirror three-point profile, reversing the action (x' is
    x negated, ascending) maps the listed (a, b, c) onto (c', b', a') and
    keeps every verdict and the canonical form, so the pools list one of
    each pair: b < b', or b = b' (excess key 0, so c closes a alone) and
    a <= c'.
    """
    groups = []
    for head_lam in profile[:-1]:
        # the second point's multisets are listed once: their c_1 cuts
        # count once per first point, as if listed under each
        scale = sum(map(len, groups[0].values())) if groups else 1
        free = _free_points(head_lam, n - head_lam, bound, 0, chern_on, stats, scale)
        free = sorted(free, key=math.prod)
        groups.append({p: list(g) for p, g in groupby(free, math.prod)})
    lam = profile[-1]
    if localize and len({x % 2 for x in profile}) == 1:
        return
    heads = math.prod(sum(map(len, g.values())) for g in groups)
    # one of each reversal pair: b < b' in the head walk, b = b' after it
    selfs = {}
    if localize and len(profile) == 3 and _count_symmetric(n, list(profile)):
        for p, g in groups[1].items():
            groups[1][p] = [b for b in g if b < _mirror(b)]
            selfs[p] = [b for b in g if b == _mirror(b)]
    # base 0 keys every point 0: each head takes every last point
    base = n * len(profile) + 1 if pairing_complete else 0
    # listed at the first pair left: a profile with none lists no last point
    lasts, target, unclosed = None, None, 0
    for products in product(*groups):
        if localize:
            target = _last_product(products)
            if not 0 < target * (-1) ** lam <= bound**n:
                continue
        if lasts is None:
            key_of = {ws: _excess_key(ws, base) for g in groups for ws in chain(*g.values())}
            lasts = {}
            # c_1 = 0 heads close at c_1 = 0, so with pairing completion
            # the cut drops no closure and counts nothing; without it, it
            # counts once per head
            cuts = 0 if pairing_complete else heads
            for ws in _free_points(lam, n - lam, bound, 0, chern_on, stats, cuts):
                key = _excess_key(ws, base), math.prod(ws) if localize else None
                lasts.setdefault(key, []).append(ws)
        for head in product(*(g[p] for g, p in zip(groups, products))):
            closing = lasts.get((-sum(map(key_of.__getitem__, head)), target))
            if closing is None:
                unclosed += 1
                continue
            for ws_last in closing:
                yield head + (ws_last,)
        for a, b in product(groups[0][products[0]], selfs.get(products[-1], ())):
            for c in lasts.get((-key_of[a], target), ()):
                if a <= _mirror(c):
                    yield a, b, c
    # with localize a head may miss only the target; the pools drop counts
    if unclosed and pairing_complete and not localize:
        stats.pruned["pairing_completion"] += unclosed


def _classes(others, d, downs, budget):
    """(lifts, classes): how many lifts of v's weights beside -d send
    `downs` of them down, and those lifts by class.  Class r mod d sends
    j_r of its m_r members to r - d and keeps the rest at r.  In a residue
    pair {x, y = d - x}, the joint excess of v and w at x and y depends
    only on s = j_x + j_y (e[x] = a - s, e[y] = b - s), so a class takes
    one s per pair.  It is listed as (downs, forced, picks): forced the
    weights its excess puts on the third point (-x per unit of e[x] > 0,
    x per unit below 0), and one (x, y, m_x, m_y, s) per pair.  A class is
    cut as soon as its pairs so far force more than budget weights.
    lifts is read off prod_r (1 + X + ... + X^m_r) at X = 2^(len(others)
    + 1), past every coefficient.
    """
    width, lifts, room, classes = len(others) + 1, 1, len(others), [(0, [], ())]
    for x in {min(w % d, -w % d) for w in others}:
        # class x holds x and x - d = -y, class y holds y and -x
        y, up, down = d - x, others.count(x), others.count(-x)
        mx, my = up + others.count(-y), others.count(y) + down
        a, b = up - down + mx, others.count(y) - others.count(-y) + my
        if x == y:  # one class: a down turns x into -x, 2 off e[x]
            my, a, b = 0, up, up
        for m in (mx, my):
            lifts *= ((1 << width * (m + 1)) - 1) // ((1 << width) - 1)
        room -= mx + my  # what the later pairs can still send down
        classes = [
            (t + s, forced + [-x] * (a - s) + [x] * (s - a) + [-y] * (b - s) + [y] * (s - b),
             picks + ((x, y, mx, my, s),))
            for t, forced, picks in classes
            for s in range(max(0, downs - t - room), min(mx + my, downs - t) + 1)
            if len(forced) + abs(a - s) + abs(b - s) <= budget
        ]
    return lifts >> width * downs & (1 << width) - 1, classes


def _dbranch_candidates(n, d, profile, chern_on, pairing_complete, stats):
    """Candidates whose largest weight is exactly d, via the +-d structure,
    as (scale, candidates) streams: one per (v slot, w slot) branch that
    walks its lifts, each candidate standing for scale of them.

    For d >= 2 the filter puts d and -d once each, at distinct points:
    for three points by the largest-weight structure, for two by the Z_d
    classification (its two-point shapes reduce to the sphere pair {d},
    {-d}, since a' + b' >= 2d would pass d).  So v holds -d once and its
    other weights lie in [-(d-1), d-1], and w holds +d and a lift of
    them: a weight of residue r in (0, d) is r or r - d, and only r - d
    is negative, so lambda(w) downs are spread over the residue classes.
    With c_1 cut, v's other weights sum to d, and then every lift has
    c_1(w) = d (1 + lambda(v) - lambda(w)).
    v's lifts are walked by class (_classes), and each candidate left out
    is counted as the sieve or generation would, in d's bucket.  A
    class's lifts are the product of its pairs' lifts; each pair's are
    listed once per branch, on a pick's first use, and shared by the
    branch's classes and v's.
    Two points pair only in the class with no excess left (+-d cancel,
    every other |w| is below d); the other lifts die at pairing.  A third
    point closing by pairing takes the weights its class forces and pad
    pairs {l, -l}, l in [1, d - 1]: a class forcing more than n weights,
    an odd number of pads short or the wrong lambda closes none, and its
    lifts are pairing_completion prunes.  Under a count-symmetric
    (ascending) profile, so n is even and d >= 2, every other class
    closes, and each of its lifts takes the localization target of v and
    w (_last_product of their products) and lists only the closures with
    that product, building w only then; the others die at localization.
    Without pairing completion the third points are free (_free_points).
    A count-symmetric three-point profile is self-mirror: reversing the
    action maps the branch (ia, ib) onto its twin (2 - ib, 2 - ia).  Of
    two distinct twins the lower walks its lifts and lists each candidate
    once, at scale 2: it stands for itself and for its reversal (points
    in reverse order, each negated and ascending), which the twin would
    list, and every check's verdict and the canonical form are the same
    on both.  Its pairing and localization drops and its per-lift prunes
    count twice.  The higher lists only its v's, whose chern_linear
    prunes are its own.
    """
    point_count = len(profile)
    if point_count == 2 and d == 1:
        # every weight is +-1, which no Z_k check (k >= 2) reads, and the
        # profile determines both points
        yield 1, [tuple((-1,) * lam + (1,) * (n - lam) for lam in profile)]
        return

    mirror = point_count == 3 and _count_symmetric(n, list(profile))
    for ia, ib in permutations(range(point_count), 2):
        lam_a, lam_b = profile[ia], profile[ib]
        if lam_a < 1 or lam_b > n - 1:
            stats.pruned["largest_weight"] += 1
            continue
        # c_1(w) = d * (1 + lam_a - lam_b) (see above) must vanish
        if chern_on and lam_b != lam_a + 1:
            stats.pruned["chern_linear"] += 1
            continue
        twin = (2 - ib, 2 - ia)
        if mirror and twin < (ia, ib):
            # its candidates are the reversals of the twin's, which the
            # twin's stream stands for; only its v's chern_linear prunes
            # are its own
            if chern_on:
                for _ in _free_points(lam_a - 1, n - lam_a, d - 1, d, True, stats):
                    pass
            continue
        scale = 2 if mirror and twin != (ia, ib) else 1
        yield scale, _branch_candidates(
            n, d, profile, ia, ib, scale, chern_on, pairing_complete, stats
        )


def _branch_candidates(n, d, profile, ia, ib, scale, chern_on, pairing_complete, stats):
    """The candidates of one d-branch of _dbranch_candidates, -d at slot
    ia and +d at slot ib; every count it makes is scale times what it
    walked."""
    point_count = len(profile)
    closes = pairing_complete and point_count == 3
    counted = closes and _count_symmetric(n, list(profile))
    # two points pair only with no excess left, and a third point closes
    # at most n forced weights (no lift forces more than 2n - 2)
    budget = 0 if point_count == 2 else n if pairing_complete else 2 * n
    dropped = missed = 0
    lam_a, lam_b = profile[ia], profile[ib]
    slots, ic = [None] * point_count, 3 - ia - ib
    pair_lifts = {}
    # v's weights beside -d, summing to d when c_1 is cut
    for others in _free_points(lam_a - 1, n - lam_a, d - 1, d, chern_on, stats):
        slots[ia] = (-d,) + others
        p_a = math.prod(slots[ia])
        lifts, classes = _classes(others, d, lam_b, budget)
        dropped += lifts * scale
        for _, forced, picks in classes:
            for pick in picks:
                if pick not in pair_lifts:
                    # j of class x at x - d = -y, s - j of class y at
                    # -x, the rest kept
                    x, y, mx, my, s = pick
                    pair_lifts[pick] = [
                        (-y,) * j + (x,) * (mx - j) + (-x,) * (s - j) + (y,) * (my - s + j)
                        for j in range(max(0, s - my), min(s, mx) + 1)
                    ]
            parts = list(map(pair_lifts.__getitem__, picks))
            count = math.prod(map(len, parts)) * scale
            pad, odd = divmod(n - len(forced), 2)
            if counted:
                # the profile (i, n/2, n - i) has 3n/2 negatives and n
                # is even, so the class closes, with pad pairs; a
                # closure's product is prod(forced) (-1)^pad r^2, r the
                # product of the pair values
                base = math.prod(forced) * (-1) ** pad
                missed += math.comb(d - 2 + pad, pad) * count
            elif closes:
                if odd or profile[ic] != pad + sum(x < 0 for x in forced):
                    # no third point closes: its lifts stay dropped
                    continue
                thirds = _closures(forced, combinations_with_replacement(range(1, d), pad))
            dropped -= count
            for ps in product(*parts):
                if counted:
                    target = _last_product((p_a, d * math.prod(chain(*ps))))
                    square, left = divmod(target, base)
                    root = math.isqrt(max(square, 0))
                    if left or square <= 0 or root * root != square:
                        continue
                    thirds = _closures(forced, _factorizations(root, pad, d - 1))
                    missed -= len(thirds) * scale
                slots[ib] = tuple(sorted(chain(*ps))) + (d,)
                if point_count == 2:
                    yield tuple(slots)
                    continue
                if not closes:
                    lam_c = profile[ic]
                    thirds = _free_points(lam_c, n - lam_c, d - 1, 0, chern_on, stats, scale)
                for ws_c in thirds:
                    slots[ic] = ws_c
                    yield tuple(slots)
    killed = stats.eliminated["odd" if d % 2 else "even"]
    if dropped and point_count == 2:
        stats.nodes += dropped
        killed["pairing"] += dropped
    elif dropped:
        stats.pruned["pairing_completion"] += dropped
    if missed:
        stats.nodes += missed
        killed["localization"] += missed


def _by_largest(n, lams, bound, base):
    """(ranked, ends, lam_of): the ascending multisets of n weights from
    +-[1, bound] with a negative count in lams, each as (excess key,
    weight product, ws) (_excess_key), sorted by largest |weight|;
    ends[t] = how many have largest |weight| <= t, for t in 0..bound; and
    lam_of = {excess key: lambda}, as the excess fixes lambda (sum_x e[x]
    = n - 2 lambda)."""
    def largest(entry):
        return max(-entry[2][0], entry[2][-1])

    multisets = chain.from_iterable(_signed_multisets(lam, n - lam, bound) for lam in lams)
    keyed = ((_excess_key(ws, base), math.prod(ws), ws) for ws in multisets)
    ranked = sorted(keyed, key=largest)
    lam_of = {key: bisect_right(ws, 0) for key, _, ws in ranked}
    return ranked, [bisect_right(ranked, t, key=largest) for t in range(bound + 1)], lam_of


def _oracle_slices(n, lam_sets, bound, checks, stats, ascending):
    """The oracle's product as (t, candidates) streams, one per slice:
    largest |weight| t = 1..W and i, the first point whose largest |weight|
    is t.  The points before i take the multisets below t, point i those
    at t, and the points after it those at most t, so each candidate
    falls in one slice.  One ranked pool (_by_largest) per distinct
    lambda set, shared by the points that use it, and one verdict of the
    checks per ordered lambda tuple, shared by the slices.  With
    ascending (every point on one pool, search.naive_oracle) each slice
    lists only its candidates whose points are strictly ascending: a
    permutation of the points keeps t, so the slices of t together list
    one member of each orbit, for the sieve to read at scale k!."""
    base = n * len(lam_sets) + 1
    by_set = {lams: _by_largest(n, lams, bound, base) for lams in set(lam_sets)}
    pools = [by_set[lams] for lams in lam_sets]
    lam_maps = [lam_of for _, _, lam_of in pools]
    verdicts = {}
    for t in range(1, bound + 1):
        for i in range(len(pools)):
            factors = [
                ranked[ends[t - 1] if j == i else 0 : ends[t if j >= i else t - 1]]
                for j, (ranked, ends, _) in enumerate(pools)
            ]
            yield t, _slice_candidates(n, factors, lam_maps, checks, verdicts, stats, t, ascending)


def _slice_candidates(n, factors, lam_maps, checks, verdicts, stats, t, ascending):
    """The candidates of one oracle slice that pass the filter up to
    localization; every other one is counted in stats, as a node killed
    at the first check it fails, in t's bucket.

    factors holds each point's (excess key, product, ws) entries, which
    are grouped by key (_by_key).  A tuple of the other points' classes
    pairs only with the last point's class at minus its keys' sum.  A
    class's key fixes its lambda (lam_maps, one {key: lambda} per point),
    so the checks (lambda symmetry and parity, which read the lambdas
    alone) are read once per ordered lambda tuple, on one sample
    candidate, the first time a tuple with those lambdas pairs; verdicts
    keeps what they decided.  Under a tuple passing them, sum_p 1/P_p = 0
    fixes any one point's product from the others' (_last_product), so
    the walk solves for the larger of the last two classes: each head
    (one multiset per other point) looks up the last points at (that
    class's key, the product localization forces), or, when a three-point
    tuple's middle class is the larger, each (first, last) pair looks up
    the middle points the same way, in a (key, product) table of the
    middle factor built on first use.  Only those are listed, in slot
    order, and the rest of the class dies at localization.  With
    ascending, only those whose points are strictly ascending, each
    below the next, are listed (search.naive_oracle says why that is
    exact); the walk and every count stay as they are.
    """
    *heads, last = map(_by_key, factors)
    closes, middles = _by_product(factors[-1]), None
    killed = Counter(pairing=math.prod(map(len, factors)))
    for classes in product(*(head.items() for head in heads)):
        keys, members = zip(*classes)
        key = -sum(keys)
        closing = last.get(key)
        if closing is None:
            continue
        size = math.prod(map(len, members)) * len(closing)
        killed["pairing"] -= size
        lams = tuple(map(dict.__getitem__, lam_maps, keys + (key,)))
        if lams not in verdicts:
            # every candidate of the tuple has the sample's lambdas
            sample = tuple(m[0][1] for m in members) + (closing[0][1],)
            verdicts[lams] = next((cid for cid, _, read in checks if read(n, sample) is not None), None)
        failed = verdicts[lams]
        killed[failed or "localization"] += size
        if failed:
            continue
        if len(members) == 2 and len(members[1]) > len(closing):
            if middles is None:
                middles = _by_product(factors[1])
            for (p1, a), (p3, c) in product(members[0], closing):
                fits = middles.get((keys[1], _last_product((p1, p3))))
                if fits:
                    killed["localization"] -= len(fits)
                    for b in fits:
                        if not ascending or a < b < c:
                            yield a, b, c
            continue
        for head in product(*members):
            fits = closes.get((key, _last_product([p for p, _ in head])))
            if fits:
                killed["localization"] -= len(fits)
                ws_head = tuple(ws for _, ws in head)
                if not ascending:
                    for ws in fits:
                        yield ws_head + (ws,)
                elif len(ws_head) == 1 or ws_head[0] < ws_head[1]:
                    for ws in fits:
                        if ws_head[-1] < ws:
                            yield ws_head + (ws,)
    stats.nodes += killed.total()
    stats.eliminated["odd" if t % 2 else "even"].update(+killed)


def _by_key(entries):
    """{excess key: [(weight product, ws)]} over (key, product, ws)
    entries."""
    classes = {}
    for key, p, ws in entries:
        classes.setdefault(key, []).append((p, ws))
    return classes


def _by_product(entries):
    """{(excess key, weight product): [ws]} over (key, product, ws)
    entries."""
    table = {}
    for key, p, ws in entries:
        table.setdefault((key, p), []).append(ws)
    return table
