"""Modular structure of a weight system: what survives the order-k subgroup.

The points fixed by the order-k cyclic subgroup inside the circle form a
submanifold; at a circle-fixed point its tangent weights are exactly the
weights divisible by k.  Fixed points lying in one connected component of
that submanifold must have congruent full weight multisets mod k, and for
systems with at most three fixed points each component containing fixed
points is one of four shapes:

* ISOLATED      - one point, no weight divisible by k;
* SPHERE_PAIR   - two points joined by a 2-sphere, k-divisible weights
                  {m} and {-m} for a positive multiple m of k;
* DIM6_PAIR     - two points in a 6-dimensional component, k-divisible
                  weights _dim6_points(a', b'): {a', b', -a'-b'} and
                  {a'+b', -a', -b'}, a' and b' positive multiples of k;
* CP2_TRIPLE    - all three points in a 4-dimensional component,
                  k-divisible weights _cp2_points(a', b'): {a', a'+b'},
                  {-a', b'}, {-a'-b', -b'}, a' and b' positive multiples of k.

The patterns are exact: a point's k-divisible sub-multiset must be wholly
consumed by its component's shape, so no stray multiples of k may appear.
Only one partition of the points can succeed: a point with no k-divisible
weight can only be ISOLATED and one with some never can, so the points
with k-divisible weights form the one joined block.  _read_zk reads that
forced partition alone, matching the block against one table of the three
joined shapes, _SHAPES, keyed by the sizes of the k-divisible parts;
classify_isotropy, the filter's reader (_read_isotropy) and the failing
report's walk to the smallest failing k all decide through it.  The
reader reads only the closed orders: the gcds of sets of |w|.  For any
k, with g the gcd of the |w| that k divides, the k-divisible and
g-divisible weights are the same and residues equal mod g are equal
mod k, so wherever Z_g classifies, Z_k does too.  The closed orders come
from gcds, with no factoring; only a failing report's witness and the
graph list the divisors of the weights.

On top of the classification sit three relations tied to the largest
weight d of the system (all stated with un-doubled negative-weight
counts; the doubled-index versions carry a factor 2 and -2/d on the
right-hand side):

* largest_weight_structure: d and -d each occur once, at two different
  points whose multisets agree mod d, and the third point carries no
  multiple of d;
* the index step: -d at v, +d at w, equal c_1 values and matching
  residues force lambda(w) = lambda(v) + 1;
* its generalization to unequal c_1 values,
  lam_v(M) - lam_w(M) + lam_v(Z) - lam_w(Z) = -(c1_v - c1_w)/d,
  where Z collects the d-divisible weights;
* the even-count relation for odd d:
  E_v+ - E_v- - E_w+ + E_w- = 2, counting even weights by sign.

FILTER_CHECKS, at the bottom, is the filter written once: the checks of
this module and of the constraints module as one ordered table of
(check_id, report, reader), read by the search and by check_system
alike; each report takes its verdict and its witness from one reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, isqrt

from .constraints import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    CheckResult,
    _effectivity_check,
    _read_chern1_vanishing,
    _read_effectivity,
    _read_lambda_symmetry,
    _read_localization,
    _read_pairing,
    _read_parity,
    _result,
    chern1_at,
    chern1_vanishing_check,
    lambda_symmetry_check,
    localization_check,
    pairing_check,
    parity_check,
)
from .core import FixedPointSystem, lambda_count, largest_weight

__all__ = [
    "ISOLATED",
    "SPHERE_PAIR",
    "DIM6_PAIR",
    "CP2_TRIPLE",
    "IsotropyComponent",
    "IsotropyDecomposition",
    "IsotropyRejection",
    "isotropy_orders",
    "sub_multiset_mod_k",
    "residues_match",
    "classify_isotropy",
    "largest_weight_structure",
    "lambda_step_check",
    "component_lambda_relation",
    "even_count_relation_check",
    "isotropy_consistency_check",
    "structure_relation_checks",
    "FILTER_CHECKS",
]

ISOLATED = "ISOLATED"
SPHERE_PAIR = "SPHERE_PAIR"
DIM6_PAIR = "DIM6_PAIR"
CP2_TRIPLE = "CP2_TRIPLE"


@dataclass(frozen=True)
class IsotropyComponent:
    """One component of the Z_k fixed set that contains fixed points.

    params is () for ISOLATED, (m,) for SPHERE_PAIR and (a', b') for the
    two patterns built from a pair of positive multiples of k.
    """

    kind: str
    labels: tuple[str, ...]
    params: tuple[int, ...]


@dataclass(frozen=True)
class IsotropyDecomposition:
    k: int
    components: tuple[IsotropyComponent, ...]

    def __bool__(self) -> bool:
        return True

    def component_of(self, label: str) -> IsotropyComponent:
        for c in self.components:
            if label in c.labels:
                return c
        raise KeyError(label)


@dataclass(frozen=True)
class IsotropyRejection:
    """Why Z_k fails: one (forced partition, first violated invariant)."""

    k: int
    failures: tuple[tuple[str, str], ...]

    def __bool__(self) -> bool:
        return False


def isotropy_orders(weights) -> list[int]:
    """The k >= 2 dividing at least one weight, ascending.

    Only these Z_k can join fixed points: for any other k no weight is
    divisible by k, every point is ISOLATED and the classification
    succeeds.  The divisors come from trial division up to isqrt(|w|),
    so the cost grows with the square root of the largest weight; the
    filter's verdict needs only the _closed_orders among them.
    """
    orders = set()
    for m in {abs(w) for w in weights}:
        for i in range(1, isqrt(m) + 1):
            if m % i == 0:
                orders.update((i, m // i))
    orders.discard(1)
    return sorted(orders)


def _closed_orders(weights) -> set[int]:
    """The gcds >= 2 of the non-empty sets of |w|: the k at which Z_k
    can fail first (see the module docstring), found without factoring."""
    closed = set()
    for m in {abs(w) for w in weights}:
        closed |= {gcd(m, g) for g in closed}
        closed.add(m)
    closed.discard(1)
    return closed


def sub_multiset_mod_k(ws: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The weights divisible by k: tangent weights along the Z_k component.
    An ascending tuple when ws is."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return tuple(w for w in ws if w % k == 0)


def residues_match(a: tuple[int, ...], b: tuple[int, ...], k: int) -> bool:
    """Equality of the residue multisets mod k (representatives 0..k-1).

    Equivalent to a bijection between the multisets matching each weight
    with one congruent to it mod k.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(a) != len(b):
        raise ValueError("multiset sizes differ: %d vs %d" % (len(a), len(b)))
    return sorted(w % k for w in a) == sorted(w % k for w in b)


def _cp2_points(a: int, b: int):
    """The CP2 triple {a, a+b}, {-a, b}, {-a-b, -b} as ascending tuples in
    canonical order, for positive a and b."""
    return ((a, a + b), (-a, b), (-a - b, -b))


def _dim6_points(a: int, b: int):
    """The dim-6 pair {a, b, -a-b}, {a+b, -a, -b}; ascending tuples in
    canonical order when 0 < a <= b."""
    return ((-a - b, a, b), (-b, -a, a + b))


# The joined shapes by the sizes of their k-divisible parts: the kind, the
# parameters read off the parts in ascending order, and the parts those
# parameters build.  The sign patterns of a shape's parts differ, so at
# most one order of a block's parts takes the shape's roles.
_SHAPES = {
    (1, 1): (SPHERE_PAIR, lambda parts: (parts[1][0],), lambda m: ((m,), (-m,))),
    (3, 3): (DIM6_PAIR, lambda parts: parts[0][1:], _dim6_points),
    (2, 2, 2): (CP2_TRIPLE, lambda parts: (-parts[1][0], parts[1][1]), _cp2_points),
}


def _match_shape(parts):
    """(kind, params) of the joined shape whose parts are the k-divisible
    parts of a block's points, in any order, or None."""
    shape = _SHAPES.get(tuple(map(len, parts)))
    if shape is None:
        return None
    kind, read, build = shape
    parts = sorted(parts)
    params = read(parts)
    if min(params) <= 0 or parts != sorted(build(*params)):
        return None
    return kind, params


def _read_zk(points, k):
    """The one Z_k partition that can succeed, read off the ascending
    weight tuples as (block, shape, broken): block the indices of the
    points with k-divisible weights, the one joined block; shape its
    (kind, params) and broken None when Z_k classifies, else the first
    invariant broken: "lone" (one point), "shape" (no shape matches) or
    (i, j), i the block's first point and j the first whose residues mod
    k differ from i's.  Builds no text: most readings of the filter fail."""
    block, parts = [], []
    for i, ws in enumerate(points):
        part = tuple(w for w in ws if w % k == 0)
        if part:
            block.append(i)
            parts.append(part)
    if len(block) < 2:
        return block, None, "lone" if block else None
    shape = _match_shape(parts)
    if shape is None:
        return block, None, "shape"
    first = sorted(w % k for w in points[block[0]])
    for j in block[1:]:
        if sorted(w % k for w in points[j]) != first:
            return block, None, (block[0], j)
    return block, shape, None


def _partition_repr(labels, joined) -> str:
    """The forced partition, joined block first: "p,r | q"."""
    if len(joined) < 2:
        return " | ".join(labels)
    return " | ".join([",".join(joined)] + [lab for lab in labels if lab not in joined])


def classify_isotropy(system: FixedPointSystem, k: int):
    """The Z_k components, read from the one partition that can succeed.

    Returns an IsotropyDecomposition (truthy) on success, else an
    IsotropyRejection (falsy) holding that partition and the first
    invariant it breaks.  Labels are read in sorted order.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(system.points) > 3:
        raise ValueError("classification handles at most 3 fixed points")

    labels, points = zip(*sorted(zip(system.labels, system.points)))
    block, shape, broken = _read_zk(points, k)
    joined = tuple(labels[i] for i in block)
    if broken is None:
        components = [
            IsotropyComponent(ISOLATED, (lab,), ()) for lab in labels if lab not in joined
        ]
        if shape is not None:
            components.append(IsotropyComponent(shape[0], joined, shape[1]))
        components.sort(key=lambda c: c.labels)
        return IsotropyDecomposition(k, tuple(components))
    if broken == "lone":
        why = "point %s carries weights divisible by %d" % (joined[0], k)
    elif broken == "shape" and len(joined) == 2:
        why = "divisible weights at %s,%s match no two-point shape" % joined
    elif broken == "shape":
        why = "divisible weights match no three-point shape"
    else:
        i, j = broken
        why = "residues mod %d differ between %s and %s" % (k, labels[i], labels[j])
    return IsotropyRejection(k, ((_partition_repr(labels, joined), why),))


def _read_isotropy(n: int, points):
    """None when Z_k classifies (_read_zk) at every closed order, so at
    every k >= 2, or past three points, where it does not bind; else a
    closed order at which it fails, the first met in the set's iteration
    order, which need not be the smallest (the failing report walks the
    divisors to name that one)."""
    if len(points) <= 3:
        for k in _closed_orders(chain.from_iterable(points)):
            if _read_zk(points, k)[2] is not None:
                return k
    return None


def _read_structure(points):
    """(d, v, w, broken) off the ascending weight tuples, read as pairing
    leaves them (every |w| <= d, -d as often as d): d the largest weight,
    v and w the first points holding -d (None if none does) and +d, and
    broken None if +-d occur once each at two points whose weights agree
    mod d, else "multiplicity", "same-point" or "residues", the first
    that fails.  The third point is then clean: a multiple of d there
    would be +-d."""
    heads, tails = [ws[0] for ws in points], [ws[-1] for ws in points]
    d = max(tails)
    v = points[heads.index(-d)] if -d in heads else None
    w = points[tails.index(d)]
    if v is None or sum(ws.count(d) for ws in points) != 1:
        return d, v, w, "multiplicity"
    if v == w:  # with d once, equal tuples are one point
        return d, v, w, "same-point"
    if not _residues_match_loose(v, w, d):
        return d, v, w, "residues"
    return d, v, w, None


def _read_largest_weight_structure(n: int, points):
    """None when _read_structure finds no break or the check does not bind
    (it binds on three points that pass pairing), else the _read_structure
    tuple.  Pairing is read only when the structure breaks."""
    if len(points) != 3:
        return None
    read = _read_structure(points)
    if read[3] is None or _read_pairing(n, points) is not None:
        return None
    return read


def largest_weight_structure(system: FixedPointSystem) -> CheckResult:
    """d and -d once each at two distinct residue-matched points, third clean.

    Binding only for 3-point systems whose union multiset passes the
    pairing check; otherwise not-applicable.  Where the reading finds no
    break, pairing is read here, to tell pass from not-applicable.
    """
    read = _read_largest_weight_structure(system.n, system.points)
    if read is None:
        if len(system.points) != 3 or _read_pairing(system.n, system.points) is not None:
            return _result("largest_weight_structure", NOT_APPLICABLE)
        return _result("largest_weight_structure", PASS)
    d, _, sw, broken = read
    witness = {"d": d, "reason": broken}
    if broken == "multiplicity":
        witness["count_pos"] = sum(ws.count(d) for ws in system.points)
        witness["count_neg"] = sum(ws.count(-d) for ws in system.points)
    elif broken == "same-point":
        witness["label"] = system.labels[system.points.index(sw)]
    return _result("largest_weight_structure", FAIL, witness)


def _residues_match_loose(a, b, k: int) -> bool:
    # mod 1 everything matches; residues_match proper insists on k >= 2
    if k < 2:
        return len(a) == len(b)
    return residues_match(a, b, k)


def _equal_c1_d_pair(sv, sw, d, system) -> bool:
    """The setup of the index step and the even-count relation: d the
    largest weight, -d in the weights sv at v, +d in the weights sw at w,
    residues matching mod d, equal c_1."""
    try:
        d_top = largest_weight(system)
    except ValueError:
        return False
    return (
        d == d_top
        and -d in sv
        and d in sw
        and _residues_match_loose(sv, sw, d)
        and chern1_at(sv) == chern1_at(sw)
    )


def lambda_step_check(sv, sw, d: int, system: FixedPointSystem) -> CheckResult:
    """lambda(v) + 1 = lambda(w) under the equal-c1 largest-weight setup.

    sv and sw are the weight tuples at v and w.  Preconditions (-d at v,
    +d at w, matching residues mod d, d the largest weight, equal c_1
    values) unmet => not-applicable; unequal c_1 values are the
    generalized relation's case, not this one.
    """
    if not _equal_c1_d_pair(sv, sw, d, system):
        return _result("lambda_step", NOT_APPLICABLE)
    lv, lw = lambda_count(sv), lambda_count(sw)
    if lv + 1 != lw:
        return _result("lambda_step", FAIL, {"d": d, "lambda_v": lv, "lambda_w": lw})
    return _result("lambda_step", PASS)


def component_lambda_relation(sv, sw, d: int) -> CheckResult:
    """lam_v(M) - lam_w(M) + lam_v(Z) - lam_w(Z) = -(c1_v - c1_w)/d.

    sv and sw are the weight tuples at v and w; their d-divisible parts
    are the weights along the component Z.  Matching residues mod d make
    the two weight sums congruent mod d, so d divides the c_1 difference.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if not _residues_match_loose(sv, sw, d):
        return _result("component_lambda_relation", NOT_APPLICABLE)

    c_diff = chern1_at(sv) - chern1_at(sw)
    lhs = (
        lambda_count(sv)
        - lambda_count(sw)
        + lambda_count(x for x in sv if x % d == 0)
        - lambda_count(x for x in sw if x % d == 0)
    )
    rhs = -(c_diff // d)
    if lhs != rhs:
        return _result("component_lambda_relation", FAIL, {"d": d, "lhs": lhs, "rhs": rhs})
    return _result("component_lambda_relation", PASS)


def even_count_relation_check(sv, sw, d: int, system: FixedPointSystem) -> CheckResult:
    """For odd d: E_v+ - E_v- - E_w+ + E_w- = 2 (signed even-weight counts),
    sv and sw the weight tuples at v and w."""
    if d % 2 == 0 or not _equal_c1_d_pair(sv, sw, d, system):
        return _result("even_count_relation", NOT_APPLICABLE)

    def signed_even_counts(ms):
        plus = sum(1 for x in ms if x > 0 and x % 2 == 0)
        minus = sum(1 for x in ms if x < 0 and x % 2 == 0)
        return plus, minus

    evp, evm = signed_even_counts(sv)
    ewp, ewm = signed_even_counts(sw)
    total = evp - evm - ewp + ewm
    if total != 2:
        counts = {"E_v_plus": evp, "E_v_minus": evm, "E_w_plus": ewp, "E_w_minus": ewm}
        return _result("even_count_relation", FAIL, {"d": d, **counts, "total": total})
    return _result("even_count_relation", PASS)


def isotropy_consistency_check(system: FixedPointSystem) -> CheckResult:
    """Aggregate verdict: classify_isotropy succeeds for every k >= 2.

    The verdict is _read_isotropy's.  A failure walks isotropy_orders
    upward with _read_zk (any other k divides no weight, so every point is
    ISOLATED and the classification succeeds) to the smallest failing k,
    and classifies there once for the forced partition and the first
    invariant it breaks.
    """
    if len(system.points) > 3:
        return _result("isotropy", NOT_APPLICABLE)
    if _read_isotropy(system.n, system.points) is None:
        return _result("isotropy", PASS)
    orders = isotropy_orders(system.all_weights())
    k = next(k for k in orders if _read_zk(system.points, k)[2] is not None)
    got = classify_isotropy(system, k).failures
    failures = [{"partition": part, "violation": why} for part, why in got]
    return _result("isotropy", FAIL, {"k": k, "failures": failures})


def structure_relation_checks(system: FixedPointSystem) -> list[CheckResult]:
    """The three largest-weight relations, wired to the +-d holders.

    Only meaningful where largest_weight_structure passes; the relations
    are then evaluated for v = the point holding -d, w = the one holding
    +d.  Otherwise all three come back not-applicable.
    """
    if largest_weight_structure(system).verdict != PASS:
        return [
            _result("lambda_step", NOT_APPLICABLE),
            _result("component_lambda_relation", NOT_APPLICABLE),
            _result("even_count_relation", NOT_APPLICABLE),
        ]
    d, sv, sw, _ = _read_structure(system.points)
    return [
        lambda_step_check(sv, sw, d, system),
        component_lambda_relation(sv, sw, d),
        even_count_relation_check(sv, sw, d, system),
    ]


# The filter: every necessary condition the search, the oracle, the replay
# pools and check_system apply, as (check_id, check, read) in the order they
# are tried.  A failing system is attributed to the first check it fails.
# read(n, points) reads the check on the ascending weight tuples alone,
# building nothing: None when it holds or does not bind, else the facts it
# decided on.  The search builds a system only for a survivor;
# check(system) is the report, verdict and witness from one reading.
FILTER_CHECKS = (
    ("pairing", pairing_check, _read_pairing),
    ("lambda_symmetry", lambda_symmetry_check, _read_lambda_symmetry),
    ("parity", parity_check, _read_parity),
    ("localization", localization_check, _read_localization),
    ("chern1_vanishing", chern1_vanishing_check, _read_chern1_vanishing),
    ("largest_weight_structure", largest_weight_structure, _read_largest_weight_structure),
    ("isotropy", isotropy_consistency_check, _read_isotropy),
    ("effectivity", _effectivity_check, _read_effectivity),
)
