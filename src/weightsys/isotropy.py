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
                  weights {a', b', -a'-b'} and {a'+b', -a', -b'};
* CP2_TRIPLE    - all three points in a 4-dimensional component with
                  k-divisible weights {a'+b', a'}, {-a', b'}, {-b', -a'-b'}.

The patterns are exact: a point's k-divisible sub-multiset must be wholly
consumed by its component's shape, so no stray multiples of k may appear.
classify_isotropy searches the (at most five) set partitions of the
points for a shape assignment satisfying all of this.

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
this module and of the constraints module as one ordered table, read by
the search and by check_system alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    CheckResult,
    _effectivity_check,
    _result,
    chern1_at,
    chern1_vanishing_check,
    lambda_symmetry_check,
    localization_check,
    pairing_check,
    parity_check,
)
from .core import (
    FixedPoint,
    FixedPointSystem,
    WeightMultiset,
    lambda_count,
    largest_weight,
)

__all__ = [
    "ISOLATED",
    "SPHERE_PAIR",
    "DIM6_PAIR",
    "CP2_TRIPLE",
    "IsotropyComponent",
    "IsotropyDecomposition",
    "IsotropyRejection",
    "sub_multiset_mod_k",
    "residues_match",
    "admissible_component_shapes",
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
    """Why every partition failed: (partition, first violated invariant)."""

    k: int
    failures: tuple[tuple[str, str], ...]

    def __bool__(self) -> bool:
        return False


def sub_multiset_mod_k(ms: WeightMultiset, k: int) -> WeightMultiset:
    """The weights divisible by k: tangent weights along the Z_k component."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return WeightMultiset(tuple(w for w in ms if w % k == 0))


def residues_match(a: WeightMultiset, b: WeightMultiset, k: int) -> bool:
    """Equality of the residue multisets mod k (representatives 0..k-1).

    Equivalent to a bijection between the multisets matching each weight
    with one congruent to it mod k.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(a) != len(b):
        raise ValueError("multiset sizes differ: %d vs %d" % (len(a), len(b)))
    return sorted(w % k for w in a) == sorted(w % k for w in b)


def admissible_component_shapes(point_count: int, k: int) -> tuple[str, ...]:
    """Component shapes allowed for a block with that many fixed points."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if point_count == 1:
        return (ISOLATED,)
    if point_count == 2:
        return (SPHERE_PAIR, DIM6_PAIR)
    if point_count == 3:
        return (CP2_TRIPLE,)
    raise ValueError("component blocks have 1..3 points, got %d" % point_count)


def _match_sphere(sub_a: WeightMultiset, sub_b: WeightMultiset):
    if len(sub_a) != 1 or len(sub_b) != 1:
        return None
    x, y = sub_a.weights[0], sub_b.weights[0]
    if x != -y:
        return None
    return (abs(x),)


def _split_dim6(sub: WeightMultiset):
    # {a', b', -a'-b'}: two positives whose sum is the negated third
    ws = sub.weights
    if len(ws) != 3:
        return None
    neg = [w for w in ws if w < 0]
    pos = [w for w in ws if w > 0]
    if len(neg) != 1 or len(pos) != 2:
        return None
    if neg[0] != -(pos[0] + pos[1]):
        return None
    return (pos[0], pos[1])


def _match_dim6(sub_a: WeightMultiset, sub_b: WeightMultiset):
    for first, second in ((sub_a, sub_b), (sub_b, sub_a)):
        params = _split_dim6(first)
        if params is None:
            continue
        a, b = params
        partner = tuple(sorted((a + b, -a, -b)))
        if second.weights == partner:
            return params
    return None


def _match_cp2(subs: dict[str, WeightMultiset]):
    # roles: {a'+b', a'} / {-a', b'} / {-b', -a'-b'} over the three points
    from itertools import permutations

    best = None
    for lab1, lab2, lab3 in permutations(sorted(subs)):
        top = subs[lab1].weights
        if len(top) != 2 or top[0] <= 0:
            continue
        a = top[0]
        b = top[1] - top[0]
        if b <= 0:
            continue
        if subs[lab2].weights != tuple(sorted((-a, b))):
            continue
        if subs[lab3].weights != tuple(sorted((-b, -a - b))):
            continue
        if best is None or (a, b) < best:
            best = (a, b)
    return best


def _partition_repr(blocks) -> str:
    return " | ".join(",".join(block) for block in blocks)


def _set_partitions(labels: tuple[str, ...]):
    if len(labels) == 1:
        yield ((labels[0],),)
    elif len(labels) == 2:
        a, b = labels
        yield ((a,), (b,))
        yield ((a, b),)
    else:
        a, b, c = labels
        yield ((a,), (b,), (c,))
        yield ((a, b), (c,))
        yield ((a, c), (b,))
        yield ((b, c), (a,))
        yield ((a, b, c),)


def _try_block(block, points, subs, k):
    """Component for one block, or a string saying what failed first."""
    if len(block) == 1:
        lab = block[0]
        if len(subs[lab]) != 0:
            return "point %s carries weights divisible by %d" % (lab, k)
        return IsotropyComponent(ISOLATED, block, ())

    if len(block) == 2:
        la, lb = block
        params = _match_sphere(subs[la], subs[lb])
        kind = SPHERE_PAIR
        if params is None:
            params = _match_dim6(subs[la], subs[lb])
            kind = DIM6_PAIR
        if params is None:
            return "divisible weights at %s,%s match no two-point shape" % (la, lb)
        if not residues_match(points[la].weights, points[lb].weights, k):
            return "residues mod %d differ between %s and %s" % (k, la, lb)
        return IsotropyComponent(kind, block, params)

    params = _match_cp2({lab: subs[lab] for lab in block})
    if params is None:
        return "divisible weights match no three-point shape"
    for i in range(3):
        for j in range(i + 1, 3):
            if not residues_match(points[block[i]].weights, points[block[j]].weights, k):
                return "residues mod %d differ between %s and %s" % (
                    k,
                    block[i],
                    block[j],
                )
    return IsotropyComponent(CP2_TRIPLE, params=params, labels=block)


def classify_isotropy(system: FixedPointSystem, k: int):
    """Search all point partitions for a valid Z_k component assignment.

    Returns an IsotropyDecomposition (truthy) on success, else an
    IsotropyRejection (falsy) recording, per partition, the first
    invariant that failed.  Ambiguities cannot really arise - a point
    with no k-divisible weight can only be ISOLATED and one with some
    can never be - but the partition order is fixed anyway so the result
    is deterministic.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(system.points) > 3:
        raise ValueError("classification handles at most 3 fixed points")

    points = {p.label: p for p in system.points}
    labels = tuple(sorted(points))
    subs = {lab: sub_multiset_mod_k(points[lab].weights, k) for lab in labels}

    failures = []
    for blocks in _set_partitions(labels):
        components = []
        problem = None
        for block in blocks:
            got = _try_block(block, points, subs, k)
            if isinstance(got, str):
                problem = got
                break
            components.append(got)
        if problem is None:
            components.sort(key=lambda c: c.labels)
            return IsotropyDecomposition(k, tuple(components))
        failures.append((_partition_repr(blocks), problem))
    return IsotropyRejection(k, tuple(failures))


def largest_weight_structure(system: FixedPointSystem, pairing_ok: bool | None = None) -> CheckResult:
    """d and -d once each at two distinct residue-matched points, third clean.

    Binding only for 3-point systems whose union multiset passes the
    pairing check (worked out here unless pairing_ok asserts it);
    otherwise not-applicable.
    """
    if len(system.points) != 3:
        return _result("largest_weight_structure", NOT_APPLICABLE)
    if pairing_ok is None:
        pairing_ok = pairing_check(system).verdict == PASS
    if not pairing_ok:
        return _result("largest_weight_structure", NOT_APPLICABLE)

    d = largest_weight(system)
    n_pos = sum(p.weights.count(d) for p in system.points)
    n_neg = sum(p.weights.count(-d) for p in system.points)
    if n_pos != 1 or n_neg != 1:
        return _result(
            "largest_weight_structure",
            FAIL,
            {"d": d, "reason": "multiplicity", "count_pos": n_pos, "count_neg": n_neg},
        )
    holder_pos = next(p for p in system.points if d in p.weights)
    holder_neg = next(p for p in system.points if -d in p.weights)
    if holder_pos.label == holder_neg.label:
        return _result(
            "largest_weight_structure",
            FAIL,
            {"d": d, "reason": "same-point", "label": holder_pos.label},
        )
    (third,) = [
        p
        for p in system.points
        if p.label not in (holder_pos.label, holder_neg.label)
    ]
    if any(w % d == 0 for w in third.weights):
        return _result(
            "largest_weight_structure",
            FAIL,
            {"d": d, "reason": "third-point", "label": third.label},
        )
    if not _residues_match_loose(holder_neg.weights, holder_pos.weights, d):
        return _result(
            "largest_weight_structure",
            FAIL,
            {"d": d, "reason": "residues"},
        )
    return _result("largest_weight_structure", PASS)


def _residues_match_loose(a, b, k: int) -> bool:
    # mod 1 everything matches; residues_match proper insists on k >= 2
    if k < 2:
        return len(a) == len(b)
    return residues_match(a, b, k)


def lambda_step_check(v: FixedPoint, w: FixedPoint, d: int, system: FixedPointSystem) -> CheckResult:
    """lambda(v) + 1 = lambda(w) under the equal-c1 largest-weight setup.

    Preconditions (-d at v, +d at w, matching residues mod d, d the
    largest weight, equal c_1 values) unmet => not-applicable; unequal
    c_1 values are the generalized relation's case, not this one.
    """
    try:
        d_top = largest_weight(system)
    except ValueError:
        return _result("lambda_step", NOT_APPLICABLE)
    if (
        d != d_top
        or -d not in v.weights
        or d not in w.weights
        or not _residues_match_loose(v.weights, w.weights, d)
    ):
        return _result("lambda_step", NOT_APPLICABLE)
    if chern1_at(v.weights) != chern1_at(w.weights):
        return _result("lambda_step", NOT_APPLICABLE)
    lv, lw = lambda_count(v.weights), lambda_count(w.weights)
    if lv + 1 != lw:
        return _result(
            "lambda_step",
            FAIL,
            {"d": d, "lambda_v": lv, "lambda_w": lw},
        )
    return _result("lambda_step", PASS)


def _weights_of(x) -> WeightMultiset:
    return x.weights if isinstance(x, FixedPoint) else x


def component_lambda_relation(v, w, d: int, z_v, z_w) -> CheckResult:
    """lam_v(M) - lam_w(M) + lam_v(Z) - lam_w(Z) = -(c1_v - c1_w)/d.

    v and w may be FixedPoints or bare multisets; z_v and z_w must be
    their d-divisible sub-multisets (the weights along the component Z).
    A c_1 difference not divisible by d makes the relation unsatisfiable
    and fails outright.
    """
    sv, sw = _weights_of(v), _weights_of(w)
    zv, zw = _weights_of(z_v), _weights_of(z_w)
    if d < 1:
        raise ValueError("d must be positive")
    expected_zv = tuple(x for x in sv if x % d == 0)
    expected_zw = tuple(x for x in sw if x % d == 0)
    if zv.weights != expected_zv or zw.weights != expected_zw:
        return _result("component_lambda_relation", NOT_APPLICABLE)
    if not _residues_match_loose(sv, sw, d):
        return _result("component_lambda_relation", NOT_APPLICABLE)

    c_diff = chern1_at(sv) - chern1_at(sw)
    if c_diff % d != 0:
        return _result(
            "component_lambda_relation",
            FAIL,
            {"d": d, "c1_diff": c_diff, "reason": "indivisible"},
        )
    lhs = (
        lambda_count(sv)
        - lambda_count(sw)
        + lambda_count(zv)
        - lambda_count(zw)
    )
    rhs = -(c_diff // d)
    if lhs != rhs:
        return _result(
            "component_lambda_relation",
            FAIL,
            {"d": d, "lhs": lhs, "rhs": rhs},
        )
    return _result("component_lambda_relation", PASS)


def even_count_relation_check(v: FixedPoint, w: FixedPoint, d: int, system: FixedPointSystem) -> CheckResult:
    """For odd d: E_v+ - E_v- - E_w+ + E_w- = 2 (signed even-weight counts)."""
    if d % 2 == 0:
        return _result("even_count_relation", NOT_APPLICABLE)
    try:
        d_top = largest_weight(system)
    except ValueError:
        return _result("even_count_relation", NOT_APPLICABLE)
    if (
        d != d_top
        or -d not in v.weights
        or d not in w.weights
        or not _residues_match_loose(v.weights, w.weights, d)
        or chern1_at(v.weights) != chern1_at(w.weights)
    ):
        return _result("even_count_relation", NOT_APPLICABLE)

    def signed_even_counts(ms):
        plus = sum(1 for x in ms if x > 0 and x % 2 == 0)
        minus = sum(1 for x in ms if x < 0 and x % 2 == 0)
        return plus, minus

    evp, evm = signed_even_counts(v.weights)
    ewp, ewm = signed_even_counts(w.weights)
    total = evp - evm - ewp + ewm
    if total != 2:
        return _result(
            "even_count_relation",
            FAIL,
            {
                "d": d,
                "E_v_plus": evp,
                "E_v_minus": evm,
                "E_w_plus": ewp,
                "E_w_minus": ewm,
                "total": total,
            },
        )
    return _result("even_count_relation", PASS)


def isotropy_consistency_check(system: FixedPointSystem) -> CheckResult:
    """Aggregate verdict: classify_isotropy succeeds for every k in [2, max |w|].

    The range is exhaustive: a larger k divides no weight, so every point
    is ISOLATED and the classification succeeds.
    """
    if len(system.points) > 3:
        return _result("isotropy", NOT_APPLICABLE)
    for k in range(2, max(abs(w) for w in system.all_weights()) + 1):
        got = classify_isotropy(system, k)
        if not got:
            return _result(
                "isotropy",
                FAIL,
                {
                    "k": k,
                    "failures": [
                        {"partition": part, "violation": why}
                        for part, why in got.failures
                    ],
                },
            )
    return _result("isotropy", PASS)


def _largest_weight_holders(system: FixedPointSystem):
    """(d, v, w, z_v, z_w): the largest weight d, the points v holding -d
    and w holding +d, and their d-divisible sub-multisets."""
    d = largest_weight(system)
    v = next(p for p in system.points if -d in p.weights)
    w = next(p for p in system.points if d in p.weights)
    z_v = WeightMultiset(tuple(x for x in v.weights if x % d == 0))
    z_w = WeightMultiset(tuple(x for x in w.weights if x % d == 0))
    return d, v, w, z_v, z_w


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
    d, v, w, z_v, z_w = _largest_weight_holders(system)
    return [
        lambda_step_check(v, w, d, system),
        component_lambda_relation(v, w, d, z_v, z_w),
        even_count_relation_check(v, w, d, system),
    ]


# The filter: every necessary condition the search, the oracle, the replay
# pools and check_system apply, as (check_id, check) in the order they are
# tried.  A failing system is attributed to the first check it fails.
FILTER_CHECKS = (
    ("pairing", pairing_check),
    ("lambda_symmetry", lambda_symmetry_check),
    ("parity", parity_check),
    ("localization", localization_check),
    ("chern1_vanishing", chern1_vanishing_check),
    ("largest_weight_structure", largest_weight_structure),
    ("isotropy", isotropy_consistency_check),
    ("effectivity", _effectivity_check),
)
