"""Z_k classification and the largest-weight relations.

residues_match is checked against a direct bijection search so the
sorted-residue shortcut never drifts from the definition, and
classify_isotropy, which reads only the forced partition, against a
walk over every set partition of the points.
"""

from collections import Counter
from fractions import Fraction
from itertools import (
    combinations,
    combinations_with_replacement,
    permutations,
    product,
)

from math import prod

import pytest

from weightsys import isotropy
from weightsys.constraints import (
    ANCHORS,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    CheckResult,
    check_system,
    chern1_at,
    localization_sum,
    pairing_check,
)
from weightsys.core import FixedPointSystem, effectivity_gcd
from weightsys.graph import build_graph
from weightsys.isotropy import (
    CP2_TRIPLE,
    DIM6_PAIR,
    FILTER_CHECKS,
    ISOLATED,
    IsotropyComponent,
    IsotropyDecomposition,
    SPHERE_PAIR,
    classify_isotropy,
    component_lambda_relation,
    even_count_relation_check,
    isotropy_consistency_check,
    isotropy_orders,
    lambda_step_check,
    largest_weight_structure,
    residues_match,
    structure_relation_checks,
    sub_multiset_mod_k,
    _cp2_points,
    _dim6_points,
    _match_shape,
)
from weightsys.search import (
    SearchStats,
    _profiles,
    _staged_candidates,
    cp2_family,
    dim6_pair_family,
)


def _system(n, *weight_lists):
    return FixedPointSystem.from_weights(n, weight_lists)


def test_sub_multiset_mod_k():
    ms = (-4, -3, 2, 6)
    assert sub_multiset_mod_k(ms, 2) == (-4, 2, 6)
    assert sub_multiset_mod_k(ms, 3) == (-3, 6)
    assert sub_multiset_mod_k(ms, 5) == ()
    with pytest.raises(ValueError):
        sub_multiset_mod_k(ms, 1)


def test_residues_match_against_bijection_search():
    values = [v for v in range(-4, 5) if v != 0]

    def by_bijection(a, b, k):
        return any(
            all((x - y) % k == 0 for x, y in zip(a, perm))
            for perm in permutations(b)
        )

    for size in (1, 2, 3):
        for a in combinations_with_replacement(values, size):
            for b in combinations_with_replacement(values, size):
                for k in (2, 3, 4):
                    got = residues_match(a, b, k)
                    assert got == by_bijection(a, b, k), (a, b, k)


def test_residues_match_errors():
    with pytest.raises(ValueError):
        residues_match((1,), (1,), 1)
    with pytest.raises(ValueError):
        residues_match((1,), (1, 2), 2)


def test_classify_sphere_and_isolated():
    family_12 = _system(2, (1, 3), (-1, 2), (-3, -2))
    got = classify_isotropy(family_12, 2)
    assert got
    assert got.component_of("q").kind == SPHERE_PAIR
    assert got.component_of("q").params == (2,)
    assert got.component_of("q").labels == ("q", "r")
    assert got.component_of("p").kind == ISOLATED

    got3 = classify_isotropy(family_12, 3)
    assert got3.component_of("p").kind == SPHERE_PAIR
    assert got3.component_of("p").params == (3,)
    assert got3.component_of("q").kind == ISOLATED
    with pytest.raises(KeyError):
        got3.component_of("s")


def test_classify_cp2_triple():
    scaled = _system(2, (2, 4), (-2, 2), (-4, -2))
    got = classify_isotropy(scaled, 2)
    assert got
    assert len(got.components) == 1
    component = got.components[0]
    assert component.kind == CP2_TRIPLE
    assert component.labels == ("p", "q", "r")
    assert component.params == (2, 2)


def test_cp2_match_is_the_one_matching_role_assignment():
    # every triple of two-weight sub-multisets in [-4, 4]: at most one
    # assignment of the CP2 roles to the labels matches, and it is returned
    values = [w for w in range(-4, 5) if w]
    labels = ("p", "q", "r")
    matched = 0
    for subs in product(combinations_with_replacement(values, 2), repeat=3):
        by_label = dict(zip(labels, subs))
        matches = []
        for order in permutations(labels):
            a, top = by_label[order[0]]
            roles = tuple(by_label[label] for label in order)
            if 0 < a < top and roles == _cp2_points(a, top - a):
                matches.append((a, top - a))
        assert len(matches) <= 1, subs
        assert _match_shape(list(subs)) == (
            (CP2_TRIPLE, matches[0]) if matches else None
        ), subs
        matched += len(matches)
    # the six (a, b) with a + b <= 4, each in six label orders
    assert matched == 36


def test_two_point_match_is_the_one_matching_role_order():
    # every pair of one- or three-weight parts in [-4, 4]: at most one
    # order of the two parts is (m,), (-m,) or _dim6_points(a, b) with
    # positive parameters, and its kind and parameters are returned
    values = [w for w in range(-4, 5) if w]
    parts = [p for size in (1, 3) for p in combinations_with_replacement(values, size)]
    shapes = [(SPHERE_PAIR, (m,), ((m,), (-m,))) for m in range(1, 5)]
    shapes += [
        (DIM6_PAIR, (a, b), _dim6_points(a, b))
        for a, b in product(range(1, 5), repeat=2)
    ]
    matched = 0
    for pair in product(parts, repeat=2):
        matches = [
            (kind, params)
            for order in (pair, pair[::-1])
            for kind, params, roles in shapes
            if order == roles
        ]
        assert len(matches) <= 1, pair
        assert _match_shape(list(pair)) == (matches[0] if matches else None), pair
        matched += len(matches)
    # m = 1..4 and the four 0 < a <= b with a + b <= 4, each in two orders
    assert matched == 16


def test_successful_classification_formats_no_partition(monkeypatch):
    # the rejection text is built only once the forced partition has failed
    calls = []
    monkeypatch.setattr(
        "weightsys.isotropy._partition_repr",
        lambda labels, joined: calls.append(joined) or "",
    )
    for k in (2, 3, 4, 6):
        assert classify_isotropy(cp2_family(2, 4), k)
    assert classify_isotropy(_system(2, (1, 3), (-1, 2), (-3, -2)), 2)
    assert calls == []
    assert not classify_isotropy(_system(2, (1, 2), (-1, 2), (-2, -3)), 2)
    assert calls == [("p", "q", "r")]


def test_classify_dim6_pair():
    scaled = _system(3, (2, 2, -4), (4, -2, -2))
    got = classify_isotropy(scaled, 2)
    assert got
    assert got.components[0].kind == DIM6_PAIR
    assert got.components[0].params == (2, 2)


def test_classify_rejection_names_the_forced_partition():
    # every point carries an even weight, so Z_2 can only join all three
    got = classify_isotropy(_system(2, (1, 2), (-1, 2), (-2, -3)), 2)
    assert not got
    assert got.failures == (("p,q,r", "divisible weights match no three-point shape"),)
    # the joined block comes first, the isolated points after it
    got = classify_isotropy(_system(2, (1, 2), (-2, 3), (-3, -1)), 3)
    assert got.failures == (("q,r | p", "residues mod 3 differ between q and r"),)
    # a lone point with a divisible weight leaves every point on its own
    got = classify_isotropy(_system(2, (1, 3), (1, 1), (-3, -2)), 2)
    assert got.failures == (("p | q | r", "point r carries weights divisible by 2"),)


def test_three_point_block_failures():
    # a CP2 triple at multiples of 3 whose remaining weights clash mod 3
    clash = classify_isotropy(_system(3, (1, 3, 6), (-3, 2, 3), (-6, -3, 1)), 3)
    assert clash.failures[-1] == ("p,q,r", "residues mod 3 differ between p and q")
    # a top role with equal entries would need b' = 0
    flat = classify_isotropy(_system(2, (3, 3), (-3, 1), (-3, -1)), 3)
    assert flat.failures[-1] == (
        "p,q,r",
        "divisible weights match no three-point shape",
    )


def test_one_point_partition_witness():
    got = check_system(_system(2, (2, 4))).by_id("isotropy")
    assert got.witness == {
        "k": 2,
        "failures": [
            {"partition": "p", "violation": "point p carries weights divisible by 2"}
        ],
    }


def test_classify_errors():
    system = _system(1, (1,), (-1,))
    with pytest.raises(ValueError):
        classify_isotropy(system, 1)
    four = FixedPointSystem.from_weights(1, [(1,), (-1,), (2,), (-2,)])
    with pytest.raises(ValueError):
        classify_isotropy(four, 2)


def test_largest_weight_structure_passes_families():
    for a in range(1, 4):
        for b in range(1, 4):
            family = _system(2, (a, a + b), (-a, b), (-b, -a - b))
            assert largest_weight_structure(family).verdict == PASS


def test_largest_weight_structure_not_applicable():
    two = _system(3, (1, 2, -3), (3, -1, -2))
    assert largest_weight_structure(two).verdict == NOT_APPLICABLE
    unpaired = _system(2, (1, 2), (-1, 2), (-2, -3))
    assert largest_weight_structure(unpaired).verdict == NOT_APPLICABLE
    # the -8 has no +8 partner
    unpaired_multiple = _system(2, (1, 4), (-4, 3), (-8, 2))
    assert largest_weight_structure(unpaired_multiple).verdict == NOT_APPLICABLE


def test_largest_weight_structure_multiplicity():
    system = _system(2, (4, 4), (-4, 1), (-4, -1))
    got = largest_weight_structure(system)
    assert got.verdict == FAIL
    assert got.witness["reason"] == "multiplicity"
    assert got.witness["count_pos"] == 2


def test_largest_weight_structure_same_point():
    got = largest_weight_structure(_system(2, (-4, 4), (1, 2), (-2, -1)))
    assert got.verdict == FAIL
    assert got.witness == {"d": 4, "reason": "same-point", "label": "p"}


def test_largest_weight_structure_residue_clash():
    system = _system(
        4, (-4, 1, 1, 2), (-2, -1, 1, 2), (-2, -1, -1, 4)
    )
    got = largest_weight_structure(system)
    assert got.verdict == FAIL
    assert got.witness == {"d": 4, "reason": "residues"}


def _t26(a, b):
    return _system(3, (a, b, -a - b), (a + b, -a, -b))


def test_lambda_step_on_the_two_point_family():
    system = _t26(1, 2)
    v, w = system.points
    got = lambda_step_check(v, w, 3, system)
    assert got.verdict == PASS


def test_lambda_step_failure():
    system = _system(3, (-3, 1, 2), (3, 1, -4))
    v, w = system.points
    got = lambda_step_check(v, w, 3, system)
    assert got.verdict == FAIL
    assert got.witness == {"d": 3, "lambda_v": 1, "lambda_w": 1}


def test_lambda_step_not_applicable():
    system = _t26(1, 2)
    v, w = system.points
    # wrong d
    assert lambda_step_check(v, w, 2, system).verdict == NOT_APPLICABLE
    # swapped roles: -d is not at w
    assert lambda_step_check(w, v, 3, system).verdict == NOT_APPLICABLE
    # unequal c1 values belong to the generalized relation
    family = _system(2, (1, 3), (-1, 2), (-3, -2))
    w2, _, v2 = family.points
    assert lambda_step_check(v2, w2, 3, family).verdict == NOT_APPLICABLE
    # no positive weight, so no largest weight d
    negative = _system(1, (-1,), (-1,))
    assert lambda_step_check((-1,), (1,), 1, negative).verdict == NOT_APPLICABLE


def test_component_lambda_relation_worked_example():
    # v = {-3, -2}, w = {1, 3}, d = 3: both sides equal 3
    got = component_lambda_relation((-3, -2), (1, 3), 3)
    assert got.verdict == PASS


def test_component_lambda_relation_fails_and_not_applicable():
    # residues (1, 1) match mod 3: lhs = 1 - 0, rhs = -(-4 - 2) / 3 = 2
    got = component_lambda_relation((-5, 1), (1, 1), 3)
    assert got.verdict == FAIL
    assert got.witness == {"d": 3, "lhs": 1, "rhs": 2}
    # residues (1, 2) and (1, 1) differ mod 3
    got = component_lambda_relation((1, 2), (1, 1), 3)
    assert got.verdict == NOT_APPLICABLE
    with pytest.raises(ValueError, match="d must be positive"):
        component_lambda_relation((-3, -2), (1, 3), 0)


def test_matching_residues_make_the_c1_difference_divisible():
    values = [w for w in range(-6, 7) if w]
    points = list(combinations_with_replacement(values, 2))
    for d in range(2, 7):
        for sv, sw in product(points, repeat=2):
            if residues_match(sv, sw, d):
                assert (sum(sv) - sum(sw)) % d == 0, (sv, sw, d)


def test_component_lambda_relation_on_point_weights():
    system = _t26(2, 3)
    v, w = system.points
    assert component_lambda_relation(v, w, 5).verdict == PASS


def test_even_count_relation_worked_example():
    system = _t26(1, 2)
    v, w = system.points
    got = even_count_relation_check(v, w, 3, system)
    assert got.verdict == PASS


def test_even_count_relation_failure():
    system = _system(3, (-3, -2, 1), (3, -2, -5))
    v, w = system.points
    got = even_count_relation_check(v, w, 3, system)
    assert got.verdict == FAIL
    assert got.witness["total"] == 0


def test_even_count_relation_even_d_not_applicable():
    system = _system(2, (-2, 1), (2, 1))
    v, w = system.points
    assert even_count_relation_check(v, w, 2, system).verdict == NOT_APPLICABLE


def test_isotropy_consistency_witness():
    got = isotropy_consistency_check(_system(2, (1, 2), (-1, 2), (-2, -3)))
    assert got.verdict == FAIL
    assert got.witness["k"] == 2
    assert got.witness["failures"] == [
        {"partition": "p,q,r", "violation": "divisible weights match no three-point shape"}
    ]
    four = FixedPointSystem.from_weights(1, [(1,), (-1,), (2,), (-2,)])
    assert isotropy_consistency_check(four).verdict == NOT_APPLICABLE


def test_isotropy_reader_returns_a_failing_order_not_the_smallest():
    # Z_8 and Z_3 both fail here; the reader walks its set of closed
    # orders and stops at 8, while the report names the smallest, 3
    system = _system(2, (1, 8), (-1, 3), (-8, -3))
    assert isotropy._read_isotropy(2, system.points) == 8
    got = isotropy_consistency_check(system)
    assert (got.verdict, got.witness["k"]) == (FAIL, 3)


def test_structure_relations_inert_without_the_structure():
    system = _system(2, (1, 2), (-1, 2), (-2, -3))
    results = structure_relation_checks(system)
    assert [r.check_id for r in results] == [
        "lambda_step",
        "component_lambda_relation",
        "even_count_relation",
    ]
    assert all(r.verdict == NOT_APPLICABLE for r in results)


def test_structure_relations_wire_to_the_d_holders():
    family = _system(2, (1, 3), (-1, 2), (-3, -2))
    step, relation, evens = structure_relation_checks(family)
    assert step.verdict == NOT_APPLICABLE  # c1 values differ
    assert relation.verdict == PASS
    assert evens.verdict == NOT_APPLICABLE


def test_isotropy_orders_are_the_divisors_above_one():
    assert isotropy_orders((12, -8, 7)) == [2, 3, 4, 6, 7, 8, 12]
    assert isotropy_orders((1, -1, 1, -1)) == []
    assert isotropy_orders(()) == []
    assert isotropy_orders((-49, 49)) == [7, 49]
    assert isotropy_orders((10**9 + 7,)) == [10**9 + 7]  # a prime
    assert isotropy_orders((2**20,)) == [2**e for e in range(1, 21)]


def _set_partitions(labels):
    """Every set partition of one to three labels, in a fixed order."""
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

    matched = _match_shape([subs[lab] for lab in block])
    if matched is None:
        if len(block) == 2:
            return "divisible weights at %s,%s match no two-point shape" % block
        return "divisible weights match no three-point shape"
    for la, lb in combinations(block, 2):
        if not residues_match(points[la], points[lb], k):
            return "residues mod %d differ between %s and %s" % (k, la, lb)
    return IsotropyComponent(matched[0], block, matched[1])


def _every_partition(system, k):
    """The reference reading of Z_k: every set partition of the sorted
    labels tried in turn, each block matched on its own.  The first
    partition to classify gives the decomposition; otherwise a dict from
    each partition, as a set of blocks, to its (text, first violation)."""
    points = dict(zip(system.labels, system.points))
    labels = tuple(sorted(points))
    subs = {lab: sub_multiset_mod_k(points[lab], k) for lab in labels}
    failures = {}
    for blocks in _set_partitions(labels):
        components = []
        for block in blocks:
            got = _try_block(block, points, subs, k)
            if isinstance(got, str):
                text = " | ".join(",".join(b) for b in blocks)
                failures[frozenset(blocks)] = (text, got)
                break
            components.append(got)
        else:
            components.sort(key=lambda c: c.labels)
            return IsotropyDecomposition(k, tuple(components))
    return failures


def _assert_forced_reading(system, k, got):
    """got, the classification, is the reference's decomposition, or its
    failure for the partition the divisible weights force."""
    reference = _every_partition(system, k)
    assert bool(got) == isinstance(reference, IsotropyDecomposition), (system, k)
    if got:
        assert got == reference, (system, k)
        return
    points = dict(zip(system.labels, system.points))
    joined = tuple(sorted(lab for lab in points if sub_multiset_mod_k(points[lab], k)))
    forced = {(lab,) for lab in points}
    if len(joined) > 1:
        forced = {joined} | {(lab,) for lab in points if lab not in joined}
    assert got.failures == (reference[frozenset(forced)],), (system, k)


def _full_range(system):
    """The isotropy result and, when pairing passes, the graph edges over
    every k in [2, max |w|]: the Z_k range before isotropy_orders.  Each
    classification is held to the reference walk over every partition."""
    with_edges = pairing_check(system).verdict == PASS
    result = CheckResult("isotropy", PASS, ANCHORS["isotropy"])
    best = {}
    for k in range(2, max(abs(w) for w in system.all_weights()) + 1):
        got = classify_isotropy(system, k)
        _assert_forced_reading(system, k, got)
        if got:
            for component in got.components:
                for a, b in combinations(sorted(component.labels), 2):
                    best[(a, b)] = max(k, best.get((a, b), 0))
        elif result.verdict == PASS:
            witness = {
                "k": k,
                "failures": [
                    {"partition": part, "violation": why}
                    for part, why in got.failures
                ],
            }
            result = CheckResult("isotropy", FAIL, ANCHORS["isotropy"], witness)
            if not with_edges:
                break
    if not with_edges:
        return result, None
    return result, tuple((a, b, best[(a, b)]) for a, b in sorted(best))


def test_divisor_orders_match_the_full_k_range():
    values = [v for v in range(-10, 11) if v != 0]
    systems = [_system(1, *((w,) for w in ws)) for ws in product(values, repeat=3)]
    small = [v for v in range(-6, 7) if v != 0]
    pairs = list(combinations_with_replacement(small, 2))
    systems += [_system(2, a, b) for a, b in product(pairs, repeat=2)]
    for a in range(1, 31):
        for b in range(1, 31):
            systems += [cp2_family(a, b), dim6_pair_family(a, b)]
    # Z_3 joins p and q and Z_6 does not: the edge is k=3, the witness k=2
    systems.append(_system(2, (6, 1), (-6, 4), (-1, -4)))
    # a CP2 triple at multiples of 3 whose residues clash at q, then at r
    for y, z in ((-1, -5), (1, -1)):
        systems.append(_system(3, (3, 6, -5), (-3, 3, y), (-6, -3, z)))

    witness_ks, edge_ks = set(), set()
    for system in systems:
        expected, edges = _full_range(system)
        assert isotropy_consistency_check(system) == expected, system
        if expected.verdict == FAIL:
            witness_ks.add(expected.witness["k"])
        if edges is not None:
            assert build_graph(system).edges == edges, system
            edge_ks.update(k for _, _, k in edges)
    # failures past the first k and edges labelled by a large k occur
    assert max(witness_ks) >= 3 and max(edge_ks) >= 4


def _predicate_sweep():
    """Systems of 1 to 4 points, every weight tuple in small ranges (most
    fail pairing), then the pairing-complete three-point candidates and
    scaled families, which reach the modular checks, then three points at
    n = 4, where c_1 = 0 binds, in every order."""
    for n, count, bound in (
        (1, 1, 6), (2, 1, 6), (1, 2, 6), (2, 2, 5), (1, 3, 8), (2, 3, 3), (1, 4, 3)
    ):
        values = [v for v in range(-bound, bound + 1) if v]
        for ws in product(combinations_with_replacement(values, n), repeat=count):
            yield _system(n, *ws)
    for n, bound in ((2, 6), (3, 4)):
        for profile in _profiles(n, 3, False):
            for ws in _staged_candidates(n, bound, profile, False, True, SearchStats()):
                yield _system(n, *ws)
    for a, b, c in product(range(1, 5), repeat=3):
        yield cp2_family(a * c, b * c)
        yield dim6_pair_family(a * c, b * c)
    # c_1 = 11, -5, -6; then 0, -5, 5; then 0 everywhere
    for points in (
        ((-4, 5, 5, 5), (-5, -5, 1, 4), (-5, -5, -1, 5)),
        ((-2, -1, 1, 2), (-5, -5, 1, 4), (-5, 1, 4, 5)),
        ((-2, -1, 1, 2), (-3, -1, 1, 3), (-4, -1, 1, 4)),
    ):
        for order in permutations(points):
            yield _system(4, *order)


def _fraction_sum(system):
    """sum over the points of 1/(product of weights), a Fraction per point."""
    return sum((Fraction(1, prod(ws)) for ws in system.points), Fraction(0))


def test_tuple_predicates_match_their_reports():
    # every filter check's read(n, points) is None exactly when its report's
    # verdict is not fail, and a failing report's witness agrees with an
    # independent computation
    seen = Counter()
    for system in _predicate_sweep():
        for check_id, check, read in FILTER_CHECKS:
            got = check(system)
            assert (read(system.n, system.points) is None) == (got.verdict != FAIL), (
                check_id, system
            )
            seen[check_id, got.verdict, (got.witness or {}).get("reason")] += 1
            if got.verdict != FAIL:
                continue
            if check_id == "localization":
                assert got.witness["sum"] == str(_fraction_sum(system)) != "0", system
            elif check_id == "effectivity":
                assert got.witness["gcd"] == effectivity_gcd(system) != 1, system
            elif check_id == "chern1_vanishing":
                at = system.labels.index(got.witness["label"])
                assert got.witness["c1"] == chern1_at(system.points[at]) != 0, system
                assert not any(map(chern1_at, system.points[:at])), system
        assert localization_sum(system) == _fraction_sum(system), system
    for check_id in ("largest_weight_structure", "isotropy", "chern1_vanishing"):
        assert seen[check_id, PASS, None] and seen[check_id, NOT_APPLICABLE, None]
    for reason in ("multiplicity", "same-point", "residues"):
        assert seen["largest_weight_structure", FAIL, reason], reason
    for check_id in ("localization", "chern1_vanishing", "isotropy", "effectivity"):
        assert seen[check_id, FAIL, None], check_id


def test_a_passing_check_factors_no_weight(monkeypatch):
    # the verdict comes from gcds of the weights; only a failing isotropy
    # witness lists the divisors, which would take trial division to 10^9
    def no_factoring(weights):
        raise AssertionError("isotropy_orders ran on a passing system")

    monkeypatch.setattr(isotropy, "isotropy_orders", no_factoring)
    report = check_system(cp2_family(10**18 + 1, 10**18 + 3), require_effective=True)
    assert report.overall
    assert report.by_id("isotropy").verdict == PASS
