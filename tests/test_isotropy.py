"""Z_k classification and the largest-weight relations.

residues_match is checked against a direct bijection search so the
sorted-residue shortcut never drifts from the definition.
"""

from itertools import combinations_with_replacement, permutations

import pytest

from weightsys.constraints import FAIL, NOT_APPLICABLE, PASS
from weightsys.core import FixedPoint, FixedPointSystem, WeightMultiset
from weightsys.isotropy import (
    CP2_TRIPLE,
    DIM6_PAIR,
    ISOLATED,
    SPHERE_PAIR,
    admissible_component_shapes,
    classify_isotropy,
    component_lambda_relation,
    even_count_relation_check,
    isotropy_consistency_check,
    lambda_step_check,
    largest_weight_structure,
    residues_match,
    structure_relation_checks,
    sub_multiset_mod_k,
)


def _system(n, *weight_lists):
    return FixedPointSystem.from_weights(n, weight_lists)


def test_sub_multiset_mod_k():
    ms = WeightMultiset((-4, -3, 2, 6))
    assert sub_multiset_mod_k(ms, 2).weights == (-4, 2, 6)
    assert sub_multiset_mod_k(ms, 3).weights == (-3, 6)
    assert sub_multiset_mod_k(ms, 5).weights == ()
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
                    got = residues_match(
                        WeightMultiset(a), WeightMultiset(b), k
                    )
                    assert got == by_bijection(a, b, k), (a, b, k)


def test_residues_match_errors():
    with pytest.raises(ValueError):
        residues_match(WeightMultiset((1,)), WeightMultiset((1,)), 1)
    with pytest.raises(ValueError):
        residues_match(WeightMultiset((1,)), WeightMultiset((1, 2)), 2)


def test_admissible_component_shapes():
    assert admissible_component_shapes(1, 2) == (ISOLATED,)
    assert admissible_component_shapes(2, 2) == (SPHERE_PAIR, DIM6_PAIR)
    assert admissible_component_shapes(3, 2) == (CP2_TRIPLE,)
    with pytest.raises(ValueError):
        admissible_component_shapes(4, 2)
    with pytest.raises(ValueError):
        admissible_component_shapes(1, 1)


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


def test_classify_cp2_triple():
    scaled = _system(2, (2, 4), (-2, 2), (-4, -2))
    got = classify_isotropy(scaled, 2)
    assert got
    assert len(got.components) == 1
    component = got.components[0]
    assert component.kind == CP2_TRIPLE
    assert component.labels == ("p", "q", "r")
    assert component.params == (2, 2)


def test_classify_dim6_pair():
    scaled = _system(3, (2, 2, -4), (4, -2, -2))
    got = classify_isotropy(scaled, 2)
    assert got
    assert got.components[0].kind == DIM6_PAIR
    assert got.components[0].params == (2, 2)


def test_classify_rejection_lists_every_partition():
    got = classify_isotropy(_system(2, (1, 2), (-1, 2), (-2, -3)), 2)
    assert not got
    assert len(got.failures) == 5
    partitions = [part for part, _ in got.failures]
    assert "p | q | r" in partitions
    assert "p,q,r" in partitions


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


def test_largest_weight_structure_third_point():
    # reachable only when the pairing premise is asserted rather than
    # checked: the -8 below has no +8 partner
    system = _system(2, (1, 4), (-4, 3), (-8, 2))
    got = largest_weight_structure(system, pairing_ok=True)
    assert got.verdict == FAIL
    assert got.witness == {"d": 4, "reason": "third-point", "label": "r"}


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
    v2 = family.point_by_label("r")
    w2 = family.point_by_label("p")
    assert lambda_step_check(v2, w2, 3, family).verdict == NOT_APPLICABLE


def test_component_lambda_relation_worked_example():
    # v = {-3, -2}, w = {1, 3}, d = 3: both sides equal 3
    v = WeightMultiset((-3, -2))
    w = WeightMultiset((1, 3))
    got = component_lambda_relation(
        v, w, 3, WeightMultiset((-3,)), WeightMultiset((3,))
    )
    assert got.verdict == PASS


def test_component_lambda_relation_rejects_wrong_sub():
    v = WeightMultiset((-3, -2))
    w = WeightMultiset((1, 3))
    got = component_lambda_relation(
        v, w, 3, WeightMultiset((-3, -2)), WeightMultiset((3,))
    )
    assert got.verdict == NOT_APPLICABLE


def test_component_lambda_relation_accepts_fixed_points():
    system = _t26(2, 3)
    v, w = system.points
    z_v = WeightMultiset((-5,))
    z_w = WeightMultiset((5,))
    assert component_lambda_relation(v, w, 5, z_v, z_w).verdict == PASS


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
    assert all(
        set(entry) == {"partition", "violation"}
        for entry in got.witness["failures"]
    )
    four = FixedPointSystem.from_weights(1, [(1,), (-1,), (2,), (-2,)])
    assert isotropy_consistency_check(four).verdict == NOT_APPLICABLE


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
