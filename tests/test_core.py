"""Core model: weight multisets on points, systems, canonical form."""

import pytest

from weightsys.core import (
    FixedPointSystem,
    canonicalize,
    default_labels,
    effectivity_gcd,
    lambda_count,
    largest_weight,
    reverse_action,
)


def _system(n, *weight_lists):
    return FixedPointSystem.from_weights(n, weight_lists)


def test_multiset_sorts_and_keeps_duplicates():
    ws = FixedPointSystem(4, ([3, -1, 3, -2],), ("p",)).points[0]
    assert ws == (-2, -1, 3, 3)
    assert ws.count(3) == 2
    assert ws.count(7) == 0
    assert -1 in ws and 1 not in ws


def test_multiset_rejects_zero():
    with pytest.raises(ValueError):
        FixedPointSystem(3, ((1, 0, -1),), ("p",))


def test_system_rejects_non_integer_weights():
    # int() would quietly turn each into another weight
    for bad in (1.5, "2", True):
        with pytest.raises(ValueError, match="non-integer weight at q"):
            _system(2, (1, 2), (-1, bad), (-2, -1))


def test_system_rejects_labels_that_are_not_non_empty_strings():
    # each would reach graph.emit_dot, which reads labels as strings
    for bad in (1, "", ["p"]):
        with pytest.raises(ValueError, match=r"label in points\[1\] must be a non-empty string"):
            FixedPointSystem.from_weights(1, [(1,), (-1,)], labels=["p", bad])


def test_multiset_negate():
    system = FixedPointSystem(3, ((-2, 1, 1),), ("p",))
    assert reverse_action(system).points[0] == (-1, -1, 2)
    assert reverse_action(reverse_action(system)) == system


def test_system_validation():
    with pytest.raises(ValueError):
        FixedPointSystem(0, ((1,),), ("p",))
    with pytest.raises(ValueError):
        FixedPointSystem(1, (), ())
    with pytest.raises(ValueError):
        _system(2, (1, 2), (1,))
    with pytest.raises(ValueError):
        FixedPointSystem.from_weights(1, [(1,), (-1,)], labels=["p", "p"])
    with pytest.raises(ValueError):
        FixedPointSystem.from_weights(1, [(1,), (-1,)], labels=["p"])


def test_from_weights_default_labels():
    system = _system(2, (1, 2), (-1, 1), (-2, -1))
    assert list(system.labels) == ["p", "q", "r"]
    assert system.points[system.labels.index("q")] == (-1, 1)
    assert default_labels(4) == ("p1", "p2", "p3", "p4")


def test_all_weights_is_the_union_multiset():
    system = _system(2, (1, 2), (-1, 1))
    assert sorted(system.all_weights()) == [-1, 1, 1, 2]


def test_lambda_count():
    assert lambda_count((1, 2, 3)) == 0
    assert lambda_count((-2, -1, 3)) == 2


def test_largest_weight():
    assert largest_weight(_system(2, (1, 3), (-1, 2), (-3, -2))) == 3
    with pytest.raises(ValueError):
        largest_weight(_system(1, (-1,), (-2,)))


def test_reverse_action_negates_every_point():
    system = _system(2, (1, 3), (-1, 2), (-3, -2))
    flipped = reverse_action(system)
    assert list(flipped.points) == [
        (-3, -1),
        (-2, 1),
        (2, 3),
    ]
    assert reverse_action(flipped) == system


def test_canonicalize_ignores_point_order_and_labels():
    base = _system(2, (1, 3), (-1, 2), (-3, -2))
    shuffled = FixedPointSystem.from_weights(
        2, [(-3, -2), (1, 3), (-1, 2)], labels=["a", "b", "c"]
    )
    assert canonicalize(base) == canonicalize(shuffled)


def test_canonicalize_identifies_reversed_actions():
    base = _system(2, (1, 3), (-1, 2), (-3, -2))
    assert canonicalize(base) == canonicalize(reverse_action(base))


def test_canonicalize_orders_points_by_lambda_then_weights():
    key = canonicalize(_system(2, (-3, -2), (-1, 2), (1, 3)))
    assert key.points == ((1, 3), (-1, 2), (-3, -2))
    assert key.labels == ("p", "q", "r")


def test_canonical_key_accepted_as_is():
    key = canonicalize(_system(2, (1, 2), (-1, 1), (-2, -1)))
    assert canonicalize(key) == key


def test_swapped_family_parameters_share_a_key():
    # {a, a+b}, {-a, b}, {-b, -a-b} for (a, b) and (b, a)
    def family(a, b):
        return _system(2, (a, a + b), (-a, b), (-b, -a - b))

    for a in range(1, 5):
        for b in range(1, 5):
            assert canonicalize(family(a, b)) == canonicalize(family(b, a))


def test_effectivity_gcd():
    assert effectivity_gcd(_system(2, (1, 2), (-1, 1), (-2, -1))) == 1
    assert effectivity_gcd(_system(2, (2, 4), (-2, 2), (-4, -2))) == 2
