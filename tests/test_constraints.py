"""Constraint checks against values worked out independently.

The sigma_i oracle below recomputes elementary symmetric polynomials
from their definition (sum over index subsets) so the dynamic-program
version in chern_i_at is tested against something it shares no code
with.
"""

from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from weightsys.constraints import (
    ANCHORS,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    CheckResult,
    ConstraintReport,
    chern1_at,
    chern1_vanishing_check,
    chern_i_at,
    check_system,
    lambda_symmetry_check,
    localization_check,
    localization_sum,
    pairing_check,
    parity_check,
)
from weightsys.core import FixedPointSystem


def _system(n, *weight_lists):
    return FixedPointSystem.from_weights(n, weight_lists)


def _family(a, b):
    return _system(2, (a, a + b), (-a, b), (-b, -a - b))


def test_pairing_passes_on_a_family():
    assert pairing_check(_family(1, 2)).verdict == PASS


def test_pairing_failure_reports_smallest_imbalanced_magnitude():
    result = pairing_check(_system(2, (1, 2), (-1, 2), (-2, -3)))
    assert result.verdict == FAIL
    assert result.witness == {"l": 2, "count_pos": 2, "count_neg": 1}


def test_lambda_symmetry():
    assert lambda_symmetry_check(_family(1, 1)).verdict == PASS
    # two points with one negative each: #{lambda=1} = 2 but #{lambda=n-1=1}
    # is the same count, so tilt it with n = 3
    bad = _system(3, (-1, 1, 1), (-1, 1, 1))
    result = lambda_symmetry_check(bad)
    assert result.verdict == FAIL
    assert result.witness["i"] == 1


def test_parity_single_point_always_fails():
    result = parity_check(_system(2, (1, 2)))
    assert result.verdict == FAIL
    assert result.witness == {"points": 1, "n": 2}


def test_parity_odd_points_need_even_n():
    assert parity_check(_system(3, (1, 2, 3), (-1, -2, -3), (1, -2, 3))).verdict == FAIL
    assert parity_check(_system(2, (1, 2), (-1, 1), (-2, -1))).verdict == PASS
    assert parity_check(_system(3, (1, 2, -3), (3, -1, -2))).verdict == PASS


def test_localization_sum_is_exact():
    assert localization_sum(_system(2, (1, 2), (-1, 2), (-2, -3))) == Fraction(1, 6)
    for a in range(1, 7):
        for b in range(1, 7):
            assert localization_sum(_family(a, b)) == 0


def test_localization_check_witness_carries_the_sum():
    result = localization_check(_system(2, (1, 2), (-1, 2), (-2, -3)))
    assert result.verdict == FAIL
    assert result.witness == {"sum": "1/6"}


def test_chern1_at():
    assert chern1_at((1, 2, 3)) == 6
    assert chern1_at((-4, 1, 1, 2)) == 0


def test_chern_i_against_subset_sums():
    ms = (-3, -1, 1, 2, 5)
    for i in range(len(ms) + 1):
        expected = sum(
            prod(sub) for sub in combinations(ms, i)
        )
        assert chern_i_at(ms, i) == expected
    assert chern_i_at((1, 2, 3), 2) == 11
    with pytest.raises(ValueError):
        chern_i_at(ms, 6)


def test_chern1_vanishing_only_binds_three_points_high_dim():
    assert chern1_vanishing_check(_family(1, 2)).verdict == NOT_APPLICABLE
    two_pt = _system(4, (1, 1, 1, -3), (3, -1, -1, -1))
    assert chern1_vanishing_check(two_pt).verdict == NOT_APPLICABLE
    bad = _system(4, (1, 1, 1, 1), (-1, -1, 1, 1), (-1, -1, -1, -1))
    result = chern1_vanishing_check(bad)
    assert result.verdict == FAIL
    assert result.witness == {"label": "p", "c1": 4}


def test_check_result_insists_witness_on_fail_only():
    with pytest.raises(ValueError):
        CheckResult("pairing", FAIL, ANCHORS["pairing"], None)
    with pytest.raises(ValueError):
        CheckResult("pairing", PASS, ANCHORS["pairing"], {"l": 1})
    with pytest.raises(ValueError, match="bad verdict"):
        CheckResult("pairing", "passed", ANCHORS["pairing"])


def test_check_system_report_shape():
    report = check_system(_family(1, 2))
    ids = [c.check_id for c in report.checks]
    assert ids == [
        "pairing",
        "lambda_symmetry",
        "parity",
        "localization",
        "chern1_vanishing",
        "largest_weight_structure",
        "isotropy",
        "lambda_step",
        "component_lambda_relation",
        "even_count_relation",
    ]
    assert report.overall
    for result in report.checks:
        assert result.anchor == ANCHORS[result.check_id]
        assert (result.witness is not None) == (result.verdict == FAIL)


def test_check_system_effectivity_entry_is_opt_in():
    scaled = _system(2, (2, 4), (-2, 2), (-4, -2))
    without = check_system(scaled)
    assert "effectivity" not in {c.check_id for c in without.checks}
    with_eff = check_system(scaled, require_effective=True)
    eff = with_eff.by_id("effectivity")
    assert eff.verdict == FAIL
    assert eff.witness == {"gcd": 2}
    assert not with_eff.overall


def test_check_system_overall_false_on_any_failure():
    report = check_system(_system(2, (1, 2), (-1, 2), (-2, -3)))
    assert not report.overall
    assert report.by_id("pairing").verdict == FAIL
    # effectivity is reported only when required
    with pytest.raises(KeyError):
        report.by_id("effectivity")
    # one entry per check id
    with pytest.raises(ValueError, match="duplicate check ids"):
        ConstraintReport(report.checks[:1] * 2)


def test_verdicts_invariant_under_relabel_and_reversal():
    systems = [
        _family(1, 2),
        _system(2, (1, 2), (-1, 2), (-2, -3)),
        _system(3, (1, 2, -3), (3, -1, -2)),
        _system(4, (-4, 1, 1, 2), (-2, -1, 1, 2), (-2, -1, -1, 4)),
    ]
    for system in systems:
        baseline = [
            (c.check_id, c.verdict) for c in check_system(system).checks
        ]
        relabeled = FixedPointSystem.from_weights(
            system.n,
            list(reversed(system.points)),
            labels=[chr(ord("a") + i) for i in range(len(system.points))],
        )
        assert [
            (c.check_id, c.verdict) for c in check_system(relabeled).checks
        ] == baseline
        from weightsys.core import reverse_action

        assert [
            (c.check_id, c.verdict) for c in check_system(reverse_action(system)).checks
        ] == baseline
