"""Global consistency checks on a fixed-point weight system.

Every check is an exact statement about integers or rationals; nothing
here is approximate and nothing uses floats.  The individual checks:

* pairing: the union multiset of all weights is invariant under
  negation (each value l occurs as often as -l does, counted over the
  whole system).
* lambda symmetry: #{points with i negative weights} equals
  #{points with n-i negative weights}, for every i.
* parity: an odd number of fixed points forces n even; a single fixed
  point is impossible outright.
* localization: sum over points of 1/(product of weights) must vanish.
  This is the fixed-point expansion of the equivariant integral of 1,
  which lands in negative degree and so is zero on any closed manifold
  of positive dimension.  Exact rationals (fractions.Fraction) carry
  the sum.
* Chern values: the restriction of the i-th equivariant Chern class to
  a fixed point is the i-th elementary symmetric polynomial of its
  weights; c_1 is the plain weight sum.  For three fixed points and
  n >= 4 the c_1 values must all vanish.

check_system() reads the filter table isotropy.FILTER_CHECKS (these
checks plus the modular ones, in the order the search applies them),
then adds the largest-weight relations, into one ConstraintReport.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import FixedPointSystem, effectivity_gcd, lambda_count

__all__ = [
    "PASS",
    "FAIL",
    "NOT_APPLICABLE",
    "CheckResult",
    "ConstraintReport",
    "ANCHORS",
    "pairing_check",
    "lambda_symmetry_check",
    "parity_check",
    "localization_sum",
    "localization_check",
    "chern1_at",
    "chern_i_at",
    "chern1_vanishing_check",
    "check_system",
]

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

# Reference anchors attached to emitted reports, one per check id.
ANCHORS = {
    "pairing": "Lemma 2.4 / l24",
    "lambda_symmetry": "Lemma 2.2 / l22",
    "parity": "Corollary 2.3 / c23",
    "localization": "Theorem 2.1 / t21",
    "chern1_vanishing": "Corollary 2.7 / c27",
    "largest_weight_structure": "Lemma 3.2 / l32",
    "isotropy": "Lemma 4.5 / l45",
    "lambda_step": "Lemma 3.4 / l34",
    "component_lambda_relation": "Remark 3.5 / r35",
    "even_count_relation": "Lemma 3.6 / l36",
    "effectivity": "Theorem 1.1 / t11",
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check; witness is set exactly on failure."""

    check_id: str
    verdict: str
    anchor: str
    witness: dict | None = None

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL, NOT_APPLICABLE):
            raise ValueError("bad verdict %r" % (self.verdict,))
        if (self.witness is not None) != (self.verdict == FAIL):
            raise ValueError(
                "check %r: witness present iff verdict is fail" % (self.check_id,)
            )


def _result(check_id: str, verdict: str, witness: dict | None = None) -> CheckResult:
    if witness is None:
        return _plain_result(check_id, verdict)
    return CheckResult(check_id, verdict, ANCHORS[check_id], witness)


@lru_cache(maxsize=None)
def _plain_result(check_id: str, verdict: str) -> CheckResult:
    # results are frozen, so the witness-free ones are shared: the filter
    # builds one per check per candidate
    return CheckResult(check_id, verdict, ANCHORS[check_id])


@dataclass(frozen=True)
class ConstraintReport:
    """All checks run against one system, in a stable order."""

    checks: tuple[CheckResult, ...]

    def __post_init__(self):
        ids = [c.check_id for c in self.checks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate check ids: %r" % (ids,))

    @property
    def overall(self) -> bool:
        return all(c.verdict != FAIL for c in self.checks)

    def by_id(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)


def pairing_check(system: FixedPointSystem) -> CheckResult:
    """Union multiset of all weights must equal its own negation."""
    counts = Counter(system.all_weights())
    for l in sorted({abs(w) for w in counts}):
        if counts[l] != counts[-l]:
            # smallest |l| witness, so fixtures stay stable
            return _result(
                "pairing",
                FAIL,
                {"l": l, "count_pos": counts[l], "count_neg": counts[-l]},
            )
    return _result("pairing", PASS)


def lambda_symmetry_check(system: FixedPointSystem) -> CheckResult:
    """#{points with lambda = i} = #{points with lambda = n - i} for all i."""
    n = system.n
    counts = Counter(map(lambda_count, system.points))
    for i in range(n + 1):
        if counts[i] != counts[n - i]:
            return _result(
                "lambda_symmetry",
                FAIL,
                {"i": i, "count_i": counts[i], "count_n_minus_i": counts[n - i]},
            )
    return _result("lambda_symmetry", PASS)


def parity_check(system: FixedPointSystem) -> CheckResult:
    """Odd point count forces n even; one fixed point is never possible."""
    k = len(system.points)
    if k == 1:
        return _result("parity", FAIL, {"points": 1, "n": system.n})
    if k % 2 == 1 and system.n % 2 == 1:
        return _result("parity", FAIL, {"points": k, "n": system.n})
    return _result("parity", PASS)


def localization_sum(system: FixedPointSystem) -> Fraction:
    """Exact value of sum over points of 1/(product of weights)."""
    return sum(
        (Fraction(1, math.prod(ws)) for ws in system.points),
        start=Fraction(0),
    )


def localization_check(system: FixedPointSystem) -> CheckResult:
    total = localization_sum(system)
    if total != 0:
        return _result("localization", FAIL, {"sum": str(total)})
    return _result("localization", PASS)


def chern1_at(ms: tuple[int, ...]) -> int:
    """Weight sum: the c_1 value at a point."""
    return sum(ms)


def chern_i_at(ms: tuple[int, ...], i: int) -> int:
    """i-th elementary symmetric polynomial of the weights.

    i = 0 gives 1, i = |ms| gives the full product (the equivariant
    Euler value of the point's normal bundle).
    """
    if not 0 <= i <= len(ms):
        raise ValueError("index %d out of range for %d weights" % (i, len(ms)))
    # coefficient dp over prod(1 + w x)
    coeffs = [0] * (len(ms) + 1)
    coeffs[0] = 1
    for k, w in enumerate(ms, start=1):
        for j in range(k, 0, -1):
            coeffs[j] += coeffs[j - 1] * w
    return coeffs[i]


def chern1_vanishing_check(system: FixedPointSystem) -> CheckResult:
    """c_1 = 0 at every point; only binding for 3 points and n >= 4."""
    if len(system.points) != 3 or system.n < 4:
        return _result("chern1_vanishing", NOT_APPLICABLE)
    for label, ws in zip(system.labels, system.points):
        c1 = chern1_at(ws)
        if c1 != 0:
            return _result("chern1_vanishing", FAIL, {"label": label, "c1": c1})
    return _result("chern1_vanishing", PASS)


def _effectivity_check(system: FixedPointSystem) -> CheckResult:
    g = effectivity_gcd(system)
    if g != 1:
        return _result("effectivity", FAIL, {"gcd": g})
    return _result("effectivity", PASS)


def check_system(
    system: FixedPointSystem, require_effective: bool = False
) -> ConstraintReport:
    """Run every check against one system.

    The filter table in its order, then the three largest-weight
    relations, then effectivity when required.  The report carries one
    entry per check id, not-applicable where a check's hypotheses do not
    hold for this system.
    """
    from . import isotropy  # function-level import: isotropy imports us

    checks = [
        check(system)
        for check_id, check in isotropy.FILTER_CHECKS
        if check_id != "effectivity"
    ]
    checks.extend(isotropy.structure_relation_checks(system))
    if require_effective:
        checks.append(_effectivity_check(system))
    return ConstraintReport(tuple(checks))
