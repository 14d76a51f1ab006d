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
  of positive dimension.  The verdict is integer: with P_i the product
  at point i, the sum vanishes exactly when sum_i prod_{j != i} P_j
  does.  Exact rationals (fractions.Fraction) appear only in
  localization_sum, from which the report takes a failing sum's witness.
* Chern values: the restriction of the i-th equivariant Chern class to
  a fixed point is the i-th elementary symmetric polynomial of its
  weights; c_1 is the plain weight sum.  For three fixed points and
  n >= 4 the c_1 values must all vanish.
* effectivity: the gcd of all weights is 1 (checked only on request).

Each check is read once, by a reader read(n, points) on the ascending
weight tuples that builds nothing: None when the check holds or does
not bind, else the facts it decided on (the union, the negative counts,
the point count, the cross-multiplied sum, the first point with c_1 != 0,
the gcd); so are the two modular checks of the isotropy module.  The
search decides candidates with the readers alone; each report function
(pairing_check, ...) takes its verdict and its witness from one reading.

check_system() reads the filter table isotropy.FILTER_CHECKS (these
checks plus the modular ones, in the order the search applies them),
then adds the largest-weight relations, into one ConstraintReport.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .core import FixedPointSystem, _all_digits

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
    # results are frozen, so the witness-free ones are built once and shared
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


def _read_pairing(n: int, points):
    """None when the sorted union of the weights equals its own negation,
    else the union."""
    union = sum(points, ())
    if sum(union):
        # a union equal to its negation sums to 0: the cheap test first
        return union
    union = sorted(union)
    return None if union == [-w for w in reversed(union)] else union


def pairing_check(system: FixedPointSystem) -> CheckResult:
    """Union multiset of all weights must equal its own negation."""
    union = _read_pairing(system.n, system.points)
    if union is None:
        return _result("pairing", PASS)
    counts = Counter(union)
    # smallest |l| witness, so fixtures stay stable
    l = min(abs(w) for w in counts if counts[w] != counts[-w])
    return _result("pairing", FAIL, {"l": l, "count_pos": counts[l], "count_neg": counts[-l]})


def _count_symmetric(n: int, lams: list) -> bool:
    """The ascending list of negative counts reads the same after i -> n - i."""
    return lams == [n - lam for lam in reversed(lams)]


def _read_lambda_symmetry(n: int, points):
    """None when the negative counts of the ascending points are
    count-symmetric, else their ascending list."""
    lams = sorted([bisect_left(ws, 0) for ws in points])
    return None if _count_symmetric(n, lams) else lams


def lambda_symmetry_check(system: FixedPointSystem) -> CheckResult:
    """#{points with lambda = i} = #{points with lambda = n - i} for all i."""
    n = system.n
    lams = _read_lambda_symmetry(n, system.points)
    if lams is None:
        return _result("lambda_symmetry", PASS)
    counts = Counter(lams)
    i = next(i for i in range(n + 1) if counts[i] != counts[n - i])
    witness = {"i": i, "count_i": counts[i], "count_n_minus_i": counts[n - i]}
    return _result("lambda_symmetry", FAIL, witness)


def _read_parity(n: int, points):
    """None when the point count is possible in dimension 2n, else the count."""
    k = len(points)
    return None if k != 1 and (k % 2 == 0 or n % 2 == 0) else k


def parity_check(system: FixedPointSystem) -> CheckResult:
    """Odd point count forces n even; one fixed point is never possible."""
    k = _read_parity(system.n, system.points)
    if k is None:
        return _result("parity", PASS)
    return _result("parity", FAIL, {"points": k, "n": system.n})


def _read_localization(n: int, points):
    """None when sum_i 1/P_i = 0, P_i the weight product at point i, else
    (sum_i full // P_i, full), full the product of every P_i: the sum over
    full, in integers (no P_i is 0, so each divides full exactly)."""
    products = [math.prod(ws) for ws in points]
    full = math.prod(products)
    total = sum([full // p for p in products])
    return (total, full) if total else None


def localization_sum(system: FixedPointSystem) -> Fraction:
    """Exact value of sum over points of 1/(product of weights)."""
    read = _read_localization(system.n, system.points)
    return Fraction(0) if read is None else Fraction(*read)


def localization_check(system: FixedPointSystem) -> CheckResult:
    total = localization_sum(system)
    if not total:
        return _result("localization", PASS)
    with _all_digits():
        return _result("localization", FAIL, {"sum": str(total)})


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


def _chern1_binds(n: int, point_count: int) -> bool:
    """c_1 = 0 is a condition for three points and n >= 4 only."""
    return point_count == 3 and n >= 4


def _read_chern1_vanishing(n: int, points):
    """None when c_1 = 0 at every point or that does not bind, else the
    index of the first point whose weights have a nonzero sum."""
    if _chern1_binds(n, len(points)):
        for i, ws in enumerate(points):
            if sum(ws):
                return i
    return None


def chern1_vanishing_check(system: FixedPointSystem) -> CheckResult:
    """c_1 = 0 at every point; only binding for 3 points and n >= 4."""
    if not _chern1_binds(system.n, len(system.points)):
        return _result("chern1_vanishing", NOT_APPLICABLE)
    i = _read_chern1_vanishing(system.n, system.points)
    if i is None:
        return _result("chern1_vanishing", PASS)
    witness = {"label": system.labels[i], "c1": chern1_at(system.points[i])}
    return _result("chern1_vanishing", FAIL, witness)


def _read_effectivity(n: int, points):
    """None when the weights have gcd 1 (no subgroup acts trivially), else the gcd."""
    g = math.gcd(*chain.from_iterable(points))
    return None if g == 1 else g


def _effectivity_check(system: FixedPointSystem) -> CheckResult:
    g = _read_effectivity(system.n, system.points)
    if g is None:
        return _result("effectivity", PASS)
    return _result("effectivity", FAIL, {"gcd": g})


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
        for check_id, check, _ in isotropy.FILTER_CHECKS
        if check_id != "effectivity"
    ]
    checks.extend(isotropy.structure_relation_checks(system))
    if require_effective:
        checks.append(_effectivity_check(system))
    return ConstraintReport(tuple(checks))
