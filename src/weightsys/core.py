"""Weight data of circle actions with isolated fixed points.

A circle acting on a compact 2n-manifold fixes, in the cases treated here,
a finite set of points.  The action linearizes at each fixed point p into
n nonzero integer *weights*; the multiset of weights at every fixed point
is the combinatorial shadow of the action and is all this package works
with.  No geometry is stored: a system is literally "n, plus one weight
multiset per labeled point": FixedPointSystem holds n, each point's
multiset as the ascending tuple of its nonzero ints, and each point's
label.

Conventions fixed once, here:

* lambda_count returns the plain number of negative weights at a point.
  (The Morse-theoretic index of the moment map is twice that; every
  relation in the other modules is stated in un-doubled form.)
* Canonical form: weights sorted ascending inside a point, points sorted
  by (lambda_count, weight sequence), and a whole system is identified
  with its image under reversing the circle direction (global negation)
  by keeping the lexicographically smaller of the two.  The search layer
  dedups its survivors on the canonical point tuples and builds one
  canonical FixedPointSystem per distinct survivor.

Weights are ordinary Python ints, so arbitrary precision comes for free;
products of weights grow fast with n and must never wrap.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "FixedPointSystem",
    "lambda_count",
    "largest_weight",
    "reverse_action",
    "canonicalize",
    "effectivity_gcd",
]


@dataclass(frozen=True)
class FixedPointSystem:
    """Half-dimension n, one weight multiset and one label per point.

    points holds each multiset as the ascending tuple of its nonzero ints
    (the shape the search works on) and labels the distinct label of each
    point, in the same order, each a non-empty string.  Every point must
    carry exactly n weights, each an int and not a bool.  Point order is
    whatever the caller chose; canonicalize() is the one place that
    imposes an order.
    These are all the validity rules of a system; a ValueError names the
    first point that breaks one, in the wording parse_system reports.
    """

    n: int
    points: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        points = tuple([tuple(ws) for ws in self.points])
        labels = tuple(self.labels)
        if self.n < 1:
            raise ValueError("half-dimension n must be >= 1")
        if not points:
            raise ValueError("a system needs at least one fixed point")
        if len(labels) != len(points):
            raise ValueError(
                "%d labels for %d points" % (len(labels), len(points))
            )
        seen = set()
        for i, (label, ws) in enumerate(zip(labels, points)):
            # before the set: an unhashable label would raise TypeError
            if not isinstance(label, str) or not label:
                raise ValueError("label in points[%d] must be a non-empty string" % i)
            if label in seen:
                raise ValueError("duplicate label: %s" % (label,))
            seen.add(label)
            for w in ws:
                if isinstance(w, bool) or not isinstance(w, int):
                    raise ValueError("non-integer weight at %s" % (label,))
                if w == 0:
                    raise ValueError("zero weight at %s" % (label,))
            if len(ws) != self.n:
                raise ValueError(
                    "point %s has %d weights, expected %d"
                    % (label, len(ws), self.n)
                )
        object.__setattr__(self, "points", tuple([tuple(sorted(ws)) for ws in points]))
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_weights(cls, n, weight_lists, labels=None) -> FixedPointSystem:
        """Build a system from bare weight iterables, labeling p, q, r, ..."""
        weight_lists = tuple(weight_lists)
        if labels is None:
            labels = default_labels(len(weight_lists))
        return cls(n, weight_lists, labels)

    def all_weights(self):
        """Every weight of every point, one flat iteration."""
        for ws in self.points:
            yield from ws


def default_labels(count: int) -> tuple[str, ...]:
    if count <= 3:
        return ("p", "q", "r")[:count]
    return tuple("p%d" % i for i in range(1, count + 1))


def lambda_count(ws: tuple[int, ...]) -> int:
    """Number of negative weights, with multiplicity (un-doubled index)."""
    return sum(1 for w in ws if w < 0)


def largest_weight(system: FixedPointSystem) -> int:
    """Maximum weight value over all points; requires one positive weight."""
    top = max(ws[-1] for ws in system.points)
    if top <= 0:
        raise ValueError("system has no positive weight")
    return top


def reverse_action(system: FixedPointSystem) -> FixedPointSystem:
    """Negate every weight (run the circle the other way); labels stay."""
    return FixedPointSystem(
        system.n, tuple([-w for w in ws] for ws in system.points), system.labels
    )


def _sorted_rows(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(rows, key=lambda ws: (lambda_count(ws), ws)))


def _canonical_points(points) -> tuple[tuple[int, ...], ...]:
    """Canonical order of ascending weight tuples: points sorted by
    (negative count, sequence), of the tuples and their reversal the
    lexicographically smaller kept.  Equal exactly when two systems differ
    by point relabeling/permutation and/or reversing the action."""
    forward = _sorted_rows(points)
    # negating an ascending tuple and reading it backwards keeps it ascending
    backward = _sorted_rows(tuple(-w for w in reversed(ws)) for ws in points)
    return min(forward, backward)


def canonicalize(system: FixedPointSystem) -> FixedPointSystem:
    """The canonical representative of a system, labeled p, q, r, ..."""
    return FixedPointSystem.from_weights(system.n, _canonical_points(system.points))


def effectivity_gcd(system: FixedPointSystem) -> int:
    """gcd of |weights| over the whole system; 1 iff the action is effective.

    Dividing every weight by this gcd models quotienting out the subgroup
    that acts trivially.
    """
    # a system has at least one point and n >= 1 weights at each
    return math.gcd(*system.all_weights())


@contextmanager
def _all_digits():
    """Lift the int/str digit limit (4,300 by default) while writing out a
    witness or a document; parsing keeps it, refusing over-long literals."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
