"""Multigraph view of the isotropy structure on the fixed points.

Vertices are the fixed points, tagged with their negative-weight count.
For every k >= 2 that divides some weight (isotropy_orders; for any
other k every point is isolated), each Z_k component that joins two or
three points contributes edges between the points it joins, labelled
k.  The same pair can be linked for several k; the emitted graph keeps
one edge per pair, labelled with the largest such k (a Z_6 sphere is
also a Z_2 and a Z_3 sphere; the tightest group is the informative
one).

The DOT output is plain `graph { ... }` text with a `lambda` attribute
per vertex and a `k` attribute per edge, sorted so equal systems give
byte-equal files.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .constraints import PASS, pairing_check
from .core import FixedPointSystem, lambda_count
from .isotropy import classify_isotropy, isotropy_orders

__all__ = ["GraphDocument", "PairingRequired", "build_graph", "emit_dot"]


class PairingRequired(ValueError):
    """The graph is only defined for systems whose pairing check passes."""


@dataclass(frozen=True)
class GraphDocument:
    vertices: tuple  # (label, lambda) sorted by (lambda, label)
    edges: tuple  # (label_a, label_b, k), labels sorted within an edge

    def as_dict(self) -> dict:
        return {
            "vertices": [{"label": label, "lambda": lam} for label, lam in self.vertices],
            "edges": [{"ends": [a, b], "k": k} for a, b, k in self.edges],
        }


def build_graph(system: FixedPointSystem) -> GraphDocument:
    if len(system.points) > 3:
        raise ValueError("the isotropy graph needs at most 3 fixed points")
    if pairing_check(system).verdict != PASS:
        raise PairingRequired("pairing fails; the system has no isotropy graph")

    lams = zip(system.labels, map(lambda_count, system.points))
    vertices = tuple(sorted(lams, key=lambda v: (v[1], v[0])))

    # from the largest k down, the first k joining a pair is its edge; once
    # every pair has one, no smaller k can change the graph
    pairs = len(system.points) * (len(system.points) - 1) // 2
    best = {}
    for k in reversed(isotropy_orders(system.all_weights())):
        if len(best) == pairs:
            break
        decomposition = classify_isotropy(system, k)
        if not decomposition:
            continue
        for component in decomposition.components:
            for a, b in combinations(sorted(component.labels), 2):
                best.setdefault((a, b), k)

    edges = tuple((a, b, best[(a, b)]) for a, b in sorted(best))
    return GraphDocument(vertices=vertices, edges=edges)


def _dot_id(label: str) -> str:
    """label as a DOT quoted string, " escaped as \\"; a backslash, which DOT
    reads as the start of an escape, raises ValueError."""
    if "\\" in label:
        raise ValueError("label %r contains a backslash, which DOT cannot quote" % label)
    return '"%s"' % label.replace('"', '\\"')


def emit_dot(document: GraphDocument) -> str:
    lines = ["graph {"]
    for label, lam in document.vertices:
        lines.append("  %s [lambda=%d];" % (_dot_id(label), lam))
    for a, b, k in document.edges:
        lines.append("  %s -- %s [k=%d];" % (_dot_id(a), _dot_id(b), k))
    lines.append("}")
    return "\n".join(lines) + "\n"
