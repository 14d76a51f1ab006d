"""JSON documents for systems, check reports, and search output.

A system document looks like

    {"dim": 4,
     "points": [{"label": "p", "weights": [1, 2]},
                {"label": "q", "weights": [-1, 1]},
                {"label": "r", "weights": [-2, -1]}]}

dim is the manifold dimension 2n, so each point carries dim/2 weights.
parse_system is strict: every malformed input gets its own diagnostic
(wrong type, odd dimension, duplicate label, zero weight, wrong weight
count) rather than a generic failure.  It checks the JSON shape itself
and leaves the rules of a valid system to FixedPointSystem, whose
ValueError it reports as a DocumentError.  Booleans are rejected where
integers are required; JSON has a separate boolean type and a weight of
`true` is a bug in the producer, not a 1.

Emission is deterministic: key order is fixed by construction, weights
are emitted in the ascending order FixedPointSystem stores, and the search
document leaves out wall-clock time so identical runs are identical
bytes.
"""

from __future__ import annotations

import json

from .constraints import ConstraintReport
from .core import FixedPointSystem, _all_digits

__all__ = [
    "DocumentError",
    "parse_system",
    "emit_system",
    "emit_report",
    "emit_search_document",
    "render_json",
]


class DocumentError(ValueError):
    """A system document failed validation; the message says exactly why."""


def _require_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError("%s must be an integer" % what)
    return value


def parse_system(document) -> FixedPointSystem:
    """Build a system from a JSON string or an already-parsed object."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise DocumentError("invalid JSON: %s" % exc) from None
        except RecursionError:
            raise DocumentError("invalid JSON: nested too deeply") from None
        except UnicodeDecodeError as exc:
            raise DocumentError("invalid JSON: undecodable bytes (%s)" % exc.reason) from None
        except ValueError:
            # what json raises for an integer literal past the interpreter's
            # int/str digit limit (4,300 by default), which stays as it is
            raise DocumentError("invalid JSON: integer literal too long") from None
    if not isinstance(document, dict):
        raise DocumentError("document must be a JSON object")
    for field in ("dim", "points"):
        if field not in document:
            raise DocumentError("missing field: %s" % field)

    dim = _require_int(document["dim"], "dim")
    if dim < 2 or dim % 2 != 0:
        raise DocumentError("dim must be a positive even integer")
    n = dim // 2

    raw_points = document["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise DocumentError("points must be a non-empty array")

    labels = []
    rows = []
    for idx, entry in enumerate(raw_points):
        where = "points[%d]" % idx
        if not isinstance(entry, dict):
            raise DocumentError("%s must be an object" % where)
        for field in ("label", "weights"):
            if field not in entry:
                raise DocumentError("missing field: %s in %s" % (field, where))
        label, weights = entry["label"], entry["weights"]
        if not isinstance(weights, list):
            named = label if isinstance(label, str) and label else where
            raise DocumentError("weights at %s must be an array" % named)
        labels.append(label)
        rows.append(weights)

    try:
        return FixedPointSystem.from_weights(n, rows, labels=labels)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def emit_system(system: FixedPointSystem) -> dict:
    return {
        "dim": 2 * system.n,
        "points": [
            {"label": label, "weights": list(ws)}
            for label, ws in zip(system.labels, system.points)
        ],
    }


def emit_report(report: ConstraintReport) -> dict:
    """One entry per check, witness key present only on failures."""
    checks = []
    for result in report.checks:
        entry = {
            "id": result.check_id,
            "verdict": result.verdict,
            "anchor": result.anchor,
        }
        if result.witness is not None:
            entry["witness"] = result.witness
        checks.append(entry)
    return {"overall": "pass" if report.overall else "fail", "checks": checks}


def _counter_dict(counter):
    return {key: counter[key] for key in sorted(counter)}


def emit_search_document(config, outcome) -> dict:
    """Search results as a stable document: no clock reading, so reruns
    and worker splits produce identical bytes."""
    return {
        "config": {
            "n": config.n,
            "points": config.point_count,
            "bound": config.weight_bound,
            "effective": config.require_effective,
        },
        "survivor_count": len(outcome.survivors),
        "survivors": [emit_system(system) for system in outcome.survivors],
        "statistics": {
            "nodes": outcome.stats.nodes,
            "pruned": _counter_dict(outcome.stats.pruned),
            "eliminated": {
                bucket: _counter_dict(outcome.stats.eliminated[bucket])
                for bucket in sorted(outcome.stats.eliminated)
            },
        },
    }


def render_json(document: dict) -> str:
    """The document as indented JSON, every integer in full."""
    with _all_digits():
        return json.dumps(document, indent=2) + "\n"
