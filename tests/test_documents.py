"""System documents: parsing diagnostics and deterministic emission."""

import json

import pytest

from weightsys.constraints import FAIL, ConstraintReport, check_system, chern1_vanishing_check
from weightsys.core import FixedPointSystem
from weightsys.documents import (
    DocumentError,
    emit_report,
    emit_search_document,
    emit_system,
    parse_system,
    render_json,
)
from weightsys.search import SearchConfig, enumerate_systems

GOOD = {
    "dim": 4,
    "points": [
        {"label": "p", "weights": [1, 3]},
        {"label": "q", "weights": [-1, 2]},
        {"label": "r", "weights": [-3, -2]},
    ],
}


def test_parse_accepts_dict_and_text():
    from_dict = parse_system(GOOD)
    from_text = parse_system(json.dumps(GOOD))
    assert from_dict == from_text
    assert from_dict.n == 2
    assert from_dict.points[from_dict.labels.index("q")] == (-1, 2)


def test_round_trip():
    system = parse_system(GOOD)
    assert parse_system(emit_system(system)) == system


def _rejects(document, needle):
    with pytest.raises(DocumentError) as err:
        parse_system(document)
    assert needle in str(err.value), str(err.value)


def test_parse_diagnostics_are_specific():
    _rejects("{nope", "invalid JSON")
    _rejects(b"\xff\xfe{", "invalid JSON: undecodable bytes (truncated data)")
    _rejects([1, 2], "must be a JSON object")
    _rejects({"points": []}, "missing field: dim")
    _rejects({"dim": 4}, "missing field: points")
    _rejects({"dim": "four", "points": []}, "dim must be an integer")
    _rejects({"dim": True, "points": []}, "dim must be an integer")
    _rejects({"dim": 3, "points": []}, "positive even integer")
    _rejects({"dim": 4, "points": []}, "non-empty array")
    _rejects({"dim": 4, "points": [7]}, "points[0] must be an object")
    _rejects({"dim": 4, "points": [{"weights": [1, 2]}]}, "missing field: label")
    _rejects({"dim": 4, "points": [{"label": "p"}]}, "missing field: weights")
    _rejects(
        {"dim": 4, "points": [{"label": 3, "weights": [1, 2]}]},
        "non-empty string",
    )
    _rejects(
        {
            "dim": 2,
            "points": [
                {"label": "p", "weights": [1]},
                {"label": "p", "weights": [-1]},
            ],
        },
        "duplicate label: p",
    )
    _rejects(
        {"dim": 4, "points": [{"label": "p", "weights": "12"}]},
        "weights at p must be an array",
    )
    # a label that is no non-empty string names no point: the index does
    _rejects(
        {"dim": 4, "points": [{"label": "", "weights": "x"}]},
        "weights at points[0] must be an array",
    )
    _rejects(
        {
            "dim": 4,
            "points": [
                {"label": "q", "weights": [1, 2]},
                {"label": ["p"], "weights": 7},
            ],
        },
        "weights at points[1] must be an array",
    )
    _rejects(
        {"dim": 4, "points": [{"label": "p", "weights": [1, 1.5]}]},
        "non-integer weight at p",
    )
    _rejects(
        {"dim": 4, "points": [{"label": "p", "weights": [1, True]}]},
        "non-integer weight at p",
    )
    _rejects(
        {"dim": 4, "points": [{"label": "p", "weights": [1, 0]}]},
        "zero weight at p",
    )
    _rejects(
        {"dim": 4, "points": [{"label": "p", "weights": [1, 2, 3]}]},
        "point p has 3 weights, expected 2",
    )


def test_emit_report_includes_witness_only_on_failure():
    good = emit_report(check_system(parse_system(GOOD)))
    assert good["overall"] == "pass"
    assert all("witness" not in entry for entry in good["checks"])
    assert all(
        set(entry) == {"id", "verdict", "anchor"} for entry in good["checks"]
    )

    bad_doc = dict(GOOD, points=[
        {"label": "p", "weights": [1, 2]},
        {"label": "q", "weights": [-1, 2]},
        {"label": "r", "weights": [-2, -3]},
    ])
    bad = emit_report(check_system(parse_system(bad_doc)))
    assert bad["overall"] == "fail"
    by_id = {entry["id"]: entry for entry in bad["checks"]}
    assert by_id["pairing"]["witness"] == {"l": 2, "count_pos": 2, "count_neg": 1}


def test_render_json_is_stable():
    text = render_json(GOOD)
    assert text == render_json(GOOD)
    assert text.endswith("\n")
    assert json.loads(text) == GOOD


def test_search_document_shape_and_no_clock():
    config = SearchConfig(n=2, point_count=3, weight_bound=3)
    outcome = enumerate_systems(config)
    document = emit_search_document(config, outcome)
    assert document["config"] == {
        "n": 2,
        "points": 3,
        "bound": 3,
        "effective": True,
    }
    assert document["survivor_count"] == 2
    assert len(document["survivors"]) == 2
    assert set(document["statistics"]) == {"nodes", "pruned", "eliminated"}
    assert "elapsed" not in json.dumps(document)
    # emission is a pure function of the outcome
    assert render_json(document) == render_json(
        emit_search_document(config, outcome)
    )


def test_emitted_weights_are_in_stored_order():
    system = FixedPointSystem.from_weights(2, [(3, 1), (2, -1), (-2, -3)])
    document = emit_system(system)
    assert document["points"][0]["weights"] == [1, 3]


def test_a_c1_witness_past_the_digit_limit_renders_in_full():
    # every weight has 4,300 digits and parses, but c_1 at p is 11 * 10**4299,
    # one digit past the default int/str limit; the witness renders in full
    # (check_system would first list the divisors of the weights)
    scale = 10**4299
    points = ((-4, 5, 5, 5), (-5, -5, 1, 4), (-5, -5, -1, 5))
    system = FixedPointSystem.from_weights(4, [[w * scale for w in ws] for ws in points])
    result = chern1_vanishing_check(system)
    assert result.verdict == FAIL and result.witness["label"] == "p"
    text = render_json(emit_report(ConstraintReport((result,))))
    assert '"c1": 11' + "0" * 4299 + "\n" in text
