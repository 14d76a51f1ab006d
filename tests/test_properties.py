"""Properties of the core model, canonical form, documents and filter,
checked on hypothesis-drawn systems (profile in conftest.py)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from weightsys.constraints import FAIL, check_system  # noqa: E402
from weightsys.core import (  # noqa: E402
    FixedPointSystem,
    canonicalize,
    lambda_count,
    reverse_action,
)
from weightsys.documents import emit_system, parse_system, render_json  # noqa: E402
from weightsys.isotropy import FILTER_CHECKS  # noqa: E402
from weightsys.search import cp2_family, dim6_pair_family, first_failure  # noqa: E402

LABELS = st.sampled_from(("p", "q", "r", "x", "y", "z", "p1", "p2", "long label"))


def _weights(bound):
    return st.integers(-bound, bound).filter(bool)


@st.composite
def systems(draw, points=st.integers(1, 4), n=st.integers(1, 4), bound=6):
    """A system with arbitrary labels, point count and weights."""
    count, half = draw(points), draw(n)
    rows = draw(
        st.lists(
            st.lists(_weights(bound), min_size=half, max_size=half),
            min_size=count,
            max_size=count,
        )
    )
    labels = draw(st.lists(LABELS, min_size=count, max_size=count, unique=True))
    return FixedPointSystem.from_weights(half, rows, labels=labels)


@st.composite
def filter_systems(draw):
    """Small 2- and 3-point systems; families (scaled, so effectivity
    can fail alone) and reversal pairs, so that not only pairing kills."""
    kind = draw(st.sampled_from(("raw", "cp2", "dim6", "pair")))
    if kind == "raw":
        return draw(systems(points=st.integers(2, 3), n=st.integers(1, 3), bound=4))
    if kind == "pair":
        ws = draw(st.lists(_weights(4), min_size=1, max_size=3))
        return FixedPointSystem.from_weights(len(ws), [ws, [-w for w in ws]])
    a, b, c = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    system = (cp2_family if kind == "cp2" else dim6_pair_family)(a, b)
    return FixedPointSystem.from_weights(
        system.n, [[c * w for w in ws] for ws in system.points]
    )


def _reordered(system, data):
    """The system's points in a drawn order, under drawn labels."""
    order = data.draw(st.permutations(system.points))
    labels = data.draw(
        st.lists(LABELS, min_size=len(order), max_size=len(order), unique=True)
    )
    return FixedPointSystem.from_weights(system.n, order, labels=labels)


@given(st.lists(st.integers(-50, 50), max_size=8))
def test_fixed_point_sorts_keeps_duplicates_and_rejects_zero(ws):
    # one point carrying ws, so n = len(ws); no weights at all is n = 0
    if 0 in ws or not ws:
        with pytest.raises(ValueError):
            FixedPointSystem(len(ws), (ws,), ("p",))
    else:
        system = FixedPointSystem(len(ws), (ws,), ("p",))
        assert system.points == (tuple(sorted(ws)),)


def _reference_key(system):
    # the definition: sort the points of the system and of its reversal by
    # (negative count, weights) and keep the smaller
    def rows(s):
        return tuple(
            sorted(s.points, key=lambda ws: (lambda_count(ws), ws))
        )

    return min(rows(system), rows(reverse_action(system)))


@given(systems(), st.data())
def test_canonicalize_ignores_order_labels_and_direction(system, data):
    key = canonicalize(system)
    assert key.points == _reference_key(system)
    moved = _reordered(system, data)
    assert canonicalize(moved) == key
    assert canonicalize(reverse_action(moved)) == key
    assert canonicalize(key) == key


@given(systems(bound=10**12))
def test_system_documents_round_trip(system):
    assert parse_system(render_json(emit_system(system))) == system


@given(filter_systems(), st.booleans())
def test_first_failure_none_exactly_when_check_system_passes(system, effective):
    report = check_system(system, require_effective=effective)
    failed = first_failure(system, effective)
    assert (failed is None) == report.overall
    # and it names the first filter check the report fails
    filter_ids = {check_id for check_id, _, _ in FILTER_CHECKS}
    assert failed == next(
        (c.check_id for c in report.checks if c.check_id in filter_ids and c.verdict == FAIL),
        None,
    )


@given(filter_systems(), st.data())
def test_verdicts_ignore_order_labels_and_direction(system, data):
    def verdicts(s):
        return [(c.check_id, c.verdict) for c in check_system(s).checks]

    moved = _reordered(system, data)
    assert verdicts(moved) == verdicts(system)
    assert verdicts(reverse_action(system)) == verdicts(system)
