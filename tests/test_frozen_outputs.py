"""Byte guard: every emitted document over fixed input sets, one sha256
per group.

Per system: its document, its check report with and without the
effectivity requirement, and its isotropy graph as JSON and DOT (or the
PairingRequired message).  Per search scope: the results document of
both effectivities.  The digests were computed before the system type
was reduced to n, labels and ascending weight tuples, and a change that
alters a single emitted byte (a verdict, a witness, a label in a
witness, a graph edge, a search statistic) changes one of them.  Each
input set is hashed twice: as built, and with the points reversed and
labelled x, y, z, so that witness labels are pinned too.  The
scaled_shapes documents did not move when the CP2 and dim-6 shapes were
each given one definition in the isotropy module, and the oracle digests
at (n, points, W) = (3, 2, 4) and (4, 2, 3) were computed before the
oracle walked its product by largest |weight|.  The enumerate digests at
(6, 3, 12) and (8, 2, 5), and the slow tier's frontier digests at
(6, 3, 20) and (10, 2, 6), were computed before the d-branches walked
v's lifts by residue-class pair; those at (8, 3, 10) and (8, 3, 12)
were computed before each d-branch kept its lift lists by pick, and the
one at (8, 3, 14) before a self-mirror profile walked one branch of each
pair of reversal twins.
The pairwise-premise pool digests (each pool system's document, in pool
order) were computed before the pools walked their heads grouped by
weight product.  The n1_triples, n2_pairs, n2_triples and scaled_shapes
groups hold isotropy failures; their digests (and those of their _xyz
forms) were recomputed when the isotropy witness was cut to the one
forced partition, and no other byte of theirs moved.
"""

import hashlib
import json
from itertools import combinations_with_replacement, product

import pytest

from weightsys.constraints import check_system
from weightsys.core import FixedPointSystem
from weightsys.documents import (
    emit_report,
    emit_search_document,
    emit_system,
    render_json,
)
from weightsys.graph import PairingRequired, build_graph, emit_dot
from weightsys.search import (
    SearchConfig,
    cp2_family,
    dim6_pair_family,
    enumerate_systems,
    naive_oracle,
    _PAIRWISE_PREMISES,
    _partial_pool,
)


def _n1_triples():
    values = [w for w in range(-6, 7) if w != 0]
    for ws in product(values, repeat=3):
        yield FixedPointSystem.from_weights(1, [(w,) for w in ws])


def _n2_pairs():
    values = [w for w in range(-4, 5) if w != 0]
    multisets = list(combinations_with_replacement(values, 2))
    for rows in product(multisets, repeat=2):
        yield FixedPointSystem.from_weights(2, rows)


def _n2_triples():
    # reaches the same-point witness: d and -d at one point
    values = [w for w in range(-2, 3) if w != 0]
    multisets = list(combinations_with_replacement(values, 2))
    for rows in product(multisets, repeat=3):
        yield FixedPointSystem.from_weights(2, rows)


def _n4_triples():
    # reaches the c_1 witness, which names a point
    multisets = list(combinations_with_replacement((-1, 1), 4))
    for rows in product(multisets, repeat=3):
        yield FixedPointSystem.from_weights(4, rows)


def _families():
    for a in range(1, 13):
        for b in range(1, 13):
            yield cp2_family(a, b)
            yield dim6_pair_family(a, b)


def _scaled_shapes():
    # the CP2 triple and the dim-6 pair at multiples of k, each point
    # padded with a weight the Z_k shapes must see past
    pads = (-2, -1, 1, 2)
    for k in (2, 3):
        for a in range(1, 4):
            for b in range(1, 4):
                for x, y, z in product(pads, repeat=3):
                    yield FixedPointSystem.from_weights(
                        3,
                        [
                            (k * a, k * (a + b), x),
                            (-k * a, k * b, y),
                            (-k * (a + b), -k * b, z),
                        ],
                    )
                for x, y in product(pads, repeat=2):
                    yield FixedPointSystem.from_weights(
                        4,
                        [
                            (k * a, k * b, -k * (a + b), x),
                            (k * (a + b), -k * a, -k * b, y),
                        ],
                    )


def _reversed_xyz(systems):
    for system in systems:
        rows = [pt["weights"] for pt in reversed(emit_system(system)["points"])]
        yield FixedPointSystem.from_weights(
            system.n, rows, labels=("x", "y", "z")[: len(rows)]
        )


def _system_bytes(system):
    # render_json is json.dumps(document, indent=2): the compact dump of the
    # same dict pins the same keys, order and values, and the C encoder it
    # runs on keeps the 8,874 systems here inside the time budget
    parts = [json.dumps(emit_system(system))]
    for effective in (False, True):
        report = check_system(system, require_effective=effective)
        parts.append(json.dumps(emit_report(report)))
    try:
        graph = build_graph(system)
    except PairingRequired as exc:
        parts.append("PairingRequired: %s" % exc)
    else:
        parts.append(json.dumps(graph.as_dict()))
        parts.append(emit_dot(graph))
    return "\n".join(parts).encode() + b"\n"


SYSTEM_GROUPS = {
    "n1_triples": _n1_triples,
    "n2_pairs": _n2_pairs,
    "n2_triples": _n2_triples,
    "n4_triples": _n4_triples,
    "families": _families,
    "scaled_shapes": _scaled_shapes,
}

SYSTEM_DIGESTS = {
    "n1_triples": "4e9050f272e4bd4d64c347965e44a21803e82ddd78109224d77be82c9b8549e7",
    "n2_pairs": "c8ea53ff547476a3d7cbf441f7c875e0e1b8da77b9f7e2bab01c1170b50b434f",
    "n2_triples": "22a472573e1c99ba667c1c69a8c211d47ac74f08d5376cc7cb310f4d313eb650",
    "n4_triples": "5f903aeca634c74395ec131b72750f4a445f6449b95c615689551342a343a918",
    "families": "fd16e102d8ee824ea4ff535891ebb18d76a3edb958a48854e67a03353ff5f5c1",
    "scaled_shapes": "df4e75a8b1e6144671be2d459746de79381f95fbef9ef08e02aa38a84ecec546",
    "n1_triples_xyz": "1c6493f24cc4d920f7a2006816e7ab4c708f5cf9ab6f8cac31133ff1ab7a79f9",
    "n2_pairs_xyz": "92690e9b1fdcca55da9554c40a4c863995fd7bee4b2109b10622837e1fdb3fe0",
    "n2_triples_xyz": "86b7ff859fffbbbb9cb09b8d151746208c0981867d40aeaee570d579ee0d5b6c",
    "n4_triples_xyz": "32da8da0566c0748a1d93b5e21d2a4245727135b3a1dcf516828864af1b04a94",
    "families_xyz": "2f72ad402aeb49d8cd2b322341501ead771a3271c7cb6e0fe2e98eb918e0caf3",
    "scaled_shapes_xyz": "1e966f030dc26c68680ed4ba8d47f77e9839b932a868c1b491ea44f845dc53d4",
}


def _system_group(name):
    if name.endswith("_xyz"):
        return _reversed_xyz(SYSTEM_GROUPS[name[: -len("_xyz")]]())
    return SYSTEM_GROUPS[name]()


@pytest.mark.parametrize("group", sorted(SYSTEM_DIGESTS))
def test_system_documents_frozen(group):
    digest = hashlib.sha256()
    count = 0
    for system in _system_group(group):
        digest.update(_system_bytes(system))
        count += 1
    assert count > 0
    assert digest.hexdigest() == SYSTEM_DIGESTS[group], group


# (search, n, points, W) -> digest over both effectivities
SEARCH_DIGESTS = {
    ("enumerate", 2, 3, 6): "781782c5c7804c6367c8562e101a4deafa955873941e9ecd52c4b46f2ee376a0",
    ("enumerate", 3, 2, 4): "a867c44a98f85dc8cf24c0658d9e4fe2899d694e4a32b0cc762dc3ca534d7c6c",
    ("enumerate", 4, 3, 4): "9226ed2f457a834f6328b58ed5644cd0918cb526843624f2aa64e7c78c97af37",
    ("enumerate", 4, 3, 24): "f84c28ba147fa66e6c8a6cce737b3ce63e7e462bfdac06015e6b6944c292440d",
    ("enumerate", 6, 2, 6): "3c0443fb217114da29250ef2eb7a2be8d514424d195e45d6e55294201d1c93bf",
    ("enumerate", 6, 3, 6): "69398e3169feffbf7d2d590e722d3b81799dce5c4127e8ee5f4eeecb9fc664d9",
    ("enumerate", 6, 3, 10): "d846e53e2f718311aca13d9d99ab9005b0d4323607711e7f68b0f1bcc4ae44ca",
    ("enumerate", 6, 3, 12): "9e2e2a02071fc44f1f0ad846b9fffcf715702b911c70d54730d2484b7ef7ae27",
    ("enumerate", 8, 2, 5): "9dc24301e1462abe3814eb3252e6f7e6f2a1d7361f3eb9ede642786491f4b91c",
    ("enumerate", 10, 3, 5): "f36dbc600cb5a322b9140aa062cd207a4b2f3b626477cf9bfcacc3fdb7e9c945",
    ("oracle", 2, 3, 3): "6a00c938e2ad31400d20ac366a86d8f1c8902e0a8862dc376aba4f2fe022067c",
    ("oracle", 3, 2, 4): "60efab40a3bd49773f29798f69a9a8f4dc68544bc8a34dceb058b763e9cf4128",
    ("oracle", 4, 2, 3): "8bf1e0416e32cf7361169c8cbd8ef868550125ff90fd0fa057542bafe01ef1de",
}


@pytest.mark.parametrize("scope", sorted(SEARCH_DIGESTS))
def test_search_documents_frozen(scope):
    search, n, points, bound = scope
    run = enumerate_systems if search == "enumerate" else naive_oracle
    digest = hashlib.sha256()
    for effective in (False, True):
        config = SearchConfig(
            n=n, point_count=points, weight_bound=bound, require_effective=effective
        )
        digest.update(render_json(emit_search_document(config, run(config))).encode())
    assert digest.hexdigest() == SEARCH_DIGESTS[scope], scope


# (n, points, W, effective) -> digest of the one results document, at
# frontier scopes too slow for Tier-1 (a few seconds each)
FRONTIER_DIGESTS = {
    (6, 3, 20, False): "52be05c193ce039cb42fb70f5760cea8a5174523c47b62247fef2254794b4772",
    (8, 3, 10, False): "722cfd5abcc28b60b1921f5bb13bb5313865817920be744f3677fcf53ea7199a",
    (8, 3, 12, False): "de5b37053d515489e49f2597566bb5b21ea0eedd5931a5812b2f03d05502e1c1",
    (8, 3, 14, False): "74e821a9e99c447b973934ff9c6be8454ac38bd806d691c7dfca91d0fc08d255",
    (10, 2, 6, True): "c4a333e6346a7b56f15064bbc215357fc20b4cff63cd9ff15fca19b743c94407",
}


@pytest.mark.slow
@pytest.mark.parametrize("scope", sorted(FRONTIER_DIGESTS))
def test_frontier_documents_frozen(scope):
    n, points, bound, effective = scope
    config = SearchConfig(
        n=n, point_count=points, weight_bound=bound, require_effective=effective
    )
    document = render_json(emit_search_document(config, enumerate_systems(config)))
    assert hashlib.sha256(document.encode()).hexdigest() == FRONTIER_DIGESTS[scope], scope


# (n, points, W) -> (system count, digest) of the pairwise-premise pool
POOL_DIGESTS = {
    (4, 3, 5): (234, "b38d1753a8350898c4a6db81413a8dddfd3534c582d38e8be168da827ba36d40"),
    (4, 3, 6): (588, "5cf5953fa813cc0d1f1e5e7d6a79cefc6f8e4267179d7272ff9d26d3c611e416"),
}


@pytest.mark.parametrize("scope", sorted(POOL_DIGESTS))
def test_pairwise_premise_pools_frozen(scope):
    pool = _partial_pool(*scope, _PAIRWISE_PREMISES)
    digest = hashlib.sha256()
    for system in pool:
        digest.update(render_json(emit_system(system)).encode())
    assert (len(pool), digest.hexdigest()) == POOL_DIGESTS[scope], scope
