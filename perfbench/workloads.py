"""The four workloads: their operations, inputs and exact expected outputs.

An operation is one piece of evidence a user waits for: one enumerate
scope, one oracle cross-check, the whole replay sweep, or one document
through `check` and then `graph`.  Each operation has a `name` unique
within its workload, a `run(work)` that makes only the weightsys calls
being timed, and a `verify(result)` that returns (errors, counts)
without calling into weightsys, so a traced run attributes nothing to
the checking.

The seed drives the check_docs documents and the run order (for
replay_sweep, the order of the scopes within each lemma), and nothing
else: the expected counts below do not depend on it.  weightsys is
imported lazily, inside the operations, so the parent process can read
this module without loading the package it measures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("enum_frontier", "oracle_crosscheck", "replay_sweep", "check_docs")

GOLDEN_DOC = Path("tests/data/cp2_12.json")
GOLDEN_REPORT = Path("tests/data/cp2_12_report.json")
GOLDEN_DOT = Path("tests/data/cp2_12.dot")

REPLAY_BOUND = 5
DOC_COUNT = 100
DOC_MAX_WEIGHT = (10, 10**4)
CORRUPT_EVERY = 4


def run_cli(argv):
    """weightsys.cli.run_cli in-process, stdout and stderr captured."""
    from weightsys import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def oracle_space(n, bound, point_count, profile=None):
    """Candidates the oracle walks: per-point weight multisets, multiplied.

    A point with lam negative weights out of n draws a multiset of lam
    values from [-bound, -1] and n - lam from [1, bound]; with no
    profile, n values from the 2 * bound nonzero ones.
    """
    if profile is None:
        return math.comb(2 * bound + n - 1, n) ** point_count
    space = 1
    for lam in profile:
        space *= math.comb(bound + lam - 1, lam) * math.comb(bound + n - lam - 1, n - lam)
    return space


def cp2_weights(a, b):
    """Weights of cp2_family(a, b) in its canonical point order."""
    return [[a, a + b], [-a, b], [-a - b, -b]]


def _lambda_profile(points):
    return tuple(sorted(sum(1 for w in ws if w < 0) for ws in points))


class Expect:
    """Collects every mismatch between an observed and an expected value."""

    def __init__(self):
        self.errors = []

    def equal(self, what, got, want):
        if got != want:
            self.errors.append("%s: got %r, expected %r" % (what, got, want))


@dataclass(frozen=True)
class Enumerate:
    """`weightsys enumerate` through the CLI; the results document is checked.

    eliminated=None records the eliminated counters without gating on
    them; `pruned` is never gated (its meaning is due to change).
    """

    n: int
    points: int
    bound: int
    nodes: int
    survivors: tuple = ()
    eliminated: dict | None = None
    oracle: bool = False

    @property
    def name(self):
        kind = "oracle" if self.oracle else "enumerate"
        return "%s n=%d points=%d W=%d" % (kind, self.n, self.points, self.bound)

    def run(self, work):
        out = work / ("%s.json" % self.name.replace(" ", "_"))
        argv = ["enumerate", "--n", self.n, "--points", self.points,
                "--bound", self.bound, "--out", out]
        if self.oracle:
            argv.append("--oracle")
        return run_cli(argv), out

    def verify(self, result):
        (code, stdout, stderr), out = result
        check = Expect()
        check.equal("exit code", code, 0)
        if code != 0:
            return check.errors + [stderr.strip()], {}
        document = json.loads(out.read_text(encoding="utf-8"))
        stats = document["statistics"]
        survivors = sorted(
            [p["weights"] for p in s["points"]] for s in document["survivors"]
        )
        check.equal("survivors", survivors, sorted(list(s) for s in self.survivors))
        check.equal("survivor_count", document["survivor_count"], len(self.survivors))
        check.equal("nodes", stats["nodes"], self.nodes)
        if self.eliminated is not None:
            check.equal("eliminated", stats["eliminated"], self.eliminated)
        check.equal(
            "summary line",
            stdout,
            "%d survivor(s), %d candidate(s) examined, results in %s\n"
            % (len(self.survivors), self.nodes, out),
        )
        counts = {key: stats[key] for key in ("nodes", "pruned", "eliminated")}
        counts["survivors"] = survivors
        return check.errors, counts


@dataclass(frozen=True)
class OracleCrosscheck:
    """naive_oracle on one scope, held to enumerate_systems on the same scope."""

    n: int
    points: int
    bound: int
    profile: tuple | None
    survivors: int
    eliminated: dict

    @property
    def name(self):
        return "oracle n=%d points=%d W=%d profile=%s" % (
            self.n, self.points, self.bound, self.profile)

    def run(self, work):
        from weightsys import search

        config = search.SearchConfig(
            n=self.n, point_count=self.points, weight_bound=self.bound)
        oracle = search.naive_oracle(config, lambda_profile=self.profile)
        pruned = search.enumerate_systems(config, workers=1)
        return oracle, pruned

    def verify(self, result):
        oracle, pruned = result
        check = Expect()
        check.equal("oracle nodes", oracle.stats.nodes,
                    oracle_space(self.n, self.bound, self.points, self.profile))
        check.equal("survivors", len(oracle.survivors), self.survivors)
        eliminated = {b: dict(c) for b, c in oracle.stats.eliminated.items()}
        check.equal("eliminated", eliminated, self.eliminated)
        expected = [key.points for key in pruned.survivors]
        if self.profile is not None:
            # the oracle saw one lambda profile; reversal maps lam to n - lam
            mirrored = tuple(sorted(self.n - lam for lam in self.profile))
            expected = [p for p in expected
                        if _lambda_profile(p) in (tuple(self.profile), mirrored)]
        check.equal("oracle survivors == enumerator survivors",
                    [key.points for key in oracle.survivors], expected)
        counts = {
            "nodes": oracle.stats.nodes,
            "eliminated": eliminated,
            "survivors": [list(map(list, key.points)) for key in oracle.survivors],
            "enumerator_nodes": pruned.stats.nodes,
        }
        return check.errors, counts


@dataclass(frozen=True)
class Replay:
    """replay_lemma over the given scopes, in order, as one operation.

    scopes holds (lemma, point count, n, candidates, assertions) tuples.
    The replays share lru_cached premise pools, and the first replay to
    need a pool pays for it, so the time of any one replay depends on
    what ran before it.  Only the whole sweep is timed.
    """

    scopes: tuple
    bound: int = REPLAY_BOUND

    @property
    def name(self):
        return "replay sweep W=%d" % self.bound

    def run(self, work):
        from weightsys import search

        return [
            search.replay_lemma(lemma, search.SearchConfig(
                n=n, point_count=points, weight_bound=self.bound))
            for lemma, points, n, _, _ in self.scopes
        ]

    def verify(self, reports):
        check = Expect()
        counts = {}
        for (lemma, points, n, candidates, assertions), report in zip(self.scopes, reports):
            where = "%s points=%d n=%d " % (lemma, points, n)
            check.equal(where + "failures", len(report.failures), 0)
            check.equal(where + "candidates", report.candidates, candidates)
            check.equal(where + "assertions", report.assertions, assertions)
            counts[where.strip()] = [report.candidates, report.assertions]
        return check.errors, counts


@dataclass(frozen=True)
class ReplayCli:
    """`weightsys replay` through the CLI; the printed lines are checked."""

    lemma: str
    n: int
    bound: int
    lines: tuple

    @property
    def name(self):
        return "replay-cli %s n=%d W=%d" % (self.lemma, self.n, self.bound)

    def run(self, work):
        return run_cli(["replay", "--lemma", self.lemma, "--n", self.n, "--bound", self.bound])

    def verify(self, result):
        code, stdout, stderr = result
        check = Expect()
        check.equal("exit code", code, 0)
        check.equal("stdout", stdout, "".join(line + "\n" for line in self.lines))
        return check.errors, {"exit": code}


# Verdicts every member of each family gets from `check`, in report order.
FAMILY_VERDICTS = {
    "cp2": ("pass", "pass", "pass", "pass", "not-applicable", "pass", "pass",
            "not-applicable", "pass", "not-applicable"),
    "dim6": ("pass", "pass", "pass", "pass", "not-applicable", "not-applicable",
             "pass", "not-applicable", "not-applicable", "not-applicable"),
}
CHECK_IDS = ("pairing", "lambda_symmetry", "parity", "localization",
             "chern1_vanishing", "largest_weight_structure", "isotropy",
             "lambda_step", "component_lambda_relation", "even_count_relation")


def family_points(family, a, b):
    if family == "cp2":
        return cp2_weights(a, b)
    return [[a, b, -a - b], [a + b, -a, -b]]


def expected_graph(family, a, b):
    """Isotropy graph of a family member, derived from its weights.

    A pair of points is joined for k exactly when both carry a multiple
    of k, and the edge keeps the largest such k: for cp2 that is the
    shared weight of the pair (a for p-q, a+b for p-r, b for q-r), for
    the dim-6 pair the largest weight a+b.  k starts at 2.
    """
    if family == "cp2":
        vertices = [("p", 0), ("q", 1), ("r", 2)]
        edges = [("p", "q", a), ("p", "r", a + b), ("q", "r", b)]
    else:
        vertices = [("p", 1), ("q", 2)]
        edges = [("p", "q", a + b)]
    edges = [e for e in edges if e[2] >= 2]
    document = {
        "vertices": [{"label": lab, "lambda": lam} for lab, lam in vertices],
        "edges": [{"ends": [x, y], "k": k} for x, y, k in edges],
    }
    dot = ["graph {"]
    dot += ['  "%s" [lambda=%d];' % v for v in vertices]
    dot += ['  "%s" -- "%s" [k=%d];' % e for e in edges]
    return document, "\n".join(dot + ["}"]) + "\n"


@dataclass(frozen=True)
class Document:
    """One system document through `check` and then `graph`.

    A corrupted copy has one weight moved by one, which breaks pairing:
    both commands must exit 1.  golden names files whose bytes the
    report and the DOT output must equal.
    """

    label: str
    path: Path
    family: str
    a: int
    b: int
    corrupted: bool = False
    golden: tuple | None = None

    @property
    def name(self):
        return "doc %s" % self.label

    def run(self, work):
        dot = work / ("%s.dot" % self.label)
        checked = run_cli(["check", self.path])
        graphed = run_cli(["graph", self.path, "--dot", dot])
        return checked, graphed, dot

    def verify(self, result):
        (c_code, c_out, c_err), (g_code, g_out, g_err), dot = result
        check = Expect()
        counts = {"check_exit": c_code, "graph_exit": g_code}
        if self.corrupted:
            check.equal("check exit code", c_code, 1)
            check.equal("graph exit code", g_code, 1)
            if c_code == 1:
                report = json.loads(c_out)
                check.equal("overall", report["overall"], "fail")
                check.equal("pairing", report["checks"][0]["verdict"], "fail")
            check.equal("graph stderr", g_err,
                        "pairing fails; the system has no isotropy graph\n")
            return check.errors, counts
        check.equal("check exit code", c_code, 0)
        check.equal("graph exit code", g_code, 0)
        if c_code not in (0, 1) or g_code != 0:
            return check.errors + [c_err.strip(), g_err.strip()], counts
        report = json.loads(c_out)
        check.equal("overall", report["overall"], "pass")
        check.equal("checks", [(c["id"], c["verdict"]) for c in report["checks"]],
                    list(zip(CHECK_IDS, FAMILY_VERDICTS[self.family])))
        document, dot_text = expected_graph(self.family, self.a, self.b)
        check.equal("graph", json.loads(g_out), document)
        check.equal("dot", dot.read_text(encoding="utf-8"), dot_text)
        if self.golden is not None:
            report_file, dot_file = self.golden
            check.equal("report bytes", c_out, report_file.read_text(encoding="utf-8"))
            check.equal("dot bytes", dot.read_text(encoding="utf-8"),
                        dot_file.read_text(encoding="utf-8"))
        return check.errors, counts


# ---------------------------------------------------------------------------
# the fixed work of each workload

ENUM_FRONTIER = (
    Enumerate(n=10, points=3, bound=5, nodes=24736, eliminated={
        "odd": {"localization": 21944, "isotropy": 102},
        "even": {"localization": 2656, "isotropy": 34}}),
    Enumerate(n=12, points=3, bound=4, nodes=9794, eliminated={
        "odd": {"localization": 194, "isotropy": 6},
        "even": {"localization": 9516, "isotropy": 78}}),
)

ORACLE_CROSSCHECK = (
    OracleCrosscheck(n=4, points=3, bound=4, profile=(0, 2, 4), survivors=0, eliminated={
        "odd": {"pairing": 7570, "localization": 306},
        "even": {"pairing": 113200, "localization": 1424}}),
    OracleCrosscheck(n=3, points=2, bound=6, profile=None, survivors=15, eliminated={
        "odd": {"pairing": 36480, "isotropy": 124, "localization": 132},
        "even": {"pairing": 95292, "isotropy": 204, "localization": 228,
                 "effectivity": 6}}),
    OracleCrosscheck(n=5, points=2, bound=3, profile=None, survivors=11, eliminated={
        "odd": {"pairing": 59842, "isotropy": 190, "localization": 360},
        "even": {"pairing": 3002, "isotropy": 40, "localization": 48}}),
)

# (candidates, assertions) per lemma and point count, for n = 1, 2, 3, 4
REPLAY_COUNTS = {
    ("l22", 2): ((5, 5), (0, 0), (14, 14), (0, 0)),
    ("l22", 3): ((0, 0), (6, 6), (0, 0), (0, 0)),
    ("l24", 2): ((5, 5), (0, 0), (14, 14), (0, 0)),
    ("l24", 3): ((0, 0), (6, 6), (0, 0), (0, 0)),
    ("l32", 3): ((0, 0), (6, 6), (0, 0), (0, 0)),
    ("l33", 3): ((0, 0), (6, 6), (0, 0), (0, 0)),
    ("l34", 2): ((5, 0), (0, 0), (110, 6), (0, 0)),
    ("l34", 3): ((0, 0), (6, 0), (0, 0), (234, 5)),
    ("l36", 2): ((5, 0), (0, 0), (110, 3), (0, 0)),
    ("l36", 3): ((0, 0), (6, 0), (0, 0), (234, 3)),
    ("r35", 2): ((20, 30),) * 4,
    ("r35", 3): ((20, 30),) * 4,
    ("l46", 3): ((0, 0), (5, 18), (0, 0), (0, 0)),
}

def golden_ops(root):
    """Documented answers every workload re-checks after its timed work.

    They are cheap and derivable by hand: the golden report and DOT of
    tests/data/cp2_12.json; the six effective cp2 families with a + b <= 6
    (a <= b, gcd 1); the 21 * 21 two-point candidates the oracle walks at
    n=2 W=3, none consistent; and the nine cp2 families (a <= b, a + b <= 6)
    replayed for l22.  They also make every traced layer do some work on
    every workload.
    """
    families = [(a, b) for a in range(1, 6) for b in range(a, 7 - a)]
    effective = [cp2_weights(a, b) for a, b in families if math.gcd(a, b) == 1]
    return (
        Document("golden-cp2_12", root / GOLDEN_DOC, "cp2", 1, 2,
                 golden=(root / GOLDEN_REPORT, root / GOLDEN_DOT)),
        Enumerate(n=2, points=3, bound=6, nodes=177,
                  survivors=tuple(map(tuple, effective))),
        Enumerate(n=2, points=2, bound=3, nodes=oracle_space(2, 3, 2), oracle=True),
        ReplayCli("l22", 2, 6, (
            "l22: ok over 2 points (n=2, bound=6): 0 candidate(s), 0 assertion(s)",
            "l22: ok over 3 points (n=2, bound=6): %d candidate(s), %d assertion(s)"
            % (len(families), len(families)),
        )),
    )


def generate_documents(seed):
    """Seeded family members and corrupted copies, as (Document fields, bytes).

    The largest weight runs log-uniformly over DOC_MAX_WEIGHT: member i
    sits at the middle of the i-th of DOC_COUNT equal-width strata of its
    logarithm, and the families alternate.  The cost of a document grows
    with its largest weight, so every seed gets the same spread of sizes,
    and the total and the percentiles barely depend on the seed.  The
    seed draws how the largest weight splits into a + b, which members
    (one in CORRUPT_EVERY) get a corrupted copy and which weight is
    corrupted, and the run order.
    """
    rng = random.Random(seed)
    lo, hi = (math.log10(x) for x in DOC_MAX_WEIGHT)
    corrupt = set(rng.sample(range(DOC_COUNT), DOC_COUNT // CORRUPT_EVERY))
    documents = []
    for i in range(DOC_COUNT):
        top = max(round(10 ** (lo + (hi - lo) * (i + 0.5) / DOC_COUNT)), 3)
        a = rng.randint(1, top - 1)
        family = ("cp2", "dim6")[i % 2]
        points = family_points(family, a, top - a)
        documents.append(("%03d-%s-%d-%d" % (i, family, a, top - a), family, a, top - a, False, points))
        if i in corrupt:
            bad = [list(ws) for ws in points]
            row = rng.randrange(len(bad))
            col = rng.randrange(len(bad[row]))
            bad[row][col] += 1 if bad[row][col] != -1 else 2
            documents.append(("%03d-%s-corrupt" % (i, family), family, a, top - a, True, bad))
    rng.shuffle(documents)
    rendered = []
    for label, family, a, b, corrupted, points in documents:
        text = json.dumps({
            "dim": 2 * len(points[0]),
            "points": [{"label": lab, "weights": ws} for lab, ws in zip("pqr", points)],
        }, indent=2) + "\n"
        rendered.append(((label, family, a, b, corrupted), text.encode("utf-8")))
    return rendered


def build(workload, seed, work):
    """The workload's operations in seeded order, plus a digest of its inputs.

    check_docs writes its documents into work; the digest covers their
    bytes, so two generations from one seed can be compared.
    """
    if workload == "check_docs":
        ops = []
        digest = hashlib.sha256()
        for (label, family, a, b, corrupted), data in generate_documents(seed):
            path = work / ("%s.json" % label)
            path.write_bytes(data)
            digest.update(label.encode("utf-8") + b"\0" + data)
            ops.append(Document(label, path, family, a, b, corrupted))
        return ops, digest.hexdigest()
    rng = random.Random(seed)
    if workload == "replay_sweep":
        # The lemmas keep their order, so the same replay always builds a
        # shared pool; the seed orders the scopes within each lemma.
        scopes = []
        for lemma in dict.fromkeys(lemma for lemma, _ in REPLAY_COUNTS):
            group = [(lemma, points, n) + counts
                     for (name, points), per_n in REPLAY_COUNTS.items() if name == lemma
                     for n, counts in zip((1, 2, 3, 4), per_n)]
            rng.shuffle(group)
            scopes += group
        ops = [Replay(tuple(scopes))]
    else:
        ops = list({"enum_frontier": ENUM_FRONTIER,
                    "oracle_crosscheck": ORACLE_CROSSCHECK}[workload])
        rng.shuffle(ops)
    return ops, hashlib.sha256(repr(ops).encode("utf-8")).hexdigest()
