"""Tests for the benchmark's own machinery.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class ScriptedClock:
    """Returns the given readings in order, one per call."""

    def __init__(self, *readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


class SelfTimeTest(unittest.TestCase):
    def test_nested_call_self_time(self):
        # outer runs 0..10 and calls inner over 1..3 and 4..7
        tracer = tracing.Tracer(span_names={"outer"},
                                clock=ScriptedClock(0.0, 1.0, 3.0, 4.0, 7.0, 10.0))
        inner = tracer.wrap("inner", lambda: None)

        def body():
            inner()
            inner()

        tracer.wrap("outer", body)()
        self.assertEqual(tracer.calls, {"inner": 2, "outer": 1})
        self.assertEqual(tracer.self_s, {"inner": 5.0, "outer": 5.0})
        self.assertEqual(tracer.total_s, {"inner": 5.0, "outer": 10.0})
        self.assertEqual(sum(tracer.self_s.values()), 10.0)
        self.assertEqual(
            [(s["name"], s["parent"], s["start"], s["end"]) for s in tracer.spans],
            [("outer", None, 0.0, 10.0)])

    def test_exception_still_closes_the_call(self):
        tracer = tracing.Tracer(clock=ScriptedClock(0.0, 2.0))

        def boom():
            raise RuntimeError("boom")

        with self.assertRaises(RuntimeError):
            tracer.wrap("boom", boom)()
        self.assertEqual(tracer.calls, {"boom": 1})
        self.assertEqual(tracer.self_s, {"boom": 2.0})


INSTALL_CHECK = """
import importlib, inspect, sys, tempfile
from pathlib import Path
sys.path[:0] = [%r, %r]
import tracing, workloads, weightsys
names = ("weightsys",) + tuple("weightsys." + m for m in tracing.MODULES)
for name in names:
    importlib.import_module(name)
public = [getattr(sys.modules[n], a) for n in names[1:] for a in sys.modules[n].__all__]
public = [f for f in public if inspect.isfunction(f) and not inspect.isgeneratorfunction(f)]
tracer = tracing.Tracer()
tracer.install()
for name in names:
    for attr, value in vars(sys.modules[name]).items():
        assert not any(value is f for f in public), (name, attr)
assert hasattr(weightsys.FixedPointSystem.from_weights, "__wrapped__")
with tempfile.TemporaryDirectory() as tmp:
    for op in workloads.golden_ops(Path(%r)):
        op.verify(op.run(Path(tmp)))
calls = tracer.calls
for name in ("cli.run_cli", "core.from_weights", "graph.build_graph",
             "isotropy.classify_isotropy", "search.replay_lemma",
             "constraints.pairing_check", "documents.parse_system"):
    assert calls[name] > 0, name
# the two enumerate documents, plus the enumerator runs inside the l22 replay
assert tracer.replay_candidates == 9 and tracer.nodes > 177 + 441, tracer.nodes
print("ok")
"""


class InstallTest(unittest.TestCase):
    def test_every_public_function_is_wrapped_everywhere(self):
        code = INSTALL_CHECK % (str(HERE), str(HERE.parent / "src"), str(HERE.parent))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stdout, "ok\n")


class NormalizationTest(unittest.TestCase):
    def test_scale_uses_the_samples_around_and_inside(self):
        sampler = child.SpeedSampler()
        sampler.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        sampler.kernel_s = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.9]
        ref = child.REF_NOMINAL_S
        # inside 2.5..3.5: the 3.0 sample, two before and two after
        self.assertAlmostEqual(sampler.scale(2.5, 3.5), ref / 0.04)
        # nothing before the first sample: the two after it
        self.assertAlmostEqual(sampler.scale(-1.0, -0.5), ref / 0.015)
        # 0.5..5.5 holds five samples, and one lies on each side
        self.assertAlmostEqual(sampler.scale(0.5, 5.5), ref * 7 / 1.11)

    def test_kernel_time_is_taken_out(self):
        class Busy:
            name = "busy"

            def run(self, work):
                deadline = time.perf_counter() + 0.5
                while time.perf_counter() < deadline:
                    pass

            def verify(self, result):
                return [], {}

        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            (record,), tracer = child.run_ops([Busy()], Path(tmp))
            elapsed = time.perf_counter() - start
        self.assertIsNone(tracer)
        self.assertEqual(record["errors"], [])
        # the operation spins for 0.5 s of wall time; the kernel interrupted
        # it at least once, and that time is not the operation's
        self.assertLess(record["seconds"], 0.5)
        self.assertGreater(elapsed, 0.5)
        self.assertGreater(record["norm_s"], 0.0)


class DocumentSeedTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory() as one, tempfile.TemporaryDirectory() as two:
            ops_one, digest_one = workloads.build("check_docs", 7, Path(one))
            ops_two, digest_two = workloads.build("check_docs", 7, Path(two))
            self.assertEqual(digest_one, digest_two)
            self.assertEqual([op.label for op in ops_one], [op.label for op in ops_two])
            for a, b in zip(ops_one, ops_two):
                self.assertEqual(a.path.read_bytes(), b.path.read_bytes())

    def test_other_seed_other_documents(self):
        self.assertNotEqual(workloads.generate_documents(7), workloads.generate_documents(8))

    def test_document_sizes_cover_the_range(self):
        docs = workloads.generate_documents(7)
        tops = sorted(a + b for (_, _, a, b, corrupted), _ in docs if not corrupted)
        self.assertEqual(len(tops), workloads.DOC_COUNT)
        self.assertEqual((tops[0], tops[-1]), (10, 9661))
        self.assertEqual(tops, sorted(a + b for (_, _, a, b, corrupted), _
                                      in workloads.generate_documents(8) if not corrupted))
        corrupted = [family for (_, family, _, _, bad), _ in docs if bad]
        self.assertEqual(len(corrupted), workloads.DOC_COUNT // workloads.CORRUPT_EVERY)
        self.assertEqual(set(corrupted), {"cp2", "dim6"})

    def test_fixed_workload_order_follows_the_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops, digest = workloads.build("replay_sweep", 3, Path(tmp))
            again, digest_again = workloads.build("replay_sweep", 3, Path(tmp))
            (other,), digest_other = workloads.build("replay_sweep", 4, Path(tmp))
        self.assertEqual((ops, digest), (again, digest_again))
        self.assertNotEqual(digest, digest_other)
        (sweep,) = ops
        # the lemmas keep their order; only the scopes within one move
        lemmas = list(dict.fromkeys(lemma for lemma, _ in workloads.REPLAY_COUNTS))
        for scopes in (sweep.scopes, other.scopes):
            self.assertEqual(list(dict.fromkeys(scope[0] for scope in scopes)), lemmas)
        self.assertEqual(sorted(sweep.scopes), sorted(other.scopes))
        self.assertNotEqual(sweep.scopes, other.scopes)


class FailedOperationTest(unittest.TestCase):
    def test_tampered_count_is_a_failed_operation(self):
        with tempfile.TemporaryDirectory() as tmp:
            honest = workloads.Replay((("l22", 3, 2, 6, 6), ("l22", 3, 1, 0, 0)))
            tampered = workloads.Replay((("l22", 3, 2, 7, 6), ("l22", 3, 1, 0, 0)))
            self.assertEqual(child.run_op(honest, Path(tmp))["errors"], [])
            record = child.run_op(tampered, Path(tmp))
        self.assertEqual(record["errors"], ["l22 points=3 n=2 candidates: got 6, expected 7"])

    def test_tampered_cli_count_is_a_failed_operation(self):
        golden = workloads.golden_ops(HERE.parent)[1]
        with tempfile.TemporaryDirectory() as tmp:
            record = child.run_op(
                workloads.Enumerate(golden.n, golden.points, golden.bound,
                                    golden.nodes + 1, golden.survivors), Path(tmp))
        self.assertTrue(any(e.startswith("nodes: got 177") for e in record["errors"]))

    def test_exception_is_a_failed_operation(self):
        with tempfile.TemporaryDirectory() as tmp:
            record = child.run_op(workloads.Replay((("l99", 3, 2, 0, 0),)), Path(tmp))
        self.assertEqual(len(record["errors"]), 1)
        self.assertTrue(record["errors"][0].startswith("raised ValueError"))

    def test_run_counts_failures_and_drift(self):
        bench = run.Run("replay_sweep", 1, Path("unused"))

        def result(errors, counts, digest="d"):
            op = {"name": "op", "seconds": 1.0, "errors": errors, "counts": counts}
            return {"digest": digest, "ops": [op], "golden": []}

        bench.account(result([], {"nodes": 3}))
        self.assertEqual((bench.attempted, bench.failed), (1, 0))
        bench.account(result(["nodes: got 3, expected 4"], {"nodes": 3}))
        self.assertEqual((bench.attempted, bench.failed), (2, 1))
        bench.account(result([], {"nodes": 4}))
        self.assertEqual((bench.attempted, bench.failed), (3, 2))
        self.assertIn("drifted", bench.problems[-1])
        bench.account(result([], {"nodes": 3}, digest="other"))
        self.assertEqual(bench.failed, 3)
        self.assertIn("inputs differ", bench.problems[-1])


class ExpectationTest(unittest.TestCase):
    def test_oracle_space_matches_the_workload_counts(self):
        self.assertEqual(workloads.oracle_space(4, 4, 3, (0, 2, 4)), 122500)
        self.assertEqual(workloads.oracle_space(3, 6, 2), 132496)
        self.assertEqual(workloads.oracle_space(5, 3, 2), 63504)

    def test_replay_totals(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops, _ = workloads.build("replay_sweep", 1, Path(tmp))
        (sweep,) = ops
        self.assertEqual(len(sweep.scopes), 52)
        self.assertEqual(sum(scope[3] for scope in sweep.scopes), 937)
        self.assertEqual(sum(scope[4] for scope in sweep.scopes), 337)

    def test_declared_metrics_are_computed(self):
        fake = {name: 1 for name in run.TRACED}
        result = {
            "ops": [{"seconds": 2.0, "norm_s": 2.0}],
            "golden": [{"seconds": 1.0}],
            "trace": {
                "calls": dict(fake, **{n: 1 for n in run.EMIT}),
                "self_s": dict(fake, **{n: 0.1 for n in run.EMIT}),
                "total_s": dict(fake, **{n: 0.1 for n in run.EMIT}),
                "nodes": 4, "pruned": {"largest_weight": 4}, "killed": {},
                "replay_candidates": 0, "replay_assertions": 0,
                "systems_classified": 1,
            },
        }
        values = run.per_layer([result], [result])
        self.assertEqual(sorted(values), sorted(n for n, _ in run.declared_metrics(1)))
        self.assertEqual(values["search.node_yield"], 0.5)
