"""weightsys benchmark: time to exact evidence, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's src/.  Every timed repetition is a fresh
interpreter (child.py) running single-process, workers=1.  A run starts
repetitions until S seconds have passed (at least one), each preceded by
SETUP_PER_REP set-up-only interpreters; setup_s is the median over all
of them.  With --trace 1 it alternates untraced and traced repetitions
and reports the per-layer metrics instead of the end-to-end ones.

Every operation's output is checked against exact expected values, and
every exact count must repeat across the repetitions of one run; a
mismatch, an exception or a wrong exit code is a failed operation.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit, as declared in BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs HERE on sys.path; does not import weightsys)

SETUP_PER_REP = 3
RUN_LIMIT_S = 170.0

# wrapped functions whose calls and self time the traced run reports
TRACED = (
    "cli.run_cli",
    "documents.parse_system",
    "search.enumerate_systems",
    "search.naive_oracle",
    "search.replay_lemma",
    "search.first_failure",
    "core.from_weights",
    "core.canonicalize",
    "constraints.pairing_check",
    "constraints.lambda_symmetry_check",
    "constraints.parity_check",
    "constraints.localization_sum",
    "constraints.chern1_vanishing_check",
    "constraints.check_system",
    "isotropy.classify_isotropy",
    "isotropy.largest_weight_structure",
    "graph.build_graph",
    "graph.emit_dot",
)
EMIT = ("documents.emit_report", "documents.emit_search_document",
        "documents.emit_system", "documents.render_json")
SEARCH_ROOTS = ("search.enumerate_systems", "search.naive_oracle")


class Run:
    """Children of one benchmark run and the bookkeeping of their outputs."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.reference = {}
        self.problems = []
        self.children = 0

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def child(self, mode):
        """Start one child, wait for it, and check what it reports."""
        self.children += 1
        work = self.work / ("%s-%d" % (mode, self.children))
        argv = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--mode", mode, "--work", str(work)]
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.attempted += 1  # input generation, compared across children by digest
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, env=env,
                timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            self.fail("%s child timed out" % mode)
            return None
        finally:
            shutil.rmtree(work, ignore_errors=True)
        try:
            if proc.returncode != 0:
                raise ValueError("exit code %d" % proc.returncode)
            result = json.loads(proc.stdout.splitlines()[-1])
        except (ValueError, IndexError) as exc:
            self.fail("%s child failed (%s): %s" % (mode, exc, proc.stderr.strip()[-500:]))
            return None
        result["setup_s"] = result["ready"] - spawned
        self.account(result)
        return result

    def account(self, result):
        """Count the child's operations; wrong output or drifted counts fail."""
        if self.digest is None:
            self.digest = result["digest"]
        elif result["digest"] != self.digest:
            self.fail("inputs differ between two generations from seed %d" % self.seed)
        for record in result.get("ops", []) + result.get("golden", []):
            self.attempted += 1
            errors = list(record["errors"])
            first = self.reference.setdefault(record["name"], record["counts"])
            if record["counts"] != first:
                errors.append("counts drifted from the first repetition")
            if errors:
                self.fail("%s: %s" % (record["name"], "; ".join(errors)))


def work_wall(result, key="seconds"):
    return sum(op[key] for op in result["ops"])


def quantile(values, q):
    """Inclusive-method quantile; exact for a single value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(setups, timed):
    """End-to-end metrics, plus operation latencies and raw times to print.

    The latency percentiles are taken over the operations of the workload,
    each represented by its median over the repetitions.
    """
    def latencies(key):
        per_op = {}
        for result in timed:
            for op in result["ops"]:
                per_op.setdefault(op["name"], []).append(op[key] * 1000)
        return [statistics.median(times) for times in per_op.values()]

    norm, raw = latencies("norm_s"), latencies("seconds")
    values = {
        "setup_s": statistics.median(setups),
        "wall_norm_s": statistics.median(work_wall(r, "norm_s") for r in timed),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in timed),
    }
    printed = {
        "op_p50_norm_ms": quantile(norm, 0.5),
        "op_p90_norm_ms": quantile(norm, 0.9),
        "wall_s": statistics.median(work_wall(r) for r in timed),
        "op_p50_ms": quantile(raw, 0.5),
        "op_p90_ms": quantile(raw, 0.9),
        "operations": len(raw),
        "repetitions": len(timed),
    }
    return values, printed


def layer_values(result):
    """Per-layer metrics of one traced child."""
    trace = result["trace"]
    calls, self_s, total_s = trace["calls"], trace["self_s"], trace["total_s"]
    values = {}
    for name in TRACED:
        values[name + ".calls"] = calls[name]
        values[name + ".self_s"] = self_s[name]
    values["documents.emit.calls"] = sum(calls[n] for n in EMIT)
    values["documents.emit.self_s"] = sum(self_s[n] for n in EMIT)
    modules = {}
    for name, seconds in self_s.items():
        module = name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + seconds
    for module, seconds in modules.items():
        values[module + ".self_s"] = seconds
    nodes = trace["nodes"]
    pruned = trace["pruned"]
    values["search.nodes"] = nodes
    values["search.nodes_per_s"] = nodes / sum(total_s[n] for n in SEARCH_ROOTS)
    values["search.node_yield"] = nodes / (nodes + sum(pruned.values()))
    for reason in ("lambda_profile", "largest_weight", "chern_linear", "pairing_completion"):
        values["search.pruned." + reason] = pruned.get(reason, 0)
    for check_id in ("pairing", "lambda_symmetry", "parity", "localization",
                     "chern1_vanishing", "largest_weight_structure", "isotropy",
                     "effectivity"):
        values["search.killed." + check_id] = trace["killed"].get(check_id, 0)
    values["search.replay.candidates"] = trace["replay_candidates"]
    values["search.replay.assertions"] = trace["replay_assertions"]
    values["isotropy.k_per_system"] = (
        calls["isotropy.classify_isotropy"] / trace["systems_classified"])
    wall = work_wall(result) + sum(op["seconds"] for op in result["golden"])
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = wall - sum(self_s.values())
    return values


def per_layer(untraced, traced):
    """Medians over traced children; tracing overhead against untraced ones."""
    runs = [layer_values(r) for r in traced]
    values = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    values["trace.overhead_norm_s"] = (
        statistics.median(work_wall(r, "norm_s") for r in traced)
        - statistics.median(work_wall(r, "norm_s") for r in untraced))
    return values


def write_trace(workload, seed, traced):
    """Aggregates and call-level spans of the traced children, for inspection."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / ("trace_%s_seed%d.json" % (workload, seed))
    path.write_text(json.dumps([r["trace"] for r in traced], indent=1), encoding="utf-8")
    return path


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def measure(args, work):
    run = Run(args.workload, args.seed, work)
    run.child("setup")  # compiles bytecode; not a sample
    setups, untraced, traced = [], [], []
    start = time.monotonic()
    while (not untraced or (args.trace and not traced)
           or time.monotonic() - start < args.seconds):
        if time.monotonic() > run.deadline:
            run.fail("run limit reached before the work finished")
            break
        # set-up samples spread over the run, so one slow phase of the
        # machine does not decide setup_s
        setups += [run.child("setup") for _ in range(SETUP_PER_REP)]
        mode = "trace" if args.trace and len(traced) < len(untraced) else "time"
        result = run.child(mode)
        if result is None:
            break
        setups.append(result)
        (traced if mode == "trace" else untraced).append(result)
    if None in setups or not untraced or (args.trace and not traced):
        return run, None, None
    setup_s = [r["setup_s"] for r in setups]
    if args.trace:
        traced_counts = [layer_values(r) for r in traced]
        for name in traced_counts[0]:
            if not name.endswith("_s") and any(
                    t[name] != traced_counts[0][name] for t in traced_counts):
                run.fail("traced count %s drifted between repetitions" % name)
        return run, per_layer(untraced, traced), write_trace(args.workload, args.seed, traced)
    values, printed = end_to_end(setup_s, untraced)
    return run, values, printed


def main(argv=None):
    parser = argparse.ArgumentParser(description="weightsys benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "weightsys" / "__init__.py", ROOT / "BENCHMARK.json"]
    needed += [ROOT / p for p in (workloads.GOLDEN_DOC, workloads.GOLDEN_REPORT,
                                   workloads.GOLDEN_DOT)]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print("not a weightsys checkout, missing: %s" % ", ".join(missing), file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        run, values, extra = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for problem in run.problems:
        print("FAILED %s" % problem, file=sys.stderr)
    if values is None:
        print("no complete repetition; no result", file=sys.stderr)
        return 1

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics(args.trace)}
    print("%s seed=%d: %d attempted, %d failed (fail_ratio %.4g)"
          % (args.workload, args.seed, run.attempted, run.failed,
             run.failed / run.attempted))
    if args.trace:
        print("trace aggregates and spans: %s" % extra.relative_to(ROOT))
    else:
        print("  latency and raw times: %s" % ", ".join("%s %.6g" % kv for kv in extra.items()))
    for name, metric in metrics.items():
        print("  %-40s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
