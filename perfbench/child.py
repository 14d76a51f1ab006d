"""One fresh interpreter: import weightsys, build the inputs, run the work once.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE --work DIR

MODE is `setup` (stop once the inputs exist), `time` (run the workload
untraced) or `trace` (run it with every public weightsys function
wrapped).  The last line of stdout is one JSON object; run.py starts
this script and reads it.  A fresh interpreter per run matters: replay
pools are lru_cached, so a warm process would time cache hits.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

# The reference kernel takes about this long on the machine the baseline
# was taken on (2 cores, Python 3.11.7); normalized times are scaled to it.
REF_NOMINAL_S = 0.03
# seconds between two timings of the reference kernel during the work
REF_EVERY_S = 0.3


@dataclass(frozen=True)
class _Point:
    weights: tuple
    negatives: int


def reference_kernel():
    """Seconds for a fixed piece of pure-Python work of the kind weightsys does.

    Small sorted int tuples, Counter balance checks, frozen dataclasses
    hashed into a set and a few Fractions.  It does not touch weightsys, so
    a change to the package leaves it alone, while the machine's speed,
    which drifts by tens of percent on a shared host, moves both.
    """
    start = time.perf_counter()
    seen = set()
    total = Fraction(0)
    for i in range(5000):
        ws = tuple(sorted(((i * 7919) % 13 - 6, (i * 104729) % 11 - 5, i % 5 - 2)))
        counts = Counter(ws)
        balanced = all(counts[w] == counts[-w] for w in counts)
        point = _Point(ws, sum(1 for w in ws if w < 0))
        seen.add(point)
        if balanced and 0 not in ws:
            total += Fraction(1, ws[0] * ws[1] * ws[2])
    return time.perf_counter() - start


class SpeedSampler:
    """Times reference_kernel before, during and after a stretch of work.

    A SIGALRM every REF_EVERY_S of wall time runs the kernel between two
    bytecodes of whatever is running, so a slow phase of the machine in
    the middle of a nine-second operation is seen too.  `clock` is
    perf_counter minus the time spent in the kernel: operations and
    traced spans are timed with it, so the kernel shows in neither.
    """

    def __init__(self):
        self.times = []
        self.kernel_s = []
        self.spent = 0.0

    def clock(self):
        return time.perf_counter() - self.spent

    def _sample(self, signum=None, frame=None):
        self.times.append(self.clock())
        start = time.perf_counter()
        self.kernel_s.append(reference_kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scale(self, start, end):
        """REF_NOMINAL_S over the mean kernel time around [start, end].

        The samples taken inside the interval count, and so do the two
        before it and the two after it: a short operation is then scaled
        by four kernel timings rather than by one noisy pair.
        """
        lo = max(bisect.bisect_left(self.times, start) - 2, 0)
        hi = bisect.bisect_right(self.times, end) + 2
        around = self.kernel_s[lo:hi]
        return REF_NOMINAL_S * len(around) / sum(around)


def run_op(op, work, tracer=None, clock=time.perf_counter):
    """Time op.run, then verify; an exception is a failed operation.

    A full garbage collection runs first, untimed.  Otherwise the cost of
    the cyclic collector's passes over the lru_cached replay pools depends
    on what ran before: the same sub-millisecond replay took 0.5 ms under
    one run order and 0.9 ms under another.  Each operation starts from a
    collected heap, as a fresh command-line process would.
    """
    if tracer is not None:
        tracer.operation = op.name
    gc.collect()
    start = clock()
    try:
        result = op.run(work)
        errors = None
    except Exception as exc:  # any escape from weightsys is a failure to record
        errors, counts = ["raised %s: %s" % (type(exc).__name__, exc)], {}
    end = clock()
    if errors is None:
        try:
            errors, counts = op.verify(result)
        except Exception as exc:  # malformed output the checks could not read
            errors, counts = ["unreadable output: %s: %s" % (type(exc).__name__, exc)], {}
    return {"name": op.name, "start": start, "end": end, "seconds": end - start,
            "errors": errors, "counts": counts}


def run_ops(ops, work, trace=False):
    """Run ops under a SpeedSampler, traced or not; return (records, tracer).

    Each record also gets norm_s: its time scaled to a machine on which
    the reference kernel takes REF_NOMINAL_S, by the kernel timings taken
    around and during the operation.
    """
    tracer = None
    with SpeedSampler() as sampler:
        if trace:
            tracer = tracing.Tracer(clock=sampler.clock)
            tracer.install()
        records = [run_op(op, work, tracer, sampler.clock) for op in ops]
    for record in records:
        record["norm_s"] = record["seconds"] * sampler.scale(record["start"], record["end"])
    return records, tracer


def trace_summary(tracer):
    return {
        "calls": tracer.calls,
        "self_s": tracer.self_s,
        "total_s": tracer.total_s,
        "nodes": tracer.nodes,
        "pruned": tracer.pruned,
        "killed": tracer.killed,
        "replay_candidates": tracer.replay_candidates,
        "replay_assertions": tracer.replay_assertions,
        "systems_classified": tracer.systems_classified,
        "spans": tracer.spans,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import weightsys

    if Path(weightsys.__file__).resolve().parent != src / "weightsys":
        raise SystemExit("imported weightsys from %s, not %s" % (weightsys.__file__, src))
    for module in tracing.MODULES:
        importlib.import_module("weightsys." + module)

    args.work.mkdir(parents=True, exist_ok=True)
    ops, digest = workloads.build(args.workload, args.seed, args.work)
    golden = workloads.golden_ops(ROOT)
    result = {"ready": time.monotonic(), "digest": digest}
    if args.mode != "setup":
        result["ops"], tracer = run_ops(ops, args.work, trace=args.mode == "trace")
        result["golden"] = [run_op(op, args.work, tracer) for op in golden]
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["trace"] = trace_summary(tracer)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
