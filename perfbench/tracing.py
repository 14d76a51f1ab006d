"""Per-function call counts and self time for the weightsys modules.

The tracer wraps every public function of the seven modules from the
outside: the package source is not edited.  A wrapper is also written
into every module namespace that imported the function by name (cli
imports check_system, graph imports classify_isotropy, search imports
most of constraints, ...), and FixedPointSystem.from_weights is replaced
as a classmethod, so no call escapes its wrapper.

Self time is a call's duration minus the durations of the wrapped calls
made inside it.  Counts and times are aggregated per function in memory;
individual spans are kept only for the call-level boundaries in
SPAN_NAMES, because a traced oracle makes about a million wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("cli", "documents", "search", "core", "constraints", "isotropy", "graph")

SPAN_NAMES = frozenset(
    ("cli.run_cli", "search.enumerate_systems", "search.naive_oracle", "search.replay_lemma")
)


class Tracer:
    """Aggregates calls, self time and inclusive time per wrapped name."""

    def __init__(self, span_names=SPAN_NAMES, clock=time.perf_counter):
        self.span_names = span_names
        self.clock = clock
        self._stats = {}
        self.spans = []
        self.operation = None
        # one entry per active wrapped call: seconds spent in its wrapped children
        self._stack = []
        self._span_stack = []
        # filled by hooks on wrapped results
        self.nodes = 0
        self.pruned = {}
        self.killed = {}
        self.replay_candidates = 0
        self.replay_assertions = 0
        self.systems_classified = 0
        self._last_classified = None

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped so that its calls and self time land under name."""
        # [calls, self seconds, inclusive seconds]
        stat = self._stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, self.clock
        keep_span = name in self.span_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            if keep_span:
                span = self._open_span(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stat[2] += elapsed
                if stack:
                    stack[-1] += elapsed
                if keep_span:
                    self._close_span(span, start, end)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _open_span(self, name):
        parent = self._span_stack[-1]["id"] if self._span_stack else None
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "operation": self.operation}
        self.spans.append(span)
        self._span_stack.append(span)
        return span

    def _close_span(self, span, start, end):
        span["start"] = start
        span["end"] = end
        self._span_stack.pop()

    # hooks: counts read off results where the work happens

    def _count_search(self, args, outcome):
        self.nodes += outcome.stats.nodes
        for reason, count in outcome.stats.pruned.items():
            self.pruned[reason] = self.pruned.get(reason, 0) + count
        for bucket in outcome.stats.eliminated.values():
            for check_id, count in bucket.items():
                self.killed[check_id] = self.killed.get(check_id, 0) + count

    def _count_replay(self, args, report):
        self.replay_candidates += report.candidates
        self.replay_assertions += report.assertions

    def _count_classified(self, args, result):
        if args[0] is not self._last_classified:
            self._last_classified = args[0]
            self.systems_classified += 1

    def install(self):
        """Wrap the public functions of weightsys in place."""
        package = importlib.import_module("weightsys")
        modules = {m: importlib.import_module("weightsys." + m) for m in MODULES}
        hooks = {
            "search.enumerate_systems": self._count_search,
            "search.naive_oracle": self._count_search,
            "search.replay_lemma": self._count_replay,
            "isotropy.classify_isotropy": self._count_classified,
        }
        replacement = {}
        for short, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    name = "%s.%s" % (short, attr)
                    replacement[fn] = self.wrap(name, fn, hooks.get(name))
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in replacement:
                    setattr(namespace, attr, replacement[value])

        system_cls = modules["core"].FixedPointSystem
        raw = system_cls.__dict__["from_weights"].__func__
        system_cls.from_weights = classmethod(self.wrap("core.from_weights", raw))

    @property
    def calls(self):
        return {name: stat[0] for name, stat in self._stats.items()}

    @property
    def self_s(self):
        return {name: stat[1] for name, stat in self._stats.items()}

    @property
    def total_s(self):
        return {name: stat[2] for name, stat in self._stats.items()}
