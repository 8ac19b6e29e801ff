"""Tracing from outside the program: wraps branchvol's public functions in place.

Every public function defined in the traced modules is replaced by a
wrapper wherever a branchvol module holds a reference to it, so calls made
through imported names (``branchvol.mixstats.log_erfc``) are caught as well
as calls through the defining module. A wrapper records one span per call:
its name, its parent span, its duration and the part of it spent in child
spans. ``special`` functions run once per mixture component, millions of
times a pass, so they are kept as per-(parent, name) aggregates only; every
other span is kept in full until the run ends.
"""

from __future__ import annotations

import inspect
import sys
import tracemalloc
from time import perf_counter_ns

TRACED_MODULES = ("branching", "mixstats", "special", "closedform", "montecarlo")
_AGGREGATE_ONLY = ("special",)


def _count_tail(tr, args, kwargs, result):
    tr.count("mixstats.tail.component_evals", args[0].n_components)


def _count_binomial_tail(tr, args, kwargs, result):
    tr.count("mixstats.binomial.class_evals", args[2] + 1)


def _count_density(tr, args, kwargs, result):
    tr.count("mixstats.density.point_evals", _size(args[1]))


def _count_binomial_density(tr, args, kwargs, result):
    points = _size(args[3])
    tr.count("mixstats.density.point_evals", points)
    tr.count("mixstats.binomial.class_evals", (args[2] + 1) * points)


def _count_build(tr, args, kwargs, result):
    tr.count("branching.build.components", result.n_components)
    tr.count("branching.build.bytes_out", result.scales.nbytes)


def _count_sample(tr, args, kwargs, result):
    tr.count("montecarlo.draws", args[1].n_samples)


def _size(x) -> int:
    return int(getattr(x, "size", 1))


# Work counters derived from arguments and results at the layer boundary.
_COUNTERS = {
    "mixstats.exceedance": _count_tail,
    "mixstats.log_exceedance": _count_tail,
    "mixstats.log_exceedance_constant_a": _count_binomial_tail,
    "mixstats.density": _count_density,
    "mixstats.density_constant_a": _count_binomial_density,
    "branching.build_mixture": _count_build,
    "montecarlo.sample": _count_sample,
}
# tracemalloc runs only inside these calls; it would slow every other one.
_MEMORY_TRACED = ("branching.build_mixture",)


class Tracer:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns, errors]
        self.entries: dict[str, list[int]] = {}  # layer -> [calls, total_ns] entered from outside
        self.edges: dict[tuple[str, str], int] = {}  # (parent name, name) -> calls
        self.counters: dict[str, float] = {}
        self.peak_bytes: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, parent id, request, name, start_ns, end_ns)
        self.request = -1
        self._stack: list[list] = []  # [name, layer, child_ns, span id]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, name.partition(".")[0], 0, self._next_id]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list, start_ns: int, end_ns: int, failed: bool) -> None:
        self._stack.pop()
        name, layer, child_ns, span_id = frame
        duration = end_ns - start_ns
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0, 0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - child_ns
        st[3] += failed
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        key = (parent[0] if parent else "", name)
        self.edges[key] = self.edges.get(key, 0) + 1
        if parent is None or parent[1] != layer:
            entry = self.entries.setdefault(layer, [0, 0])
            entry[0] += 1
            entry[1] += duration
        if layer not in _AGGREGATE_ONLY:
            self.spans.append((span_id, parent[3] if parent else 0, self.request,
                               name, start_ns, end_ns))

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        memory = name in _MEMORY_TRACED
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            if memory:
                tracemalloc.start()
            start = perf_counter_ns()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter_ns()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_bytes[name] = max(tracer.peak_bytes.get(name, 0), peak)
                tracer.leave(frame, start, end, failed)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every reference to a traced function in loaded branchvol modules."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"branchvol.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "branchvol" and not mod_name.startswith("branchvol."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
