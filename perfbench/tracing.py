"""In-memory span tracing and counters for the traced benchmark run.

Spans are recorded from the benchmark's side: `install` replaces each
traced public function with a wrapper in every `misdelay` module that
holds it (the package imports with `from .x import y`, so patching only
the defining module would miss most calls).  The heap of the simulator
is counted through a stand-in for `misdelay.sim.heapq`, DelayQuery
constructions through its `__post_init__`, Lambert W calls made inside
a characterization by a depth counter around the fits, and the lru
caches of the gate tables are read through `cache_info()`.  None of
this is active in an untraced run.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (defining module, attribute) of every traced function; the span name
# is "<module>.<attribute>" without the package prefix
TRACED = (
    ("numerics", "lambert_w_m1"),
    ("numerics", "find_root_bracketed"),
    ("numerics", "integrate_ode"),
    ("numerics", "bisect_threshold_crossing"),
    ("gates", "nor_delay"),
    ("gates", "cgate_delay"),
    ("trajectories", "delay_by_inversion"),
    ("trajectories", "delay_by_ode"),
    ("characterize", "characterize_nor"),
    ("characterize", "characterize_cgate"),
    ("sim", "run"),
    ("sim", "validate_netlist"),
    ("sim", "generate_stimulus"),
    ("fileio", "parse_netlist"),
    ("fileio", "write_vcd"),
    ("fileio", "serialize_stats"),
    ("fileio", "load_fixture"),
    ("cli", "main"),
)

# full span records kept for writing out; aggregates cover every span
SPAN_BUDGET = 10_000

# Lambert W calls are counted while one of these fits is running
FITS = ("characterize_nor", "characterize_cgate")


class Tracer:
    """Collects nested spans; self time is a span minus its children.

    Times are integer nanoseconds from `time.perf_counter_ns`, so self
    time is exact and never negative.
    """

    def __init__(self, span_budget: int = SPAN_BUDGET) -> None:
        self.op: object = None          # id of the op being traced
        self.span_budget = span_budget
        self.spans: List[Tuple[int, str, int, int, int, object, int]] = []
        self.dropped = 0
        # name -> [calls, total_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        self._stack: List[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        totals = self.totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [name, span_id, 0, clock()]   # name, id, child ns, start
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[3]
                self_ns = duration - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                agg = totals.get(name)
                if agg is None:
                    totals[name] = [1, duration, self_ns]
                else:
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += self_ns
                if len(self.spans) < self.span_budget:
                    self.spans.append((span_id, name, frame[3], end,
                                       parent[1] if parent else -1,
                                       self.op, self_ns))
                else:
                    self.dropped += 1

        return traced

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] * 1e-9

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[2] * 1e-9

    def spans_as_dicts(self) -> List[dict]:
        return [{"id": sid, "name": name, "start_ns": start, "end_ns": end,
                 "parent": parent, "op": op, "self_ns": self_ns}
                for sid, name, start, end, parent, op, self_ns in self.spans]


class CountingHeapq:
    """Stand-in for the `heapq` module that counts pushes and pops."""

    def __init__(self, real) -> None:
        self._real = real
        self.pushes = 0
        self.pops = 0

    def heappush(self, heap, item) -> None:
        self.pushes += 1
        self._real.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return self._real.heappop(heap)

    def __getattr__(self, name):
        return getattr(self._real, name)


def misdelay_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "misdelay" or name.startswith("misdelay."))]


def lru_totals() -> Tuple[int, int]:
    """(hits, misses) summed over every lru cache in the package."""
    hits = misses = 0
    seen = set()
    for mod in misdelay_modules():
        for obj in vars(mod).values():
            info = getattr(obj, "cache_info", None)
            if callable(info) and id(obj) not in seen:
                seen.add(id(obj))
                ci = info()
                hits += ci.hits
                misses += ci.misses
    return hits, misses


class Instrumentation:
    """Everything the traced run installs; `remove` restores the package."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.heap: Optional[CountingHeapq] = None
        self.delay_queries = 0
        self.lambert_in_fits = 0
        self._fit_depth = 0
        self._undo: List[Callable[[], None]] = []

    def _fit_scope(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def scoped(*args, **kwargs):
            self._fit_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._fit_depth -= 1

        return scoped

    def _count_in_fits(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._fit_depth:
                self.lambert_in_fits += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        pkg = sys.modules["misdelay"]
        for module_name, attr in TRACED:
            module = sys.modules[f"misdelay.{module_name}"]
            original = getattr(module, attr)
            wrapper = self.tracer.wrap(f"{module_name}.{attr}", original)
            if attr in FITS:
                wrapper = self._fit_scope(wrapper)
            elif attr == "lambert_w_m1":
                wrapper = self._count_in_fits(wrapper)
            for mod in misdelay_modules():
                if vars(mod).get(attr) is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(
                        functools.partial(setattr, mod, attr, original))

        sim = sys.modules["misdelay.sim"]
        real_heapq = sim.heapq
        self.heap = CountingHeapq(real_heapq)
        sim.heapq = self.heap
        self._undo.append(functools.partial(setattr, sim, "heapq", real_heapq))

        query_cls = pkg.gates.DelayQuery
        post_init = query_cls.__post_init__

        def counting_post_init(query) -> None:
            self.delay_queries += 1
            post_init(query)

        query_cls.__post_init__ = counting_post_init
        self._undo.append(
            functools.partial(setattr, query_cls, "__post_init__", post_init))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()
