"""Span tracing of the ``repro`` layers, installed from outside ``src/``.

:func:`install` wraps the public functions named in :data:`TARGETS` so
each call records a span (name, start, end, parent span, run id) in a
:class:`SpanRecorder`.  A wrapper replaces the function on its defining
module, on every already-imported ``repro.*`` namespace that bound the
same object (``from x import f`` copies), and on the class for methods.
Nothing under ``src/`` changes; the untraced timed runs never call
:func:`install`.

Spans stay in memory until the run ends.  :func:`self_times` turns them
into per-name self time (duration minus the time covered by child spans),
which is what the benchmark reports per layer.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (span name, defining module, attribute path).  Several functions may
#: share a span name; their self times add up under it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.generate", "repro.workloads.registry", "generate_trace"),
    ("trace.read", "repro.trace.trace_io", "read_trace"),
    ("trace.write", "repro.trace.trace_io", "write_trace"),
    ("cache.probe", "repro.parallel.cache", "SimulationCache.get"),
    ("cache.store", "repro.parallel.cache", "SimulationCache.put"),
    ("sim.run_single_size", "repro.sim.driver", "run_single_size"),
    ("sim.run_with_policy", "repro.sim.driver", "run_with_policy"),
    ("sim.run_two_sizes", "repro.sim.driver", "run_two_sizes"),
    ("sim.run_split_two_sizes", "repro.sim.driver", "run_split_two_sizes"),
    ("sim.sweep_single_size", "repro.sim.sweep", "sweep_single_size"),
    ("sim.sweep_two_level", "repro.sim.driver", "sweep_two_level"),
    ("sim.sweep_multiprogrammed", "repro.sim.multiprog",
     "sweep_multiprogrammed"),
    ("perf.two_size_counts", "repro.perf.twosize", "two_size_counts"),
    ("perf.attach_tombstones", "repro.perf.twosize",
     "_SetFamilyAnalysis.attach_tombstones"),
    ("perf.stack_depths", "repro.perf.kernels", "stack_depths"),
    ("perf.window_events", "repro.perf.kernels", "window_events"),
    ("policy.decisions", "repro.policy.vector", "policy_decisions"),
    ("policy.dynamic_ws", "repro.policy.dynamic_ws",
     "dynamic_average_working_set"),
    ("stacksim.miss_curve", "repro.stacksim.lru_stack", "lru_miss_curve"),
    ("stacksim.miss_curve", "repro.stacksim.lru_stack", "per_set_miss_curve"),
    ("stacksim.working_set", "repro.stacksim.working_set",
     "average_working_set_pages"),
    ("mem.paging", "repro.mem.pageout", "single_size_paging"),
    ("mem.paging", "repro.mem.pageout", "two_size_paging"),
    ("studies.run_study", "repro.studies.engine", "run_study"),
)

#: The trace fingerprint is a cached property; only the calls that hash
#: (the first access per trace object) open a span.
FINGERPRINT_SPAN = "trace.fingerprint"


class SpanRecorder:
    """In-memory spans and counters of one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Each span: [name, start, end, parent index or -1, run id].
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        #: Result-cache keys this process stored; survives :meth:`reset`
        #: so a hit can be told apart from one on a pre-filled entry.
        self.stored_keys: set = set()

    def reset(self) -> None:
        """Forget everything (a forked worker starts from its own zero)."""
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def call(self, name: str, fn: Callable, args, kwargs) -> Any:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        self.counters[f"{name}.calls"] += 1
        _observe(self, span, args, result)
        return result

    def under(self, span: List[Any], prefix: str) -> bool:
        """Whether an ancestor of ``span`` has a name starting ``prefix``."""
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0].startswith(prefix):
                return True
            parent = self.spans[parent][3]
        return False

    def export(self) -> Dict[str, Any]:
        """A picklable, JSON-ready snapshot."""
        return {"spans": self.spans, "counters": dict(self.counters)}


def _scalar_results(result: Any) -> int:
    """How many of a sim entry's results resolved to the scalar walk."""
    if hasattr(result, "resolved_kernel"):
        items = [result]
    elif isinstance(result, dict):
        items = list(result.values())
    elif isinstance(result, (list, tuple)):
        items = list(result)
    else:
        return 0
    return sum(getattr(item, "resolved_kernel", None) == "scalar"
               for item in items)


def _observe(recorder: SpanRecorder, span: List[Any], args,
             result: Any) -> None:
    """Counters read off a finished call's arguments or result."""
    name = span[0]
    counters = recorder.counters
    if name == "cache.probe" and result is not None:
        counters["cache.hits"] += 1
        if args[1] not in recorder.stored_keys:
            counters["cache.hits_unstored"] += 1
    elif name == "cache.store":
        recorder.stored_keys.add(args[1])
    elif name == "mem.paging":
        counters["mem.paged_refs"] += len(args[0])
    elif name == "studies.run_study":
        for metric, key in (("planned", "planned"), ("cached", "from_cache"),
                            ("simulated", "simulated")):
            counters[f"studies.units_{metric}"] += result.counters.get(key, 0)
    elif name.startswith("sim.") and not recorder.under(span, "sim."):
        # Outermost sim entry only, so a sweep's inner runs count once.
        scalar = _scalar_results(result)
        if scalar:
            counters["sim.scalar_calls"] += scalar
            counters["sim.scalar_s"] += span[2] - span[1]


def _import_all_repro() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _wrap(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    return wrapper


def install(recorder: SpanRecorder) -> None:
    """Wrap every target so its calls record spans in ``recorder``."""
    _import_all_repro()
    for name, module_name, path in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = _wrap(recorder, name, original)
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapper)

    from repro.trace.record import Trace

    original_property = vars(Trace)["fingerprint"]

    def fingerprint(trace):
        if trace._fingerprint is not None:
            return trace._fingerprint
        return recorder.call(
            FINGERPRINT_SPAN, original_property.fget, (trace,), {}
        )

    Trace.fingerprint = property(fingerprint, doc=original_property.__doc__)


def self_times(spans: List[List[Any]]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus its children's.

    ``spans`` may concatenate several processes' lists; parent indices
    are local to each list, so callers offset them before joining (see
    :func:`merge`).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and end is not None:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        if end is not None:
            totals[name] += (end - start) - child_time[index]
    return dict(totals)


def merge(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Join exported recorders, re-basing each part's parent indices."""
    spans: List[List[Any]] = []
    counters: Dict[str, float] = defaultdict(float)
    for part in parts:
        offset = len(spans)
        for name, start, end, parent, run_id in part["spans"]:
            spans.append([name, start, end,
                          parent + offset if parent >= 0 else -1, run_id])
        for key, value in part["counters"].items():
            counters[key] += value
    return {"spans": spans, "counters": dict(counters)}
