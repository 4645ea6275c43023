"""Outside-in span tracing for the benchmark's traced run.

The program under test does no tracing of its own.  :class:`Tracer`
installs timing shims around the public functions and methods of each
layer (listed in :data:`TARGETS`), records one span per call — name,
start, end, parent span and thread — in memory, and restores every
original object on :meth:`Tracer.uninstall`.  A layer's self time is
its spans' durations minus the time their direct children cover, so
the self times of all spans add up exactly to the root spans' totals.

Layer names are the repository's modules: ``engine``
(``repro.analysis.engine``), ``simulator`` (``repro.simulators.batched``
and the serial ``repro.ft.gadget.apply_circuit_with_faults``),
``evaluator`` (closures made by ``repro.analysis.evaluators``),
``checkpoint`` (``repro.runtime.checkpoint``), ``queue``, ``cache``,
``worker``, ``client``, ``auth``, ``remote`` and ``sweep``
(``repro.service.*``).  ``bench`` spans are the benchmark's own items.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Span record layout (lists, not objects, to keep the shim cheap).
NAME, START, END, PARENT, THREAD, COUNT, TAG, ERROR = range(8)

QUEUE_VERBS = ("submit", "claim", "complete", "fail", "heartbeat",
               "status", "jobs", "counts", "event_counts",
               "reap_expired", "record_progress",
               "record_progress_checked", "progress")
CLIENT_METHODS = ("submit", "status", "result", "progress", "cancel",
                  "work_claim", "work_heartbeat", "work_progress",
                  "work_complete", "work_fail", "submit_sweep",
                  "sweep_table", "health", "service_stats")
CHECKPOINT_METHODS = ("append_record", "load_records", "write_state",
                      "load_state", "write_header", "load_header",
                      "check_fingerprint", "clear", "finalize")


def _lanes(args, kwargs, result):
    return len(result)


def _stack_size(args, kwargs):
    return len(args[3] if len(args) > 3 else kwargs["patterns"])


def _one(args, kwargs, result):
    return 1


def _found(args, kwargs, result):
    return 0 if result is None else 1


def _records(args, kwargs, result):
    return len(result)


def _kind(args, kwargs):
    return str(args[1] if len(args) > 1 else kwargs.get("kind"))


def _engine_counts(args, kwargs, result):
    stats = result.engine_stats
    return (stats.requests, stats.cache_hits, stats.evaluations)


#: (module, attribute path, span name, count hook, tag hook).  A
#: dotted attribute is a method on a class; a plain one is a module
#: function, rebound in every loaded ``repro`` module that imported it.
TARGETS: List[Tuple[str, str, str, Optional[Callable],
                    Optional[Callable]]] = [
    ("repro.analysis.engine", "run_monte_carlo", "engine.run",
     _engine_counts, None),
    ("repro.analysis.engine", "run_malignant_pairs", "engine.run",
     _engine_counts, None),
    ("repro.analysis.engine", "sample_fault_chunk", "engine.sample",
     None, None),
    ("repro.analysis.engine", "sample_pair_chunk", "engine.sample",
     None, None),
    ("repro.analysis.engine", "canonical_pattern", "engine.canonical",
     None, None),
    ("repro.analysis.engine", "FaultPatternCache.contains",
     "engine.cache", None, None),
    ("repro.analysis.engine", "FaultPatternCache.get", "engine.cache",
     None, None),
    ("repro.analysis.engine", "FaultPatternCache.store",
     "engine.cache", None, None),
    ("repro.simulators.batched", "evaluate_fault_patterns_batched",
     "simulator.batched", _lanes, _stack_size),
    ("repro.ft.gadget", "apply_circuit_with_faults",
     "simulator.serial", _one, None),
    ("repro.service.cache", "ResultCache.get_entry", "cache.get",
     _found, None),
    ("repro.service.cache", "ResultCache.put", "cache.put", None,
     None),
    ("repro.service.worker", "Worker.run_once", "worker.run_once",
     None, None),
    ("repro.service.auth", "WorkerAuth.headers", "auth.sign", None,
     None),
    ("repro.service.auth", "verify_request", "auth.verify", None,
     None),
    ("repro.service.remote", "RemoteWorker.run_once",
     "remote.run_once", None, None),
    ("repro.service.sweep", "submit_sweep", "sweep.submit", None,
     None),
    ("repro.service.sweep", "merge_sweep", "sweep.merge", None, None),
    ("repro.service.sweep", "load_sweep", "sweep.load", None, None),
] + [
    ("repro.runtime.checkpoint", f"CheckpointStore.{method}",
     f"checkpoint.{method}",
     _records if method == "load_records" else None,
     _kind if method in ("append_record", "load_records") else None)
    for method in CHECKPOINT_METHODS
] + [
    ("repro.service.queue", f"JobQueue.{verb}", f"queue.{verb}", None,
     None)
    for verb in QUEUE_VERBS
] + [
    ("repro.service.client", f"ServiceClient.{method}",
     f"client.{method}", None, None)
    for method in CLIENT_METHODS
]

#: Factories whose returned closures are traced as evaluator calls.
EVALUATOR_FACTORIES = ("recovered_overlap_evaluator",
                       "n_gadget_evaluator",
                       "classical_block_value_evaluator")


class Tracer:
    """In-memory span recorder with install/uninstall of shims."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.main_thread = threading.main_thread().ident

    # -- recording ---------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str, tag: Any = None) -> list:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                threading.get_ident(), 0, tag, False]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[START] = time.perf_counter()
        return span

    def _end(self, span: list, error: bool) -> None:
        span[END] = time.perf_counter()
        span[ERROR] = error
        self._stack().pop()

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None,
             tag: Optional[Callable] = None) -> Callable:
        """``fn`` with a span recorded around every call."""
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = self._begin(
                name, tag(args, kwargs) if tag is not None else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._end(span, True)
                raise
            self._end(span, False)
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            return result

        return shim

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """One benchmark-side span around the ``with`` body."""
        span = self._begin(name)
        try:
            yield
        except BaseException:
            self._end(span, True)
            raise
        self._end(span, False)

    # -- shims -------------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, attr, name, count, tag in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, method,
                            self.wrap(vars(owner)[method], name,
                                      count, tag))
            else:
                self._rebind(getattr(module, attr),
                             self.wrap(getattr(module, attr), name,
                                       count, tag))
        evaluators = importlib.import_module("repro.analysis.evaluators")
        for factory_name in EVALUATOR_FACTORIES:
            factory = getattr(evaluators, factory_name)
            self._rebind(factory, self._traced_factory(factory))
        return self

    def _traced_factory(self, factory: Callable) -> Callable:
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), "evaluator.call")
        return make

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original: Callable, shim: Callable) -> None:
        """Point every ``repro`` module global bound to ``original``
        at ``shim`` — callers that did ``from x import f`` included."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, shim)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end,
        parent, thread, count, tag, error)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# -- analysis ----------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    result = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            result[parent] -= span[END] - span[START]
    return result


def root_total(spans: List[list]) -> float:
    return sum(span[END] - span[START] for span in spans
               if span[PARENT] < 0)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _ancestor_layer(spans: List[list], index: int,
                    layers: Tuple[str, ...]) -> Optional[str]:
    parent = spans[index][PARENT]
    while parent >= 0:
        layer = layer_of(spans[parent][NAME])
        if layer in layers:
            return layer
        parent = spans[parent][PARENT]
    return None


def layer_metrics(tracer: Tracer, batch_size: int, requests: int,
                  retries: int, remote_items: int,
                  remote_requests: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the recorded spans: name → (value, unit).

    ``requests`` and ``retries`` are the tallies of every
    :class:`~repro.service.ClientStats` the workload used; the remote
    figures are the remote worker's own requests and the cell turns
    it drove.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    # Count only work done inside the timed windows: spans under a
    # ``bench`` root, and the server thread's spans (which serve the
    # windows' requests).  Untimed checks between windows drop out.
    root = list(range(len(spans)))
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            root[index] = root[span[PARENT]]
    by_name: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        if (span[THREAD] != tracer.main_thread
                or layer_of(spans[root[index]][NAME]) == "bench"):
            by_name.setdefault(span[NAME], []).append(index)

    def total(name: str) -> float:
        return sum(spans[i][END] - spans[i][START]
                   for i in by_name.get(name, ()))

    def self_of(*names: str) -> float:
        return sum(selfs[i] for name in names
                   for i in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def counted(name: str) -> int:
        return sum(spans[i][COUNT] for i in by_name.get(name, ()))

    layer_self: Dict[str, float] = {}
    for name, indices in by_name.items():
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + sum(
            selfs[i] for i in indices)

    item_time = sum(span[END] - span[START] for span in spans
                    if span[PARENT] < 0 and layer_of(span[NAME]) == "bench")
    batched = by_name.get("simulator.batched", [])
    lanes = counted("simulator.batched")
    # A stack the batched path refused falls back to the serial
    # ladder; its tag is the number of lanes it carried.
    fallbacks = sum(spans[i][TAG] for i in batched if spans[i][ERROR])
    lookups = hits = evaluations = 0
    for index in by_name.get("engine.run", ()):
        if spans[index][COUNT]:
            r, h, e = spans[index][COUNT]
            lookups, hits, evaluations = (lookups + r, hits + h,
                                          evaluations + e)
    gets = by_name.get("cache.get", [])
    cache_hits = sum(spans[i][COUNT] for i in gets)
    client_names = tuple(f"client.{m}" for m in CLIENT_METHODS)
    client_busy = sum(spans[i][END] - spans[i][START]
                      for name in client_names
                      for i in by_name.get(name, ())
                      if _ancestor_layer(spans, i, ("client",)) is None)
    # Service-side work: root spans on threads other than the main
    # one (the HTTP server's loop thread), excluding client calls.
    server_side = sum(spans[i][END] - spans[i][START]
                      for indices in by_name.values() for i in indices
                      if spans[i][PARENT] < 0
                      and spans[i][THREAD] != tracer.main_thread
                      and layer_of(spans[i][NAME]) != "client")
    # The client's self time (its calls minus request signing) is the
    # wait on the server; what the server thread does not account for
    # is the HTTP stack.
    net_overhead = max(0.0, layer_self.get("client", 0.0) - server_side)
    worker_engine = sum(
        spans[i][END] - spans[i][START]
        for i in by_name.get("engine.run", ())
        if _ancestor_layer(spans, i, ("worker", "remote")) == "worker")
    load_indices = by_name.get("checkpoint.load_records", [])
    replay_s = sum(spans[i][END] - spans[i][START] for i in load_indices
                   if spans[i][TAG] == "events")
    journal_events = sum(
        1 for i in by_name.get("checkpoint.append_record", ())
        if spans[i][TAG] == "events")

    m: Dict[str, Tuple[float, str]] = {
        "simulator.busy_s": (layer_self.get("simulator", 0.0), "s"),
        "simulator.evaluations":
            (lanes + counted("simulator.serial"), "count"),
        "simulator.lanes_per_batch":
            (lanes / (len(batched) * batch_size) if batched else 0.0,
             "ratio"),
        "simulator.fallbacks": (fallbacks, "count"),
        "evaluator.busy_s": (layer_self.get("evaluator", 0.0), "s"),
        "evaluator.calls": (calls("evaluator.call"), "count"),
        "engine.sample_s": (self_of("engine.sample"), "s"),
        "engine.canonical_s": (self_of("engine.canonical"), "s"),
        "engine.cache_s": (self_of("engine.cache"), "s"),
        "engine.self_s": (self_of("engine.run"), "s"),
        "engine.cache_hit_ratio":
            (hits / lookups if lookups else 0.0, "ratio"),
        "engine.evaluations": (evaluations, "count"),
        "checkpoint.append_calls":
            (calls("checkpoint.append_record"), "count"),
        "checkpoint.append_s": (total("checkpoint.append_record"), "s"),
        "checkpoint.load_calls":
            (calls("checkpoint.load_records"), "count"),
        "checkpoint.records_read":
            (counted("checkpoint.load_records"), "count"),
        "checkpoint.load_s": (total("checkpoint.load_records"), "s"),
        "checkpoint.self_s": (layer_self.get("checkpoint", 0.0), "s"),
        "queue.self_s": (layer_self.get("queue", 0.0), "s"),
        "queue.replay_s": (replay_s, "s"),
        "queue.journal_events": (journal_events, "count"),
        "cache.get_s": (total("cache.get"), "s"),
        "cache.put_s": (total("cache.put"), "s"),
        "cache.hit_ratio":
            (cache_hits / len(gets) if gets else 0.0, "ratio"),
        "worker.self_s": (layer_self.get("worker", 0.0), "s"),
        "worker.engine_s": (worker_engine, "s"),
        "client.requests": (requests, "count"),
        "client.retries": (retries, "count"),
        "client.busy_s": (client_busy, "s"),
        "net.overhead_s": (net_overhead, "s"),
        "auth.busy_s": (layer_self.get("auth", 0.0), "s"),
        "remote.self_s": (layer_self.get("remote", 0.0), "s"),
        "remote.requests_per_item":
            (remote_requests / remote_items if remote_items else 0.0,
             "ratio"),
        "sweep.submit_s": (total("sweep.submit"), "s"),
        "sweep.merge_s": (total("sweep.merge"), "s"),
    }
    for verb in QUEUE_VERBS:
        m[f"queue.calls.{verb}"] = (calls(f"queue.{verb}"), "count")
    # Layer shares of the timed time, with the client layer's wait
    # replaced by its HTTP part, ``net``.
    shares = dict(layer_self)
    shares.pop("client", None)
    shares["net"] = net_overhead
    for layer in SHARE_LAYERS:
        m[f"share.{layer}"] = (
            shares.get(layer, 0.0) / item_time if item_time else 0.0,
            "ratio")
    return m


SHARE_LAYERS = ("bench", "engine", "simulator", "evaluator",
                "checkpoint", "queue", "cache", "worker", "remote",
                "sweep", "auth", "net")


def dominant_layer(metrics: Dict[str, Tuple[float, str]]) -> str:
    """The layer with the largest share of item time."""
    return max(SHARE_LAYERS,
               key=lambda layer: metrics[f"share.{layer}"][0])
