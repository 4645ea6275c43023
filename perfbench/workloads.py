"""The benchmark's workloads.

Each workload builds its inputs from the run's ``--seed`` (item seeds
are derived from it per round), runs fixed-size *rounds* of timed
items, and checks its own outputs.  A round always does the same
amount of work, so a run that fits more rounds into its time measures
more of the same items rather than different ones; the service rounds
start from an empty service root each time, because the queue's
per-operation cost grows with its journal.

Item kinds, shared by every workload:

* ``fresh`` — work the program has not seen before in this round;
* ``cached`` — the same request again, answered from the layer's cache
  (the engine's :class:`FaultPatternCache` or the service's
  :class:`ResultCache`) with zero simulator evaluations;
* ``step`` — a timed call that is not an item (sweep submission and
  merge, the remote worker's final empty claim).

The gate (:meth:`Workload.gate`) runs one untimed warm-up item at the
workload's pinned seed and compares it with the digests in
:data:`PINNED`; any mismatch fails the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import shutil
import statistics
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

# Layer functions are called through their modules, so the traced
# run's shims (installed on the modules) see the benchmark's calls.
from repro.analysis import engine, evaluators
from repro.analysis.engine import FaultPatternCache
from repro.codes import SteaneCode
from repro.ft import (
    build_n_gadget,
    build_t_gadget,
    expected_t_output,
    sparse_coset_state,
    sparse_logical_state,
    t_gadget_inputs,
)
from repro.noise import NoiseModel
from repro.runtime.checkpoint import serialize_pattern
from repro.service import (
    SUCCEEDED,
    CertificationServer,
    CertificationService,
    RemoteWorker,
    ServiceClient,
    ServiceConfig,
    SweepSpec,
)
from repro.service.jobs import JobSpec, canonical_json

#: Pinned outputs of each workload's gate item (seeded, bit-identical
#: by the engine's determinism contract).  A refactor that keeps the
#: contract keeps these digests.
PINNED: Dict[str, Dict[str, Any]] = {
    "pairs_steane_t": {
        "malignant": 28,
        "verdicts": "9cb0221b148fbf3519967297d3721676"
                    "dbc871c35c0999a01a0e8d23eb6e39ec",
    },
    "mc_smallp_steane_n": {
        "failures": 14,
        "histogram": "c45b2e35f72e78de553f7776f7883802"
                     "dfbc50e4c7b9de309b33e58a14cf0f21",
        "verdicts": "31942c6f420e7cc1dc3c4dd4fb1ef1ce"
                    "5a1076300f4ed551795b00bc3329e67d",
    },
    "campaign_local": {
        "verdict": "88ab9663974ff29db616867cdf61aea3"
                   "887b96a3108757f32aa3a4543b8c33ef",
    },
    "sweep_remote": {
        "table": "c9eaf29ac2e72350d69918466d90bd4c"
                 "abe41a75fa8e38d7f23b699550708e9f",
    },
}


def digest(payload: Any) -> str:
    """SHA-256 of the payload's canonical JSON."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


def cache_digest(cache: FaultPatternCache) -> str:
    """Digest of every (pattern, verdict) a run left in its cache."""
    return digest(sorted(
        [serialize_pattern(pattern), bool(verdict)]
        for pattern, verdict in cache.items()))


def item_seed(seed: int, round_index: int, item: int = 0) -> int:
    """Per-item seed: distinct for every (run seed, round, item)."""
    return seed * 1_000_003 + round_index * 1_000 + item


# -- the reference host -------------------------------------------------

#: Every end-to-end time is reported as it would be on a reference
#: host, on which :func:`host_probe` takes ``PROBE_REFERENCE_S`` and
#: every ``os.fsync`` ``FSYNC_REFERENCE_S``.
PROBE_REFERENCE_S = 1.0e-3
FSYNC_REFERENCE_S = 1.0e-3


def host_probe() -> float:
    """Wall time of a fixed piece of interpreter work that never calls
    the program, so it moves only with the host's speed."""
    began = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return time.perf_counter() - began


class Host:
    """What this host charges the run, apart from the program itself.

    On the 2-vCPU virtual machine this benchmark was tuned on, the CPU's
    speed and the disk's fsync latency each changed by up to 2x within
    minutes, independently of each other and of the program.  A timed window is
    therefore split into the time spent inside ``os.fsync`` and the
    rest.  The rest is scaled by the host probe's speed, and each fsync
    is counted at ``FSYNC_REFERENCE_S``: a change to the program's own
    work, or to how often it fsyncs, moves the reference time, while
    the host's drift does not.  Creating a ``Host`` wraps ``os.fsync``
    for the rest of the process.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.fsync_calls = 0
        self.fsync_s = 0.0
        self._lock = threading.Lock()
        original = os.fsync

        def fsync(fd):
            began = time.perf_counter()
            try:
                return original(fd)
            finally:
                elapsed = time.perf_counter() - began
                with self._lock:
                    self.fsync_calls += 1
                    self.fsync_s += elapsed

        os.fsync = fsync

    def fsyncs(self) -> tuple:
        """(calls, seconds) of every fsync so far."""
        with self._lock:
            return self.fsync_calls, self.fsync_s

    def probe(self) -> None:
        self.probes.append(host_probe())

    def speed(self) -> float:
        """Reference probe time over this run's median probe time."""
        return PROBE_REFERENCE_S / statistics.median(self.probes)

    @staticmethod
    def reference(wall: float, calls: int, fsync_s: float,
                  speed: float) -> float:
        """A window's time on the reference host."""
        return (max(0.0, wall - fsync_s) * speed
                + calls * FSYNC_REFERENCE_S)


class Item:
    """A timed window; the body may re-label its ``kind``."""

    def __init__(self, kind: str) -> None:
        self.kind = kind


class Recorder:
    """Wall time of every timed window, by kind.

    With a tracer, each window is also a ``bench.<kind>`` root span, so
    layer self times are shares of exactly the timed time.  With a
    :class:`Host`, each window's fsyncs are kept in ``fsyncs`` and the
    host probe runs after it, outside the window.
    """

    def __init__(self, tracer=None, host: Optional[Host] = None) -> None:
        self.tracer = tracer
        self.host = host
        self.times: Dict[str, List[float]] = {
            "fresh": [], "cached": [], "step": []}
        #: (fsync calls, seconds in fsync) of each window in ``times``.
        self.fsyncs: Dict[str, List[tuple]] = {
            "fresh": [], "cached": [], "step": []}
        #: Work units (pairs, trials, jobs, cells) done by fresh and
        #: cached items, for ``work_items_per_s``.
        self.units = {"fresh": 0, "cached": 0}
        #: HTTP tallies: requests and retries of every client, and the
        #: remote worker's own requests and cell turns.
        self.requests = self.retries = 0
        self.remote_requests = self.remote_items = 0

    @contextlib.contextmanager
    def timed(self, kind: str) -> Iterator[Item]:
        item = Item(kind)
        span = (self.tracer.span(f"bench.{kind}")
                if self.tracer is not None
                else contextlib.nullcontext())
        calls, fsync_s = self.host.fsyncs() if self.host else (0, 0.0)
        with span:
            start = time.perf_counter()
            yield item
            elapsed = time.perf_counter() - start
        self.times[item.kind].append(elapsed)
        if self.host is not None:
            calls_after, fsync_s_after = self.host.fsyncs()
            self.fsyncs[item.kind].append(
                (calls_after - calls, fsync_s_after - fsync_s))
            self.host.probe()

    def total(self) -> float:
        return sum(sum(values) for values in self.times.values())

    def reference(self, kind: str,
                  speed: Optional[float]) -> List[float]:
        """The ``kind`` windows' times on the reference host, given the
        run's :meth:`Host.speed`; with ``None``, as measured."""
        if speed is None:
            return list(self.times[kind])
        return [Host.reference(wall, calls, fsync_s, speed)
                for wall, (calls, fsync_s)
                in zip(self.times[kind], self.fsyncs[kind])]


class Workload:
    """Base: counters shared by every workload."""

    name = ""
    #: ``batch_size`` given to the engine (1 = serial path).
    batch_size = 1
    #: Whether cached items count towards ``work_items_per_s``.
    cached_counts_as_work = True

    def __init__(self, seed: int, root: str, tiny: bool) -> None:
        self.seed = seed
        self.root = root
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def gate(self, pinned: Dict[str, Any]) -> None:
        raise NotImplementedError

    def round(self, index: int, rec: Recorder) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Untimed checks after the rounds (default: none)."""

    def close(self) -> None:
        """Release what the last setup built (default: nothing)."""

    def _check_pins(self, pinned: Dict[str, Any],
                    found: Dict[str, Any]) -> None:
        for key, value in found.items():
            self.check(pinned.get(key) == value,
                       f"{self.name} gate: {key} is {value!r}, pinned "
                       f"{pinned.get(key)!r}")


# -- engine workloads ---------------------------------------------------


class _EngineWorkload(Workload):
    """Fixed rounds of engine calls sharing one pattern cache.

    Each fresh call is followed by its cached replay (the same call
    against the now-warm cache), which must agree and evaluate nothing.
    """

    batch_size = 64
    cached_counts_as_work = False
    #: Patterns re-checked through the serial simulator per run.
    spot_checks = 6

    def __init__(self, seed: int, root: str, tiny: bool) -> None:
        super().__init__(seed, root, tiny)
        #: (pattern, verdict) pairs kept for the serial spot check.
        self.samples: List[Any] = []

    def call(self, seed: int, cache: FaultPatternCache):
        raise NotImplementedError

    def same(self, first, second) -> bool:
        raise NotImplementedError

    def round(self, index: int, rec: Recorder) -> None:
        cache = FaultPatternCache()
        for item in range(self.calls):
            seed = item_seed(self.seed, index, item)
            with rec.timed("fresh"):
                fresh = self.call(seed, cache)
            with rec.timed("cached"):
                cached = self.call(seed, cache)
            self.attempted += 2
            rec.units["fresh"] += self.size
            rec.units["cached"] += self.size
            self.check(self.same(fresh, cached),
                       f"{self.name}: cached replay of seed {seed} "
                       "disagrees with the fresh call")
            self.check(cached.engine_stats.evaluations == 0,
                       f"{self.name}: cached replay of seed {seed} "
                       f"ran {cached.engine_stats.evaluations} "
                       "evaluations")
        # Keep two of the round's verdicts, a failing one when there
        # is one, rather than the whole cache: memory stays flat
        # however many rounds fit into the run.
        entries = list(cache.items())
        rng = random.Random(item_seed(self.seed, index))
        failing = [entry for entry in entries if not entry[1]]
        if failing:
            self.samples.append(rng.choice(failing))
        if entries:
            self.samples.append(rng.choice(entries))

    def verify(self) -> None:
        """Batched verdicts ≡ serial evolution on a seeded sample."""
        rng = random.Random(self.seed)
        for pattern, verdict in rng.sample(
                self.samples, min(self.spot_checks, len(self.samples))):
            serial = engine.evaluate_fault_pattern(
                self.gadget, self.initial, self.evaluator, pattern)
            self.check(serial == verdict,
                       f"{self.name}: batched verdict {verdict} for a "
                       f"weight-{len(pattern)} pattern, serial says "
                       f"{serial}")


class PairsSteaneT(_EngineWorkload):
    """Sec. 4.2 malignant-pair sampling on the Steane T gadget."""

    name = "pairs_steane_t"
    gate_seed, gate_samples = 71, 64
    alpha, beta = 0.6, 0.8

    def __init__(self, seed: int, root: str, tiny: bool) -> None:
        super().__init__(seed, root, tiny)
        self.size = 16 if tiny else 64
        self.calls = 1 if tiny else 4

    def setup(self) -> None:
        code = SteaneCode()
        self.gadget = build_t_gadget(code)
        data = sparse_logical_state(code, {(0,): self.alpha,
                                           (1,): self.beta})
        self.initial = self.gadget.initial_state(
            t_gadget_inputs(self.gadget, code, data))
        self.evaluator = evaluators.recovered_overlap_evaluator(
            self.gadget, code, ["data"],
            expected_t_output(code, self.alpha, self.beta))

    def call(self, seed: int, cache: FaultPatternCache):
        return engine.run_malignant_pairs(
            self.gadget, self.initial, self.evaluator,
            samples=self.size, seed=seed, batch_size=self.batch_size,
            cache=cache)

    def same(self, first, second) -> bool:
        return (first.malignant, first.samples) == \
            (second.malignant, second.samples)

    def gate(self, pinned: Dict[str, Any]) -> None:
        cache = FaultPatternCache()
        result = engine.run_malignant_pairs(
            self.gadget, self.initial, self.evaluator,
            samples=self.gate_samples, seed=self.gate_seed,
            batch_size=self.batch_size, cache=cache)
        self._check_pins(pinned, {"malignant": result.malignant,
                                  "verdicts": cache_digest(cache)})


class McSmallpSteaneN(_EngineWorkload):
    """Small-p Monte Carlo on the Steane N gadget (Fig. 1)."""

    name = "mc_smallp_steane_n"
    gate_seed = 72
    p = 1e-4
    # The gate runs at a larger p so that its pinned histogram holds
    # failures of weight 2 to 5, not only empty trials.
    gate_p, gate_trials = 2e-3, 1_000

    def __init__(self, seed: int, root: str, tiny: bool) -> None:
        super().__init__(seed, root, tiny)
        self.size = 500 if tiny else 10_000
        self.calls = 2 if tiny else 10

    def setup(self) -> None:
        code = SteaneCode()
        self.gadget = build_n_gadget(code, variant="direct")
        self.initial = self.gadget.initial_state(
            {"quantum": sparse_coset_state(code, 0)})
        self.evaluator = evaluators.n_gadget_evaluator(
            self.gadget, code, 0)
        self.noise = NoiseModel.uniform(self.p)

    def call(self, seed: int, cache: FaultPatternCache,
             noise: Optional[NoiseModel] = None,
             trials: Optional[int] = None):
        return engine.run_monte_carlo(
            self.gadget, self.initial, self.evaluator,
            noise or self.noise, trials=trials or self.size, seed=seed,
            batch_size=self.batch_size, cache=cache)

    def same(self, first, second) -> bool:
        return (first.failures == second.failures
                and first.fault_count_histogram
                == second.fault_count_histogram
                and first.failures_by_fault_count
                == second.failures_by_fault_count)

    def gate(self, pinned: Dict[str, Any]) -> None:
        cache = FaultPatternCache()
        result = self.call(self.gate_seed, cache,
                           NoiseModel.uniform(self.gate_p),
                           self.gate_trials)
        self._check_pins(pinned, {
            "failures": result.failures,
            "histogram": digest({
                "faults": sorted(result.fault_count_histogram.items()),
                "failures": sorted(
                    result.failures_by_fault_count.items())}),
            "verdicts": cache_digest(cache),
        })


# -- service workloads --------------------------------------------------


def _job_spec(seed: int) -> JobSpec:
    return JobSpec.create("monte_carlo", code="trivial", gadget="n",
                          p=0.02, trials=80, seed=seed, chunk_size=20)


class _ServiceWorkload(Workload):
    """Shared plumbing: fresh service roots and job checks."""

    def __init__(self, seed: int, root: str, tiny: bool) -> None:
        super().__init__(seed, root, tiny)
        self.setups = 0

    def _service(self, label: str) -> CertificationService:
        path = os.path.join(self.root, label)
        shutil.rmtree(path, ignore_errors=True)
        return CertificationService(path,
                                    config=ServiceConfig(workers=0))

    def _check_job(self, status, cached: bool) -> bool:
        """Whether the job succeeded; records what is wrong if not."""
        if status is None or status.state != SUCCEEDED:
            self.failed += 1
            self.errors.append(
                f"{self.name}: job ended "
                f"{status.state if status else 'missing'}")
            return False
        self.check(bool(status.meta.get("cache_hit")) == cached,
                   f"{self.name}: cache_hit is "
                   f"{status.meta.get('cache_hit')}, expected {cached}")
        if cached:
            self.check(status.meta.get("evaluations") == 0,
                       f"{self.name}: a cache hit reports "
                       f"{status.meta.get('evaluations')} evaluations")
        return True

    def _account(self, items: int) -> None:
        """Items and queue transitions attempted; fail/dead events
        failed (read from the journal, outside the timed windows)."""
        events = self.service.queue.event_counts()
        self.attempted += items + sum(events.values())
        self.failed += events.get("fail", 0) + events.get("dead", 0)


class CampaignLocal(_ServiceWorkload):
    """Closed loop, one client, in-process service and worker.

    Every round alternates a fresh submission with a resubmission of
    a spec completed earlier in the round (chosen by the seeded RNG),
    which the worker serves from the ResultCache.
    """

    name = "campaign_local"
    gate_seed = 73

    def __init__(self, seed: int, root: str, tiny: bool) -> None:
        super().__init__(seed, root, tiny)
        self.fresh_per_round = 2 if tiny else 30

    def setup(self) -> None:
        self.setups += 1
        self._open(f"campaign-setup-{self.setups}")

    def _open(self, label: str) -> None:
        self.service = self._service(label)
        self.worker = self.service.worker("bench")

    def _run_job(self, spec: JobSpec):
        fingerprint = self.service.submit(spec)
        self.worker.run_once()
        return self.service.status(fingerprint)

    def gate(self, pinned: Dict[str, Any]) -> None:
        status = self._run_job(_job_spec(self.gate_seed))
        if self._check_job(status, cached=False):
            self._check_pins(pinned, {"verdict": digest(status.verdict)})

    def round(self, index: int, rec: Recorder) -> None:
        self._open(f"campaign-round-{index}")
        rng = random.Random(item_seed(self.seed, index))
        completed = []
        for item in range(self.fresh_per_round):
            spec = _job_spec(item_seed(self.seed, index, item))
            with rec.timed("fresh"):
                status = self._run_job(spec)
            if self._check_job(status, cached=False):
                completed.append((spec, status.verdict))
            if not completed:
                continue
            spec, verdict = rng.choice(completed)
            with rec.timed("cached"):
                status = self._run_job(spec)
            if self._check_job(status, cached=True):
                self.check(status.verdict == verdict,
                           "campaign_local: cached verdict differs "
                           "from the fresh one")
        rec.units["fresh"] += self.fresh_per_round
        rec.units["cached"] += self.fresh_per_round
        self._account(2 * self.fresh_per_round)
        shutil.rmtree(self.service.root, ignore_errors=True)


class SweepRemote(_ServiceWorkload):
    """A gadget × p-grid sweep over HTTP, drained by a remote worker.

    The server runs on a thread of this process; the worker is stepped
    with ``run_once()`` on the main thread, so no timed window holds a
    sleep-based poll.  After the merge, the same sweep is submitted
    again and drained from the cache.
    """

    name = "sweep_remote"
    gate_seed = 74
    secret = "perfbench-fleet-secret"

    def __init__(self, seed: int, root: str, tiny: bool) -> None:
        super().__init__(seed, root, tiny)
        self.p_points = 1 if tiny else 8
        self.server: Optional[CertificationServer] = None

    def _sweep(self, seed: int, p_points: int) -> SweepSpec:
        grid = tuple(round(0.005 * (i + 1), 6) for i in range(p_points))
        return SweepSpec.create(
            "monte_carlo", code="trivial", gadgets=("n", "recovery"),
            p_grid=grid, seed=seed, trials=40, chunk_size=20)

    def _open(self, label: str) -> None:
        self.close()
        self.service = self._service(label)
        self.server = CertificationServer(self.service,
                                          worker_secret=self.secret)
        address = self.server.start()
        self.client = ServiceClient(*address, timeout=30.0)
        self.remote = RemoteWorker(
            *address, secret=self.secret, name="bench-remote",
            scratch=os.path.join(self.service.root, "scratch"),
            timeout=30.0)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def setup(self) -> None:
        self.setups += 1
        self._open(f"sweep-setup-{self.setups}")

    def _drain(self, rec: Recorder, kind: str) -> int:
        turns = 0
        while True:
            with rec.timed(kind) as item:
                if self.remote.run_once() is None:
                    item.kind = "step"
            if item.kind == "step":
                return turns
            turns += 1

    def _run_sweep(self, sweep: SweepSpec, rec: Recorder):
        with rec.timed("step"):
            self.client.submit_sweep(sweep)
        fresh = self._drain(rec, "fresh")
        with rec.timed("step"):
            table = self.client.sweep_table(sweep.fingerprint)
        cells = len(sweep.cells())
        self.check(fresh == cells,
                   f"sweep_remote: drained {fresh} of {cells} cells")
        self.check(table.get("complete") is True
                   and table.get("counts") == {SUCCEEDED: cells},
                   f"sweep_remote: merge incomplete: "
                   f"{table.get('counts')}")
        return fresh, table

    def gate(self, pinned: Dict[str, Any]) -> None:
        _, table = self._run_sweep(self._sweep(self.gate_seed, 1),
                                   Recorder())
        self._check_pins(pinned, {"table": digest(table)})

    def round(self, index: int, rec: Recorder) -> None:
        self._open(f"sweep-round-{index}")
        sweep = self._sweep(item_seed(self.seed, index), self.p_points)
        fresh, table = self._run_sweep(sweep, rec)
        with rec.timed("step"):
            self.client.submit_sweep(sweep)
        cached = self._drain(rec, "cached")
        self.check(cached == fresh,
                   f"sweep_remote: resubmission drained {cached} of "
                   f"{fresh} cells")
        for cell in sweep.cells():
            status = self.service.queue.status(cell.fingerprint)
            if self._check_job(status, cached=True):
                self.check(
                    status.verdict
                    == table["cells"].get(cell.key, {}).get("verdict"),
                    f"sweep_remote: cached cell {cell.key} differs "
                    "from the merged table")
        rec.units["fresh"] += fresh
        rec.units["cached"] += cached
        clients = (self.client.stats, self.remote.client.stats)
        requests = sum(stats.requests for stats in clients)
        rec.requests += requests
        rec.retries += sum(stats.retries for stats in clients)
        rec.remote_requests += self.remote.client.stats.requests
        rec.remote_items += fresh + cached
        self._account(fresh + cached + requests)
        root = self.service.root
        self.close()
        shutil.rmtree(root, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (PairsSteaneT, McSmallpSteaneN,
                                       CampaignLocal, SweepRemote)}
