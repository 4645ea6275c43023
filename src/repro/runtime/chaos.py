"""Deterministic infrastructure-fault injection, one plan for every layer.

The stack claims it survives hung and killed workers, out-of-memory
simulator runs, transient invariant failures, expired leases, a
misbehaving network and partitioned remote workers.  Claims about
recovery are worthless untested (the paper makes the same point about
quantum recovery circuits), so every one of those faults is
*injectable on demand* from one :class:`FaultPlan`:

* a :class:`Fault` sits at one coordinate — *(layer, site, index)*,
  plus the try it strikes — and names what happens there.
  :data:`LAYERS` is the one table of the sites and kinds each layer
  accepts;
* each layer asks :meth:`FaultPlan.match` once per coordinate it
  reaches and acts on every fault returned, so faults at one
  coordinate compose;
* checkpoint-corruption helpers (:func:`truncate_checkpoint_record`,
  :func:`garble_checkpoint_record`, :func:`poison_checkpoint_verdict`)
  damage journal files the way real crashes and bit-rot do.

Everything is deterministic: faults fire on exact coordinates, never
on dice rolls, so every chaos suite replays each scenario exactly.
"""

from __future__ import annotations

import json
import os
import re
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.exceptions import (
    ServiceError,
    SimulationError,
    VerificationError,
)
from repro.runtime.checkpoint import CheckpointStore

#: Logical operations the certification server counts requests by.
#: The ``work_*`` ops are the authenticated worker-fleet surface;
#: ``watch`` is the long-poll progress stream.
NET_OPS = ("submit", "status", "result", "progress", "cancel",
           "sweep_submit", "sweep_status", "stats", "health",
           "watch", "work_claim", "work_heartbeat", "work_progress",
           "work_complete", "work_fail")

_OPS = "|".join(NET_OPS)

#: layer -> (site pattern, kinds): what may fire where.
#:
#: * ``engine`` — site ``pool`` (a supervised pool worker) or
#:   ``parent`` (serial or quarantine evaluation), index = evaluation
#:   chunk.  ``kill``/``hang`` act on the worker process;
#:   ``oom``/``simulation_error`` replace the primary (sparse) backend
#:   with an error for every pattern of the chunk;
#:   ``verification_error`` fails the invariant hook's first check.
#: * ``job`` — site ``start`` (right after the claim) or ``batch:<at>``
#:   (after streaming batch ``at``), index = the job's submit index.
#:   ``kill``/``hang`` act on the worker process, ``expire`` forces the
#:   lease away under it, ``fail`` raises a typed error.
#: * ``net`` — site = the request op, index = that op's request count
#:   at the server (a partitioned request never arrives, so it has
#:   none).  ``drop`` closes without a byte, ``delay`` holds
#:   the response, ``duplicate`` processes the request twice,
#:   ``disconnect`` sends half the response, ``garble`` flips a byte.
#: * ``fleet`` — site ``<worker>`` (index counts all of that worker's
#:   authenticated requests) or ``<worker>/<op>`` (counts its requests
#:   of one op).  ``partition`` drops ``count`` consecutive requests,
#:   ``delay`` holds processing so the request lands late.
LAYERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "engine": (r"pool|parent", ("kill", "hang", "oom",
                                "simulation_error",
                                "verification_error")),
    "job": (r"start|batch:\d+", ("kill", "hang", "expire", "fail")),
    "net": (_OPS, ("drop", "delay", "duplicate", "disconnect",
                   "garble")),
    "fleet": (rf"[^/]+(/({_OPS}))?", ("partition", "delay")),
}

#: Kinds that act on the process they fire in (see :func:`strike`).
PROCESS_KINDS = ("kill", "hang")

#: The error each exception kind raises (see :func:`raise_injected`).
_ERRORS = {"oom": MemoryError, "simulation_error": SimulationError,
           "verification_error": VerificationError,
           "fail": ServiceError}


@dataclass(frozen=True)
class Fault:
    """One injected fault at one coordinate.

    Args:
        layer: ``engine``, ``job``, ``net`` or ``fleet``.
        site: where in the layer (see :data:`LAYERS`).
        index: the chunk, job submit index or request index.
        kind: what happens there (see :data:`LAYERS`).
        attempt: the try the fault strikes, counted from 1 on every
            layer; ``None`` strikes every try.  The default strikes
            only the first, so retries recover.  ``net`` and ``fleet``
            have no tries and ignore it.
        seconds: how long ``hang`` and ``delay`` sleep.
        count: how many consecutive indices the fault covers (a
            partition spanning several requests); it still tallies as
            one fired fault.
    """

    layer: str
    site: str
    index: int
    kind: str
    attempt: Optional[int] = 1
    seconds: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.layer not in LAYERS:
            raise ValueError(
                f"unknown fault layer {self.layer!r}; pick from "
                f"{tuple(LAYERS)}"
            )
        sites, kinds = LAYERS[self.layer]
        if self.kind not in kinds:
            raise ValueError(
                f"unknown fault kind {self.kind!r} for layer "
                f"{self.layer!r}; pick from {kinds}"
            )
        if not re.fullmatch(sites, self.site):
            raise ValueError(
                f"unknown {self.layer} fault site {self.site!r}"
            )
        if (self.layer == "engine" and self.kind in PROCESS_KINDS
                and self.site != "pool"):
            raise ValueError(
                f"engine {self.kind!r} faults act on a pool worker; "
                f"site must be 'pool', got {self.site!r}"
            )
        if self.kind in ("hang", "delay") and self.seconds <= 0:
            raise ValueError(
                f"{self.kind!r} faults need seconds > 0, got "
                f"{self.seconds}"
            )
        if self.index < 0 or self.count < 1:
            raise ValueError(
                f"fault must cover indices >= 0 (index {self.index}, "
                f"count {self.count})"
            )


@dataclass(eq=False)
class FaultPlan:
    """A deterministic set of faults to inject, across every layer.

    Fire-once rule: a fault fires at most once per coordinate it
    covers — per (index, attempt) — and :attr:`fired` counts the
    faults that have fired at least once.  Fork-pool children inherit
    the plan at fork time and tally in their own copy.
    """

    faults: List[Fault] = field(default_factory=list)
    _fired: Set[Tuple[int, int, Optional[int]]] = field(
        default_factory=set, repr=False)

    def add(self, layer: str, site: str, index: int, kind: str,
            **options) -> "FaultPlan":
        """Append one :class:`Fault`; returns the plan for chaining."""
        self.faults.append(Fault(layer, site, index, kind, **options))
        return self

    def match(self, layer: str, site: str, index: int,
              attempt: Optional[int] = None) -> List[Fault]:
        """Every not-yet-fired fault at this coordinate, in plan order.

        Each returned fault is marked fired for this (index, attempt).
        """
        matched = []
        for position, fault in enumerate(self.faults):
            key = (position, index, attempt)
            if (fault.layer, fault.site) != (layer, site) \
                    or key in self._fired:
                continue
            if not fault.index <= index < fault.index + fault.count:
                continue
            if None not in (attempt, fault.attempt) \
                    and attempt != fault.attempt:
                continue
            self._fired.add(key)
            matched.append(fault)
        return matched

    @property
    def fired(self) -> int:
        """How many planned faults have fired so far (this process)."""
        return len({position for position, _, _ in self._fired})


def strike(faults: Iterable[Fault]) -> None:
    """Act out the process kinds among ``faults`` on this process.

    ``kill`` is SIGKILL: no cleanup, no Python finalisers.  ``hang``
    sleeps ``seconds`` in place, holding whatever the process holds.
    """
    for fault in faults:
        if fault.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault.kind == "hang":
            time.sleep(fault.seconds)


def raise_injected(faults: Iterable[Fault], *kinds: str) -> None:
    """Raise the typed error of the first fault of one of ``kinds``."""
    for fault in faults:
        if fault.kind in kinds:
            raise _ERRORS[fault.kind](
                f"chaos: injected {fault.kind} at {fault.layer} "
                f"{fault.site} #{fault.index} (attempt {fault.attempt})"
            )


# ---------------------------------------------------------------------------
# Checkpoint-corruption helpers (used by the certification suite)
# ---------------------------------------------------------------------------

def _pick_record(store: CheckpointStore, kind: str) -> str:
    files = store._record_files(kind)
    if not files:
        raise ValueError(
            f"no {kind!r} records to corrupt in {store.directory!r}"
        )
    return files[0][1]


def truncate_checkpoint_record(store: CheckpointStore,
                               kind: str = "verdicts",
                               keep_bytes: int = 20) -> str:
    """Cut a journal record short, as a crash mid-write would."""
    path = _pick_record(store, kind)
    with open(path, "r+", encoding="utf-8") as handle:
        handle.truncate(keep_bytes)
    return path


def garble_checkpoint_record(store: CheckpointStore,
                             kind: str = "verdicts") -> str:
    """Overwrite a journal record with syntactically broken JSON."""
    path = _pick_record(store, kind)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not json!")
    return path


def poison_checkpoint_verdict(store: CheckpointStore) -> str:
    """Flip one journaled verdict without re-signing the record.

    This models silent bit-rot (or a buggy writer) inside the verdict
    cache: the JSON still parses, but the payload no longer matches
    its checksum, so resuming from it must fail the integrity check
    rather than replay the poisoned verdict.
    """
    path = _pick_record(store, "verdicts")
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    entries = record.get("entries", [])
    if not entries:
        raise ValueError(f"no verdict entries to poison in {path!r}")
    entries[0][1] = not entries[0][1]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return path
