"""Sweep decomposition: one claim fanned out as many queue jobs.

The paper's headline artefact is a threshold table certified over a
gadget × noise × p grid.  :class:`SweepSpec` is that claim as a
single content-addressed submission: it *decomposes* into one
:class:`~repro.service.jobs.JobSpec` per (gadget, p) cell — each cell
a normal queue job with its own deterministic seed, checkpoint
substore and cached verdict — and a **merge step** reassembles the
cell verdicts into one table.

The merge is held to the same crash-safety standard as everything
else in the service:

* merge state is journaled through a per-sweep
  :class:`~repro.runtime.CheckpointStore`
  (``<root>/sweeps/<sweep_fp>/``) — each cell that reaches a terminal
  state is appended exactly once as a ``cells`` record;
* a merge interrupted mid-way resumes from its journal: already-
  merged cells are never re-read from the queue, so the merged table
  is identical whether the merge ran once or was killed and re-run;
* a cell that dead-lettered, failed or was cancelled is reported as
  a **typed partial verdict** — ``{"state": "dead", "error": ...}``
  in the table with the sweep marked ``partial`` — never as a silent
  gap in the grid;
* cell seeds are a pure function of (sweep seed, gadget, p), so a
  decomposed sweep drained by any pool produces verdicts
  *bit-identical* to :func:`run_sweep_inprocess`, the undisturbed
  serial reference the network-chaos soak compares against.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import CheckpointError, ServiceError
from repro.service.jobs import JobSpec, SUCCEEDED, canonical_json

#: Job kinds a sweep may decompose into (one cell = one such job).
SWEEP_CELL_KINDS = ("monte_carlo", "sequential_monte_carlo",
                    "stress_certify")

_CELLS = "cells"


@dataclass(frozen=True)
class SweepCell:
    """One grid point of a decomposed sweep."""

    key: str
    gadget: str
    p: float
    spec: JobSpec

    @property
    def fingerprint(self) -> str:
        return self.spec.fingerprint


@dataclass(frozen=True)
class SweepSpec:
    """One whole-grid claim, content-addressed like a JobSpec.

    ``cell_kind`` picks the per-cell job kind; ``cell_params`` are
    the keyword arguments shared by every cell (trials, chunk_size,
    p0/p1 for sequential cells, ...).  The per-cell seed is derived
    from the sweep seed and the cell coordinate, never from
    submission order, so any subset of cells can be recomputed
    independently and still match the full run.
    """

    cell_kind: str
    code: str
    gadgets: Tuple[str, ...]
    p_grid: Tuple[float, ...]
    seed: int
    cell_params: Tuple[Tuple[str, Any], ...] = field(
        default_factory=tuple)

    @classmethod
    def create(cls, cell_kind: str, *, code: str = "trivial",
               gadgets=("n",), p_grid=(0.01,), seed: int = 0,
               **cell_params: Any) -> "SweepSpec":
        if cell_kind not in SWEEP_CELL_KINDS:
            raise ServiceError(
                f"unknown sweep cell kind {cell_kind!r}; pick from "
                f"{SWEEP_CELL_KINDS}"
            )
        gadgets = tuple(str(g) for g in gadgets)
        if not gadgets:
            raise ServiceError("sweep needs at least one gadget")
        grid = tuple(float(p) for p in p_grid)
        if not grid:
            raise ServiceError("sweep needs at least one p point")
        for p in grid:
            if not math.isfinite(p) or not 0.0 <= p <= 1.0:
                raise ServiceError(
                    f"sweep p values must be finite in [0, 1], "
                    f"got {p!r}"
                )
        if len(set(grid)) != len(grid):
            raise ServiceError("sweep p_grid holds duplicate points")
        try:
            canonical_json(cell_params)
        except (TypeError, ValueError) as exc:
            raise ServiceError(
                f"sweep cell params are not canonically "
                f"JSON-serialisable: {exc}"
            ) from exc
        return cls(cell_kind=cell_kind, code=str(code),
                   gadgets=gadgets, p_grid=grid, seed=int(seed),
                   cell_params=tuple(sorted(cell_params.items())))

    # -- identity ----------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "kind": "sweep",
            "cell_kind": self.cell_kind,
            "code": self.code,
            "gadgets": list(self.gadgets),
            "p_grid": list(self.p_grid),
            "seed": self.seed,
            "cell_params": dict(self.cell_params),
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        try:
            if data.get("kind") not in (None, "sweep"):
                raise ServiceError(
                    f"not a sweep spec: kind={data.get('kind')!r}"
                )
            return cls.create(
                str(data["cell_kind"]),
                code=str(data.get("code", "trivial")),
                gadgets=data.get("gadgets", ("n",)),
                p_grid=data.get("p_grid", (0.01,)),
                seed=int(data.get("seed", 0)),
                **dict(data.get("cell_params", {})))
        except (TypeError, KeyError, ValueError) as exc:
            raise ServiceError(
                f"malformed sweep spec record: {exc}"
            ) from exc

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the canonical sweep — the claim's identity."""
        return hashlib.sha256(
            canonical_json(self.to_json_dict()).encode("utf-8")
        ).hexdigest()

    # -- decomposition -----------------------------------------------

    def cell_seed(self, gadget: str, p: float) -> int:
        """Deterministic per-cell seed: SHA-256 of the coordinate.

        Hash-derived (not ``seed + index``) so inserting a grid point
        or reordering gadgets never shifts any *other* cell's stream
        — exactly the property that lets a partially-cached sweep
        reuse old cell verdicts.
        """
        blob = f"{self.seed}:{gadget}:{json.dumps(float(p))}"
        digest = hashlib.sha256(blob.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big")

    @staticmethod
    def cell_key(gadget: str, p: float) -> str:
        return f"{gadget}@{json.dumps(float(p))}"

    def cells(self) -> List[SweepCell]:
        """Every grid cell, in canonical (gadget, p) order."""
        params = dict(self.cell_params)
        found = []
        for gadget in self.gadgets:
            for p in self.p_grid:
                seed = self.cell_seed(gadget, p)
                if self.cell_kind == "stress_certify":
                    spec = JobSpec.create(
                        self.cell_kind, code=self.code, p=p,
                        seed=seed, gadgets=[gadget], **params)
                else:
                    spec = JobSpec.create(
                        self.cell_kind, code=self.code,
                        gadget=gadget, p=p, seed=seed, **params)
                found.append(SweepCell(
                    key=self.cell_key(gadget, p), gadget=gadget,
                    p=p, spec=spec))
        return found


# ---------------------------------------------------------------------------
# Submission and crash-safe merge
# ---------------------------------------------------------------------------

def submit_sweep(service, sweep: SweepSpec) -> Dict[str, Any]:
    """Register the sweep and enqueue every cell job.

    Idempotent end to end: the sweep journal is keyed by the sweep
    fingerprint (a resubmission finds the existing header and
    verifies it), and each cell submission rides the queue's
    content-addressed dedup — a duplicated or retried sweep
    submission never enqueues a cell twice.
    """
    fingerprint = sweep.fingerprint
    store = service.sweep_store(fingerprint)
    recorded = store.load_header()
    if recorded is None:
        store.write_header(sweep.to_json_dict())
    else:
        store.check_fingerprint(sweep.to_json_dict())
    cells = sweep.cells()
    deduplicated = 0
    cell_fps = {}
    for cell in cells:
        existing = service.queue.status(cell.fingerprint)
        if existing is not None and not existing.terminal:
            deduplicated += 1
        cell_fps[cell.key] = service.submit(cell.spec)
    return {
        "sweep": fingerprint,
        "cell_kind": sweep.cell_kind,
        "cells": cell_fps,
        "submitted": len(cells) - deduplicated,
        "deduplicated": deduplicated,
    }


def load_sweep(service, fingerprint: str) -> Optional[SweepSpec]:
    """Rebuild a registered sweep's spec from its merge journal."""
    store = service.sweep_store(fingerprint)
    header = store.load_header()
    if header is None:
        return None
    sweep = SweepSpec.from_json_dict(header.get("fingerprint", {}))
    if sweep.fingerprint != fingerprint:
        raise CheckpointError(
            f"sweep journal {store.directory!r} records spec "
            f"{sweep.fingerprint[:12]}… under directory "
            f"{fingerprint[:12]}…; refusing the mismatched merge"
        )
    return sweep


def merge_sweep(service, sweep: SweepSpec, *,
                lock_timeout: float = 30.0) -> Dict[str, Any]:
    """Fold terminal cell verdicts into the sweep's merged table.

    Each call journals any *newly* terminal cells (exactly once —
    replayed cells are skipped) and returns the table as merged so
    far.  The table is complete when every cell is journaled; a
    non-succeeded cell appears as a typed partial verdict.  Safe to
    call repeatedly, from any process, before/after crashes: the
    journal, not the caller, is the source of truth.
    """
    fingerprint = sweep.fingerprint
    store = service.sweep_store(fingerprint)
    if store.load_header() is None:
        raise ServiceError(
            f"sweep {fingerprint[:12]}… is not registered; submit "
            "it before merging"
        )
    cells = sweep.cells()
    with store.exclusive(timeout=lock_timeout):
        final = store.load_state("merged")
        if final is not None and final.get("complete"):
            return dict(final["table"])
        merged: Dict[str, Dict[str, Any]] = {}
        for record in store.load_records(_CELLS,
                                         tolerate_tail=True):
            # Last-writer-wins dedup: a crash between append and the
            # caller seeing it can journal one cell twice.
            merged[str(record["cell"])] = {
                key: record[key]
                for key in ("fingerprint", "state", "verdict",
                            "error")
                if key in record
            }
        for cell in cells:
            if cell.key in merged:
                continue
            status = service.queue.status(cell.fingerprint)
            if status is None or not status.terminal:
                continue
            record = {
                "cell": cell.key,
                "fingerprint": cell.fingerprint,
                "state": status.state,
            }
            if status.state == SUCCEEDED:
                record["verdict"] = status.verdict
            else:
                record["error"] = status.error or status.state
            store.append_record(_CELLS, record)
            merged[cell.key] = {
                key: record[key]
                for key in ("fingerprint", "state", "verdict",
                            "error")
                if key in record
            }
        table = _build_table(service, sweep, cells, merged)
        if table["complete"]:
            store.write_state("merged", {"complete": True,
                                         "table": table})
            store.finalize({"sweep": fingerprint,
                            "counts": table["counts"]})
    return table


def _build_table(service, sweep: SweepSpec, cells, merged
                 ) -> Dict[str, Any]:
    """Assemble the deterministic merged verdict table.

    Only journaled (terminal) cell outcomes enter the table payload
    — no attempts, workers or timestamps — so two drains of the same
    sweep compare bit-for-bit regardless of chaos.  Live cells are
    reported in ``counts`` but appear as typed ``missing`` rows.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    counts: Dict[str, int] = {}
    partial = False
    for cell in cells:
        outcome = merged.get(cell.key)
        if outcome is None:
            live = service.queue.status(cell.fingerprint)
            state = live.state if live is not None else "missing"
            counts[state] = counts.get(state, 0) + 1
            rows[cell.key] = {
                "fingerprint": cell.fingerprint,
                "state": "missing",
                "partial": True,
            }
            partial = True
            continue
        state = str(outcome.get("state", "missing"))
        counts[state] = counts.get(state, 0) + 1
        row: Dict[str, Any] = {
            "fingerprint": outcome.get("fingerprint",
                                       cell.fingerprint),
            "state": state,
        }
        if state == SUCCEEDED:
            row["verdict"] = outcome.get("verdict", {})
            row["partial"] = False
        else:
            # The typed partial verdict: the grid point is present,
            # named, and carries its failure — never a silent gap.
            row["error"] = str(outcome.get("error", state))
            row["partial"] = True
            partial = True
        rows[cell.key] = row
    complete = all(key in merged for key in
                   (cell.key for cell in cells))
    return {
        "kind": "sweep_merge",
        "sweep": sweep.fingerprint,
        "cell_kind": sweep.cell_kind,
        "code": sweep.code,
        "complete": complete,
        "partial": partial,
        "counts": dict(sorted(counts.items())),
        "cells": rows,
    }


def run_sweep_inprocess(sweep: SweepSpec, root: str,
                        config=None) -> Dict[str, Any]:
    """The undisturbed serial reference for a decomposed sweep.

    Submits the same cells to a fresh single-process service at
    ``root``, drains them with one in-process worker (no pool, no
    network) and merges.  The chaos soak asserts a networked,
    fault-injected drain of the same sweep is bit-identical to this.
    """
    from repro.service.pool import CertificationService, \
        ServiceConfig
    service = CertificationService(
        root, config=config or ServiceConfig(workers=0))
    submit_sweep(service, sweep)
    service.worker("inprocess").run_until_drained(timeout=600.0)
    table = merge_sweep(service, sweep)
    if not table["complete"]:
        raise ServiceError(
            f"in-process sweep reference did not complete: "
            f"{table['counts']}"
        )
    return table


__all__ = [
    "SWEEP_CELL_KINDS",
    "SweepCell",
    "SweepSpec",
    "load_sweep",
    "merge_sweep",
    "run_sweep_inprocess",
    "submit_sweep",
]
