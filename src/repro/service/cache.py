"""Content-addressed verdict cache with integrity checking.

Completed certification verdicts are stored at
``cache/<fp[:2]>/<fp>.json`` where ``fp`` is the job fingerprint (the
SHA-256 of the canonical spec, :attr:`repro.service.jobs.JobSpec.
fingerprint`).  Each entry carries a second SHA-256 over *fingerprint
+ verdict*, so a garbled, truncated or bit-rotted entry is detected
at read time, quarantined (renamed into ``cache/quarantine/``) and
reported as a miss — the job is recomputed, never served a poisoned
verdict.  Metadata (timings, engine stats, worker identity) lives
*outside* the digest: two runs of the same job on different machines
produce byte-identical verdict payloads and therefore matching
digests, which is how the chaos suite asserts bit-identical recovery.

Writes are atomic (tmp + ``os.replace``, the CheckpointStore
discipline), so a reader racing a writer sees either the old complete
entry or the new complete entry — never a torn one.

Unbounded campaign histories need an **eviction policy**:

* ``max_entries`` — an LRU bound.  Reads bump the entry file's mtime,
  so recency survives process restarts; a ``put`` that pushes the
  cache over the bound evicts the least-recently-used entries.
* ``max_age`` — a TTL.  Entries record their ``stored_at`` wall-clock
  (outside the digest); one older than ``max_age`` is evicted at read
  time and reported as a miss, so an aged-out verdict is recomputed
  rather than served stale.

Every eviction is journaled as an ``evictions`` record in the cache's
own :class:`~repro.runtime.CheckpointStore` (``cache/journal/``) —
fingerprint, reason (``lru``/``ttl``), timestamp — so a campaign audit
can distinguish "never computed" from "computed and aged out".
Eviction never weakens integrity: an evicted entry is deleted whole,
the digest check still guards every read, and a *corrupt* entry is
quarantined (kept for post-mortem), never silently evicted.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ServiceError
from repro.runtime.checkpoint import CheckpointStore
from repro.service.jobs import canonical_json

import hashlib

_QUARANTINE = "quarantine"
_JOURNAL = "journal"
_EVICTIONS = "evictions"


def verdict_digest(fingerprint: str, verdict: Dict[str, Any]) -> str:
    """SHA-256 binding a verdict payload to its job fingerprint."""
    blob = fingerprint + "\n" + canonical_json(verdict)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Fingerprint → verdict store, shared by all workers.

    The cache is the service's memoisation layer: a repeated
    submission of a completed job is answered here with **zero**
    simulator evaluations (asserted via ``EngineStats.evaluations``
    in the acceptance suite).
    """

    def __init__(self, directory: str, *,
                 max_entries: Optional[int] = None,
                 max_age: Optional[float] = None,
                 clock: Callable[[], float] = time.time) -> None:
        if max_entries is not None and max_entries < 1:
            raise ServiceError(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        if max_age is not None and max_age <= 0:
            raise ServiceError(
                f"cache max_age must be > 0 seconds, got {max_age}"
            )
        self.directory = os.fspath(directory)
        self.max_entries = max_entries
        self.max_age = max_age
        self.clock = clock
        self.journal = CheckpointStore(
            os.path.join(self.directory, _JOURNAL))

    # -- paths -------------------------------------------------------

    def _entry_path(self, fingerprint: str) -> str:
        self._check_fingerprint(fingerprint)
        return os.path.join(self.directory, fingerprint[:2],
                            fingerprint + ".json")

    @staticmethod
    def _check_fingerprint(fingerprint: str) -> None:
        if (not isinstance(fingerprint, str) or len(fingerprint) != 64
                or any(c not in "0123456789abcdef"
                       for c in fingerprint)):
            raise ServiceError(
                f"malformed cache fingerprint {fingerprint!r} "
                "(expected 64 lowercase hex digits)"
            )

    # -- write -------------------------------------------------------

    def put(self, fingerprint: str, verdict: Dict[str, Any],
            meta: Optional[Dict[str, Any]] = None) -> str:
        """Store a verdict; returns its integrity digest.

        Idempotent: a second ``put`` of the same (fingerprint,
        verdict) leaves the stored entry — its meta and its
        ``stored_at`` age — as it is.  A second put of a *different*
        verdict for the same fingerprint is a determinism violation
        upstream; the cache refuses it with a typed error rather than
        silently picking a winner.
        """
        path = self._entry_path(fingerprint)
        existing = self.get(fingerprint)
        if existing is not None:
            if existing != verdict:
                raise ServiceError(
                    f"cache entry {fingerprint[:12]}… already holds a "
                    "different verdict for the same job spec; refusing "
                    "to overwrite (upstream determinism violation)"
                )
            return verdict_digest(fingerprint, verdict)
        record = {
            "fingerprint": fingerprint,
            "verdict": verdict,
            "digest": verdict_digest(fingerprint, verdict),
            "meta": dict(meta or {}),
            # Outside the digest, like meta: eviction bookkeeping must
            # not break cross-machine digest equality.
            "stored_at": self.clock(),
        }
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp",
            dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self._enforce_limits(keep=fingerprint)
        return record["digest"]

    # -- read --------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The cached verdict, or None on miss / quarantined entry."""
        entry = self.get_entry(fingerprint)
        return None if entry is None else entry["verdict"]

    def get_entry(self, fingerprint: str
                  ) -> Optional[Dict[str, Any]]:
        """Full record ``{fingerprint, verdict, digest, meta}``.

        A corrupt entry — unparseable JSON, wrong fingerprint, digest
        mismatch — is moved to ``quarantine/`` and reported as a
        miss, so the job is recomputed instead of served a wrong
        verdict.  Quarantined files keep their bytes for post-mortem.
        """
        path = self._entry_path(fingerprint)
        if not os.path.isfile(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            if not isinstance(record, dict):
                raise ValueError("cache entry is not an object")
            if record.get("fingerprint") != fingerprint:
                raise ValueError("cache entry names another job")
            verdict = record["verdict"]
            if record.get("digest") != verdict_digest(fingerprint,
                                                      verdict):
                raise ValueError("cache digest mismatch")
        except (OSError, ValueError, KeyError, TypeError):
            self._quarantine(path, fingerprint)
            return None
        if self.max_age is not None:
            # Entries written before TTL support carry no stored_at;
            # treating them as ancient errs on the safe side — an
            # aged-out verdict is recomputed, never served stale.
            stored_at = float(record.get("stored_at", 0.0))
            if self.clock() - stored_at > self.max_age:
                self._evict(fingerprint, path, "ttl")
                return None
        try:
            os.utime(path, None)  # LRU recency marker
        except OSError:
            pass
        return record

    # -- eviction ----------------------------------------------------

    def _evict(self, fingerprint: str, path: str,
               reason: str) -> None:
        """Journal and delete one entry (LRU bound or TTL expiry)."""
        self.journal.append_record(_EVICTIONS, {
            "event": "evict",
            "fingerprint": fingerprint,
            "reason": reason,
            "evicted_at": self.clock(),
        })
        try:
            os.unlink(path)
        except OSError:
            # Lost a race with another evictor; the journal may then
            # hold two events for one eviction, which audits tolerate.
            pass

    def _enforce_limits(self, keep: str = "") -> None:
        """Apply the LRU bound after a write.

        Evicts least-recently-used entries (file mtime, bumped on
        every read) until the cache fits ``max_entries`` again; the
        just-written ``keep`` fingerprint is never a victim even
        under mtime ties on coarse filesystem clocks.
        """
        if self.max_entries is None:
            return
        entries = self.entries()
        if len(entries) <= self.max_entries:
            return
        by_recency = []
        for fingerprint, path in entries:
            if fingerprint == keep:
                continue
            try:
                by_recency.append(
                    (os.path.getmtime(path), fingerprint, path))
            except OSError:
                continue
        by_recency.sort()
        excess = len(entries) - self.max_entries
        for _, fingerprint, path in by_recency[:excess]:
            self._evict(fingerprint, path, "lru")

    def eviction_events(self) -> List[Dict[str, Any]]:
        """Every journaled eviction, oldest first."""
        return self.journal.load_records(_EVICTIONS,
                                         tolerate_tail=True)

    def eviction_counts(self) -> Dict[str, int]:
        """Evictions tallied by reason (``lru`` / ``ttl``)."""
        tally: Dict[str, int] = {}
        for event in self.eviction_events():
            reason = str(event.get("reason", "unknown"))
            tally[reason] = tally.get(reason, 0) + 1
        return tally

    def _quarantine(self, path: str, fingerprint: str) -> None:
        quarantine_dir = os.path.join(self.directory, _QUARANTINE)
        os.makedirs(quarantine_dir, exist_ok=True)
        target = os.path.join(
            quarantine_dir,
            f"{fingerprint}.{int(time.time() * 1000):x}.corrupt")
        try:
            os.replace(path, target)
        except OSError:
            # Lost a race with another reader quarantining the same
            # entry; the miss verdict stands either way.
            pass

    # -- inspection --------------------------------------------------

    def quarantined(self) -> List[str]:
        quarantine_dir = os.path.join(self.directory, _QUARANTINE)
        if not os.path.isdir(quarantine_dir):
            return []
        return sorted(
            os.path.join(quarantine_dir, name)
            for name in os.listdir(quarantine_dir)
        )

    def entries(self) -> List[Tuple[str, str]]:
        """(fingerprint, path) for every non-quarantined entry."""
        found = []
        if not os.path.isdir(self.directory):
            return found
        for shard in sorted(os.listdir(self.directory)):
            if shard in (_QUARANTINE, _JOURNAL):
                continue
            shard_dir = os.path.join(self.directory, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    found.append((name[:-len(".json")],
                                  os.path.join(shard_dir, name)))
        return found


def garble_cache_entry(cache: ResultCache, fingerprint: str,
                       mode: str = "flip") -> str:
    """Chaos helper: corrupt a cache entry in place.

    ``flip`` rewrites a byte inside the stored verdict so the digest
    no longer matches; ``truncate`` cuts the file mid-record.  Returns
    the path garbled.  Used by the chaos suite to certify that a
    corrupted entry is quarantined and recomputed, never served.
    """
    path = cache._entry_path(fingerprint)
    if not os.path.isfile(path):
        raise ServiceError(
            f"no cache entry to garble for {fingerprint[:12]}…"
        )
    with open(path, "rb") as handle:
        blob = handle.read()
    if mode == "truncate":
        garbled = blob[:max(1, len(blob) // 2)]
    elif mode == "flip":
        marker = b'"verdict"'
        at = blob.find(marker)
        at = at + len(marker) + 2 if at >= 0 else len(blob) // 2
        at = min(at, len(blob) - 1)
        garbled = blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]
    else:
        raise ServiceError(f"unknown garble mode {mode!r}")
    with open(path, "wb") as handle:
        handle.write(garbled)
    return path
