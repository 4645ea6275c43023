"""Crash-safe checkpoint journals for long-running sweeps.

A :class:`CheckpointStore` is a directory of small JSON records that
together let an interrupted campaign resume bit-identically:

* ``header.json`` — the run *fingerprint* (seed, trial counts, chunk
  size, workload name, ...).  A resume whose fingerprint differs from
  the journal's is refused with :class:`~repro.exceptions.
  CheckpointError` — replaying verdicts into a different run would
  silently corrupt its statistics.
* ``<kind>-NNNNNN.json`` — append-only record batches (completed
  evaluation-chunk verdicts, differential-sweep results, ...).
* named state files (``cursor.json``, ``final.json``) — last-writer-
  wins progress markers.

Every file is written atomically (write to a ``.tmp`` sibling, then
``os.replace``) and carries a SHA-256 checksum of its payload, so a
crash mid-write leaves either the old record or the new one — never a
half-written file that parses to wrong data.  A record that is
unreadable, truncated or checksum-poisoned raises
:class:`~repro.exceptions.CheckpointError` (a
:class:`~repro.exceptions.RuntimeIntegrityError`) at load time: the
journal's answer is a correct resume or a typed error, never a wrong
number.

Fault patterns — the engine's cache keys — are serialised structurally
(qubit count, X/Z bit-vectors, phase, injection point) rather than by
pickle, so journals are portable and diffable.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import shutil
import tempfile
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.circuits.pauli import PauliString
from repro.exceptions import CheckpointError

#: Journal format version; bumped on incompatible layout changes.
JOURNAL_VERSION = 1

_RECORD_NAME = re.compile(r"^([a-z_]+)-(\d{6})\.json$")

#: Name of the short-held advisory lock serialising record appends.
_APPEND_LOCK = ".append.lock"
#: Name of the long-held advisory lock marking a store's owner.
_OWNER_LOCK = ".owner.lock"


@contextlib.contextmanager
def _flock(path: str, timeout: Optional[float] = None,
           poll: float = 0.02):
    """Advisory exclusive lock on ``path`` (no-op without fcntl).

    ``timeout=None`` blocks until acquired; a finite timeout raises
    :class:`CheckpointError` when the lock stays contended — the
    caller is told another process owns the store instead of silently
    corrupting it.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    handle = open(path, "a+")
    try:
        if timeout is None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        else:
            deadline = time.monotonic() + timeout
            while True:
                try:
                    fcntl.flock(handle.fileno(),
                                fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise CheckpointError(
                            f"could not acquire advisory lock "
                            f"{path!r} within {timeout:g}s; another "
                            f"process holds this checkpoint store"
                        )
                    time.sleep(poll)
        yield
    finally:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()


# ---------------------------------------------------------------------------
# Fault-pattern serialisation
# ---------------------------------------------------------------------------

def serialize_pattern(pattern: Sequence[Tuple[PauliString, int]]
                      ) -> List[List[Any]]:
    """Structural JSON form of a canonical fault pattern."""
    return [
        [pauli.num_qubits, list(pauli.x_bits), list(pauli.z_bits),
         pauli.phase, int(after_op)]
        for pauli, after_op in pattern
    ]


def deserialize_pattern(data: Sequence[Sequence[Any]]
                        ) -> Tuple[Tuple[PauliString, int], ...]:
    """Inverse of :func:`serialize_pattern`."""
    faults = []
    for item in data:
        try:
            num_qubits, x_bits, z_bits, phase, after_op = item
            pauli = PauliString(int(num_qubits),
                                tuple(int(b) for b in x_bits),
                                tuple(int(b) for b in z_bits),
                                int(phase))
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed fault-pattern record: {item!r}"
            ) from exc
        faults.append((pauli, int(after_op)))
    return tuple(faults)


# ---------------------------------------------------------------------------
# Atomic JSON records
# ---------------------------------------------------------------------------

def _payload_digest(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_atomic_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` all or nothing.

    The text is staged in a ``<name>.*.tmp`` sibling, fsynced and
    renamed over ``path``, so a reader sees the old file or the new
    one, never a torn write; the staging file is removed on failure.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp",
        dir=directory,
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _write_atomic_json(path: str, payload: Dict[str, Any]) -> None:
    record = dict(payload)
    record["sha256"] = _payload_digest(payload)
    _write_atomic_text(path, json.dumps(record))


def _read_checked_json(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint record {path!r} is unreadable or truncated: "
            f"{exc}"
        ) from exc
    if not isinstance(record, dict) or "sha256" not in record:
        raise CheckpointError(
            f"checkpoint record {path!r} is missing its checksum"
        )
    stored = record.pop("sha256")
    if stored != _payload_digest(record):
        raise CheckpointError(
            f"checkpoint record {path!r} failed its integrity check "
            "(truncated, corrupted or poisoned)"
        )
    return record


class CheckpointStore:
    """One run's crash-safe journal directory.

    The store is deliberately dumb: it knows about atomic JSON
    records, checksums and fingerprints, not about what the engine or
    the differential sweep put in them.  Workload-specific record
    kinds (``verdicts``, ``points``, ``circuits``) are namespaced by
    the caller.
    """

    def __init__(self, directory: str) -> None:
        self.directory = os.fspath(directory)

    def substore(self, name: str) -> "CheckpointStore":
        """A nested store (e.g. one per sweep point)."""
        return CheckpointStore(os.path.join(self.directory, name))

    # -- lifecycle ---------------------------------------------------

    def exists(self) -> bool:
        """Whether this directory already holds a journaled run."""
        return os.path.isfile(self._path("header.json"))

    def clear(self) -> None:
        """Wipe the journal for a fresh (non-resumed) run.

        Advisory lock files survive the wipe: deleting a lock file
        that another process holds open would let a third process
        create and lock a *new* file of the same name, silently
        yielding two "exclusive" owners.
        """
        if not os.path.isdir(self.directory):
            return
        kept = {_OWNER_LOCK, _APPEND_LOCK}
        for name in os.listdir(self.directory):
            if name in kept:
                continue
            path = self._path(name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def _ensure_dir(self) -> None:
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def sweep_stale_tmp(self) -> List[str]:
        """Remove ``*.tmp`` siblings left by a crash mid-write.

        Atomic writes stage into ``<name>.<random>.tmp`` and
        ``os.replace`` over the target; a process killed between the
        two leaves the orphaned staging file behind.  Such orphans are
        never read (records are addressed by exact name), but they
        accumulate and confuse operators, so stores sweep them when a
        run opens.  Returns the removed paths.
        """
        removed = []
        if not os.path.isdir(self.directory):
            return removed
        for name in os.listdir(self.directory):
            if not name.endswith(".tmp"):
                continue
            path = self._path(name)
            try:
                os.unlink(path)
            except OSError:
                continue
            removed.append(path)
        return removed

    @contextlib.contextmanager
    def exclusive(self, timeout: Optional[float] = None):
        """Advisory single-owner lock over this store.

        Two processes replaying and appending to the same substore
        concurrently can interleave sequence numbers and overwrite
        each other's record batches; holding ``exclusive()`` for the
        duration of a run makes the second process wait (or fail
        typed, with a finite ``timeout``) instead.  The lock is
        advisory — cooperating writers (the engine, the certification
        service) opt in — and is released automatically by the kernel
        if the holder dies, so a SIGKILLed owner never wedges the
        store.
        """
        self._ensure_dir()
        with _flock(self._path(_OWNER_LOCK), timeout=timeout):
            yield self

    # -- header / fingerprint ---------------------------------------

    def write_header(self, fingerprint: Dict[str, Any]) -> None:
        self._ensure_dir()
        self.sweep_stale_tmp()
        _write_atomic_json(self._path("header.json"), {
            "version": JOURNAL_VERSION,
            "fingerprint": fingerprint,
        })

    def load_header(self) -> Optional[Dict[str, Any]]:
        if not self.exists():
            return None
        self.sweep_stale_tmp()
        record = _read_checked_json(self._path("header.json"))
        if record.get("version") != JOURNAL_VERSION:
            raise CheckpointError(
                f"checkpoint {self.directory!r} uses journal version "
                f"{record.get('version')!r}; this build reads "
                f"{JOURNAL_VERSION}"
            )
        return record

    def check_fingerprint(self, fingerprint: Dict[str, Any],
                          retired: Optional[Dict[str, Any]] = None
                          ) -> None:
        """Refuse to resume a journal recorded by a different run.

        A recorded field equal to its value in ``retired`` (fields that
        older journals wrote and no longer identify a run) is ignored.
        """
        header = self.load_header()
        if header is None:
            raise CheckpointError(
                f"checkpoint {self.directory!r} has no header to "
                "resume from"
            )
        recorded = header.get("fingerprint")
        if retired and isinstance(recorded, dict):
            recorded = {key: value for key, value in recorded.items()
                        if key not in retired or value != retired[key]}
        if recorded != fingerprint:
            mismatched = sorted(
                key for key in set(recorded or {}) | set(fingerprint)
                if (recorded or {}).get(key) != fingerprint.get(key)
            )
            raise CheckpointError(
                f"checkpoint {self.directory!r} records a different "
                f"run (mismatched fields: {', '.join(mismatched)}); "
                "refusing to splice its verdicts into this one"
            )

    # -- append-only record batches ---------------------------------

    def _record_names(self, kind: str, start: int = 0
                      ) -> List[Tuple[int, str]]:
        """``(sequence, file name)`` of each ``kind`` record numbered
        at least ``start``, in sequence order."""
        try:
            names = os.listdir(self.directory)
        except (FileNotFoundError, NotADirectoryError):
            return []
        found = []
        for name in names:
            match = _RECORD_NAME.match(name)
            if match and match.group(1) == kind:
                sequence = int(match.group(2))
                if sequence >= start:
                    found.append((sequence, name))
        return sorted(found)

    def _record_files(self, kind: str, start: int = 0
                      ) -> List[Tuple[int, str]]:
        """Like :meth:`_record_names`, with full paths."""
        return [(sequence, self._path(name))
                for sequence, name in self._record_names(kind, start)]

    def _record_path(self, kind: str, sequence: int) -> str:
        return self._path(f"{kind}-{sequence:06d}.json")

    def append_record(self, kind: str, payload: Dict[str, Any]) -> int:
        """Journal one batch; returns its sequence number.

        The sequence allocation (list existing, take max + 1, write)
        is serialised under a short advisory lock so two cooperating
        processes appending to the same store can never both claim the
        same number and silently overwrite each other's batch.
        """
        self._ensure_dir()
        with _flock(self._path(_APPEND_LOCK)):
            existing = self._record_names(kind)
            sequence = existing[-1][0] + 1 if existing else 0
            record = dict(payload)
            record["kind"] = kind
            record["sequence"] = sequence
            _write_atomic_json(self._record_path(kind, sequence),
                               record)
        return sequence

    def load_records(self, kind: str,
                     tolerate_tail: bool = False,
                     start: int = 0) -> List[Dict[str, Any]]:
        """Batches of ``kind`` in append order (checksum-verified).

        Only records with sequence number ``start`` or higher are
        read, so a caller that has folded the journal up to some
        sequence loads just what was appended since.

        With ``tolerate_tail`` a corrupt *last* record is quarantined
        (renamed ``<name>.corrupt``) and replay continues without it:
        a torn tail is what a crash racing bit-rot looks like, and the
        caller (the job-queue journal) can recover the lost event by
        re-deriving state — whereas a corrupt record in the *middle*
        of the journal is unambiguous damage and still raises
        :class:`CheckpointError`.
        """
        records = []
        files = self._record_files(kind, start)
        for position, (sequence, path) in enumerate(files):
            try:
                record = _read_checked_json(path)
                if record.get("sequence") != sequence:
                    raise CheckpointError(
                        f"checkpoint record {path!r} carries sequence "
                        f"{record.get('sequence')!r}, expected "
                        f"{sequence}"
                    )
            except CheckpointError:
                if tolerate_tail and position == len(files) - 1:
                    os.replace(path, path + ".corrupt")
                    break
                raise
            records.append(record)
        return records

    # -- named state files ------------------------------------------

    def write_state(self, name: str, payload: Dict[str, Any]) -> None:
        self._ensure_dir()
        _write_atomic_json(self._path(f"{name}.json"), dict(payload))

    def load_state(self, name: str) -> Optional[Dict[str, Any]]:
        path = self._path(f"{name}.json")
        if not os.path.isfile(path):
            return None
        return _read_checked_json(path)

    # -- engine verdict journal -------------------------------------

    def append_verdicts(self,
                        entries: Iterable[
                            Tuple[Sequence[Tuple[PauliString, int]],
                                  bool]]) -> None:
        """Journal one evaluation chunk's (pattern, verdict) pairs."""
        serialised = [[serialize_pattern(pattern), bool(verdict)]
                      for pattern, verdict in entries]
        if serialised:
            self.append_record("verdicts", {"entries": serialised})

    def load_verdicts(self) -> List[Tuple[Tuple[Tuple[PauliString, int],
                                                ...], bool]]:
        """Every journaled (pattern, verdict) pair, in append order."""
        entries = []
        for record in self.load_records("verdicts"):
            for item in record.get("entries", []):
                try:
                    pattern_data, verdict = item
                except (TypeError, ValueError) as exc:
                    raise CheckpointError(
                        f"malformed verdict entry {item!r} in "
                        f"{self.directory!r}"
                    ) from exc
                entries.append((deserialize_pattern(pattern_data),
                                bool(verdict)))
        return entries

    # -- completion marker ------------------------------------------

    def finalize(self, summary: Dict[str, Any]) -> None:
        self.write_state("final", {"complete": True,
                                   "summary": summary})

    def load_final(self) -> Optional[Dict[str, Any]]:
        return self.load_state("final")


def as_store(checkpoint) -> Optional[CheckpointStore]:
    """Coerce the public ``checkpoint=`` argument to a store.

    Accepts ``None``, a :class:`CheckpointStore`, or a path-like
    naming the run directory.
    """
    if checkpoint is None or isinstance(checkpoint, CheckpointStore):
        return checkpoint
    return CheckpointStore(os.fspath(checkpoint))
