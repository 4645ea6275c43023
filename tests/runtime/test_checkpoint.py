"""CheckpointStore mechanics: atomicity, integrity, fingerprints.

The journal's contract is *correct resume or typed error*; these tests
attack the file layer directly — truncation, garbling, checksum
poisoning, wrong-run fingerprints — and assert every corruption is
caught as :class:`~repro.exceptions.CheckpointError` at load time.
"""

import json
import os

import pytest

from repro.circuits.pauli import PauliString
from repro.exceptions import CheckpointError, RuntimeIntegrityError
from repro.runtime import (
    CheckpointStore,
    as_store,
    deserialize_pattern,
    garble_checkpoint_record,
    poison_checkpoint_verdict,
    serialize_pattern,
    truncate_checkpoint_record,
)


def _pattern(num_qubits=2):
    return (
        (PauliString.from_label("XZ"), 3),
        (PauliString.from_label("IY"), 5),
    )


class TestPatternSerialisation:
    def test_round_trip(self):
        pattern = _pattern()
        data = serialize_pattern(pattern)
        json.dumps(data)  # must be pure-JSON serialisable
        assert deserialize_pattern(data) == pattern

    def test_malformed_pattern_is_typed_error(self):
        with pytest.raises(CheckpointError):
            deserialize_pattern([[1, [0], [0]]])  # missing fields


class TestStoreLifecycle:
    def test_header_round_trip_and_exists(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        assert not store.exists()
        store.write_header({"workload": "x", "seed": 1})
        assert store.exists()
        header = store.load_header()
        assert header["fingerprint"] == {"workload": "x", "seed": 1}
        store.clear()
        assert not store.exists()

    def test_as_store_coercions(self, tmp_path):
        assert as_store(None) is None
        store = CheckpointStore(str(tmp_path))
        assert as_store(store) is store
        coerced = as_store(str(tmp_path / "x"))
        assert isinstance(coerced, CheckpointStore)

    def test_substore_nests(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        sub = store.substore("point-000")
        assert sub.directory.startswith(store.directory)

    def test_fingerprint_mismatch_names_fields(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        store.write_header({"seed": 1, "trials": 10})
        with pytest.raises(CheckpointError, match="trials"):
            store.check_fingerprint({"seed": 1, "trials": 20})
        # Matching fingerprint passes silently.
        store.check_fingerprint({"seed": 1, "trials": 10})

    def test_checkpoint_error_is_runtime_integrity_error(self):
        assert issubclass(CheckpointError, RuntimeIntegrityError)


class TestRecords:
    def test_append_and_load_preserve_order(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        for i in range(3):
            store.append_record("points", {"index": i})
        records = store.load_records("points")
        assert [r["index"] for r in records] == [0, 1, 2]
        assert [r["sequence"] for r in records] == [0, 1, 2]

    def test_kinds_are_namespaced(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        store.append_record("points", {"index": 0})
        store.append_record("circuits", {"through_index": 5})
        assert len(store.load_records("points")) == 1
        assert len(store.load_records("circuits")) == 1

    def test_state_files_last_writer_wins(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        store.write_state("cursor", {"done": 1})
        store.write_state("cursor", {"done": 2})
        assert store.load_state("cursor")["done"] == 2
        assert store.load_state("missing") is None

    def test_verdict_journal_round_trip(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        pattern = _pattern()
        store.append_verdicts([(pattern, False)])
        store.append_verdicts([(pattern[:1], True)])
        entries = store.load_verdicts()
        assert entries == [(pattern, False), (pattern[:1], True)]

    def test_finalize_marker(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        assert store.load_final() is None
        store.finalize({"failures": 3})
        final = store.load_final()
        assert final["complete"] is True
        assert final["summary"] == {"failures": 3}


class TestCorruptionDetection:
    def _seeded_store(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        store.write_header({"seed": 0})
        store.append_verdicts([(_pattern(), True)])
        return store

    def test_truncated_record_is_typed_error(self, tmp_path):
        store = self._seeded_store(tmp_path)
        truncate_checkpoint_record(store)
        with pytest.raises(CheckpointError):
            store.load_verdicts()

    def test_garbled_record_is_typed_error(self, tmp_path):
        store = self._seeded_store(tmp_path)
        garble_checkpoint_record(store)
        with pytest.raises(CheckpointError):
            store.load_verdicts()

    def test_poisoned_verdict_fails_checksum(self, tmp_path):
        # The poisoned file still parses as JSON — only the checksum
        # can tell the verdict was flipped after signing.
        store = self._seeded_store(tmp_path)
        poison_checkpoint_verdict(store)
        with pytest.raises(CheckpointError, match="integrity"):
            store.load_verdicts()

    def test_missing_checksum_is_typed_error(self, tmp_path):
        store = self._seeded_store(tmp_path)
        path = os.path.join(store.directory, "header.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": 1, "fingerprint": {}}, handle)
        with pytest.raises(CheckpointError, match="checksum"):
            store.load_header()

    def test_wrong_journal_version_is_typed_error(self, tmp_path):
        store = self._seeded_store(tmp_path)
        # Re-sign a header with a future version: the checksum is
        # valid, but the layout is not ours to interpret.
        from repro.runtime.checkpoint import _write_atomic_json

        _write_atomic_json(
            os.path.join(store.directory, "header.json"),
            {"version": 999, "fingerprint": {"seed": 0}},
        )
        with pytest.raises(CheckpointError, match="version"):
            store.load_header()

    def test_no_header_refuses_resume(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "empty"))
        with pytest.raises(CheckpointError, match="header"):
            store.check_fingerprint({"seed": 0})

    def test_crash_mid_write_leaves_no_partial_record(self, tmp_path):
        # A tmp sibling left behind by a crash must never be read as a
        # record: record discovery matches the final name only.
        store = self._seeded_store(tmp_path)
        tmp = os.path.join(store.directory, "verdicts-000001.json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write("{\"half\": ")
        assert len(store.load_records("verdicts")) == 1


class TestHardening:
    """Stale-tmp sweeping, advisory locks, tail-tolerant replay."""

    def test_sweep_stale_tmp_removes_orphans(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        store.write_header({"seed": 0})
        orphan = os.path.join(store.directory,
                              "verdicts-000000.json.abc123.tmp")
        with open(orphan, "w", encoding="utf-8") as handle:
            handle.write("{\"half\": ")
        removed = store.sweep_stale_tmp()
        assert removed == [orphan]
        assert not os.path.exists(orphan)

    def test_open_sweeps_stale_tmp(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        store.write_header({"seed": 0})
        orphan = os.path.join(store.directory, "cursor.json.x.tmp")
        with open(orphan, "w", encoding="utf-8") as handle:
            handle.write("{")
        store.load_header()  # any open path sweeps
        assert not os.path.exists(orphan)

    def test_sweep_leaves_real_records_alone(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        store.write_header({"seed": 0})
        store.append_record("points", {"x": 1})
        store.sweep_stale_tmp()
        assert store.load_header() is not None
        assert len(store.load_records("points")) == 1

    def test_exclusive_lock_blocks_second_owner(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        rival = CheckpointStore(str(tmp_path / "run"))
        with store.exclusive():
            with pytest.raises(CheckpointError, match="lock"):
                with rival.exclusive(timeout=0.1):
                    pass
        # released: the rival may now own it
        with rival.exclusive(timeout=0.1):
            pass

    def test_exclusive_lock_survives_clear(self, tmp_path):
        # clear() must not delete a held lock file: a third process
        # could otherwise lock a fresh file of the same name and
        # believe itself the exclusive owner.
        store = CheckpointStore(str(tmp_path / "run"))
        rival = CheckpointStore(str(tmp_path / "run"))
        with store.exclusive():
            store.clear()
            with pytest.raises(CheckpointError, match="lock"):
                with rival.exclusive(timeout=0.1):
                    pass

    def test_clear_wipes_records(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        store.write_header({"seed": 0})
        store.append_record("points", {"x": 1})
        store.substore("child").write_header({"seed": 1})
        store.clear()
        assert not store.exists()
        assert store.load_records("points") == []
        assert not store.substore("child").exists()

    def test_concurrent_appends_never_collide(self, tmp_path):
        # Two handles to one store appending under the advisory
        # append lock allocate distinct sequence numbers.
        a = CheckpointStore(str(tmp_path / "run"))
        b = CheckpointStore(str(tmp_path / "run"))
        for index in range(5):
            (a if index % 2 else b).append_record("points",
                                                  {"i": index})
        records = a.load_records("points")
        assert [r["i"] for r in records] == list(range(5))
        assert [r["sequence"] for r in records] == list(range(5))

    def test_tolerate_tail_quarantines_torn_last_record(self,
                                                        tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        store.append_record("events", {"i": 0})
        store.append_record("events", {"i": 1})
        tail = os.path.join(store.directory, "events-000001.json")
        with open(tail, "r+", encoding="utf-8") as handle:
            handle.truncate(20)
        records = store.load_records("events", tolerate_tail=True)
        assert [r["i"] for r in records] == [0]
        corrupt = [name for name in os.listdir(store.directory)
                   if name.endswith(".corrupt")]
        assert len(corrupt) == 1
        # replay is now clean and appends continue past the tear
        store.append_record("events", {"i": 2})
        records = store.load_records("events", tolerate_tail=True)
        assert [r["i"] for r in records] == [0, 2]

    def test_mid_journal_corruption_still_raises(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        store.append_record("events", {"i": 0})
        store.append_record("events", {"i": 1})
        first = os.path.join(store.directory, "events-000000.json")
        with open(first, "w", encoding="utf-8") as handle:
            handle.write("{ torn")
        with pytest.raises(CheckpointError):
            store.load_records("events", tolerate_tail=True)

    def test_start_reads_only_later_records(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "run"))
        for i in range(4):
            store.append_record("events", {"i": i})
        first = os.path.join(store.directory, "events-000000.json")
        with open(first, "w", encoding="utf-8") as handle:
            handle.write("{ torn")
        records = store.load_records("events", start=2)
        assert [r["sequence"] for r in records] == [2, 3]
        assert store.load_records("events", start=4) == []
        # The journal's last record is still the tolerated tail.
        tail = os.path.join(store.directory, "events-000003.json")
        with open(tail, "r+", encoding="utf-8") as handle:
            handle.truncate(20)
        records = store.load_records("events", tolerate_tail=True,
                                     start=2)
        assert [r["i"] for r in records] == [2]
        with pytest.raises(CheckpointError):
            store.load_records("events", tolerate_tail=True)
