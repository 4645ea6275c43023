"""Sweep decomposition and the crash-safe journaled merge."""

from __future__ import annotations

import shutil

import pytest

from repro.exceptions import CheckpointError, ServiceError
from repro.service import (
    CertificationService,
    DEAD,
    FaultPlan,
    SUCCEEDED,
    SweepSpec,
    load_sweep,
    merge_sweep,
    run_sweep_inprocess,
    submit_sweep,
)

from tests.service.conftest import fast_config


def small_sweep(seed: int = 5, **overrides) -> SweepSpec:
    """A 2 gadget x 3 p grid of fast Monte-Carlo cells (6 cells)."""
    knobs = dict(code="trivial", gadgets=("n", "recovery"),
                 p_grid=(0.01, 0.02, 0.05), seed=seed, trials=30,
                 chunk_size=10)
    knobs.update(overrides)
    return SweepSpec.create("monte_carlo", **knobs)


class TestSweepSpec:
    def test_rejects_unknown_cell_kind(self):
        with pytest.raises(ServiceError, match="unknown sweep cell"):
            SweepSpec.create("nope")

    def test_rejects_empty_gadgets(self):
        with pytest.raises(ServiceError, match="at least one gadget"):
            SweepSpec.create("monte_carlo", gadgets=())

    def test_rejects_bad_p(self):
        for bad in (1.5, -0.1, float("nan"), float("inf")):
            with pytest.raises(ServiceError, match="finite in"):
                SweepSpec.create("monte_carlo", p_grid=(bad,))

    def test_rejects_duplicate_grid_points(self):
        with pytest.raises(ServiceError, match="duplicate"):
            SweepSpec.create("monte_carlo", p_grid=(0.01, 0.01))

    def test_rejects_unserialisable_cell_params(self):
        with pytest.raises(ServiceError, match="serialisable"):
            SweepSpec.create("monte_carlo", evil=object())

    def test_fingerprint_ignores_param_order(self):
        a = SweepSpec.create("monte_carlo", trials=30, chunk_size=10)
        b = SweepSpec.create("monte_carlo", chunk_size=10, trials=30)
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_tracks_the_grid(self):
        a = small_sweep()
        b = small_sweep(p_grid=(0.01, 0.02, 0.06))
        c = small_sweep(seed=6)
        assert len({a.fingerprint, b.fingerprint,
                    c.fingerprint}) == 3

    def test_roundtrips_through_json(self):
        sweep = small_sweep()
        clone = SweepSpec.from_json_dict(sweep.to_json_dict())
        assert clone == sweep
        assert clone.fingerprint == sweep.fingerprint

    def test_from_json_rejects_wrong_kind(self):
        with pytest.raises(ServiceError, match="not a sweep spec"):
            SweepSpec.from_json_dict({"kind": "monte_carlo",
                                      "cell_kind": "monte_carlo"})

    def test_from_json_rejects_malformed(self):
        with pytest.raises(ServiceError, match="malformed"):
            SweepSpec.from_json_dict({"kind": "sweep"})


class TestDecomposition:
    def test_cells_cover_the_grid_in_canonical_order(self):
        sweep = small_sweep()
        cells = sweep.cells()
        assert len(cells) == 6
        assert [cell.key for cell in cells] == [
            "n@0.01", "n@0.02", "n@0.05",
            "recovery@0.01", "recovery@0.02", "recovery@0.05",
        ]
        assert len({cell.fingerprint for cell in cells}) == 6

    def test_cell_seeds_are_deterministic_and_distinct(self):
        sweep = small_sweep()
        seeds = [sweep.cell_seed(c.gadget, c.p)
                 for c in sweep.cells()]
        assert seeds == [sweep.cell_seed(c.gadget, c.p)
                         for c in sweep.cells()]
        assert len(set(seeds)) == 6

    def test_growing_the_grid_never_shifts_existing_cells(self):
        """Cell seeds are hash-derived from the coordinate, not the
        submission order, so adding a grid point leaves every other
        cell's spec (and cached verdict) untouched."""
        small = small_sweep(p_grid=(0.01, 0.02))
        grown = small_sweep(p_grid=(0.01, 0.02, 0.05))
        small_fps = {c.key: c.fingerprint for c in small.cells()}
        grown_fps = {c.key: c.fingerprint for c in grown.cells()}
        for key, fingerprint in small_fps.items():
            assert grown_fps[key] == fingerprint

    def test_stress_cells_carry_their_gadget_as_a_list(self):
        sweep = SweepSpec.create("stress_certify",
                                 gadgets=("n",), p_grid=(0.01,),
                                 trials=10)
        (cell,) = sweep.cells()
        assert cell.spec.kind == "stress_certify"
        assert cell.spec.params_dict["gadgets"] == ["n"]


class TestSubmitAndMerge:
    def test_submission_is_idempotent(self, service):
        sweep = small_sweep()
        first = submit_sweep(service, sweep)
        assert first["submitted"] == 6
        assert first["deduplicated"] == 0
        assert len(first["cells"]) == 6
        second = submit_sweep(service, sweep)
        assert second["submitted"] == 0
        assert second["deduplicated"] == 6
        assert len(service.queue.jobs()) == 6
        assert service.queue.event_counts()["submit"] == 6

    def test_load_sweep_roundtrip(self, service):
        sweep = small_sweep()
        submit_sweep(service, sweep)
        loaded = load_sweep(service, sweep.fingerprint)
        assert loaded == sweep
        assert load_sweep(service, "f" * 64) is None

    def test_load_sweep_refuses_mismatched_journal(self, service):
        sweep = small_sweep()
        store = service.sweep_store("a" * 64)
        store.write_header(sweep.to_json_dict())
        with pytest.raises(CheckpointError, match="mismatched"):
            load_sweep(service, "a" * 64)

    def test_merge_unregistered_sweep_is_refused(self, service):
        with pytest.raises(ServiceError, match="not registered"):
            merge_sweep(service, small_sweep())

    def test_merge_before_work_is_typed_missing(self, service):
        sweep = small_sweep()
        submit_sweep(service, sweep)
        table = merge_sweep(service, sweep)
        assert table["complete"] is False
        assert table["partial"] is True
        assert table["counts"] == {"pending": 6}
        assert all(row["state"] == "missing"
                   for row in table["cells"].values())

    def test_drained_merge_is_complete(self, service):
        sweep = small_sweep()
        submit_sweep(service, sweep)
        service.worker("w1").run_until_drained()
        table = merge_sweep(service, sweep)
        assert table["complete"] is True
        assert table["partial"] is False
        assert table["counts"] == {SUCCEEDED: 6}
        for row in table["cells"].values():
            assert row["verdict"]["kind"] == "monte_carlo"
            assert row["partial"] is False

    def test_merge_journals_each_cell_exactly_once(self, service):
        sweep = small_sweep()
        submit_sweep(service, sweep)
        service.worker("w1").run_until_drained()
        merge_sweep(service, sweep)
        merge_sweep(service, sweep)
        store = service.sweep_store(sweep.fingerprint)
        assert len(store.load_records("cells")) == 6

    def test_partial_merge_resumes_after_crash(self, tmp_path):
        """Merge half the cells, 'crash' (drop the handle), finish
        the drain from a fresh handle, merge again: the journal
        carries the first half forward and the table completes."""
        root = str(tmp_path / "svc")
        service = CertificationService(root, config=fast_config())
        sweep = small_sweep()
        submit_sweep(service, sweep)
        worker = service.worker("w1")
        for _ in range(3):
            worker.run_once()
        partial = merge_sweep(service, sweep)
        assert partial["complete"] is False
        assert partial["counts"][SUCCEEDED] == 3
        store = service.sweep_store(sweep.fingerprint)
        assert len(store.load_records("cells")) == 3

        resumed = CertificationService(root, config=fast_config())
        resumed.worker("w2").run_until_drained()
        table = merge_sweep(resumed, sweep)
        assert table["complete"] is True
        assert len(resumed.sweep_store(sweep.fingerprint)
                   .load_records("cells")) == 6

    def test_completed_merge_outlives_the_queue(self, service):
        """Once complete, the merged table is journaled state: it is
        served even if the queue directory is gone entirely."""
        sweep = small_sweep()
        submit_sweep(service, sweep)
        service.worker("w1").run_until_drained()
        table = merge_sweep(service, sweep)
        shutil.rmtree(service.queue.root)
        again = merge_sweep(service, sweep)
        assert again == table

    def test_dead_cell_is_a_typed_partial_verdict(self, tmp_path):
        """A cell that exhausts its retry budget appears in the table
        as a named, typed failure — never a silent gap."""
        chaos = (FaultPlan().add("job", "start", 2, "fail")
                 .add("job", "start", 2, "fail", attempt=2))
        service = CertificationService(
            str(tmp_path / "svc"),
            config=fast_config(max_attempts=2), chaos=chaos)
        sweep = small_sweep()
        submit_sweep(service, sweep)
        service.worker("w1").run_until_drained()
        table = merge_sweep(service, sweep)
        assert table["complete"] is True
        assert table["partial"] is True
        assert table["counts"] == {DEAD: 1, SUCCEEDED: 5}
        dead_key = small_sweep().cells()[2].key
        row = table["cells"][dead_key]
        assert row["state"] == DEAD
        assert "chaos" in row["error"]
        assert row["partial"] is True

    def test_merged_table_matches_inprocess_reference(self, tmp_path):
        """The decomposed drain is bit-identical to the undisturbed
        serial reference — the core soak property, chaos-free."""
        sweep = small_sweep()
        reference = run_sweep_inprocess(sweep,
                                        str(tmp_path / "ref"))
        service = CertificationService(str(tmp_path / "svc"),
                                       config=fast_config())
        submit_sweep(service, sweep)
        service.worker("other").run_until_drained()
        table = merge_sweep(service, sweep)
        assert table["cells"] == reference["cells"]
        assert table["counts"] == reference["counts"]

    def test_cells_recompute_bit_identically_in_isolation(
            self, tmp_path):
        """Any single cell recomputed alone (fresh service, nothing
        cached) matches its verdict from the full sweep — the
        per-cell seed depends only on the coordinate."""
        sweep = small_sweep()
        reference = run_sweep_inprocess(sweep,
                                        str(tmp_path / "ref"))
        cell = sweep.cells()[4]
        service = CertificationService(str(tmp_path / "one"),
                                       config=fast_config())
        service.submit(cell.spec)
        service.worker("solo").run_until_drained()
        verdict = service.status(cell.fingerprint).verdict
        assert verdict == reference["cells"][cell.key]["verdict"]
