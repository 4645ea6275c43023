"""Supervisor unit tests: deadlines, retries, quarantine, reports.

The supervisor is exercised directly with tiny synthetic workloads
(the engine integration is covered by the chaos suite), including the
two failure modes a bare ``multiprocessing.Pool`` cannot survive: a
worker killed mid-task and a worker that never returns.
"""

import os
import signal
import time

import pytest

from repro.exceptions import RuntimeIntegrityError
from repro.runtime import SupervisionReport, Supervisor, SupervisorConfig

_HAS_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()

needs_fork = pytest.mark.skipif(not _HAS_FORK,
                                reason="fork start method unavailable")

#: (kind, index, attempt) behaviours keyed by task payload.  Workers
#: are forked, so module-level functions are picklable by name.


def _well_behaved(task):
    index, attempt = task
    return index * 10 + attempt


def _fails_first_attempt(task):
    index, attempt = task
    if index == 1 and attempt == 0:
        raise ValueError("transient worker failure")
    return index


def _always_fails_index_two(task):
    index, attempt = task
    if index == 2:
        raise ValueError("persistent worker failure")
    return index


def _hangs_first_attempt(task):
    index, attempt = task
    if index == 0 and attempt == 0:
        time.sleep(30.0)
    return index


def _dies_first_attempt(task):
    index, attempt = task
    if index == 0 and attempt == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return index


def _fast_config(**overrides):
    defaults = dict(chunk_deadline_seconds=5.0, max_retries=2,
                    backoff_base_seconds=0.01, backoff_factor=2.0,
                    backoff_jitter=0.25, poll_interval_seconds=0.01)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def _run(worker_fn, num_tasks=4, workers=2, config=None,
         local_eval=None):
    results = {}
    report = Supervisor(config or _fast_config()).run(
        num_tasks=num_tasks,
        make_task=lambda index, attempt: (index, attempt),
        worker_fn=worker_fn,
        workers=workers,
        on_result=lambda index, result: results.__setitem__(index,
                                                            result),
        local_eval=local_eval or (lambda index: ("local", index)),
    )
    return results, report


@needs_fork
class TestSupervisorHappyPath:
    def test_all_tasks_complete_exactly_once(self):
        results, report = _run(_well_behaved, num_tasks=6)
        assert sorted(results) == list(range(6))
        assert all(results[i] == i * 10 for i in range(6))
        assert report.clean
        assert report.chunks == 6

    def test_zero_tasks_is_clean_noop(self):
        results, report = _run(_well_behaved, num_tasks=0)
        assert results == {}
        assert report.clean


@needs_fork
class TestSupervisorRecovery:
    def test_worker_exception_is_retried(self):
        results, report = _run(_fails_first_attempt, num_tasks=4)
        assert sorted(results) == list(range(4))
        assert report.worker_errors >= 1
        assert report.retries >= 1
        assert not report.quarantined

    def test_persistent_failure_is_quarantined_not_dropped(self):
        seen = []
        results, report = _run(
            _always_fails_index_two, num_tasks=4,
            local_eval=lambda index: seen.append(index) or 42,
        )
        assert sorted(results) == list(range(4))
        assert results[2] == 42
        assert report.quarantined == [2]
        assert seen == [2]

    def test_quarantine_failure_is_typed_error(self):
        def broken_local(index):
            raise ValueError("parent evaluation also broken")

        with pytest.raises(RuntimeIntegrityError,
                           match="no correct result"):
            _run(_always_fails_index_two, num_tasks=4,
                 config=_fast_config(max_retries=0),
                 local_eval=broken_local)

    def test_hung_worker_expires_and_retries(self):
        config = _fast_config(chunk_deadline_seconds=1.0)
        results, report = _run(_hangs_first_attempt, num_tasks=3,
                               config=config)
        assert sorted(results) == list(range(3))
        assert report.expired_chunks >= 1
        assert report.pool_restarts >= 1
        assert report.retries >= 1

    def test_sigkilled_worker_expires_and_retries(self):
        # A killed worker's task is lost silently by the pool; only
        # the deadline can recover it.
        config = _fast_config(chunk_deadline_seconds=1.5)
        results, report = _run(_dies_first_attempt, num_tasks=3,
                               config=config)
        assert sorted(results) == list(range(3))
        assert report.expired_chunks >= 1
        assert report.pool_restarts >= 1


class TestSupervisorConfig:
    def test_report_clean_flag(self):
        assert SupervisionReport(chunks=3).clean
        assert not SupervisionReport(chunks=3, retries=1).clean
