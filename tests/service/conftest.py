"""Shared fixtures for the certification-service suite.

Everything here is tuned for speed: trivial-code gadgets, tens of
trials, and millisecond-scale lease/backoff knobs so chaos scenarios
(lease expiry, retry schedules) resolve inside a test's budget.
"""

from __future__ import annotations

import os

import pytest

from repro.service import (
    CertificationService,
    JobSpec,
    ServiceConfig,
)

_HAS_FORK = hasattr(os, "fork")

needs_fork = pytest.mark.skipif(
    not _HAS_FORK, reason="worker-pool tests require os.fork")


def fast_config(**overrides) -> ServiceConfig:
    """Millisecond-scale scheduling knobs for test runs."""
    knobs = dict(
        workers=0,
        lease_ttl=1.0,
        heartbeat_interval=0.1,
        job_deadline=60.0,
        max_attempts=3,
        backoff_base=0.02,
        poll_interval=0.02,
    )
    knobs.update(overrides)
    return ServiceConfig(**knobs)


def mc_spec(seed: int = 7, trials: int = 60, p: float = 0.02,
            **overrides) -> JobSpec:
    """A fast fixed-budget Monte-Carlo job on the trivial-code N."""
    params = dict(code="trivial", gadget="n", p=p, trials=trials,
                  seed=seed, chunk_size=20)
    params.update(overrides)
    return JobSpec.create("monte_carlo", **params)


def seq_spec(seed: int = 11, max_trials: int = 200,
             **overrides) -> JobSpec:
    """A fast sequential SPRT job that accepts within one batch."""
    params = dict(code="trivial", gadget="n", p=0.02, p0=0.01,
                  p1=0.2, max_trials=max_trials, batch_size=40,
                  seed=seed)
    params.update(overrides)
    return JobSpec.create("sequential_monte_carlo", **params)


@pytest.fixture()
def service(tmp_path) -> CertificationService:
    return CertificationService(str(tmp_path / "svc"),
                                config=fast_config())
