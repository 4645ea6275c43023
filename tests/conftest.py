"""Shared fixtures for the test-suite."""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import pytest

from repro.codes import SteaneCode, TrivialCode


@pytest.fixture(scope="session")
def steane() -> SteaneCode:
    """One Steane code instance shared across the session (its
    logical-state construction is pure, so sharing is safe)."""
    return SteaneCode()


@pytest.fixture(scope="session")
def trivial() -> TrivialCode:
    return TrivialCode()


@pytest.fixture()
def stack_lanes(monkeypatch):
    """``stack_lanes(lanes, initial)`` forces the engine's stack width.

    Patches :data:`repro.analysis.engine.STACK_TERMS` so a run from
    ``initial`` gets ``lanes`` lanes per stack (up to the default
    ceiling of 64) — the only way to set the width of a runner that
    has no ``batch_size=`` ceiling.
    """
    from repro.analysis import engine

    def force(lanes: int, initial) -> None:
        monkeypatch.setattr(engine, "STACK_TERMS",
                            lanes * initial.num_terms)

    return force


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic RNG for reproducible tests."""
    return np.random.default_rng(12345)


class FuzzReporter:
    """Per-test registry of the circuit a fuzz test is checking.

    Fuzz tests call :meth:`watch` before each oracle check; when the
    test later fails, the ``pytest_runtest_makereport`` hook prints
    the watched circuit's QASM-like dump plus the one-line reseed
    command, and (when ``REPRO_FUZZ_ARTIFACT_DIR`` is set) writes the
    same block to a file CI can upload as an artifact.
    """

    def __init__(self, node_name: str) -> None:
        self.node_name = node_name
        self.circuit = None
        self.family: Optional[str] = None
        self.seed: Optional[int] = None
        self.max_qubits: Optional[int] = None
        self.max_gates: Optional[int] = None
        self.note: str = ""

    def watch(self, circuit, *, family: Optional[str] = None,
              seed: Optional[int] = None,
              max_qubits: Optional[int] = None,
              max_gates: Optional[int] = None,
              note: str = "") -> None:
        self.circuit = circuit
        self.family = family
        self.seed = seed
        self.max_qubits = max_qubits
        self.max_gates = max_gates
        self.note = note

    def render(self) -> str:
        from repro.verify import format_failure

        return format_failure(
            self.circuit, family=self.family, seed=self.seed,
            max_qubits=self.max_qubits, max_gates=self.max_gates,
            note=self.note,
        )


@pytest.fixture()
def fuzz_reporter(request) -> FuzzReporter:
    """Register circuits for dump-and-reseed reporting on failure."""
    reporter = FuzzReporter(request.node.name)
    request.node._repro_fuzz_reporter = reporter
    return reporter


def _write_fuzz_artifact(reporter: FuzzReporter, block: str) -> None:
    """Best-effort artifact drop: atomic, creates the directory, and
    never raises — this runs while a test failure is already
    propagating, and a full disk must not mask it."""
    artifact_dir = os.environ.get("REPRO_FUZZ_ARTIFACT_DIR")
    if not artifact_dir:
        return
    from repro.verify.reporting import write_artifact

    safe = "".join(ch if ch.isalnum() or ch in "._-" else "_"
                   for ch in reporter.node_name)
    path = os.path.join(artifact_dir, f"{safe}.reproducer.txt")
    write_artifact(path, block + "\n", best_effort=True)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    reporter = getattr(item, "_repro_fuzz_reporter", None)
    if (reporter is None or reporter.circuit is None
            or report.when != "call" or not report.failed):
        return
    try:
        block = reporter.render()
    except Exception as exc:  # rendering must never mask the failure
        block = f"(reproducer rendering failed: {exc!r})"
    report.sections.append(("repro.verify reproducer", block))
    _write_fuzz_artifact(reporter, block)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "veryslow: multi-minute Steane-scale simulations; "
        "run with RUN_VERYSLOW=1",
    )


def pytest_collection_modifyitems(config, items):
    import os

    if os.environ.get("RUN_VERYSLOW"):
        return
    skip = pytest.mark.skip(
        reason="multi-minute Steane-scale run; set RUN_VERYSLOW=1"
    )
    for item in items:
        if "veryslow" in item.keywords:
            item.add_marker(skip)
