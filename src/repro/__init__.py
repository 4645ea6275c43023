"""repro — Fault Tolerant Computation on Ensemble Quantum Computers.

A full reproduction of P. O. Boykin, V. P. Roychowdhury, T. Mor and
F. Vatan, "Fault Tolerant Computation on Ensemble Quantum Computers",
DSN 2004:

* :mod:`repro.ensemble` — the bulk/NMR computation model: identical
  programs on every computer, expectation-only readout, measurement
  impossible.
* :mod:`repro.ft` — the paper's contribution: the N gate
  (quantum-to-classical controlled-NOT, Fig. 1), measurement-free
  special-state preparation (Fig. 2), measurement-free fault-tolerant
  sigma_z^{1/4} (Fig. 3) and Toffoli (Fig. 4), and measurement-free
  error recovery (Sec. 5) — plus the measurement-based baselines they
  replace.
* :mod:`repro.codes` — the classical (repetition, Hamming) and
  quantum (CSS/Steane) codes everything is built on.
* :mod:`repro.circuits` / :mod:`repro.simulators` — the circuit IR and
  the dense, density-matrix, sparse and Pauli-propagation engines.
* :mod:`repro.noise` / :mod:`repro.analysis` — the per-gate/input/
  delay-line fault model, exhaustive single-fault certification,
  malignant-pair counting and O(p^2) scaling fits.
* :mod:`repro.algorithms` — the Sec. 2 ensemble strategies (RNG and
  teleportation impossibility, randomize-bad-results for Shor-type
  algorithms, sorted multi-solution Grover).
* :mod:`repro.verify` — the differential-verification subsystem:
  seeded circuit fuzzing, cross-simulator agreement oracle, ddmin
  shrinking of failures, metamorphic properties and the engine's
  validation-mode invariants.
* :mod:`repro.runtime` — the resilient execution runtime: crash-safe
  checkpoint journals, supervised worker pools and the deterministic
  chaos harness that certifies them.
* :mod:`repro.service` — the crash-safe certification job service:
  durable content-addressed job queue, lease-based worker pools with
  retry/backoff, and the integrity-checked verdict cache.
"""

from repro import (
    algorithms,
    analysis,
    circuits,
    codes,
    ensemble,
    ft,
    noise,
    runtime,
    service,
    simulators,
    verify,
)
from repro.exceptions import (
    AnalysisError,
    CheckpointError,
    CircuitError,
    CodeError,
    DecodingFailure,
    EnsembleViolationError,
    FaultToleranceError,
    GateError,
    ReproError,
    RuntimeIntegrityError,
    SimulationError,
    VerificationError,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "CheckpointError",
    "CircuitError",
    "CodeError",
    "DecodingFailure",
    "EnsembleViolationError",
    "FaultToleranceError",
    "GateError",
    "ReproError",
    "RuntimeIntegrityError",
    "SimulationError",
    "VerificationError",
    "__version__",
    "algorithms",
    "analysis",
    "circuits",
    "codes",
    "ensemble",
    "ft",
    "noise",
    "runtime",
    "service",
    "simulators",
    "verify",
]
