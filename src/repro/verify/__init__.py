"""Differential verification: cross-simulator oracle + circuit fuzzing.

The repro has four independent views of the same physics — dense
state vectors, density matrices, sparse states and Heisenberg-frame
Pauli tracking — and every threshold estimate downstream silently
assumes they agree.  This package checks that assumption:

* :mod:`repro.verify.generators` — seeded property-based circuit
  generators (Clifford, Clifford+T, gadget-shaped);
* :mod:`repro.verify.backends` — uniform adapters over the state
  simulators, plus :class:`GateRewriteBackend` for bug injection;
* :mod:`repro.verify.oracle` — :func:`check_circuit` /
  :func:`differential_sweep` pairwise agreement checking, and the
  engine-invariant callables (:func:`norm_invariant`, ...) consumed
  by :mod:`repro.analysis.engine`'s validation hook;
* :mod:`repro.verify.shrink` — ddmin reduction of failing circuits
  to minimal reproducers;
* :mod:`repro.verify.metamorphic` — reference-free properties
  (inverse roundtrip, Pauli-frame commutation, code-space
  preservation, channel linearity);
* :mod:`repro.verify.reporting` — QASM-like reproducer dumps,
  round-trip parsing and reseed commands.

A fuzz failure is always reproducible from one integer: the report
prints ``generate(family, seed, ...)`` verbatim.
"""

from repro.verify.backends import (
    Backend,
    BackendResult,
    BatchedBackend,
    DensityMatrixBackend,
    GateRewriteBackend,
    SparseBackend,
    StatevectorBackend,
    default_backends,
    result_discrepancy,
    reverse_cnot,
    swap_s_direction,
)
from repro.verify.generators import (
    FAMILIES,
    generate,
    random_clifford_circuit,
    random_clifford_t_circuit,
    random_gadget_circuit,
    random_noise_model,
    random_pauli,
)
from repro.verify.metamorphic import (
    channel_linearity_discrepancy,
    codespace_discrepancy,
    inverse_roundtrip_discrepancy,
    is_clifford_circuit,
    pauli_channel_conjugation_discrepancy,
    pauli_frame_discrepancy,
)
from repro.verify.oracle import (
    Divergence,
    SweepReport,
    check_circuit,
    check_circuit_pair,
    circuit_seed_for,
    codespace_invariant,
    differential_sweep,
    divergence_predicate,
    norm_invariant,
)
from repro.verify.reporting import (
    dump_circuit,
    format_failure,
    parse_dump,
    reseed_command,
)
from repro.verify.shrink import ShrinkResult, shrink_circuit

__all__ = [
    "Backend",
    "BackendResult",
    "BatchedBackend",
    "DensityMatrixBackend",
    "Divergence",
    "FAMILIES",
    "GateRewriteBackend",
    "ShrinkResult",
    "SparseBackend",
    "StatevectorBackend",
    "SweepReport",
    "channel_linearity_discrepancy",
    "check_circuit",
    "check_circuit_pair",
    "circuit_seed_for",
    "codespace_discrepancy",
    "codespace_invariant",
    "default_backends",
    "differential_sweep",
    "divergence_predicate",
    "dump_circuit",
    "format_failure",
    "generate",
    "inverse_roundtrip_discrepancy",
    "is_clifford_circuit",
    "norm_invariant",
    "parse_dump",
    "pauli_channel_conjugation_discrepancy",
    "pauli_frame_discrepancy",
    "random_clifford_circuit",
    "random_clifford_t_circuit",
    "random_gadget_circuit",
    "random_noise_model",
    "random_pauli",
    "reseed_command",
    "result_discrepancy",
    "reverse_cnot",
    "shrink_circuit",
    "swap_s_direction",
]
