"""Simulation backends.

Three complementary engines:

* :class:`~repro.simulators.statevector.StateVector` /
  :class:`~repro.simulators.statevector.StatevectorSimulator` — exact
  pure-state simulation of one computer (supports the measurements an
  ensemble machine forbids).
* :class:`~repro.simulators.density_matrix.DensityMatrix` — exact mixed
  states for small registers; the natural picture of an ensemble.
* :class:`~repro.simulators.pauli_tracker.PauliPropagator` —
  Heisenberg-picture fault propagation for paper-style error counting.

One accelerator rides on top:
:class:`~repro.simulators.batched.BatchedState` — B Monte Carlo trials
stacked into one sparse register, advanced by one vectorised kernel
call per gate yet bit-identical per lane to a serial run.
"""

from repro.simulators.batched import (
    BatchedState,
    apply_circuit_with_fault_patterns,
    evaluate_fault_patterns_batched,
)
from repro.simulators.channels import (
    KrausChannel,
    PauliChannel,
    bit_flip,
    depolarizing,
    dephasing,
    phase_flip,
)
from repro.simulators.density_matrix import (
    DensityMatrix,
)
from repro.simulators.pauli_tracker import PauliPropagator, PropagatedFault
from repro.simulators.sparse import SparseState
from repro.simulators.statevector import (
    SimulationResult,
    StatevectorSimulator,
    StateVector,
    run_unitary,
)

__all__ = [
    "BatchedState",
    "DensityMatrix",
    "KrausChannel",
    "PauliChannel",
    "PauliPropagator",
    "PropagatedFault",
    "SimulationResult",
    "SparseState",
    "StateVector",
    "StatevectorSimulator",
    "apply_circuit_with_fault_patterns",
    "bit_flip",
    "dephasing",
    "depolarizing",
    "evaluate_fault_patterns_batched",
    "phase_flip",
    "run_unitary",
]
