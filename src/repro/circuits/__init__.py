"""Circuit intermediate representation and Pauli algebra.

Public surface:

* :mod:`repro.circuits.gates` — the gate library (``X``, ``H``,
  ``CNOT``, ``TOFFOLI``, ``sigma_z_power`` ...).
* :class:`repro.circuits.Circuit` — the circuit IR with moments,
  composition and the ensemble-safety predicate.
* :class:`repro.circuits.PauliString` — symplectic Pauli algebra used
  by the fault-propagation analysis.
* :func:`repro.circuits.conjugate_pauli` — Heisenberg-picture fault
  pushing through gates.
* :func:`repro.circuits.draw` — ASCII rendering of circuits.
"""

from repro.circuits import gates, library
from repro.circuits.equivalence import (
    circuit_unitary,
    embed_operator,
    global_phase_between,
    operators_equal_up_to_phase,
    state_discrepancy,
)
from repro.circuits.circuit import (
    Circuit,
    ClassicalCondition,
    GateOp,
    MeasureOp,
    Operation,
    ResetOp,
)
from repro.circuits.clifford import conjugate_pauli, propagates_to_pauli
from repro.circuits.gates import Gate, sigma_z_power
from repro.circuits.pauli import (
    PauliString,
    iter_single_qubit_paulis,
    pauli_basis,
)
from repro.circuits.visualize import draw

__all__ = [
    "Circuit",
    "ClassicalCondition",
    "Gate",
    "GateOp",
    "MeasureOp",
    "Operation",
    "PauliString",
    "ResetOp",
    "circuit_unitary",
    "conjugate_pauli",
    "draw",
    "embed_operator",
    "gates",
    "global_phase_between",
    "iter_single_qubit_paulis",
    "library",
    "operators_equal_up_to_phase",
    "pauli_basis",
    "propagates_to_pauli",
    "sigma_z_power",
    "state_discrepancy",
]
