"""Reusable circuit fragments.

These are the standard sub-circuits the paper's constructions are
assembled from: cat-state preparation (used in the special-state
preparation of Fig. 2 and in Shor-style syndrome extraction), fan-out
and parity networks of CNOTs, and basis-state initialisers.
"""

from __future__ import annotations

from typing import Sequence

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.exceptions import CircuitError


def cat_state_circuit(num_qubits: int) -> Circuit:
    """Prepare (|0...0> + |1...1>)/sqrt(2) from |0...0>.

    Hadamard on the first qubit followed by a CNOT chain.  The paper's
    Fig. 2 consumes one fresh cat state per repetition of the parity
    measurement, so this circuit appears in every special-state
    preparation gadget.
    """
    if num_qubits < 1:
        raise CircuitError("cat state needs at least one qubit")
    circuit = Circuit(num_qubits, name=f"cat{num_qubits}")
    circuit.add_gate(gates.H, 0)
    for qubit in range(1, num_qubits):
        circuit.add_gate(gates.CNOT, qubit - 1, qubit)
    return circuit


def fanout_circuit(num_targets: int) -> Circuit:
    """CNOT from qubit 0 to each of qubits 1..num_targets.

    Copies a computational-basis bit into many targets.  In the
    Heisenberg picture this spreads X errors from the control to all
    targets and collects Z errors from every target onto the control —
    the error-propagation asymmetry at the heart of the paper's
    classical-ancilla trick.
    """
    if num_targets < 1:
        raise CircuitError("fanout needs at least one target")
    circuit = Circuit(num_targets + 1, name=f"fanout{num_targets}")
    for target in range(1, num_targets + 1):
        circuit.add_gate(gates.CNOT, 0, target)
    return circuit


def parity_circuit(num_sources: int) -> Circuit:
    """CNOT from each of qubits 0..num_sources-1 onto the last qubit.

    Computes the parity of the source bits into the target — the
    paper's parity gate P used in Fig. 2.  Note the reverse error
    asymmetry relative to fan-out: one phase error on the target
    back-propagates onto *all* the sources, which is why Fig. 2 uses a
    fresh cat state (whose phase coherence is expendable) as sources.
    """
    if num_sources < 1:
        raise CircuitError("parity needs at least one source")
    circuit = Circuit(num_sources + 1, name=f"parity{num_sources}")
    for source in range(num_sources):
        circuit.add_gate(gates.CNOT, source, num_sources)
    return circuit


def bitwise_circuit(gate: "gates.Gate", qubits: Sequence[int],
                    num_qubits: int) -> Circuit:
    """Apply a single-qubit gate bitwise across the listed qubits.

    This is the paper's transversal application pattern: the logical H,
    sigma_z and CNOT on CSS codewords are exactly bitwise physical
    gates, which is what makes them automatically fault tolerant.
    """
    if gate.num_qubits != 1:
        raise CircuitError("bitwise_circuit needs a single-qubit gate")
    circuit = Circuit(num_qubits, name=f"bitwise_{gate.name}")
    for qubit in qubits:
        circuit.add_gate(gate, qubit)
    return circuit


def transversal_two_qubit(gate: "gates.Gate", controls: Sequence[int],
                          targets: Sequence[int],
                          num_qubits: int) -> Circuit:
    """Apply a two-qubit gate transversally between two blocks.

    Pairs ``controls[i]`` with ``targets[i]``; every physical gate
    touches at most one qubit per block, so a single gate fault creates
    at most one error in each block — the sufficient condition for
    fault tolerance reviewed in the paper's Section 3.
    """
    if gate.num_qubits != 2:
        raise CircuitError("transversal_two_qubit needs a two-qubit gate")
    if len(controls) != len(targets):
        raise CircuitError("control and target blocks differ in size")
    if set(controls) & set(targets):
        raise CircuitError(
            "transversal operation requires disjoint blocks (a gate "
            "within one block would let one fault spread inside it)"
        )
    circuit = Circuit(num_qubits, name=f"transversal_{gate.name}")
    for control, target in zip(controls, targets):
        circuit.add_gate(gate, control, target)
    return circuit
