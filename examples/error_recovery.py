#!/usr/bin/env python
"""Measurement-free error recovery (Section 5) in action.

Corrupts a Steane-encoded qubit with every possible single-qubit Pauli
error and repairs it with the Sec. 5 recovery gadget — syndrome
extraction onto an encoded ancilla, classical reversible decoding, and
classically controlled Pauli corrections.  No measurement anywhere;
the whole procedure is a legal ensemble program.

Run:  python examples/error_recovery.py
"""

from repro.circuits import gates, iter_single_qubit_paulis
from repro.codes import SteaneCode
from repro.ensemble import EnsembleMachine
from repro.ft import (
    build_recovery_gadget,
    recovery_ancilla_state,
    sparse_logical_state,
)
from repro.ft.gadget import apply_circuit_with_faults


def run_pass(code, state, error_type):
    """Run one recovery pass, returning (new state, data qubits)."""
    gadget = build_recovery_gadget(code, error_type)
    if state.num_qubits == code.n:
        full = gadget.initial_state({
            "data": state,
            "ancilla": recovery_ancilla_state(code, error_type),
        })
    else:
        raise ValueError("chain single-block states only")
    apply_circuit_with_faults(full, gadget.circuit, [])
    return _extract(full, gadget.qubits("data"))


def _extract(state, block):
    scratch = state.copy()
    junk = [q for q in range(state.num_qubits) if q not in set(block)]
    for qubit in sorted(junk, reverse=True):
        outcome = int(scratch.probability_of_outcome(qubit, 1) > 0.5)
        scratch.project(qubit, outcome)
        if outcome:
            scratch.apply_gate(gates.X, [qubit])
        scratch.release([qubit])
    return scratch


def main() -> None:
    steane = SteaneCode()
    data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})

    print("=" * 64)
    print("Sec. 5 recovery: all 21 single-qubit Pauli errors")
    print("=" * 64)
    for error in iter_single_qubit_paulis(7):
        corrupted = data.copy()
        corrupted.apply_pauli(error)
        repaired = run_pass(steane, corrupted, "X")
        repaired = run_pass(steane, repaired, "Z")
        fidelity = repaired.fidelity(data)
        marker = "ok " if fidelity > 1 - 1e-9 else "FAIL"
        print(f"  error {error!r:>10}: fidelity after recovery = "
              f"{fidelity:.9f}  [{marker}]")

    print()
    print("=" * 64)
    print("The whole procedure is ensemble-legal")
    print("=" * 64)
    gadget = build_recovery_gadget(steane, "X")
    print(f"  {gadget.name}: {gadget.num_qubits} qubits, "
          f"{len(gadget.circuit)} gates")
    print(f"  contains measurements: "
          f"{gadget.circuit.has_measurements}")
    machine = EnsembleMachine(gadget.num_qubits, noiseless_readout=True)
    machine.run(gadget.circuit)
    print("  EnsembleMachine.run: accepted")
    print()
    print("  gate census:",
          dict(sorted(gadget.circuit.count_gates().items())))
    print()
    print("  the Toffolis are *classical* — they decode the syndrome")
    print("  on repetition-basis bits, where phase errors are")
    print("  irrelevant (the paper's Sec. 5 punchline).")


if __name__ == "__main__":
    main()
