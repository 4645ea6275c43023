"""Measurement-free fault-tolerant Toffoli (paper Sec. 4.5 / Fig. 4).

Shor's FOCS'96 fault-tolerant Toffoli teleports the gate off the
resource state |AND> = (|000> + |010> + |100> + |111>)_L / 2, using
three measurements whose outcomes condition Clifford corrections —
including a classically controlled CNOT, i.e. a Toffoli, the original
catch-22.  The paper's Fig. 4 replaces each measurement with an N gate
and hangs every correction off the resulting *classical* ancilla
blocks, where the controlled-CNOT becomes a bitwise physical Toffoli
with its control leg on repetition-basis bits that cannot pass phase
errors back.

Construction (blocks A, B, C hold |AND>; x, y, z are the data blocks;
all logical operations are transversal):

    1. CNOT_L(A -> x); CNOT_L(B -> y); CNOT_L(z -> C)
    2. H_L on z
    3. N(x -> m1); N(y -> m2); N(z -> m3)      [classical ancillas]
    4. corrections controlled by the classical blocks, in order:
       a. phase:  Lambda_{m3}(Z_L on C)            [bitwise CZ]
                  Lambda_{m3}(CZ_L on A,B)         [bitwise CCZ]
       b. bits:   Lambda_{m2}(CNOT_L A -> C)       [bitwise Toffoli]
                  Lambda_{m1}(CNOT_L B -> C)       [bitwise Toffoli]
                  m12 := m1 AND m2                 [bitwise Toffoli,
                                                    classical only]
                  Lambda_{m12}(X_L on C)           [bitwise CNOT]
       c. flips:  Lambda_{m1}(X_L on A); Lambda_{m2}(X_L on B)

Derivation sketch: after step 3, branch (m1, m2, m3) holds
A = x(+)m1, B = y(+)m2, C = A.B (+) z with phase (-1)^{z m3}.  Since
z = C (+) A.B, the phase is cancelled by (-1)^{m3 C} (Z_L on C) times
(-1)^{m3 A B} (CZ_L on A,B); the bit corrections add
m2.A (+) m1.B (+) m1.m2 to C turning it into x.y (+) z, and the final
flips restore A = x, B = y.  Every branch then carries the same
Toffoli_L|x, y, z>, so the ABC blocks factor out of the junk — the
tensor-product structure Fig. 4's caption notes.

The original data blocks and classical ancillas end as junk; the A, B,
C blocks carry the result.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.codes.quantum.css import CssCode
from repro.exceptions import FaultToleranceError
from repro.ft import classical_logic, transversal
from repro.ft.gadget import Gadget, RegisterAllocator, maybe_optimize
from repro.ft.ngate import NGateBuilder
from repro.ft.special_states import sparse_logical_state
from repro.simulators.sparse import SparseState


def and_resource_state(code: CssCode) -> SparseState:
    """|AND> over three blocks (the Fig. 2-prepared resource)."""
    half = 0.5 + 0.0j
    return sparse_logical_state(
        code,
        {(0, 0, 0): half, (0, 1, 0): half, (1, 0, 0): half,
         (1, 1, 1): half},
    )


def build_toffoli_gadget(code: CssCode, n_variant: str = "direct",
                         repetitions: Optional[int] = None,
                         optimize=False) -> Gadget:
    """Build the Fig. 4 gadget.

    ``optimize=True`` rewrites the circuit through the certified
    gadget optimizer, as in :func:`repro.ft.ngate.build_n_gadget`.

    Registers:
        ``and_a``/``and_b``/``and_c`` - the |AND> blocks (inputs;
            carry the result: |x>, |y>, |z (+) xy>);
        ``data_x``/``data_y``/``data_z`` - the data blocks (consumed);
        ``m1``/``m2``/``m3`` - classical ancillas written by the N
            gates;
        ``m12`` - classical AND of m1 and m2 (bitwise Toffoli);
        plus three sets of embedded-N syndrome/scratch registers.
    """
    builder = NGateBuilder(code, variant=n_variant,
                           repetitions=repetitions)
    alloc = RegisterAllocator()
    and_a = alloc.block("and_a", code.n, role="data")
    and_b = alloc.block("and_b", code.n, role="data")
    and_c = alloc.block("and_c", code.n, role="data")
    # The x/y/z blocks are consumed: after their N gates they never
    # act on the result blocks again, so (like the psi block of
    # Fig. 3) phase errors on them are "of no consequence" and they
    # carry the quantum-ancilla role.
    data_x = alloc.block("data_x", code.n, role="quantum_ancilla")
    data_y = alloc.block("data_y", code.n, role="quantum_ancilla")
    data_z = alloc.block("data_z", code.n, role="quantum_ancilla")
    m1 = alloc.block("m1", code.n, role="classical_ancilla")
    m2 = alloc.block("m2", code.n, role="classical_ancilla")
    m3 = alloc.block("m3", code.n, role="classical_ancilla")
    m12 = alloc.block("m12", code.n, role="classical_ancilla")
    n_blocks = {
        name: builder.ancilla_blocks(alloc, prefix=f"{name}_")
        for name in ("n1", "n2", "n3")
    }

    circuit = Circuit(alloc.num_qubits,
                      name=f"toffoli_gadget[{code.name},{n_variant}]")
    # 1. Entangle the data with the |AND> resource.
    for position in range(code.n):
        circuit.add_gate(gates.CNOT, and_a.qubits[position],
                         data_x.qubits[position])
    for position in range(code.n):
        circuit.add_gate(gates.CNOT, and_b.qubits[position],
                         data_y.qubits[position])
    for position in range(code.n):
        circuit.add_gate(gates.CNOT, data_z.qubits[position],
                         and_c.qubits[position])
    # 2. X-basis rotation of the z data block.
    for position in range(code.n):
        circuit.add_gate(gates.H, data_z.qubits[position])
    # 3. The three N gates.
    builder.append(circuit, data_x.qubits, m1.qubits, n_blocks["n1"])
    builder.append(circuit, data_y.qubits, m2.qubits, n_blocks["n2"])
    builder.append(circuit, data_z.qubits, m3.qubits, n_blocks["n3"])
    # 4a. Phase corrections (diagonal; use pre-flip block values).
    transversal.add_controlled_logical_z(circuit, code, m3.qubits,
                                         and_c.qubits)
    transversal.add_controlled_logical_cz(circuit, code, m3.qubits,
                                          and_a.qubits, and_b.qubits)
    # 4b. Bit corrections on C (before the A/B flips).
    transversal.add_controlled_logical_cnot(circuit, code, m2.qubits,
                                            and_a.qubits, and_c.qubits)
    transversal.add_controlled_logical_cnot(circuit, code, m1.qubits,
                                            and_b.qubits, and_c.qubits)
    classical_logic.and_blocks_into(circuit, m1.qubits, m2.qubits,
                                    m12.qubits)
    transversal.add_controlled_logical_x(circuit, code, m12.qubits,
                                         and_c.qubits)
    # 4c. Restore A and B.
    transversal.add_controlled_logical_x(circuit, code, m1.qubits,
                                         and_a.qubits)
    transversal.add_controlled_logical_x(circuit, code, m2.qubits,
                                         and_b.qubits)
    gadget = Gadget(
        name=circuit.name,
        circuit=circuit,
        registers=alloc.registers,
        data_blocks=("and_a", "and_b", "and_c"),
        output_blocks=("and_a", "and_b", "and_c"),
        notes=(
            "Measurement-free fault-tolerant Toffoli (paper Fig. 4): "
            "Shor's |AND>-teleportation with the three measurements "
            "replaced by N gates and all corrections driven bitwise "
            "by classical repetition-basis ancillas."
        ),
    )
    return maybe_optimize(gadget, optimize)


def toffoli_inputs(gadget: Gadget, code: CssCode,
                   data_x: SparseState, data_y: SparseState,
                   data_z: SparseState) -> Dict[str, SparseState]:
    """Input block map: data states plus a fresh |AND> resource."""
    for state in (data_x, data_y, data_z):
        if state.num_qubits != code.n:
            raise FaultToleranceError("data state size mismatch")
    resource = and_resource_state(code)
    # Split the 3-block resource into the gadget's registers is not
    # possible (it is entangled); pass it combined via and_a..and_c by
    # tensoring at initial-state build time.  Gadget.initial_state only
    # takes per-register states, so we express |AND> through a single
    # combined register trick: return it under a reserved key handled
    # by toffoli_initial_state instead.
    return {
        "__and__": resource,
        "data_x": data_x, "data_y": data_y, "data_z": data_z,
    }


def toffoli_initial_state(gadget: Gadget, code: CssCode,
                          blocks: Dict[str, SparseState]) -> SparseState:
    """Build the gadget input with the entangled |AND> resource.

    ``blocks`` uses the :func:`toffoli_inputs` convention: the
    reserved ``"__and__"`` key holds the 3-block resource spanning
    and_a, and_b, and_c (which the register allocator laid out first
    and contiguously).
    """
    resource = blocks.get("__and__")
    if resource is None:
        raise FaultToleranceError("missing '__and__' resource state")
    expected_qubits = (gadget.qubits("and_a") + gadget.qubits("and_b")
                       + gadget.qubits("and_c"))
    if expected_qubits != tuple(range(3 * code.n)):
        raise FaultToleranceError(
            "AND blocks are not the leading contiguous registers"
        )
    state = resource.copy()
    ordered = sorted(gadget.registers.values(), key=lambda r: r.qubits[0])
    for register in ordered:
        if register.name in ("and_a", "and_b", "and_c"):
            continue
        piece = blocks.get(register.name)
        if piece is None:
            piece = SparseState(register.size)
        elif piece.num_qubits != register.size:
            raise FaultToleranceError(
                f"state for {register.name} has wrong size"
            )
        state = state.tensor(piece)
    return state


def run_toffoli_gadget(gadget: Gadget, code: CssCode,
                       data_x: SparseState, data_y: SparseState,
                       data_z: SparseState,
                       faults=None) -> SparseState:
    """Convenience runner: build inputs, execute, return the state."""
    from repro.ft.gadget import apply_circuit_with_faults

    blocks = toffoli_inputs(gadget, code, data_x, data_y, data_z)
    state = toffoli_initial_state(gadget, code, blocks)
    apply_circuit_with_faults(state, gadget.circuit, faults or [])
    return state


def expected_toffoli_output(code: CssCode,
                            amplitudes: Dict[tuple, complex]
                            ) -> SparseState:
    """Toffoli_L applied to a logical 3-block state.

    Args:
        amplitudes: {(x, y, z): amplitude} of the *input* data state;
            the function returns the ideal post-Toffoli 3-block state
            (x, y, z XOR x.y).
    """
    mapped = {
        (x, y, z ^ (x & y)): amplitude
        for (x, y, z), amplitude in amplitudes.items()
    }
    return sparse_logical_state(code, mapped)
