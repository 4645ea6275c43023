"""Measurement-free fault-tolerant sigma_z^{1/4} (paper Sec. 4.4 / Fig. 3).

The sigma_z^{1/4} (T) gate completes the transversal Clifford
operations to a universal set.  The original construction of [4]
consumes the resource state |psi_0> = (|0>_L + e^{i pi/4}|1>_L)/sqrt(2)
via gate teleportation, measuring the ancilla and applying a
classically controlled sigma_z^{1/2} — impossible on an ensemble
machine, and not mechanically delayable: the required quantum
Lambda(sigma_z^{1/2}) is exactly the kind of gate the incomplete set
cannot build (the catch-22 of footnote 3).

The paper's fix (Fig. 3), reproduced here:

1. transversal CNOT from the data block onto the |psi_0> block;
2. the N gate copies the psi-block's logical basis onto a classical
   repetition-basis ancilla;
3. a *bitwise* controlled logical sigma_z^{1/2} from the classical
   ancilla onto the data block replaces the measurement-conditioned
   correction.

Derivation (logical level, exact phases): with data a|0>+b|1>,

  CNOT_d->psi:   a|0>(|0>+e^{i pi/4}|1>) + b|1>(|1>+e^{i pi/4}|0>)
  after N:       |0>|0...0> (x) (a|0> + e^{i pi/4} b|1>)
               + |1>|1...1> (x) (e^{i pi/4} a|0> + b|1>)
  Lambda(S) on the second branch: e^{i pi/4}(a|0> + e^{i pi/4} b|1>),

so the output factorises as
(|0>_L|0...0> + e^{i pi/4}|1>_L|1...1>)/sqrt(2) (x) T_L(a|0> + b|1>) —
the data block carries exactly T_L|x> and the consumed pair is the
entangled junk Fig. 3 shows.

Because the classical ancilla acts only as a *control* of bitwise
two-qubit gates, phase errors on it can never reach the data block,
and its bit errors translate into at most equally many (correctable)
data errors — the whole point of replacing the quantum ancilla with a
classical one.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.codes.quantum.css import CssCode
from repro.exceptions import FaultToleranceError
from repro.ft import transversal
from repro.ft.gadget import Gadget, RegisterAllocator, maybe_optimize
from repro.ft.ngate import NGateBuilder
from repro.ft.special_states import sparse_logical_state
from repro.simulators.sparse import SparseState


def psi0_state(code: CssCode) -> SparseState:
    """|psi_0> = (|0>_L + e^{i pi/4}|1>_L)/sqrt(2)."""
    phase = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    return sparse_logical_state(code, {(0,): 1.0, (1,): phase})


def build_t_gadget(code: CssCode, n_variant: str = "direct",
                   repetitions: Optional[int] = None,
                   optimize=False) -> Gadget:
    """Build the Fig. 3 gadget.

    Registers:
        ``data``      - the encoded input block (output: T_L applied);
        ``psi``       - the |psi_0> resource block (input; consumed);
        ``classical`` - the classical ancilla written by N;
        plus the embedded N gate's syndrome/scratch registers.

    ``optimize=True`` rewrites the circuit through the certified
    gadget optimizer, as in :func:`repro.ft.ngate.build_n_gadget`.
    """
    builder = NGateBuilder(code, variant=n_variant,
                           repetitions=repetitions)
    alloc = RegisterAllocator()
    data = alloc.block("data", code.n, role="data")
    psi = alloc.block("psi", code.n, role="quantum_ancilla")
    classical = alloc.block("classical", code.n, role="classical_ancilla")
    n_blocks = builder.ancilla_blocks(alloc, prefix="n_")

    circuit = Circuit(alloc.num_qubits,
                      name=f"t_gadget[{code.name},{n_variant}]")
    # 1. Transversal CNOT: data controls, psi targets.
    for position in range(code.n):
        circuit.add_gate(gates.CNOT, data.qubits[position],
                         psi.qubits[position])
    # 2. N: copy the psi block's logical basis to the classical ancilla.
    builder.append(circuit, psi.qubits, classical.qubits, n_blocks)
    # 3. Classically controlled logical sigma_z^{1/2} onto the data.
    transversal.add_controlled_logical_s(circuit, code, classical.qubits,
                                         data.qubits)
    gadget = Gadget(
        name=circuit.name,
        circuit=circuit,
        registers=alloc.registers,
        data_blocks=("data",),
        output_blocks=("data",),
        notes=(
            "Measurement-free fault-tolerant sigma_z^{1/4} (paper "
            "Fig. 3): gate teleportation off |psi_0> with the "
            "measurement replaced by the N gate and the conditioned "
            "sigma_z^{1/2} replaced by a classical-ancilla-controlled "
            "bitwise operation."
        ),
    )
    return maybe_optimize(gadget, optimize)


def t_gadget_inputs(gadget: Gadget, code: CssCode,
                    data_state: SparseState) -> Dict[str, SparseState]:
    """Input block map: caller's data state plus a fresh |psi_0>."""
    if data_state.num_qubits != code.n:
        raise FaultToleranceError("data state size mismatch")
    return {"data": data_state, "psi": psi0_state(code)}


def expected_t_output(code: CssCode, alpha: complex,
                      beta: complex) -> SparseState:
    """T_L (alpha|0>_L + beta|1>_L)."""
    phase = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    return sparse_logical_state(code, {(0,): alpha, (1,): beta * phase})
