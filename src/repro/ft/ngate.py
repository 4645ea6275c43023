"""The N gate: quantum-to-classical controlled-NOT (paper Sec. 4.1-4.2).

The N operation (Eq. 1) copies the *logical basis* of an encoded
quantum ancilla onto a classical ancilla in the repetition basis:

    |0>_L (x) |0...0>  ->  |0>_L (x) |0...0>
    |0>_L (x) |1...1>  ->  |0>_L (x) |1...1>
    |1>_L (x) |0...0>  ->  |1>_L (x) |1...1>
    |1>_L (x) |1...1>  ->  |1>_L (x) |0...0>

It replaces the measurement of an encoded ancilla: where the standard
protocol measures every physical qubit and classically corrects the
outcome (Hamming-correct, then take the parity — paper Sec. 4.1), N
performs that very computation coherently.

The building block is N_1 (Fig. 1), producing ONE corrected classical
bit:

1. *Syndrome check bits*: one fresh |0> bit per Hamming parity check,
   each computed by CNOTs from the quantum ancilla.  These prevent a
   single pre-existing bit error in the quantum ancilla from
   corrupting the classical bit — without them that one error would
   flip every produced bit and defeat the redundancy.
2. *Raw parity bit*: CNOTs from all n positions of the quantum ancilla
   (the all-ones vector is the logical-Z readout).
3. *Correction*: parity ^= OR(syndrome bits) — under the single-fault
   assumption a nonzero syndrome means exactly one bit error, and any
   single bit error flips the all-ones parity.

Two full-N variants are provided, both machine-checked against every
single fault:

* ``variant="direct"`` (default; the Fig. 1 caption's prescription —
  "the operations on the last bit have to be repeated to generate
  multiple target bits"): N_1 is repeated once per classical-ancilla
  output bit, with fresh syndrome/scratch bits each time.  Any single
  fault corrupts at most one output bit, which the downstream bitwise
  controlled-U converts into at most one (correctable) data error.
* ``variant="voted"`` (the Sec. 4.2 efficiency note: repeat N_1 only
  2k+1 times, majority-vote, then copy into n bits): implemented with
  per-output *private copies* of the 2k+1 parity bits.  The obvious
  implementation — vote once and fan the result out — has two single
  points of failure this library's exhaustive sweeps catch: a fault on
  the voted bit before fan-out corrupts every copy, and a fault on a
  majority Toffoli corrupts two of the three shared voters at once.
  Fanning out each voter first (errors stay confined to one voter
  column) and voting separately into each output restores fault
  tolerance.

Error-flow guarantees (all machine-checked in the test-suite):

* phase errors flow from the classical side into the quantum ancilla
  but never onward into quantum data (the classical ancilla only ever
  serves as a *control*);
* no single fault anywhere (input, gate, delay line) produces more
  than one wrong classical output bit or an uncorrectable
  quantum-ancilla bit error.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.codes.quantum.css import CssCode
from repro.exceptions import FaultToleranceError
from repro.ft import classical_logic
from repro.ft.gadget import Gadget, RegisterAllocator, maybe_optimize


def readout_vector(code: CssCode) -> np.ndarray:
    """The all-ones logical-Z readout vector, validated for the code.

    The Fig. 1 correction rule "flip the parity iff the syndrome is
    nonzero" relies on *every* single bit error flipping the readout
    parity, which forces the all-ones vector.  It must be a codeword of
    the classical code (so error-free branches leave the syndrome
    clean) outside the dual (so it reads the logical bit).
    """
    ones = np.ones(code.n, dtype=np.uint8)
    if not code.classical_code.is_codeword(ones):
        raise FaultToleranceError(
            f"{code.name}: all-ones is not a classical codeword; the "
            "Fig. 1 N gate construction does not apply"
        )
    from repro.codes import gf2

    dual = code.classical_code.parity_check
    if dual.shape[0] and gf2.row_space_contains(dual, ones):
        raise FaultToleranceError(
            f"{code.name}: all-ones lies in the dual code, so its "
            "parity carries no logical information"
        )
    return ones


def default_repetitions(code: CssCode) -> int:
    """The paper's 2k+1 prescription (3 for Steane, 1 for trivial)."""
    return 2 * code.correctable_errors + 1


def append_n1(circuit: Circuit, code: CssCode,
              quantum_block: Sequence[int],
              syndrome_bits: Sequence[int],
              parity_bit: int,
              scratch_bit: Optional[int]) -> None:
    """Append one N_1 sub-circuit (Fig. 1) to an existing circuit.

    Args:
        circuit: destination circuit.
        quantum_block: the n encoded-ancilla qubits.
        syndrome_bits: fresh |0> bits, one per parity-check row.
        parity_bit: fresh |0> bit receiving the corrected parity.
        scratch_bit: fresh scratch for the 3-input OR (None when there
            are fewer than 3 parity checks).
    """
    checks = code.classical_code.parity_check
    if len(syndrome_bits) != checks.shape[0]:
        raise FaultToleranceError(
            f"need {checks.shape[0]} syndrome bits, got "
            f"{len(syndrome_bits)}"
        )
    # 1. Syndrome extraction: CNOTs along each parity-check row.
    for row_index in range(checks.shape[0]):
        for position in np.nonzero(checks[row_index])[0]:
            circuit.add_gate(gates.CNOT, quantum_block[int(position)],
                             syndrome_bits[row_index])
    # 2. Raw parity along the all-ones readout vector.
    for position in np.nonzero(readout_vector(code))[0]:
        circuit.add_gate(gates.CNOT, quantum_block[int(position)],
                         parity_bit)
    # 3. Correction: flip the parity iff the syndrome is nonzero.
    if len(syndrome_bits):
        if len(syndrome_bits) == 3 and scratch_bit is None:
            raise FaultToleranceError("3-check OR needs a scratch bit")
        classical_logic.or_into(
            circuit, list(syndrome_bits), parity_bit,
            scratch_bit if scratch_bit is not None else -1,
        )


class NGateBuilder:
    """Appends complete N gates into a host circuit's register space.

    Used by the sigma_z^{1/4} and Toffoli gadgets, which embed one or
    more N gates; the stand-alone experiment gadget is
    :func:`build_n_gadget`.
    """

    def __init__(self, code: CssCode, variant: str = "direct",
                 repetitions: Optional[int] = None) -> None:
        if variant not in ("direct", "voted"):
            raise FaultToleranceError(
                f"unknown N variant {variant!r}; pick 'direct' or 'voted'"
            )
        self.code = code
        self.variant = variant
        self.repetitions = (default_repetitions(code)
                            if repetitions is None else repetitions)
        if variant == "voted" and self.repetitions not in (1, 3):
            raise FaultToleranceError(
                "voted variant implemented for 1 or 3 repetitions "
                "(majority network degree)"
            )
        self.checks = int(code.classical_code.parity_check.shape[0])
        if self.checks > 3:
            raise FaultToleranceError(
                f"{code.name} has {self.checks} parity checks; the "
                "3-input OR correction box covers at most 3"
            )
        readout_vector(code)  # validate up front

    def ancilla_blocks(self, alloc: RegisterAllocator, prefix: str,
                       output_width: Optional[int] = None) -> dict:
        """Allocate this N gate's internal registers under a prefix."""
        output_width = self.code.n if output_width is None else output_width
        stages = (output_width if self.variant == "direct"
                  else self.repetitions)
        blocks = {"stages": stages, "output_width": output_width}
        if self.checks:
            blocks["syndromes"] = [
                alloc.block(f"{prefix}syndrome_{stage}", self.checks,
                            role="work")
                for stage in range(stages)
            ]
        else:
            blocks["syndromes"] = [None] * stages
        if self.checks == 3:
            blocks["scratches"] = [
                alloc.block(f"{prefix}scratch_{stage}", 1, role="scratch")
                for stage in range(stages)
            ]
        else:
            blocks["scratches"] = [None] * stages
        if self.variant == "voted":
            blocks["parity"] = alloc.block(f"{prefix}parity",
                                           self.repetitions, role="work")
            blocks["copies"] = [
                alloc.block(f"{prefix}copies_{rep}", output_width,
                            role="work")
                for rep in range(self.repetitions)
            ]
        return blocks

    def append(self, circuit: Circuit, quantum_block: Sequence[int],
               classical_block: Sequence[int], blocks: dict) -> None:
        """Append the N gate using pre-allocated internal registers."""
        if len(classical_block) != blocks["output_width"]:
            raise FaultToleranceError("classical block width mismatch")
        if self.variant == "direct":
            for stage, output_bit in enumerate(classical_block):
                self._append_stage(circuit, quantum_block, blocks, stage,
                                   output_bit)
            return
        # Voted variant: 2k+1 corrected parities, fanned-out private
        # copies, then an independent majority into each output bit.
        parity = blocks["parity"].qubits
        for rep in range(self.repetitions):
            self._append_stage(circuit, quantum_block, blocks, rep,
                               parity[rep])
        for rep in range(self.repetitions):
            copies = blocks["copies"][rep].qubits
            for copy_bit in copies:
                circuit.add_gate(gates.CNOT, parity[rep], copy_bit)
        for position, output_bit in enumerate(classical_block):
            voters = [blocks["copies"][rep].qubits[position]
                      for rep in range(self.repetitions)]
            classical_logic.majority_into(circuit, voters, output_bit)

    def _append_stage(self, circuit: Circuit,
                      quantum_block: Sequence[int], blocks: dict,
                      stage: int, parity_bit: int) -> None:
        syndrome = blocks["syndromes"][stage]
        scratch = blocks["scratches"][stage]
        append_n1(
            circuit, self.code, quantum_block,
            syndrome.qubits if syndrome is not None else (),
            parity_bit,
            scratch.qubits[0] if scratch is not None else None,
        )


def build_n_gadget(code: CssCode,
                   variant: str = "direct",
                   repetitions: Optional[int] = None,
                   output_width: Optional[int] = None,
                   optimize=False) -> Gadget:
    """Build the stand-alone N gadget (the Fig. 1 experiment).

    Registers:
        ``quantum``  - the encoded ancilla block (n qubits, input);
        ``classical`` - the classical-ancilla output block;
        plus the variant's internal syndrome/scratch/parity registers.

    ``optimize=True`` rewrites the circuit through the certified
    gadget optimizer (:func:`repro.optimize.optimize_gadget`);
    registers and qubit numbering are unchanged, only the operation
    order (and hence the delay-location count) changes.
    """
    builder = NGateBuilder(code, variant=variant, repetitions=repetitions)
    alloc = RegisterAllocator()
    quantum = alloc.block("quantum", code.n, role="quantum_ancilla")
    classical = alloc.block(
        "classical", code.n if output_width is None else output_width,
        role="classical_ancilla",
    )
    blocks = builder.ancilla_blocks(alloc, prefix="",
                                    output_width=classical.size)
    circuit = Circuit(alloc.num_qubits,
                      name=f"N[{code.name},{variant}]")
    builder.append(circuit, quantum.qubits, classical.qubits, blocks)
    gadget = Gadget(
        name=circuit.name,
        circuit=circuit,
        registers=alloc.registers,
        data_blocks=("quantum",),
        output_blocks=("classical",),
        notes=(
            "Quantum-to-classical CNOT (paper Eq. 1 / Fig. 1): copies "
            "the logical basis of the encoded ancilla onto a "
            "repetition-basis classical ancilla without measurement."
        ),
    )
    return maybe_optimize(gadget, optimize)


def classical_majority_value(bits: Sequence[int]) -> int:
    """Majority decode of a classical-ancilla bit pattern."""
    ones = sum(int(b) & 1 for b in bits)
    if 2 * ones == len(bits):
        raise FaultToleranceError("tied majority on classical ancilla")
    return int(2 * ones > len(bits))
