#!/usr/bin/env python
"""Running whole logical programs on the measurement-free stack.

The :class:`~repro.ft.processor.LogicalProcessor` strings the paper's
gadgets into programs: transversal Cliffords, T via the Fig. 2 + Fig. 3
pipeline, Toffoli via Fig. 2 + Fig. 4, recovery via Sec. 5 — with
every ancilla block prepared fresh and nothing ever measured.  What it
executes is exactly the composite circuit an ensemble machine would
run; the readout is the per-logical-qubit <Z> expectation such a
machine can observe.

Run:  python examples/logical_program.py
"""

import math


from repro.circuits import PauliString
from repro.codes import SteaneCode, TrivialCode
from repro.ft import LogicalProcessor


def main() -> None:
    print("=" * 64)
    print("A 3-qubit logical program on the trivial code (exact)")
    print("=" * 64)
    processor = LogicalProcessor(TrivialCode(), 3)
    for qubit in range(3):
        processor.prepare_zero(qubit)
    processor.apply_h(0)
    processor.apply_toffoli(0, 1, 2)   # entangles nothing (q1 = 0)...
    processor.apply_x(1)
    processor.apply_toffoli(0, 1, 2)   # now q2 = q0 AND 1 = q0
    readout = processor.ensemble_readout()
    print("program:", ", ".join(processor.gate_log))
    print("readout <Z>:", [f"{v:+.4f}" for v in readout])
    print("q0 in |+>: <Z> = 0; q2 copied q0, so <Z2> = 0 too\n")

    print("=" * 64)
    print("Steane code: |0> -H-> |+> -T-T-> S|+> and a recovery pass")
    print("=" * 64)
    processor = LogicalProcessor(SteaneCode(), 1)
    processor.prepare_zero(0)
    processor.apply_h(0)
    processor.apply_t(0)
    processor.apply_t(0)
    # Inject a physical error and repair it measurement-free.
    error = PauliString.single(processor.state.num_qubits,
                               processor.block(0)[2], "Y")
    processor.state.apply_pauli(error)
    processor.recover(0)
    from repro.ft import sparse_logical_state

    expected = sparse_logical_state(
        SteaneCode(),
        {(0,): 1 / math.sqrt(2), (1,): 1j / math.sqrt(2)},
    )
    print("program:", ", ".join(processor.gate_log))
    print(f"block overlap with S|+>_L after injected-error recovery: "
          f"{processor.block_state(0, expected):.9f}")
    print(f"simulation footprint: {processor.state.num_qubits} qubits, "
          f"{processor.state.num_terms} sparse terms "
          "(junk garbage-collected)")


if __name__ == "__main__":
    main()
