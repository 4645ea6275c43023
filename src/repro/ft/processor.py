"""A measurement-free logical processor.

:class:`LogicalProcessor` is the library's top-level convenience API:
it manages a register of logical qubits encoded in a CSS code and
exposes the paper's universal gate set —

* transversal Cliffords (X, Z, H, S, S^dagger, CNOT, CZ) applied
  bitwise,
* sigma_z^{1/4} via the Fig. 2 |psi_0> preparation feeding the Fig. 3
  gadget,
* Toffoli via the Fig. 2 |AND> preparation feeding the Fig. 4 gadget,
* error recovery via the Sec. 5 gadgets,

all composed into one growing physical register, with every ancilla
block allocated fresh (as the constructions demand) and nothing ever
measured.  The composite program it executes is exactly what an
ensemble machine would run; :meth:`ensemble_readout` exposes the
logical Z expectations that machine could observe.

Simulation-side garbage collection (:meth:`collect_garbage`) projects
exhausted junk registers out of the sparse state to keep term counts
bounded.  It is an *evaluator-side* operation — physically the junk
just sits there — and is only valid between gadgets, where the live
blocks are disentangled from the junk in the no-fault case.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits import Circuit
from repro.codes.quantum.css import CssCode
from repro.exceptions import FaultToleranceError
from repro.ft import transversal
from repro.ft.gadget import Gadget
from repro.ft.recovery import build_recovery_gadget
from repro.ft.special_states import (
    and_state_spec,
    build_special_state_gadget,
    t_state_spec,
)
from repro.ft.t_gadget import build_t_gadget
from repro.ft.toffoli_gadget import build_toffoli_gadget
from repro.simulators.sparse import SparseState


class LogicalProcessor:
    """A register of logical qubits driven by measurement-free gadgets.

    Args:
        code: the CSS code protecting every logical qubit.
        num_logical: number of logical qubits.
        auto_gc: project junk registers away after each non-Clifford
            gadget (keeps sparse simulation small; see module note).
    """

    def __init__(self, code: CssCode, num_logical: int,
                 auto_gc: bool = True) -> None:
        if num_logical < 1:
            raise FaultToleranceError("need at least one logical qubit")
        self.code = code
        self.num_logical = num_logical
        self.auto_gc = auto_gc
        self._blocks: List[Tuple[int, ...]] = [
            tuple(range(q * code.n, (q + 1) * code.n))
            for q in range(num_logical)
        ]
        self._state = SparseState(num_logical * code.n)
        self._junk: List[int] = []
        self.gate_log: List[str] = []

    # -- state access ------------------------------------------------------

    @property
    def state(self) -> SparseState:
        """The full physical state (live blocks + junk registers)."""
        return self._state

    def block(self, logical: int) -> Tuple[int, ...]:
        """Physical qubits currently hosting a logical qubit."""
        if not 0 <= logical < self.num_logical:
            raise FaultToleranceError(
                f"logical qubit {logical} out of range"
            )
        return self._blocks[logical]

    def block_state(self, logical: int,
                    expected: SparseState) -> float:
        """Overlap of one logical block with an expected block state."""
        return self._state.block_overlap(list(self.block(logical)),
                                         expected)

    # -- transversal Cliffords ------------------------------------------------

    def prepare_zero(self, logical: int) -> None:
        """(Re)encode a fresh |0>_L on a block of |0...0> qubits."""
        self._state.apply_circuit(self.code.encoding_circuit(),
                                  qubits=list(self.block(logical)))
        self.gate_log.append(f"prep|0> q{logical}")

    def apply_x(self, logical: int) -> None:
        self._apply_single(transversal.logical_x_circuit(self.code),
                           logical, "X")

    def apply_z(self, logical: int) -> None:
        self._apply_single(transversal.logical_z_circuit(self.code),
                           logical, "Z")

    def apply_h(self, logical: int) -> None:
        self._apply_single(transversal.logical_h_circuit(self.code),
                           logical, "H")

    def apply_s(self, logical: int) -> None:
        self._apply_single(transversal.logical_s_circuit(self.code),
                           logical, "S")

    def _apply_single(self, circuit: Circuit, logical: int,
                      name: str) -> None:
        self._state.apply_circuit(circuit,
                                  qubits=list(self.block(logical)))
        self.gate_log.append(f"{name} q{logical}")

    def apply_cnot(self, control: int, target: int) -> None:
        circuit = transversal.logical_cnot_circuit(self.code)
        qubits = list(self.block(control)) + list(self.block(target))
        self._state.apply_circuit(circuit, qubits=qubits)
        self.gate_log.append(f"CNOT q{control} q{target}")

    # -- non-Clifford gadgets ---------------------------------------------------

    def apply_t(self, logical: int) -> None:
        """sigma_z^{1/4} via Fig. 2 preparation + the Fig. 3 gadget."""
        prep_gadget = build_special_state_gadget(
            self.code, t_state_spec(self.code)
        )
        prep_map = self._graft(prep_gadget)
        self._run_prepared_blocks(prep_gadget, prep_map,
                                  t_state_spec(self.code))
        psi_qubits = [prep_map[q]
                      for q in prep_gadget.qubits("state_0")]
        if self.auto_gc:
            # Drop the preparation's cat/parity junk before the main
            # gadget multiplies term counts.
            remap = self.collect_garbage_map()
            psi_qubits = [remap[q] for q in psi_qubits]

        gadget = build_t_gadget(self.code)
        mapping = self._graft(gadget, preassigned={
            "data": list(self.block(logical)),
            "psi": psi_qubits,
        })
        self._state.apply_circuit(
            gadget.circuit,
            qubits=[mapping[q] for q in range(gadget.num_qubits)],
        )
        # The psi and classical blocks are junk now.
        self._retire(mapping, gadget, keep=("data",))
        self.gate_log.append(f"T q{logical}")
        if self.auto_gc:
            self.collect_garbage()

    def apply_toffoli(self, control_a: int, control_b: int,
                      target: int) -> None:
        """Toffoli via Fig. 2 |AND> preparation + the Fig. 4 gadget.

        The result lives on the (fresh) AND blocks, so the three
        logical qubits are re-homed there; the old data blocks retire
        to junk — exactly the Fig. 4 data flow.
        """
        spec = and_state_spec(self.code)
        prep_gadget = build_special_state_gadget(self.code, spec)
        prep_map = self._graft(prep_gadget)
        self._run_prepared_blocks(prep_gadget, prep_map, spec)
        and_blocks = {
            f"and_{label}": [prep_map[q] for q in
                             prep_gadget.qubits(f"state_{slot}")]
            for slot, label in enumerate("abc")
        }
        if self.auto_gc:
            remap = self.collect_garbage_map()
            and_blocks = {
                name: [remap[q] for q in qubits]
                for name, qubits in and_blocks.items()
            }
        gadget = build_toffoli_gadget(self.code)
        mapping = self._graft(gadget, preassigned={
            **and_blocks,
            "data_x": list(self.block(control_a)),
            "data_y": list(self.block(control_b)),
            "data_z": list(self.block(target)),
        })
        self._state.apply_circuit(
            gadget.circuit,
            qubits=[mapping[q] for q in range(gadget.num_qubits)],
        )
        # Re-home the logical qubits onto the AND blocks.
        self._blocks[control_a] = tuple(
            mapping[q] for q in gadget.qubits("and_a")
        )
        self._blocks[control_b] = tuple(
            mapping[q] for q in gadget.qubits("and_b")
        )
        self._blocks[target] = tuple(
            mapping[q] for q in gadget.qubits("and_c")
        )
        self._retire(mapping, gadget,
                     keep=("and_a", "and_b", "and_c"))
        self.gate_log.append(
            f"TOFFOLI q{control_a} q{control_b} q{target}"
        )
        if self.auto_gc:
            self.collect_garbage()

    def recover(self, logical: int) -> None:
        """Sec. 5 measurement-free recovery (X pass then Z pass)."""
        for error_type in ("X", "Z"):
            gadget = build_recovery_gadget(self.code, error_type)
            mapping = self._graft(gadget, preassigned={
                "data": list(self.block(logical)),
            })
            ancilla = [mapping[q] for q in gadget.qubits("ancilla")]
            self._state.apply_circuit(self.code.encoding_circuit(),
                                      qubits=ancilla)
            if error_type == "X":
                self._state.apply_circuit(
                    transversal.logical_h_circuit(self.code),
                    qubits=ancilla,
                )
            self._state.apply_circuit(
                gadget.circuit,
                qubits=[mapping[q] for q in range(gadget.num_qubits)],
            )
            self._retire(mapping, gadget, keep=("data",))
        self.gate_log.append(f"RECOVER q{logical}")
        if self.auto_gc:
            self.collect_garbage()

    # -- readout -------------------------------------------------------------------

    def logical_z_expectation(self, logical: int) -> float:
        """<Z_bar> of one logical qubit — what an ensemble sees."""
        pauli = self.code.logical_z().embedded(
            self._state.num_qubits, list(self.block(logical))
        )
        return float(self._state.expectation_pauli(pauli).real)

    def ensemble_readout(self) -> List[float]:
        """Logical <Z_bar> for every qubit."""
        return [self.logical_z_expectation(q)
                for q in range(self.num_logical)]

    # -- internals --------------------------------------------------------------------

    def _graft(self, gadget: Gadget,
               preassigned: Optional[Dict[str, List[int]]] = None
               ) -> Dict[int, int]:
        """Allocate physical homes for a gadget's registers.

        Registers named in ``preassigned`` map onto existing physical
        qubits; everything else gets fresh |0> qubits.  Returns the
        gadget-qubit -> physical-qubit map.
        """
        preassigned = preassigned or {}
        mapping: Dict[int, int] = {}
        fresh_needed = 0
        for register in gadget.registers.values():
            if register.name not in preassigned:
                fresh_needed += register.size
        fresh = self._state.allocate(fresh_needed) if fresh_needed \
            else []
        cursor = 0
        for register in sorted(gadget.registers.values(),
                               key=lambda r: r.qubits[0]):
            if register.name in preassigned:
                homes = preassigned[register.name]
                if len(homes) != register.size:
                    raise FaultToleranceError(
                        f"preassigned block {register.name} has wrong "
                        "size"
                    )
            else:
                homes = fresh[cursor:cursor + register.size]
                cursor += register.size
            for gadget_qubit, physical in zip(register.qubits, homes):
                mapping[gadget_qubit] = physical
        return mapping

    def _run_prepared_blocks(self, prep_gadget: Gadget,
                             prep_map: Dict[int, int], spec) -> None:
        """Initialise and run a Fig. 2 preparation in-place."""
        # The spec's cheap input blocks are built from fresh zeros by
        # explicit unitaries: |0>_L per block, plus H_L for the
        # AND-state's |+++> input.
        for slot in range(spec.num_blocks):
            block = [prep_map[q]
                     for q in prep_gadget.qubits(f"state_{slot}")]
            self._state.apply_circuit(self.code.encoding_circuit(),
                                      qubits=block)
            if spec.name == "and_state":
                self._state.apply_circuit(
                    transversal.logical_h_circuit(self.code),
                    qubits=block,
                )
        self._state.apply_circuit(
            prep_gadget.circuit,
            qubits=[prep_map[q]
                    for q in range(prep_gadget.num_qubits)],
        )
        # Cat and parity registers are junk from here on.
        for register in prep_gadget.registers.values():
            if not register.name.startswith("state_"):
                self._junk.extend(prep_map[q] for q in register.qubits)

    def _retire(self, mapping: Dict[int, int], gadget: Gadget,
                keep: Sequence[str]) -> None:
        keep_set = set(keep)
        for register in gadget.registers.values():
            if register.name in keep_set:
                continue
            for gadget_qubit in register.qubits:
                physical = mapping[gadget_qubit]
                if not self._is_live(physical):
                    self._junk.append(physical)

    def _is_live(self, physical: int) -> bool:
        return any(physical in block for block in self._blocks)

    def collect_garbage(self) -> int:
        """Project junk registers out of the simulation state.

        Valid between gadgets in no-fault runs, where the live blocks
        are in a tensor product with the junk; the junk qubits are
        projected onto their dominant outcomes and dropped in one
        vectorised repacking pass.  Returns the number of qubits
        reclaimed.
        """
        before = self._state.num_qubits
        self.collect_garbage_map()
        return before - self._state.num_qubits

    def collect_garbage_map(self) -> Dict[int, int]:
        """Like :meth:`collect_garbage`, returning old->new positions
        for every surviving qubit."""
        junk = set(self._junk)
        live: List[int] = [
            qubit for qubit in range(self._state.num_qubits)
            if qubit not in junk
        ]
        if junk:
            self._state.keep_only(live)
        new_position = {old: new for new, old in enumerate(live)}
        self._blocks = [
            tuple(new_position[q] for q in block)
            for block in self._blocks
        ]
        self._junk = []
        return new_position
