"""Measurement-free fault-tolerant computation — the paper's core.

Public surface:

* :func:`~repro.ft.ngate.build_n_gadget` and
  :class:`~repro.ft.ngate.NGateBuilder` — the quantum-to-classical
  controlled-NOT (Eq. 1 / Fig. 1).
* :func:`~repro.ft.special_states.build_special_state_gadget` with
  :func:`~repro.ft.special_states.t_state_spec` /
  :func:`~repro.ft.special_states.and_state_spec` — measurement-free
  eigenvector preparation (Fig. 2).
* :func:`~repro.ft.t_gadget.build_t_gadget` — measurement-free
  sigma_z^{1/4} (Fig. 3).
* :func:`~repro.ft.toffoli_gadget.build_toffoli_gadget` —
  measurement-free Toffoli (Fig. 4).
* :func:`~repro.ft.recovery.build_recovery_gadget` — measurement-free
  error recovery (Sec. 5).
* :mod:`repro.ft.transversal` — the bitwise logical gate layer.
* :mod:`repro.ft.baselines` — the measurement-based protocols being
  replaced.
* :mod:`repro.ft.conditions` — structural fault-tolerance checks.
* :mod:`repro.ft.ideal_recovery` — the evaluator's perfect decoder.
"""

from repro.ft import (
    baselines,
    classical_logic,
    conditions,
    ideal_recovery,
    transversal,
)
from repro.ft.gadget import Gadget, Register, RegisterAllocator
from repro.ft.ideal_recovery import (
    apply_perfect_recovery,
    recovered_block_overlap,
)
from repro.ft.ngate import NGateBuilder, build_n_gadget
from repro.ft.processor import LogicalProcessor
from repro.ft.recovery import (
    build_recovery_gadget,
    recovery_ancilla_state,
)
from repro.ft.special_states import (
    SpecialStateSpec,
    and_state_spec,
    build_special_state_gadget,
    sparse_coset_state,
    sparse_logical_state,
    special_state_input,
    t_state_spec,
)
from repro.ft.t_gadget import (
    build_t_gadget,
    expected_t_output,
    psi0_state,
    t_gadget_inputs,
)
from repro.ft.toffoli_gadget import (
    and_resource_state,
    build_toffoli_gadget,
    expected_toffoli_output,
    run_toffoli_gadget,
)

__all__ = [
    "Gadget",
    "LogicalProcessor",
    "NGateBuilder",
    "Register",
    "RegisterAllocator",
    "SpecialStateSpec",
    "and_resource_state",
    "and_state_spec",
    "apply_perfect_recovery",
    "baselines",
    "build_n_gadget",
    "build_recovery_gadget",
    "build_special_state_gadget",
    "build_t_gadget",
    "build_toffoli_gadget",
    "classical_logic",
    "conditions",
    "expected_t_output",
    "expected_toffoli_output",
    "ideal_recovery",
    "psi0_state",
    "recovered_block_overlap",
    "recovery_ancilla_state",
    "run_toffoli_gadget",
    "sparse_coset_state",
    "sparse_logical_state",
    "special_state_input",
    "t_gadget_inputs",
    "t_state_spec",
    "transversal",
]
