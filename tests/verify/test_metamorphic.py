"""Metamorphic properties: reference-free invariants of the backends.

Differential tests catch backends disagreeing with each other; these
catch them agreeing on the wrong answer.  Each property must hold for
*any* correct simulator, so a violation is a defect with no further
adjudication needed:

* U then U^dagger restores the input amplitudes exactly;
* the Pauli tracker's frame rule ``C P = (C P C^dag) C`` holds
  phase-exactly on Clifford circuits (state picture) and the same
  statement holds in the density-matrix channel picture;
* transversal logical gates keep Steane codewords in the code space;
* channel evolution is linear over mixtures.

Sweep widths follow ``REPRO_FUZZ_EXAMPLES`` (scaled down — these
properties cost more per circuit than a pairwise state comparison).
"""

import os

import pytest

from repro.codes import SteaneCode
from repro.ft.transversal import (
    logical_cnot_circuit,
    logical_cz_circuit,
    logical_h_circuit,
    logical_s_circuit,
    logical_x_circuit,
    logical_z_circuit,
)
from repro.verify import (
    channel_linearity_discrepancy,
    circuit_seed_for,
    codespace_discrepancy,
    generate,
    inverse_roundtrip_discrepancy,
    is_clifford_circuit,
    pauli_channel_conjugation_discrepancy,
    pauli_frame_discrepancy,
    random_pauli,
)

EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "210"))

#: Metamorphic sweeps run a quarter of the differential width.
SWEEP = max(30, EXAMPLES // 4)

SWEEP_SEED = 20260806

ATOL = 1e-9


def _sweep_circuits(family, count, seed_salt=0, **kwargs):
    for index in range(count):
        seed = circuit_seed_for(SWEEP_SEED + seed_salt, index)
        yield seed, generate(family, seed, **kwargs)


class TestInverseRoundtrip:
    @pytest.mark.parametrize("family",
                             ["clifford", "clifford_t", "gadget"])
    def test_u_then_u_dagger_restores_the_input(self, family,
                                                fuzz_reporter):
        for seed, circuit in _sweep_circuits(family, SWEEP // 3):
            fuzz_reporter.watch(circuit, family=family, seed=seed,
                                note="inverse roundtrip")
            assert inverse_roundtrip_discrepancy(circuit) < ATOL


class TestPauliFrame:
    """pauli_tracker vs the state and channel pictures (ISSUE sat. 3)."""

    def test_generated_clifford_circuits_are_clifford(self):
        assert all(is_clifford_circuit(c) for _, c in
                   _sweep_circuits("clifford", 10))
        assert not is_clifford_circuit(generate("clifford_t", 4))

    def test_frame_commutation_is_phase_exact(self, fuzz_reporter):
        for seed, circuit in _sweep_circuits("clifford", SWEEP // 2):
            pauli = random_pauli(circuit.num_qubits, seed + 13)
            fuzz_reporter.watch(circuit, family="clifford", seed=seed,
                                note=f"frame probe {pauli!r}")
            assert pauli_frame_discrepancy(circuit, pauli) < ATOL

    def test_tracker_matches_density_matrix_conjugation(
            self, fuzz_reporter):
        """pauli_tracker vs exact channel conjugation of rho."""
        checked = 0
        for seed, circuit in _sweep_circuits("clifford", SWEEP,
                                             seed_salt=1):
            if circuit.num_qubits > 6:
                continue
            pauli = random_pauli(circuit.num_qubits, seed + 29)
            fuzz_reporter.watch(circuit, family="clifford", seed=seed,
                                note=f"channel probe {pauli!r}")
            discrepancy = pauli_channel_conjugation_discrepancy(
                circuit, pauli)
            assert discrepancy < ATOL
            checked += 1
            if checked >= SWEEP // 2:
                break
        assert checked >= min(15, SWEEP // 2)


class TestCodespacePreservation:
    """Transversal gates never leak out of the Steane code space."""

    TRANSVERSAL = {
        "X": logical_x_circuit,
        "Z": logical_z_circuit,
        "H": logical_h_circuit,
        "S": logical_s_circuit,
        "S_DG": lambda code: logical_s_circuit(code).inverse(),
        "CNOT": logical_cnot_circuit,
        "CZ": logical_cz_circuit,
    }

    @pytest.fixture(scope="class")
    def code(self):
        return SteaneCode()

    @pytest.mark.parametrize("name", sorted(TRANSVERSAL))
    def test_transversal_gate_preserves_code_space(self, code, name):
        circuit = self.TRANSVERSAL[name](code)
        assert codespace_discrepancy(code, circuit) < 1e-9

    def test_biased_logical_input_is_also_preserved(self, code):
        circuit = logical_s_circuit(code)
        assert codespace_discrepancy(
            code, circuit, logical_amplitudes={(0,): 0.6, (1,): 0.8},
        ) < 1e-9

    def test_non_multiple_width_is_rejected(self, code):
        from repro.circuits.circuit import Circuit
        from repro.exceptions import VerificationError

        with pytest.raises(VerificationError, match="block size"):
            codespace_discrepancy(code, Circuit(5))

    def test_physical_x_breaks_code_space(self, code):
        """Sanity: the property can actually fail."""
        from repro.circuits import gates
        from repro.circuits.circuit import Circuit

        broken = Circuit(code.n)
        broken.add_gate(gates.X, 0)  # bare physical X, not logical
        assert codespace_discrepancy(code, broken) > 0.5


def _mixture_components(num_qubits):
    """A deterministic 3-component mixture at the circuit's width."""
    import numpy as np

    from repro.simulators.statevector import StateVector

    dim = 2**num_qubits
    zeros = np.zeros(dim, dtype=np.complex128)
    zeros[0] = 1.0
    plus = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    phased = np.array([np.exp(1j * 0.3 * k) for k in range(dim)],
                      dtype=np.complex128) / np.sqrt(dim)
    return [
        (0.5, StateVector(num_qubits, zeros)),
        (0.3, StateVector(num_qubits, plus)),
        (0.2, StateVector(num_qubits, phased)),
    ]


class TestChannelLinearity:
    def test_mixture_evolution_is_linear(self, fuzz_reporter):
        for seed, circuit in _sweep_circuits(
                "clifford_t", SWEEP // 6, seed_salt=2,
                max_qubits=4, max_gates=20):
            fuzz_reporter.watch(circuit, family="clifford_t",
                                seed=seed, note="channel linearity")
            assert channel_linearity_discrepancy(
                circuit, _mixture_components(circuit.num_qubits),
            ) < ATOL

    def test_unnormalised_weights_are_rejected(self):
        from repro.exceptions import VerificationError

        circuit = generate("clifford", 5, max_qubits=3, max_gates=5)
        _, state = _mixture_components(circuit.num_qubits)[0]
        with pytest.raises(VerificationError, match="sum to 1"):
            channel_linearity_discrepancy(circuit, [(0.7, state)])
