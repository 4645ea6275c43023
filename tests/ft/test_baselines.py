"""Tests for the measurement-based baseline protocols."""

import itertools

import pytest

from repro.ensemble import EnsembleMachine
from repro.exceptions import EnsembleViolationError
from repro.ft import expected_t_output, sparse_coset_state, \
    sparse_logical_state
from repro.ft.baselines import (
    MeasuredRecovery,
    MeasuredTGate,
    MeasuredToffoli,
    measure_block_logical,
)
from repro.ft.toffoli_gadget import expected_toffoli_output


class TestMeasuredTGate:
    @pytest.mark.parametrize("fixture", ["steane", "trivial"])
    @pytest.mark.parametrize("alpha,beta", [
        (1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (0.6, 0.8j),
    ])
    def test_logical_action(self, fixture, alpha, beta, request):
        code = request.getfixturevalue(fixture)
        data = sparse_logical_state(code, {(0,): alpha, (1,): beta})
        expected = expected_t_output(code, alpha, beta)
        # Both measurement outcomes must produce T_L|x> (run with
        # several seeds to hit both branches).
        outcomes = set()
        for seed in range(8):
            baseline = MeasuredTGate(code, seed=seed)
            result = baseline.run(data)
            outcomes.add(result.outcomes[0])
            assert result.state.block_overlap(
                list(range(code.n)), expected
            ) > 1 - 1e-9
        assert outcomes == {0, 1}

    def test_requires_measurement_flag(self, steane):
        assert MeasuredTGate(steane).requires_measurement

    def test_circuit_rejected_by_ensemble_machine(self, steane):
        baseline = MeasuredTGate(steane)
        circuit = baseline.circuit_with_measurements()
        machine = EnsembleMachine(circuit.num_qubits)
        with pytest.raises(EnsembleViolationError):
            machine.run(circuit)


class TestMeasuredToffoli:
    @pytest.mark.parametrize("x,y,z",
                             list(itertools.product((0, 1), repeat=3)))
    def test_basis_states_trivial(self, trivial, x, y, z):
        baseline = MeasuredToffoli(trivial, seed=x * 4 + y * 2 + z)
        result = baseline.run(
            sparse_coset_state(trivial, x),
            sparse_coset_state(trivial, y),
            sparse_coset_state(trivial, z),
        )
        expected = expected_toffoli_output(trivial, {(x, y, z): 1.0})
        assert result.state.block_overlap([0, 1, 2], expected) \
            > 1 - 1e-9

    def test_superposition_steane(self, steane):
        baseline = MeasuredToffoli(steane, seed=11)
        amps_x = {(0,): 0.6, (1,): 0.8}
        result = baseline.run(
            sparse_logical_state(steane, amps_x),
            sparse_coset_state(steane, 1),
            sparse_coset_state(steane, 0),
        )
        expected = expected_toffoli_output(
            steane, {(0, 1, 0): 0.6, (1, 1, 0): 0.8}
        )
        assert result.state.block_overlap(
            list(range(21)), expected
        ) > 1 - 1e-9


class TestMeasuredRecovery:
    def test_corrects_single_error(self, steane):
        from repro.circuits import PauliString

        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        corrupted = data.copy()
        corrupted.apply_pauli(PauliString.single(7, 4, "Y"))
        recovered = MeasuredRecovery(steane, seed=0).run(corrupted)
        assert recovered.block_overlap(list(range(7)), data) > 1 - 1e-9

    def test_clean_state_preserved(self, steane):
        data = sparse_logical_state(steane, {(0,): 1.0})
        recovered = MeasuredRecovery(steane, seed=1).run(data)
        assert recovered.block_overlap(list(range(7)), data) > 1 - 1e-9


class TestMeasureBlockLogical:
    import numpy as np

    def test_reads_basis_states(self, steane):
        import numpy as np

        rng = np.random.default_rng(0)
        for bit in (0, 1):
            state = sparse_coset_state(steane, bit)
            assert measure_block_logical(state, range(7), steane,
                                         rng) == bit

    def test_collapses_superposition(self, steane):
        import numpy as np

        rng = np.random.default_rng(4)
        outcomes = set()
        for _ in range(12):
            state = sparse_logical_state(steane,
                                         {(0,): 1.0, (1,): 1.0})
            outcomes.add(
                measure_block_logical(state, range(7), steane, rng)
            )
        assert outcomes == {0, 1}
