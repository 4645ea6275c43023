"""Lane judges ≡ the reference evaluators, fault by fault.

The evaluators of :mod:`repro.analysis.evaluators` judge every lane of
a stacked batch in one table-driven pass.  This module checks them
against the references they stand in for:

* ideal recovery run literally — :func:`repro.ft.ideal_recovery.
  apply_perfect_recovery` on each block, then ``block_overlap`` —
  with overlaps within 1e-12 and identical verdicts;
* the per-basis-term N-gadget and classical-block logic, copied here
  as oracles.

Cases: every single fault of the Steane N gadget (direct and voted)
and recovery gadgets (X and Z), every single fault of the trivial-code
gadgets (the 3-block Toffoli included), 256 seeded pairs on the Steane
T gadget, a 64-lane stack with duplicate lanes against 64 one-lane
calls, and a tied classical majority.
"""

import itertools

import numpy as np
import pytest

from repro.analysis import (
    classical_block_value_evaluator,
    n_gadget_evaluator,
    recovered_overlap_evaluator,
)
from repro.analysis.evaluators import _recovered_overlaps
from repro.circuits import PauliString, gates
from repro.exceptions import FaultToleranceError
from repro.ft import (
    build_n_gadget,
    build_recovery_gadget,
    build_t_gadget,
    build_toffoli_gadget,
    expected_t_output,
    expected_toffoli_output,
    recovery_ancilla_state,
    sparse_coset_state,
    sparse_logical_state,
    t_gadget_inputs,
)
from repro.ft.ideal_recovery import apply_perfect_recovery
from repro.ft.ngate import classical_majority_value
from repro.ft.toffoli_gadget import toffoli_initial_state, toffoli_inputs
from repro.noise import FaultSpace
from repro.simulators import SparseState
from repro.simulators.batched import (
    BatchedState,
    apply_circuit_with_fault_patterns,
)

OVERLAP_TOLERANCE = 1e-12
_THRESHOLD = 1.0 - 1e-7


# -- oracles: the per-lane evaluators as they were -------------------------


def oracle_overlap(state, blocks, code, expected):
    scratch = state.copy()
    for qubits in blocks:
        apply_perfect_recovery(scratch, qubits, code)
    return scratch.block_overlap([q for qubits in blocks for q in qubits],
                                 expected)


def oracle_n(state, gadget, code, logical_bit):
    classical = gadget.qubits("classical")
    quantum = gadget.qubits("quantum")
    tolerance = max(0, (len(classical) - 1) // 2)
    top = state.num_qubits - 1
    for index in state.iter_ints():
        wrong = sum(((index >> (top - qubit)) & 1) != logical_bit
                    for qubit in classical)
        if wrong > tolerance:
            return False
        word = [(index >> (top - qubit)) & 1 for qubit in quantum]
        try:
            corrected = code.classical_code.correct(word)
        except Exception:
            return False
        if code.logical_readout(corrected) != logical_bit:
            return False
        flips = sum(int(w != c) for w, c in zip(word, corrected))
        if flips > code.correctable_errors:
            return False
    return True


def oracle_classical(state, qubits, expected_bit, max_wrong):
    top = state.num_qubits - 1
    for index in state.iter_ints():
        bits = [(index >> (top - qubit)) & 1 for qubit in qubits]
        wrong = sum(int(b != expected_bit) for b in bits)
        if wrong > max_wrong:
            return False
        if classical_majority_value(bits) != expected_bit:
            return False
    return True


# -- stacks ----------------------------------------------------------------


def single_faults(gadget):
    space = FaultSpace.build(gadget.circuit, gadget.fault_locations())
    return [((pauli, location.after_op),)
            for location, pauli in space.singles()]


def seeded_pairs(gadget, count, seed):
    space = FaultSpace.build(gadget.circuit, gadget.fault_locations())
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        pattern = []
        for location in rng.choice(len(space.locations), 2,
                                   replace=False):
            choices = space.choices[location]
            pattern.append((choices[rng.integers(len(choices))],
                            space.after_ops[location]))
        pairs.append(tuple(pattern))
    return pairs


def stacks(gadget, initial, patterns, size=64):
    """One batched state per stack of up to ``size`` patterns."""
    for lo in range(0, len(patterns), size):
        stack = patterns[lo:lo + size]
        state = BatchedState(initial, len(stack))
        apply_circuit_with_fault_patterns(state, gadget.circuit, stack)
        yield state


def judge(evaluator, state):
    return evaluator.lanes(state._state, state._lane_ids(), state.batch)


def check_overlaps(gadget, initial, code, blocks, expected, patterns):
    """Every lane's overlap and verdict against the reference; returns
    the number of rejected patterns."""
    overlaps = _recovered_overlaps(gadget, code, blocks, expected)
    evaluator = recovered_overlap_evaluator(gadget, code, blocks,
                                            expected)
    qubit_lists = [list(gadget.qubits(name)) for name in blocks]
    rejected = 0
    for state in stacks(gadget, initial, patterns):
        values = overlaps(state._state, state._lane_ids(), state.batch)
        verdicts = judge(evaluator, state)
        for lane in range(state.batch):
            reference = oracle_overlap(state.extract_lane(lane),
                                       qubit_lists, code, expected)
            assert abs(values[lane] - reference) < OVERLAP_TOLERANCE, (
                lane, values[lane], reference)
            assert verdicts[lane] == (reference > _THRESHOLD)
            rejected += not verdicts[lane]
    return rejected


def check_n(gadget, initial, code, patterns, logical_bit=0):
    """N-gadget and classical-block verdicts against the oracles."""
    evaluator = n_gadget_evaluator(gadget, code, logical_bit)
    classical = gadget.qubits("classical")
    max_wrong = max(0, (len(classical) - 1) // 2)
    block = classical_block_value_evaluator(gadget, "classical",
                                            logical_bit, max_wrong)
    rejected = 0
    for state in stacks(gadget, initial, patterns):
        verdicts = judge(evaluator, state)
        values = judge(block, state)
        for lane in range(state.batch):
            final = state.extract_lane(lane)
            assert verdicts[lane] == oracle_n(final, gadget, code,
                                              logical_bit)
            assert values[lane] == oracle_classical(
                final, classical, logical_bit, max_wrong)
            rejected += not verdicts[lane]
    return rejected


# -- gadgets ---------------------------------------------------------------


def n_case(code, variant):
    gadget = build_n_gadget(code, variant=variant)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(code, 0)})
    return gadget, initial


def recovery_case(code, error_type):
    gadget = build_recovery_gadget(code, error_type)
    data = sparse_logical_state(code, {(0,): 0.6, (1,): 0.8})
    initial = gadget.initial_state({
        "data": data,
        "ancilla": recovery_ancilla_state(code, error_type),
    })
    return gadget, initial, data


def t_case(code):
    gadget = build_t_gadget(code)
    data = sparse_logical_state(code, {(0,): 0.6, (1,): 0.8})
    initial = gadget.initial_state(t_gadget_inputs(gadget, code, data))
    return gadget, initial, expected_t_output(code, 0.6, 0.8)


class TestSteaneSingleFaults:
    @pytest.mark.parametrize("variant", ["direct", "voted"])
    def test_n_gadget(self, steane, variant):
        gadget, initial = n_case(steane, variant)
        assert check_n(gadget, initial, steane,
                       single_faults(gadget)) == 0

    @pytest.mark.parametrize("error_type", ["X", "Z"])
    def test_recovery(self, steane, error_type):
        gadget, initial, data = recovery_case(steane, error_type)
        assert check_overlaps(gadget, initial, steane, ["data"], data,
                              single_faults(gadget)) == 0


class TestTrivialSingleFaults:
    @pytest.mark.parametrize("variant", ["direct", "voted"])
    def test_n_gadget(self, trivial, variant):
        gadget, initial = n_case(trivial, variant)
        check_n(gadget, initial, trivial, single_faults(gadget))

    @pytest.mark.parametrize("error_type", ["X", "Z"])
    def test_recovery(self, trivial, error_type):
        gadget, initial, data = recovery_case(trivial, error_type)
        check_overlaps(gadget, initial, trivial, ["data"], data,
                       single_faults(gadget))

    def test_t_gadget(self, trivial):
        gadget, initial, expected = t_case(trivial)
        check_overlaps(gadget, initial, trivial, ["data"], expected,
                       single_faults(gadget))

    def test_toffoli_three_blocks(self, trivial):
        gadget = build_toffoli_gadget(trivial)
        one = sparse_logical_state(trivial, {(1,): 1.0})
        zero = sparse_logical_state(trivial, {(0,): 1.0})
        initial = toffoli_initial_state(
            gadget, trivial, toffoli_inputs(gadget, trivial, one, one,
                                            zero))
        expected = expected_toffoli_output(trivial, {(1, 1, 0): 1.0})
        rejected = check_overlaps(
            gadget, initial, trivial, ["and_a", "and_b", "and_c"],
            expected, single_faults(gadget))
        assert rejected > 0, "the trivial code corrects nothing"


class TestSteaneTPairs:
    def test_256_seeded_pairs(self, steane):
        gadget, initial, expected = t_case(steane)
        rejected = check_overlaps(gadget, initial, steane, ["data"],
                                  expected, seeded_pairs(gadget, 256, 23))
        assert 0 < rejected < 256


class TestStackEqualsOneLaneCalls:
    """A 64-lane stack, each distinct pair twice, judged in one call
    ≡ 64 serial calls on the extracted lanes."""

    def _check(self, gadget, initial, evaluators):
        distinct = seeded_pairs(gadget, 32, 5)
        order = np.random.default_rng(6).permutation(64) % 32
        patterns = [distinct[i] for i in order]
        (state,) = stacks(gadget, initial, patterns)
        lanes = [state.extract_lane(lane) for lane in range(64)]
        for evaluator in evaluators:
            stacked = judge(evaluator, state)
            assert stacked.shape == (64,)
            assert list(stacked) == [evaluator(lane) for lane in lanes]
            for i, j in itertools.combinations(range(64), 2):
                if order[i] == order[j]:
                    assert stacked[i] == stacked[j]
        return judge(evaluators[0], state)

    def test_t_gadget(self, steane):
        gadget, initial, expected = t_case(steane)
        verdicts = self._check(gadget, initial, [
            recovered_overlap_evaluator(gadget, steane, ["data"],
                                        expected),
            classical_block_value_evaluator(gadget, "classical", 0, 3),
        ])
        assert 0 < verdicts.sum() < 64

    def test_n_gadget(self, steane):
        gadget, initial = n_case(steane, "direct")
        verdicts = self._check(gadget, initial, [
            n_gadget_evaluator(gadget, steane, 0),
            classical_block_value_evaluator(gadget, "classical", 0, 3),
        ])
        assert 0 < verdicts.sum() < 64


class _Layout:
    """A register layout: every register is ``qubits``."""

    def __init__(self, qubits):
        self._qubits = list(qubits)

    def qubits(self, name):
        return self._qubits


class TestCoherentErrors:
    """Superposed X and Z errors, where a term's X syndrome (not just
    its corrected value) decides which terms add coherently."""

    def _check(self, state, block, code, data):
        overlaps = _recovered_overlaps(_Layout(block), code, ["data"],
                                       data)
        judged = overlaps(state, np.zeros(state.num_terms, dtype=int),
                          1)[0]
        reference = oracle_overlap(state, [block], code, data)
        assert abs(judged - reference) < OVERLAP_TOLERANCE
        return reference

    @pytest.mark.parametrize("gate", [gates.rx(0.42), gates.ry(0.42),
                                      gates.rz(0.42), gates.H, gates.T])
    def test_single_qubit_unitary_errors(self, steane, gate):
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        for position in range(steane.n):
            state = data.copy()
            state.apply_gate(gate, [position])
            assert self._check(state, list(range(7)), steane,
                               data) > _THRESHOLD

    def test_weight_two_unitary_error(self, steane):
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        state = data.copy()
        state.apply_gate(gates.ry(0.9), [0])
        state.apply_gate(gates.ry(0.7), [1])
        assert self._check(state, list(range(7)), steane, data) < 0.99

    def test_different_x_syndromes_under_one_junk_value(self, steane):
        """(Φ + X_0 Φ)/2 ⊗ |0> + X_1 Φ/√2 ⊗ |1>: both junk branches
        are correctable, but terms with X syndromes s(e_0) and 0 share
        junk value 0 and must not add coherently."""
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        terms = {}
        for word, amplitude in data.terms().items():
            for flip, junk, weight in ((0, 0, 0.5), (1 << 6, 0, 0.5),
                                       (1 << 5, 1, 0.5**0.5)):
                index = ((word ^ flip) << 1) | junk
                terms[index] = terms.get(index, 0) + weight * amplitude
        state = SparseState.from_terms(8, terms)
        assert self._check(state, list(range(7)), steane,
                           data) > _THRESHOLD

    @pytest.mark.parametrize("gate", [gates.CNOT, gates.CY, gates.CZ])
    def test_branch_dependent_errors(self, steane, gate):
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        control = SparseState(1)
        control.apply_gate(gates.ry(1.1), [0])
        state = control.tensor(data)
        state.apply_gate(gate, [0, 3])
        state.apply_gate(gates.rx(0.3), [5])
        self._check(state, list(range(1, 8)), steane, data)


class TestExpectedOutsideTheCodeSpace:
    """The table formula needs Φ in the code space; the factory
    refuses any other expected state."""

    @pytest.mark.parametrize("kind", ["X", "Z"])
    def test_refused_at_construction(self, steane, kind):
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        data.apply_pauli(PauliString.single(steane.n, 2, kind))
        with pytest.raises(FaultToleranceError, match="code space"):
            recovered_overlap_evaluator(_Layout(range(7)), steane,
                                        ["data"], data)


class TestTiedMajority:
    def _state(self, words, lane_bits=0):
        return SparseState.from_terms(
            4 + lane_bits, {word: 1.0 for word in words})

    def _lanes(self, state):
        return np.array([index & 1 for index in state.iter_ints()])

    def test_tie_raises_like_the_oracle(self):
        evaluator = classical_block_value_evaluator(_Layout(range(4)),
                                                    "c", 1, 2)
        tied = self._state([0b0011, 0b0111])
        with pytest.raises(FaultToleranceError, match="tied"):
            oracle_classical(tied, [0, 1, 2, 3], 1, 2)
        with pytest.raises(FaultToleranceError, match="tied"):
            evaluator(tied)

    def test_failing_term_before_the_tie_decides(self):
        evaluator = classical_block_value_evaluator(_Layout(range(4)),
                                                    "c", 1, 2)
        state = self._state([0b0001, 0b0011])
        assert oracle_classical(state, [0, 1, 2, 3], 1, 2) is False
        assert evaluator(state) is False

    def test_stacked_tie_raises_and_untied_stack_passes(self):
        evaluator = classical_block_value_evaluator(_Layout(range(4)),
                                                    "c", 1, 2)
        # Lane bit = the last qubit: lane 0 fails before its tie,
        # lane 1 holds a clean majority.
        stacked = self._state([0b0001_0, 0b0011_0, 0b0111_1], 1)
        assert list(evaluator.lanes(stacked, self._lanes(stacked),
                                    2)) == [False, True]
        # Lane 1's only term ties.
        tied = self._state([0b0111_0, 0b0011_1], 1)
        with pytest.raises(FaultToleranceError, match="tied"):
            evaluator.lanes(tied, self._lanes(tied), 2)
