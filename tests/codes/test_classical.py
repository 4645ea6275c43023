"""Tests for the classical codes (linear, repetition, Hamming)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import HammingCode, LinearCode, RepetitionCode
from repro.exceptions import CodeError, DecodingFailure, FaultToleranceError
from repro.ft.ngate import classical_majority_value


class TestLinearCode:
    def test_needs_some_matrix(self):
        with pytest.raises(CodeError):
            LinearCode()

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(CodeError):
            LinearCode(generator=np.array([[1, 0]]),
                       parity_check=np.array([[1, 0]]))

    def test_parameters_from_generator(self):
        code = LinearCode(generator=np.array([[1, 0, 1], [0, 1, 1]]))
        assert (code.n, code.k) == (3, 2)
        assert code.distance == 2

    def test_encode_and_membership(self):
        code = LinearCode(generator=np.array([[1, 0, 1], [0, 1, 1]]))
        word = code.encode([1, 1])
        assert code.is_codeword(word)
        assert not code.is_codeword([1, 0, 0])

    def test_encode_length_checked(self):
        code = LinearCode(generator=np.array([[1, 1]]))
        with pytest.raises(CodeError):
            code.encode([1, 0])

    def test_dual_relationship(self):
        code = HammingCode()
        dual = code.dual()
        assert dual.n == 7 and dual.k == 3
        assert code.contains_code(dual)  # Hamming contains its dual

    def test_decode_round_trip(self):
        code = HammingCode()
        message = np.array([1, 0, 1, 1], dtype=np.uint8)
        word = code.encode(message)
        assert np.array_equal(code.decode(word), message)


class TestRepetitionCode:
    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_parameters(self, n):
        code = RepetitionCode(n)
        assert (code.n, code.k, code.distance) == (n, 1, n)
        assert code.correctable_errors == (n - 1) // 2

    def test_for_correctable(self):
        assert RepetitionCode.for_correctable(1).n == 3
        assert RepetitionCode.for_correctable(0).n == 1

    def test_majority(self):
        code = RepetitionCode(5)
        assert code.majority([1, 1, 0, 1, 0]) == 1
        assert code.majority([0, 0, 0, 1, 0]) == 0

    def test_majority_tie_raises(self):
        code = RepetitionCode(4)
        with pytest.raises(CodeError):
            code.majority([1, 1, 0, 0])

    def test_standalone_majority_vote(self):
        # The N gate's decoder of the classical ancilla agrees with
        # the repetition code's majority on every 3-bit word.
        code = RepetitionCode(3)
        for bits in itertools.product((0, 1), repeat=3):
            assert classical_majority_value(bits) == code.majority(bits)
        with pytest.raises(FaultToleranceError):
            classical_majority_value([1, 0])

    def test_correct_and_decode(self):
        code = RepetitionCode(5)
        corrupted = [1, 1, 0, 1, 1]
        assert np.array_equal(code.correct(corrupted), np.ones(5))
        assert code.decode(corrupted)[0] == 1

    @given(st.integers(0, 2), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_corrects_up_to_t_errors(self, weight, seed):
        code = RepetitionCode(5)
        rng = np.random.default_rng(seed)
        word = np.ones(5, dtype=np.uint8)
        positions = rng.choice(5, size=weight, replace=False)
        word[positions] ^= 1
        assert code.decode(word)[0] == 1


class TestHammingCode:
    def test_parameters(self):
        code = HammingCode()
        assert (code.n, code.k, code.distance) == (7, 4, 3)

    def test_syndrome_is_error_position(self):
        code = HammingCode()
        for position in range(7):
            word = np.zeros(7, dtype=np.uint8)
            word[position] = 1
            assert code.error_position(word) == position

    def test_clean_word_position_is_minus_one(self):
        code = HammingCode()
        assert code.error_position(np.zeros(7, dtype=np.uint8)) == -1

    @given(st.integers(0, 15), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_corrects_any_single_error(self, message_value, position):
        code = HammingCode()
        message = [(message_value >> i) & 1 for i in range(4)]
        word = code.encode(message)
        corrupted = word.copy()
        corrupted[position] ^= 1
        assert np.array_equal(code.correct(corrupted), word)

    def test_syndrome_circuit_supports(self):
        # Three checks, each reading four bits: together they name
        # every position (the error_position syndrome) exactly once.
        checks = HammingCode().parity_check
        assert checks.shape == (3, 7)
        assert all(int(row.sum()) == 4 for row in checks)
        columns = {tuple(column) for column in checks.T}
        assert len(columns) == 7 and (0, 0, 0) not in columns

    def test_corrected_parity_readout(self):
        """The Steane logical readout rule (paper Sec. 4.1)."""
        code = HammingCode()
        ones = np.ones(7, dtype=np.uint8)
        assert code.corrected_parity(ones) == 1
        corrupted = ones.copy()
        corrupted[4] ^= 1
        assert code.corrected_parity(corrupted) == 1
        assert code.corrected_parity(np.zeros(7, dtype=np.uint8)) == 0

    def test_two_errors_miscorrect(self):
        """d=3: two errors decode to the wrong codeword, silently."""
        code = HammingCode()
        word = np.zeros(7, dtype=np.uint8)
        word[0] ^= 1
        word[1] ^= 1
        corrected = code.correct(word)
        assert code.is_codeword(corrected)
        assert np.any(corrected)  # not the original zero word

    def test_syndrome_table_failure(self):
        # Weight-1 radius: a syndrome needing weight 2 cannot appear
        # for Hamming (perfect code), so exercise the failure path on
        # a poorer code instead.
        poor = LinearCode(generator=np.array([[1, 1, 1, 1]]))
        with pytest.raises(DecodingFailure):
            poor.error_for_syndrome(np.array([1, 0, 1]))
