"""Tests for the noise-channel definitions."""

import math

import numpy as np
import pytest

from repro.circuits import PauliString
from repro.exceptions import SimulationError
from repro.noise import CoherentOverRotationModel
from repro.simulators import (
    KrausChannel,
    PauliChannel,
    bit_flip,
    depolarizing,
    dephasing,
    phase_flip,
)


class TestPauliChannels:
    def test_bit_flip_terms(self):
        channel = bit_flip(0.1)
        assert channel.terms == ((0.1, "X"),)
        assert abs(channel.identity_probability - 0.9) < 1e-12

    def test_phase_flip(self):
        assert phase_flip(0.2).terms == ((0.2, "Z"),)

    def test_depolarizing_single(self):
        channel = depolarizing(0.3)
        labels = {label for _, label in channel.terms}
        assert labels == {"X", "Y", "Z"}
        assert abs(sum(p for p, _ in channel.terms) - 0.3) < 1e-12

    def test_depolarizing_two_qubit(self):
        channel = depolarizing(0.15, num_qubits=2)
        assert len(channel.terms) == 15

    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_enumerate_faults_skips_identity(self, num_qubits):
        labels = [label for _, label in
                  depolarizing(0.3, num_qubits).terms]
        assert all(label.strip("I") for label in labels)
        assert len(set(labels)) == 4**num_qubits - 1

    def test_probability_validation(self):
        with pytest.raises(SimulationError):
            bit_flip(1.5)
        with pytest.raises(SimulationError):
            depolarizing(-0.1)

    def test_overfull_channel_rejected(self):
        with pytest.raises(SimulationError):
            PauliChannel("bad", 1, ((0.7, "X"), (0.7, "Z")))

    def test_label_length_checked(self):
        with pytest.raises(SimulationError):
            PauliChannel("bad", 2, ((0.1, "X"),))

    def test_sampling_statistics(self):
        channel = depolarizing(0.5)
        rng = np.random.default_rng(0)
        draws = [channel.sample(rng) for _ in range(4000)]
        none_fraction = sum(1 for d in draws if d is None) / 4000
        assert abs(none_fraction - 0.5) < 0.04


class TestKrausConversion:
    def test_pauli_to_kraus_completeness(self):
        kraus = depolarizing(0.2).to_kraus()
        dim = 2
        total = sum(op.conj().T @ op for op in kraus.operators)
        assert np.allclose(total, np.eye(dim))

    def test_kraus_completeness_enforced(self):
        with pytest.raises(SimulationError):
            KrausChannel("bad", 1, (np.eye(2) * 0.5,))

    def test_dephasing_operators(self):
        channel = dephasing(0.4)
        assert len(channel.operators) == 3


class TestOverRotation:
    """The coherent over-rotation and its stochastic Pauli twirl."""

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_over_rotation_is_one_unitary(self, axis):
        model = CoherentOverRotationModel.uniform(0.3, axis)
        operator = model.error_gate("H").matrix
        assert np.allclose(operator.conj().T @ operator, np.eye(2))

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_twirl_keeps_the_incoherent_weight(self, axis):
        # The twirl of U keeps weight |Tr(P U)|^2 / 4 on each Pauli P.
        theta = 0.3
        model = CoherentOverRotationModel.uniform(theta, axis)
        unitary = model.error_gate("H").matrix
        pauli = PauliString.from_label(axis).matrix()
        weight = abs(np.trace(pauli @ unitary)) ** 2 / 4
        assert model.effective_pauli_probability("H") \
            == pytest.approx(weight)
        assert weight == pytest.approx(math.sin(theta / 2) ** 2)

    def test_axis_validated(self):
        with pytest.raises(SimulationError):
            CoherentOverRotationModel.uniform(0.1, "W")
        with pytest.raises(SimulationError):
            CoherentOverRotationModel({"H": ("W", 0.1)})
