"""Tests for the ensemble readout signal model."""

import numpy as np
import pytest

from repro.ensemble import (
    EnsembleReadout,
    ReadoutSignal,
)
from repro.exceptions import EnsembleViolationError


class TestReadoutSignal:
    def test_infer_bit_positive(self):
        signal = ReadoutSignal(expectation=1.0, observed=0.9,
                               noise_sigma=0.01)
        assert signal.infer_bit() == 0

    def test_infer_bit_negative(self):
        signal = ReadoutSignal(expectation=-1.0, observed=-0.9,
                               noise_sigma=0.01)
        assert signal.infer_bit() == 1

    def test_infer_bit_buried_in_noise(self):
        signal = ReadoutSignal(expectation=0.0, observed=0.02,
                               noise_sigma=0.01)
        assert signal.infer_bit() is None

    def test_confidence_parameter(self):
        signal = ReadoutSignal(expectation=0.0, observed=0.03,
                               noise_sigma=0.01)
        assert signal.infer_bit(confidence_sigmas=2.0) == 0
        assert signal.infer_bit(confidence_sigmas=5.0) is None


class TestEnsembleReadout:
    def test_noise_floor(self):
        readout = EnsembleReadout(ensemble_size=10**4)
        assert abs(readout.noise_sigma - 0.01) < 1e-12

    def test_noiseless_mode(self):
        readout = EnsembleReadout(noiseless=True)
        signal = readout.observe(0.3)
        assert signal.observed == 0.3
        assert signal.noise_sigma == 0.0

    def test_validation(self):
        with pytest.raises(EnsembleViolationError):
            EnsembleReadout(ensemble_size=0)
        readout = EnsembleReadout(noiseless=True)
        with pytest.raises(EnsembleViolationError):
            readout.observe(1.5)

    def test_observe_all_and_read_bits(self):
        readout = EnsembleReadout(ensemble_size=10**8,
                                  rng=np.random.default_rng(0))
        bits = readout.read_bits([1.0, -1.0, 0.0])
        assert bits == [0, 1, None]

    def test_noise_statistics(self):
        readout = EnsembleReadout(ensemble_size=10**4,
                                  rng=np.random.default_rng(1))
        observations = [readout.observe(0.0).observed
                        for _ in range(3000)]
        assert abs(np.std(observations) - 0.01) < 0.002


class TestFiniteEnsembleDegradation:
    """Graceful degradation at small ensemble sizes.

    Shot noise scales as 1/sqrt(N): shrinking the ensemble must turn
    marginal readouts *unreadable* (None), never silently wrong.
    """

    def test_noise_floor_grows_as_ensemble_shrinks(self):
        sigmas = [EnsembleReadout(ensemble_size=size).noise_sigma
                  for size in (25, 100, 10**4, 10**8)]
        assert sigmas == sorted(sigmas, reverse=True)
        assert sigmas[0] == pytest.approx(0.2)

    def test_unreadable_rate_decreases_with_ensemble_size(self):
        # Expectation 0.4 against the 5-sigma read threshold:
        # N=25 (sigma=0.2) buries it, N=100 (sigma=0.1) is marginal,
        # N=10^4 (sigma=0.01) resolves it cleanly.
        rates = []
        for size in (25, 100, 10**4):
            readout = EnsembleReadout(
                ensemble_size=size, rng=np.random.default_rng(42))
            bits = [readout.observe(0.4).infer_bit()
                    for _ in range(2000)]
            rates.append(sum(bit is None for bit in bits) / 2000)
        assert rates[0] > rates[1] > rates[2]
        assert rates[0] > 0.9   # essentially unreadable
        assert rates[2] == 0.0  # fully resolved

    def test_degrades_to_unreadable_never_to_wrong(self):
        # At sigma=0.2 a *wrong* bit needs a -7 sigma noise draw; an
        # unreadable one only needs the signal to stay inside the
        # 5-sigma band.  Seeded, the wrong count is exactly zero.
        readout = EnsembleReadout(ensemble_size=25,
                                  rng=np.random.default_rng(7))
        wrong = 0
        readable = 0
        for _ in range(2000):
            bit = readout.observe(0.4).infer_bit()
            if bit is not None:
                readable += 1
                wrong += bit != 0
        assert wrong == 0
        assert readable < 2000  # degradation is visible, not hidden

    def test_strong_signals_survive_small_ensembles(self):
        readout = EnsembleReadout(ensemble_size=100,
                                  rng=np.random.default_rng(3))
        bits = readout.read_bits([1.0, -1.0] * 50)
        assert bits == [0, 1] * 50

    def test_relaxed_confidence_trades_reads_for_risk(self):
        # Lowering confidence_sigmas recovers readability at small N —
        # the documented knob for finite-ensemble operation.
        readout = EnsembleReadout(ensemble_size=100,
                                  rng=np.random.default_rng(9))
        signals = [readout.observe(0.4) for _ in range(500)]
        strict = sum(s.infer_bit(confidence_sigmas=5.0) is not None
                     for s in signals)
        relaxed = sum(s.infer_bit(confidence_sigmas=2.0) is not None
                      for s in signals)
        assert relaxed > strict
