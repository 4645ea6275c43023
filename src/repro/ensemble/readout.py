"""Ensemble readout: expectation values with a signal model.

In an NMR ensemble machine the measurement of qubit q returns a signal
proportional to <Z_q> averaged over all computers (paper Sec. 2: the
outcome is |alpha|^2 - |beta|^2, i.e. p(0) * lambda_0 + p(1) * lambda_1
with lambda_0 = +1, lambda_1 = -1).  This module models that readout,
including the shot-noise floor of a finite ensemble, and provides the
bit-inference rule used by the algorithm strategies: a bit is readable
only when its signal rises clearly above the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import EnsembleViolationError


@dataclass(frozen=True)
class ReadoutSignal:
    """The signal observed for one qubit across the ensemble.

    Attributes:
        expectation: the ideal <Z> value in [-1, 1].
        observed: the noisy signal actually reported.
        noise_sigma: standard deviation of the added readout noise.
    """

    expectation: float
    observed: float
    noise_sigma: float

    def infer_bit(self, confidence_sigmas: float = 5.0) -> Optional[int]:
        """Read the bit if the signal clears the noise floor.

        Returns 0 for a confidently positive signal (+1 outcome is the
        |0> eigenvalue), 1 for confidently negative, and None when the
        signal is lost in the noise — the situation the paper's
        "different computers give different answers" failure mode
        produces.
        """
        threshold = confidence_sigmas * self.noise_sigma
        if self.observed > threshold:
            return 0
        if self.observed < -threshold:
            return 1
        return None


class EnsembleReadout:
    """Converts expectation values into noisy ensemble signals.

    Args:
        ensemble_size: number of computers N; shot noise scales as
            1/sqrt(N).
        rng: random generator for the noise (None = fresh default).
        noiseless: skip noise entirely (exact expectation readout).
    """

    def __init__(self, ensemble_size: int = 10**6,
                 rng: Optional[np.random.Generator] = None,
                 noiseless: bool = False) -> None:
        if ensemble_size < 1:
            raise EnsembleViolationError("ensemble_size must be >= 1")
        self.ensemble_size = ensemble_size
        self._rng = rng if rng is not None else np.random.default_rng()
        self.noiseless = noiseless

    @property
    def noise_sigma(self) -> float:
        """Per-qubit readout noise (0 when configured noiseless)."""
        if self.noiseless:
            return 0.0
        return 1.0 / math.sqrt(self.ensemble_size)

    def observe(self, expectation: float) -> ReadoutSignal:
        """Produce the noisy signal for one ideal expectation value."""
        if not -1.0 - 1e-9 <= expectation <= 1.0 + 1e-9:
            raise EnsembleViolationError(
                f"expectation {expectation} outside [-1, 1]"
            )
        sigma = self.noise_sigma
        noise = 0.0 if self.noiseless else float(self._rng.normal(0, sigma))
        return ReadoutSignal(
            expectation=float(expectation),
            observed=float(expectation) + noise,
            noise_sigma=sigma,
        )

    def observe_all(self, expectations: Sequence[float]) -> List[ReadoutSignal]:
        return [self.observe(e) for e in expectations]

    def read_bits(self, expectations: Sequence[float],
                  confidence_sigmas: float = 5.0) -> List[Optional[int]]:
        """Infer one bit per qubit, None where unreadable."""
        return [
            self.observe(e).infer_bit(confidence_sigmas)
            for e in expectations
        ]
