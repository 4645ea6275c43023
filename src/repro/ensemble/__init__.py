"""The ensemble (bulk/NMR) quantum computation model.

* :class:`~repro.ensemble.machine.EnsembleMachine` — identical program
  on every computer, expectation-only readout, measurement forbidden.
* :class:`~repro.ensemble.readout.EnsembleReadout` — the signal model.
* :mod:`repro.ensemble.strategies` — measurement delaying,
  randomize-bad-results, and sort-results (paper Sec. 2).
"""

from repro.ensemble import cooling
from repro.ensemble.cooling import (
    ClosedSystemCooler,
    HeatBathCooler,
    compression_circuit,
    majority_bias,
)
from repro.ensemble.machine import EnsembleMachine, EnsembleRun
from repro.ensemble.readout import (
    EnsembleReadout,
    ReadoutSignal,
)
from repro.ensemble.strategies import (
    ClassicalEnsemble,
    agreement_fraction,
    delay_measurements,
    randomize_bad_results,
    read_randomized_output,
    sort_results,
)

__all__ = [
    "ClassicalEnsemble",
    "ClosedSystemCooler",
    "EnsembleMachine",
    "EnsembleReadout",
    "EnsembleRun",
    "HeatBathCooler",
    "ReadoutSignal",
    "agreement_fraction",
    "compression_circuit",
    "cooling",
    "delay_measurements",
    "majority_bias",
    "randomize_bad_results",
    "read_randomized_output",
    "sort_results",
]
