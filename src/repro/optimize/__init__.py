"""Certified gadget optimization.

The paper's threshold estimates charge every fault location in every
gadget on every trial, so tightening gadget schedules — fewer idle
(moment, qubit) slots, hence fewer delay-line locations — compounds
across the entire analysis stack.  This package provides the two
rewrite passes (:mod:`repro.optimize.passes`), the fixed-point loop
(:mod:`repro.optimize.pipeline`) and the differential rewrite
certification (:mod:`repro.optimize.certify`) that together uphold
the repo's standard: *nothing lands uncertified*.  Every rewrite is
either provably equivalent or raises
:class:`~repro.exceptions.OptimizationError` with a shrunk
reproducer.

Entry points:

* :func:`optimize_circuit` / :func:`optimize_gadget` — memoised,
  always-certified, one-call optimization;
* the boolean ``optimize=`` on :func:`repro.analysis.engine.
  run_monte_carlo` and friends, and on the :mod:`repro.ft` gadget
  builders, feeds through here; the engine stamps checkpoint
  fingerprints with :data:`MARKER`.
"""

from repro.optimize.certify import (
    PAIR_ATOL,
    BrokenSCancelPass,
    certify_rewrite,
    circuits_equivalent,
    equivalence_discrepancy,
)
from repro.optimize.passes import (
    CommuteSinkPass,
    Pass,
    PassResult,
    ReduceIdlePass,
    ops_commute,
)
from repro.optimize.pipeline import (
    MARKER,
    PipelineResult,
    clear_optimize_cache,
    optimize_circuit,
    optimize_gadget,
)

__all__ = [
    "BrokenSCancelPass",
    "CommuteSinkPass",
    "MARKER",
    "PAIR_ATOL",
    "Pass",
    "PassResult",
    "PipelineResult",
    "ReduceIdlePass",
    "certify_rewrite",
    "circuits_equivalent",
    "clear_optimize_cache",
    "equivalence_discrepancy",
    "ops_commute",
    "optimize_circuit",
    "optimize_gadget",
]
