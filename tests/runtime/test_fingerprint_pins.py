"""Checkpoint fingerprints pinned to literal dicts.

A journal resumes only when the fingerprint recorded in its header
equals the one the resuming call computes, so any drift in the
fingerprint rules (a renamed key, a marker stamped where it was not
before, a float that becomes an int) silently orphans every journal
and service checkpoint store already on disk.  Each case below runs
one engine entry point with a checkpoint and compares the header's
fingerprint with the literal recorded when the rules were last
changed on purpose.
"""

import pytest

from repro.analysis import n_gadget_evaluator
from repro.analysis.engine import (
    run_exhaustive,
    run_malignant_pairs,
    run_monte_carlo,
)
from repro.analysis.sequential import (
    adaptive_sweep_p,
    run_sequential_monte_carlo,
    run_sequential_pair_sampling,
)
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import BiasedPauliModel, NoiseModel
from repro.runtime import CheckpointStore

GADGET = "N[trivial,direct]"
OPTIMIZER = "cancel_inverses+merge_phase_runs+commute_sink+reduce_idle@v1"
BIASED = "('biased', 0.25, 0.25, 0.25, (0.1, 0.1, 0.8))"


@pytest.fixture(scope="module")
def tiny(trivial):
    gadget = build_n_gadget(trivial)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(trivial, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, trivial, 0)
    return gadget, initial, evaluator


def _uniform():
    return NoiseModel.uniform(0.2)


def _biased():
    return BiasedPauliModel(0.25, bias=(1.0, 1.0, 8.0))


def _monte_carlo(tiny, noise=_uniform, **kwargs):
    return run_monte_carlo(*tiny, noise(), 40, seed=3, chunk_size=16,
                           **kwargs)


def _pairs(tiny, **kwargs):
    return run_malignant_pairs(*tiny, 40, seed=3, chunk_size=16,
                               **kwargs)


def _exhaustive(tiny, **kwargs):
    return run_exhaustive(*tiny, chunk_size=16, **kwargs)


def _sequential(tiny, noise=_uniform, **kwargs):
    return run_sequential_monte_carlo(
        *tiny, noise(), p0=0.05, p1=0.3, max_trials=64, seed=3,
        batch_size=16, **kwargs)


def _sequential_pairs(tiny, **kwargs):
    return run_sequential_pair_sampling(
        *tiny, f0=0.05, f1=0.3, max_samples=64, seed=3, batch_size=16,
        **kwargs)


def _adaptive(tiny, **kwargs):
    return adaptive_sweep_p(*tiny, [0.1, 0.2], 64, seed=3,
                            batch_size=16, **kwargs)


MONTE_CARLO = {
    "workload": "monte_carlo", "gadget": GADGET, "locations": 2,
    "seed": 3, "trials": 40, "chunk_size": 16, "p_gate": 0.2,
    "p_input": 0.2, "p_delay": 0.2, "channel": "depolarizing",
}
PAIRS = {
    "workload": "malignant_pairs", "gadget": GADGET, "locations": 2,
    "seed": 3, "samples": 40, "chunk_size": 16,
    "channel": "depolarizing",
}
EXHAUSTIVE = {
    "workload": "exhaustive", "gadget": GADGET, "locations": 2,
    "items": 18, "chunk_size": 16, "channel": "depolarizing",
}
SEQUENTIAL = {
    "workload": "sequential_monte_carlo", "gadget": GADGET,
    "locations": 2, "seed": 3, "max_trials": 64, "batch_size": 16,
    "p0": 0.05, "p1": 0.3, "alpha": 0.05, "beta": 0.05,
    "method": "sprt", "p_gate": 0.2, "p_input": 0.2, "p_delay": 0.2,
    "channel": "depolarizing",
}
SEQUENTIAL_PAIRS = {
    "workload": "sequential_pairs", "gadget": GADGET, "locations": 2,
    "seed": 3, "max_samples": 64, "batch_size": 16, "p0": 0.05,
    "p1": 0.3, "alpha": 0.05, "beta": 0.05, "method": "sprt",
    "channel": "depolarizing",
}
ADAPTIVE = {
    "workload": "adaptive_sweep", "gadget": GADGET, "locations": 2,
    "p_values": [0.1, 0.2], "total_trials": 64, "seed": 3,
    "batch_size": 16, "min_batches_per_point": 1, "confidence": 0.95,
    "interval_method": "wilson", "boundary": None,
    "channel": "depolarizing",
}
BATCHED = {"eval_path": "batched"}
STRUCTURED = {"p_gate": 0.25, "p_input": 0.25, "p_delay": 0.25,
              "channel": "pauli[XYZ]", "model": BIASED}
OPTIMIZED = {"optimizer": OPTIMIZER}

CASES = [
    ("monte_carlo", _monte_carlo, {}, MONTE_CARLO),
    ("monte_carlo-batched", _monte_carlo, {"batch_size": 4},
     {**MONTE_CARLO, **BATCHED}),
    ("monte_carlo-structured", _monte_carlo, {"noise": _biased},
     {**MONTE_CARLO, **STRUCTURED}),
    ("monte_carlo-optimized", _monte_carlo, {"optimize": True},
     {**MONTE_CARLO, **OPTIMIZED}),
    ("pairs", _pairs, {}, PAIRS),
    ("pairs-batched", _pairs, {"batch_size": 4}, {**PAIRS, **BATCHED}),
    ("pairs-optimized", _pairs, {"optimize": True},
     {**PAIRS, **OPTIMIZED}),
    ("exhaustive", _exhaustive, {}, EXHAUSTIVE),
    ("exhaustive-batched", _exhaustive, {"batch_size": 4},
     {**EXHAUSTIVE, **BATCHED}),
    ("exhaustive-optimized", _exhaustive, {"optimize": True},
     {**EXHAUSTIVE, **OPTIMIZED}),
    ("sequential", _sequential, {}, SEQUENTIAL),
    ("sequential-batched", _sequential, {"eval_batch_size": 4},
     {**SEQUENTIAL, **BATCHED}),
    ("sequential-structured", _sequential, {"noise": _biased},
     {**SEQUENTIAL, **STRUCTURED}),
    ("sequential_pairs", _sequential_pairs, {}, SEQUENTIAL_PAIRS),
    ("sequential_pairs-batched", _sequential_pairs,
     {"eval_batch_size": 4}, {**SEQUENTIAL_PAIRS, **BATCHED}),
    ("adaptive", _adaptive, {}, ADAPTIVE),
    ("adaptive-batched", _adaptive, {"eval_batch_size": 4},
     {**ADAPTIVE, **BATCHED}),
]


@pytest.mark.parametrize("run, kwargs, expected",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_header_fingerprint_is_pinned(tiny, tmp_path, run, kwargs,
                                      expected):
    store = CheckpointStore(str(tmp_path / "run"))
    run(tiny, checkpoint=store, **kwargs)
    assert store.load_header()["fingerprint"] == expected
    # The literal must also be what a resume checks against.
    run(tiny, checkpoint=store, **kwargs)
