"""Sequential journal bodies pinned to literal digests.

``test_fingerprint_pins.py`` pins the header a journal must match to
resume; this file pins what the journal holds.  A resumed sequential
run folds its journaled ``batches``/``alloc`` records back into the
estimator, so a drift in a record's keys, their order or the counts
in them would make every journal already on disk replay into a
different decision sequence.  Each case runs one sequential runner on
the trivial-code N gadget with a checkpoint and compares sha256
digests of the records, the ``estimator`` state and the final summary,
plus the engine's counters, with the literals recorded when the
journal format was last changed on purpose.
"""

import hashlib
import json

import pytest

from repro.analysis import n_gadget_evaluator
from repro.analysis.sequential import (
    adaptive_sweep_p,
    run_sequential_monte_carlo,
    run_sequential_pair_sampling,
)
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import BiasedPauliModel, NoiseModel
from repro.runtime import CheckpointStore

COUNTERS = ("evaluations", "cache_hits", "requests", "chunks",
            "distinct_patterns")


@pytest.fixture(scope="module")
def tiny(trivial):
    gadget = build_n_gadget(trivial)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(trivial, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, trivial, 0)
    return gadget, initial, evaluator


def _digest(payload) -> str:
    """sha256 of the JSON form, keys in journal order."""
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _sequential(tiny, noise=lambda: NoiseModel.uniform(0.2), **kwargs):
    # Budget of 60 = three full batches of 16 and a short one of 12.
    return run_sequential_monte_carlo(
        *tiny, noise(), p0=0.15, p1=0.35, max_trials=60, seed=3,
        batch_size=16, **kwargs)


def _structured():
    return BiasedPauliModel(0.25, bias=(1.0, 1.0, 8.0))


def _sequential_pairs(tiny, **kwargs):
    return run_sequential_pair_sampling(
        *tiny, f0=0.6, f1=0.9, max_samples=60, seed=3, batch_size=16,
        **kwargs)


def _adaptive(tiny, **kwargs):
    # 70 trials = four batches of 16; the remainder stays unspent.
    return adaptive_sweep_p(*tiny, [0.1, 0.2], 70, seed=3,
                            batch_size=16, **kwargs)


def _observe(outcome, store, kind):
    stats = getattr(outcome, "stats", None)
    if stats is None:
        stats = (outcome.result.engine_stats if hasattr(outcome, "result")
                 else outcome.sample.engine_stats)
    return {
        "records": _digest(store.load_records(kind)),
        "estimator": _digest(store.load_state("estimator")),
        "summary": _digest(store.load_final()["summary"]),
        "counters": {name: getattr(stats, name) for name in COUNTERS},
    }


# A journal with no estimator state (the adaptive sweep keeps none).
ABSENT = _digest(None)

SEQUENTIAL = {
    "records": "da50cc38aa4c17e27a5a3d9333c4538e"
               "7cf3e0a18aaa4234dbf794425e0d44cc",
    "estimator": "d651563f2b64ef585e5103b9e3117c62"
                 "7fcb233bc0e58ebdba8de89e26802b24",
    "summary": "af7c4fd8058f58b654ba197cacbaa37e"
               "54881f1f940c50c4cc6efd3d5d13f535",
    "counters": {"evaluations": 13, "cache_hits": 9, "requests": 22,
                 "chunks": 4, "distinct_patterns": 13},
}
SEQUENTIAL_STRUCTURED = {
    "records": "fd28220ca055dbb53e0e16e0ffd05b05"
               "0d76f8eb7ac9ecba356218eced88b825",
    "estimator": "9a61d42677723425493a333de12f0268"
                 "87e5028bb6ca1cb7c563f0f5935fad0d",
    "summary": "e84c32959e38e30368c6fa8ea72fe2bf"
               "9595d4041ad2f0af2dabfc84f4c61670",
    "counters": {"evaluations": 7, "cache_hits": 10, "requests": 17,
                 "chunks": 2, "distinct_patterns": 7},
}
# Every stack width journals exactly what one-lane stacks do.
SEQUENTIAL_PAIRS = {
    "records": "8c3d671310409dbac419fa7980ea87be"
               "6ab886fb5a05a7bb024ec8a03771f867",
    "estimator": "5ad7c99488a03db295757a7f5cc6b502"
                 "9a32254f1edd8ed341f38ee816f7252e",
    "summary": "3dd310f28a664c4fe518cd9f8df1e5f6"
               "af9f9a326a55ec0b0cbdf69823ad3a53",
    "counters": {"evaluations": 31, "cache_hits": 17, "requests": 48,
                 "chunks": 3, "distinct_patterns": 31},
}
ADAPTIVE = {
    "records": "c0db4c0f98340a02de7f12865145cac5"
               "9da81b688d2a936ee3af838c5b72e2a9",
    "estimator": ABSENT,
    "summary": "55785f6bb9d560001a2cd263ee4f3078"
               "4d3116af1ba39cb9aa6e7d3a98142c51",
    "counters": {"evaluations": 9, "cache_hits": 3, "requests": 12,
                 "chunks": 4, "distinct_patterns": 9},
}

# ``lanes`` forces the stack width through the engine's constant.
CASES = [
    ("sequential", _sequential, {}, "batches", SEQUENTIAL),
    ("sequential-structured", _sequential, {"noise": _structured},
     "batches", SEQUENTIAL_STRUCTURED),
    ("sequential_pairs", _sequential_pairs, {}, "batches",
     SEQUENTIAL_PAIRS),
    ("sequential_pairs-batched", _sequential_pairs, {"lanes": 4},
     "batches", SEQUENTIAL_PAIRS),
    ("adaptive", _adaptive, {}, "alloc", ADAPTIVE),
]


@pytest.mark.parametrize("run, kwargs, kind, expected",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_journal_body_is_pinned(tiny, tmp_path, stack_lanes, run,
                                kwargs, kind, expected):
    kwargs = dict(kwargs)
    if "lanes" in kwargs:
        stack_lanes(kwargs.pop("lanes"), tiny[1])
    store = CheckpointStore(str(tmp_path / "run"))
    assert _observe(run(tiny, checkpoint=store, **kwargs), store,
                    kind) == expected
