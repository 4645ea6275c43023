"""Differential test of the vectorised iid strike path.

:func:`repro.analysis.engine.sample_fault_chunk` draws a chunk's iid
faults as whole arrays: one strike matrix, one ``np.nonzero`` over it
and one array-``high`` ``Generator.integers`` call for the Pauli
picks.  Seeded streams, checkpoint journals and perfbench digests all
pin the draw order of the historical per-row loop, kept here as
``reference_chunk``.  Every case must leave the histogram, the pattern
counts (insertion order included: it fixes evaluation-chunk
composition and journal order) and the generator state exactly as
that loop does.
"""

import numpy as np
import pytest

from repro.analysis.engine import canonical_pattern, sample_fault_chunk
from repro.ft import build_n_gadget
from repro.noise import FaultLocation, FaultSpace, NoiseModel

SEEDS = (0, 7, 424242)
P_VALUES = (1e-4, 2e-3, 0.05, 0.3)
CHANNELS = ("depolarizing", "bit_flip", "phase_flip")
#: Chunk lengths folded into one histogram / pattern_counts pair, so
#: later chunks meet keys an earlier chunk already inserted.
CHUNKS = (160, 97)


def reference_chunk(space, probs, rng, length, histogram,
                    pattern_counts):
    """The per-row iid loop the vectorised path replaced."""
    choices, after_ops = space.choices, space.after_ops
    strikes = rng.random((length, len(space)))
    for row in range(length):
        struck = np.nonzero(strikes[row] < probs)[0]
        faults = []
        for loc_index in struck:
            loc_choices = choices[loc_index]
            if not loc_choices:
                continue
            pauli = loc_choices[int(rng.integers(0, len(loc_choices)))]
            faults.append((pauli, after_ops[loc_index]))
        count = len(faults)
        histogram[count] = histogram.get(count, 0) + 1
        if count:
            key = canonical_pattern(faults)
            pattern_counts[key] = pattern_counts.get(key, 0) + 1


@pytest.fixture(scope="module")
def gadgets(steane, trivial):
    return {"steane_n_direct": build_n_gadget(steane, variant="direct"),
            "trivial_n": build_n_gadget(trivial)}


def run_both(gadget, locations, channel, p, seed):
    noise = NoiseModel.uniform(p, channel=channel)
    space = FaultSpace.build(gadget.circuit, locations, channel)
    probs = space.probabilities(noise)
    outcomes = []
    for sampler in ("reference", "engine"):
        rng = np.random.default_rng(seed)
        histogram, pattern_counts = {}, {}
        for length in CHUNKS:
            if sampler == "reference":
                reference_chunk(space, probs, rng, length, histogram,
                                pattern_counts)
            else:
                sample_fault_chunk(noise, gadget, space, probs, rng,
                                   length, histogram, pattern_counts)
        outcomes.append((list(histogram.items()),
                         list(pattern_counts.items()),
                         rng.bit_generator.state))
    return outcomes


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("gadget_name", ["steane_n_direct", "trivial_n"])
def test_vectorised_chunk_matches_per_row_loop(gadgets, gadget_name,
                                               channel, p, seed):
    gadget = gadgets[gadget_name]
    reference, engine = run_both(gadget, gadget.fault_locations(),
                                 channel, p, seed)
    assert engine[0] == reference[0]  # histogram, in insertion order
    assert engine[1] == reference[1]  # pattern counts, in order
    assert engine[2] == reference[2]  # generator state after the chunks


@pytest.mark.parametrize("seed", SEEDS)
def test_choiceless_locations_are_never_struck(gadgets, seed):
    """A zero-qubit location has no Pauli to draw: both paths skip it
    without consuming the stream, even when it is certainly struck."""
    gadget = gadgets["trivial_n"]
    locations = gadget.fault_locations()
    empty = FaultLocation(kind="burst", qubits=(), after_op=0)
    locations = [empty] + locations + [empty]
    reference, engine = run_both(gadget, locations, "depolarizing", 0.5,
                                 seed)
    assert engine == reference


def test_array_high_integers_draw_like_scalar_calls():
    """The numpy behaviour the vectorised path relies on:
    ``Generator.integers(0, highs)`` with an array of bounds consumes
    the stream exactly as one scalar call per bound, in order —
    including bound 1, which consumes nothing."""
    highs = np.array([3, 15, 1, 3, 1, 15, 9, 3, 3, 1, 15] * 40,
                     dtype=np.int64)
    scalar = np.random.default_rng(2024)
    array = np.random.default_rng(2024)
    expected = [int(scalar.integers(0, int(high))) for high in highs]
    assert array.integers(0, highs).tolist() == expected
    assert array.bit_generator.state == scalar.bit_generator.state
