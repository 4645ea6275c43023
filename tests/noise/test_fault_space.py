"""Pins on the fault space every sampler and survey reads.

Each gadget's default :class:`~repro.noise.FaultSpace` — its locations
and, per location, the channel's Pauli choices in draw order — is
pinned to a sha256 digest, and the symbolic analyzer's counts over the
same space are pinned to literals.  Seeded fault streams index into
the choice tuples, so any drift here (a reordered basis, a location
kind that moved, a changed input-register rule) would silently change
every seeded result; these pins make it loud.  The memo tests check
that a shared, memoised space is only ever reused for identical
inputs.
"""

import gc
import hashlib
import weakref

import pytest

from repro.analysis.propagation import GadgetFaultAnalyzer
from repro.circuits.circuit import GateOp
from repro.circuits.gates import X
from repro.ft import build_n_gadget, build_recovery_gadget, build_t_gadget
from repro.noise import (
    FaultLocation,
    FaultSpace,
    NoiseModel,
    enumerate_locations,
    register_channel,
)

BUILDERS = {
    "steane_n_direct": ("steane", lambda code: build_n_gadget(code)),
    "steane_n_voted": ("steane",
                       lambda code: build_n_gadget(code, variant="voted")),
    "steane_t": ("steane", lambda code: build_t_gadget(code)),
    "steane_recovery": ("steane",
                        lambda code: build_recovery_gadget(code)),
    "trivial_n": ("trivial", lambda code: build_n_gadget(code)),
    "trivial_t": ("trivial", lambda code: build_t_gadget(code)),
}

#: (gadget, channel) -> (locations, sha256 over (kind, qubits, after_op,
#: choice labels) per location).
SPACE_PINS = {
    ("steane_n_direct", "depolarizing"): (
        522, "1958699a8ef97f3ee5e25dee3a274c0b"
             "5eb6d29e092c9c2c58813dd04ef8b243"),
    ("steane_n_direct", "bit_flip"): (
        522, "3b838b3ec0d703133af8bb43a5af152f"
             "e97eebff48a703a0173bbcc333e239a2"),
    ("steane_n_direct", "phase_flip"): (
        522, "1439f3a7f40a17cae109c165b7a127ba"
             "4e428cd5fbff74d5c88d678056cf5cd2"),
    ("steane_n_voted", "depolarizing"): (
        332, "8f2805f2f4f4d1ce861a8740fb759303"
             "e4d6187641212b19e117a8ffc03da3fe"),
    ("steane_n_voted", "bit_flip"): (
        332, "aad35bf1a2ee58e16a468e8227d0df98"
             "7dcc9ab18e13356a80c1ed4ff0901414"),
    ("steane_n_voted", "phase_flip"): (
        332, "610d0f22aef9e0256052708b98bd314c"
             "d93fab1311fb1b4b4eb99213ad87bf0a"),
    ("steane_t", "depolarizing"): (
        746, "dc466ab6d95ef33fc2867c7e5ed6769e"
             "90dbfd1d8b74432dd88a82b2280ada89"),
    ("steane_t", "bit_flip"): (
        746, "e1f497de92856d7934115c389e62c1ae"
             "cb9ac2c8191a3995f2471d940ce5bfa5"),
    ("steane_t", "phase_flip"): (
        746, "572ca20886ab80f7b7dad7a2d7283e99"
             "ac6c6228ba810f1934d9928a67bbb37c"),
    ("steane_recovery", "depolarizing"): (
        222, "acf9faa54f7f4d24ab035c33c35abcb5"
             "82f7754e6f2d060044dd457b0ccee04d"),
    ("steane_recovery", "bit_flip"): (
        222, "4cfeb9c212a9ad8cfd2f1358db76dba6"
             "d5cca5b12cdc6d62fabac5f9d8c004c0"),
    ("steane_recovery", "phase_flip"): (
        222, "1a0418b3b91ccffb9457b4a6221e1e8d"
             "1775e5e34213a8c49adfb830fc0df108"),
    ("trivial_n", "depolarizing"): (
        2, "0de6b275940aaeab9e2b5921ae934e19"
           "723d2b6ee43b272ddae12a7d3b3ca253"),
    ("trivial_n", "bit_flip"): (
        2, "49b1df13c0ee97f18bf2d2867597fdb7"
           "81aee2d4d2d0976076ff8c196895c2c6"),
    ("trivial_n", "phase_flip"): (
        2, "9040f56746135c86ceca8d9717a485d1"
           "b65600a71e4fab895f60e51e6b02f506"),
    ("trivial_t", "depolarizing"): (
        6, "c3d2b9060034d5707ce25155610235bf"
           "3bb6efcebf18e01e9bf6e789659f405d"),
    ("trivial_t", "bit_flip"): (
        6, "d035db1ddae7712357c6895b8739759"
           "085289a4f8f0ce70ed8befd26db44e14a"),
    ("trivial_t", "phase_flip"): (
        6, "6319dde49dba3cf2ee0d73195f987342"
           "a1285039b990b9e8d78f668b491872b9"),
}


@pytest.fixture(scope="module")
def gadgets(steane, trivial):
    codes = {"steane": steane, "trivial": trivial}
    return {name: build(codes[code])
            for name, (code, build) in BUILDERS.items()}


def space_digest(space: FaultSpace) -> str:
    digest = hashlib.sha256()
    for location, choices in zip(space.locations, space.choices):
        digest.update(repr((
            location.kind, location.qubits, location.after_op,
            tuple(pauli.label() for pauli in choices),
        )).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("gadget_name,channel", sorted(SPACE_PINS))
def test_default_space_pinned(gadgets, gadget_name, channel):
    gadget = gadgets[gadget_name]
    space = FaultSpace.build(gadget.circuit, gadget.fault_locations(),
                             channel)
    assert (len(space), space_digest(space)) == \
        SPACE_PINS[(gadget_name, channel)]


def test_space_matches_noise_model_choices(gadgets):
    """The table is exactly what the per-strike sampler would draw
    from, location by location."""
    gadget = gadgets["trivial_t"]
    for channel in ("depolarizing", "bit_flip", "phase_flip"):
        model = NoiseModel.uniform(1.0, channel=channel)
        space = FaultSpace.build(gadget.circuit, gadget.fault_locations(),
                                 channel)
        assert space.after_ops == tuple(
            location.after_op for location in space.locations)
        assert space.num_qubits == gadget.num_qubits
        for location, choices in zip(space.locations, space.choices):
            assert list(choices) == model.fault_choices(
                location, gadget.num_qubits)


def test_probabilities_and_kind_counts(gadgets):
    gadget = gadgets["steane_n_direct"]
    space = FaultSpace.build(gadget.circuit, gadget.fault_locations())
    noise = NoiseModel(p_gate=0.1, p_input=0.2, p_delay=0.3)
    probs = space.probabilities(noise)
    expected = {"gate": 0.1, "input": 0.2, "delay": 0.3}
    assert list(probs) == [expected[location.kind]
                           for location in space.locations]
    counts = space.kind_counts()
    assert counts["total"] == len(space) == 522
    assert counts["input"] == len(gadget.qubits("quantum"))


@pytest.mark.parametrize("gadget_name,locations,failures,pairs", [
    ("trivial_n", 2, 14, 1),
    ("trivial_t", 6, 49, 15),
])
def test_symbolic_survey_pinned(gadgets, trivial, gadget_name,
                                locations, failures, pairs):
    analyzer = GadgetFaultAnalyzer(gadgets[gadget_name], trivial)
    survey = analyzer.single_fault_survey()
    assert len(analyzer.locations) == locations
    assert len(survey.failures) == failures
    assert survey.count_malignant_pairs() == pairs


def test_symbolic_survey_pinned_steane_n(gadgets, steane):
    analyzer = GadgetFaultAnalyzer(gadgets["steane_n_direct"], steane)
    survey = analyzer.single_fault_survey()
    assert len(analyzer.locations) == 522
    assert len(survey.failures) == 632


class TestMemo:
    """``FaultSpace.build`` and ``Gadget.fault_locations`` are memoised
    per circuit; every way the inputs can change must miss the memo."""

    @staticmethod
    def fresh(circuit, locations, channel="depolarizing"):
        """An unmemoised build: a copy of the circuit has no entry."""
        return FaultSpace.build(circuit.copy(), locations, channel)

    def test_repeat_build_returns_same_object(self, gadgets):
        gadget = gadgets["steane_t"]
        first = FaultSpace.build(gadget.circuit, gadget.fault_locations())
        again = FaultSpace.build(gadget.circuit,
                                 list(gadget.fault_locations()))
        assert again is first

    def test_appended_op_misses(self, trivial):
        gadget = build_n_gadget(trivial)
        before_locations = gadget.fault_locations()
        before = FaultSpace.build(gadget.circuit, before_locations)
        gadget.circuit.append(GateOp(X, (0,)))
        locations = gadget.fault_locations()
        assert locations != before_locations
        assert locations == enumerate_locations(
            gadget.circuit.copy(),
            input_qubits=sorted(gadget.qubits("quantum")))
        after = FaultSpace.build(gadget.circuit, before_locations)
        assert after is not before
        assert after == self.fresh(gadget.circuit, before_locations)

    def test_other_channel_misses(self, gadgets):
        gadget = gadgets["steane_recovery"]
        locations = gadget.fault_locations()
        depolarizing = FaultSpace.build(gadget.circuit, locations)
        bit_flip = FaultSpace.build(gadget.circuit, locations, "bit_flip")
        assert bit_flip is not depolarizing
        assert bit_flip == self.fresh(gadget.circuit, locations,
                                      "bit_flip")
        assert bit_flip != depolarizing

    def test_reregistered_channel_misses(self, gadgets):
        gadget = gadgets["trivial_t"]
        locations = gadget.fault_locations()
        register_channel("memo_overwrite_test", ("X",), overwrite=True)
        x_only = FaultSpace.build(gadget.circuit, locations,
                                  "memo_overwrite_test")
        register_channel("memo_overwrite_test", ("Z",), overwrite=True)
        z_only = FaultSpace.build(gadget.circuit, locations,
                                  "memo_overwrite_test")
        assert z_only == self.fresh(gadget.circuit, locations,
                                    "memo_overwrite_test")
        assert z_only.choices != x_only.choices

    def test_other_locations_of_equal_length_miss(self, gadgets):
        gadget = gadgets["steane_n_direct"]
        default = gadget.fault_locations()
        shifted = [FaultLocation(kind=location.kind,
                                 qubits=location.qubits,
                                 after_op=location.after_op + 1,
                                 detail=location.detail)
                   for location in default]
        first = FaultSpace.build(gadget.circuit, default)
        other = FaultSpace.build(gadget.circuit, shifted)
        assert len(other) == len(first)
        assert other is not first
        assert other == self.fresh(gadget.circuit, shifted)
        assert other.after_ops != first.after_ops

    def test_mutating_returned_locations_is_harmless(self, trivial):
        gadget = build_n_gadget(trivial)
        locations = gadget.fault_locations()
        expected = list(locations)
        locations.clear()
        assert gadget.fault_locations() == expected
        gadget.fault_locations().append(expected[0])
        assert gadget.fault_locations() == expected

    def test_entries_die_with_their_circuit(self, trivial):
        gadget = build_n_gadget(trivial)
        space = weakref.ref(FaultSpace.build(gadget.circuit,
                                             gadget.fault_locations()))
        circuit = weakref.ref(gadget.circuit)
        assert space() is not None
        del gadget
        gc.collect()
        assert circuit() is None
        assert space() is None
