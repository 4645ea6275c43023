"""Unit tests for the structured noise model family."""

import math

import numpy as np
import pytest

from repro.circuits import Circuit, gates
from repro.exceptions import AnalysisError, SimulationError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import (
    BiasedPauliModel,
    CoherentOverRotationModel,
    CorrelatedBurstModel,
    CrosstalkModel,
    DriftingRateModel,
    NoiseModel,
    RateSchedule,
    channel_names,
    channel_spec,
    enumerate_locations,
    register_channel,
    run_with_coherent_noise,
)
from repro.noise.locations import FaultLocation
from repro.simulators import StateVector


@pytest.fixture(scope="module")
def circuit(trivial):
    return build_n_gadget(trivial, output_width=5).circuit


@pytest.fixture(scope="module")
def locations(circuit):
    return enumerate_locations(circuit)


class TestChannelRegistry:
    def test_builtins_always_present(self):
        names = channel_names()
        for name in ("depolarizing", "bit_flip", "phase_flip"):
            assert name in names

    def test_unknown_channel_lists_registry(self):
        with pytest.raises(SimulationError, match="registered channels"):
            channel_spec("no_such_channel")

    def test_register_and_use(self):
        register_channel("xz_only_test", ("X", "Z"))
        model = NoiseModel.uniform(0.1, channel="xz_only_test")
        loc = FaultLocation(kind="input", qubits=(0,), after_op=-1)
        labels = {c.label() for c in model.fault_choices(loc, 1)}
        assert labels == {"X", "Z"}

    def test_identical_reregistration_is_idempotent(self):
        register_channel("idem_test", ("Y",))
        register_channel("idem_test", ("Y",))  # no error

    def test_conflicting_reregistration_refused(self):
        register_channel("conflict_test", ("X",))
        with pytest.raises(SimulationError, match="already registered"):
            register_channel("conflict_test", ("Z",))
        register_channel("conflict_test", ("Z",), overwrite=True)
        assert channel_spec("conflict_test").letters == frozenset("Z")

    def test_bad_letters_rejected(self):
        with pytest.raises(SimulationError, match="subset"):
            register_channel("bad_letters", ("Q",))
        with pytest.raises(SimulationError, match="subset"):
            register_channel("empty_letters", ())


class TestBiasedPauliModel:
    def test_bias_validation(self):
        with pytest.raises(SimulationError):
            BiasedPauliModel(0.1, bias=(0.0, 0.0, 0.0))
        with pytest.raises(SimulationError):
            BiasedPauliModel(0.1, bias=(-1.0, 1.0, 1.0))
        with pytest.raises(SimulationError):
            BiasedPauliModel(0.1, bias=(1.0, 1.0))

    def test_phase_biased_emits_only_z(self, circuit, locations):
        model = BiasedPauliModel.phase_biased(0.6)
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(50):
            for fault in model.sample_faults(circuit, rng, locations):
                seen.update(set(fault.pauli.label()) - {"I"})
        assert seen == {"Z"}

    def test_bit_biased_emits_only_x(self, circuit, locations):
        model = BiasedPauliModel.bit_biased(0.6)
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(50):
            for fault in model.sample_faults(circuit, rng, locations):
                seen.update(set(fault.pauli.label()) - {"I"})
        assert seen == {"X"}

    def test_marginal_bias_respected(self, circuit, locations):
        # 90% Z / 10% X: per-qubit letters must follow the bias.
        model = BiasedPauliModel(0.8, bias=(1.0, 0.0, 9.0))
        rng = np.random.default_rng(6)
        letters = []
        for _ in range(400):
            for fault in model.sample_faults(circuit, rng, locations):
                letters.extend(c for c in fault.pauli.label()
                               if c != "I")
        z_share = letters.count("Z") / len(letters)
        assert 0.85 < z_share < 0.95

    def test_with_eta(self):
        model = BiasedPauliModel.with_eta(0.1, eta=0.5)
        # eta = 0.5 is the unbiased depolarizing ratio 1:1:1.
        assert model.bias == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        with pytest.raises(SimulationError):
            BiasedPauliModel.with_eta(0.1, eta=-1.0)

    def test_channel_registered_per_bias(self):
        model = BiasedPauliModel.phase_biased(0.1)
        assert model.channel == "pauli[Z]"
        assert channel_spec("pauli[Z]").letters == frozenset("Z")

    def test_stream_keys_distinct_per_model(self):
        a = BiasedPauliModel.phase_biased(0.1)
        b = BiasedPauliModel.bit_biased(0.1)
        c = BiasedPauliModel.phase_biased(0.2)
        keys = {a.stream_key(), b.stream_key(), c.stream_key()}
        assert len(keys) == 3
        assert all(len(key) == 4 for key in keys)
        # Same parameters -> same key (resumability).
        assert BiasedPauliModel.phase_biased(0.1).stream_key() \
            == a.stream_key()

    def test_structured_flags(self):
        model = BiasedPauliModel.phase_biased(0.1)
        assert model.structured is True
        assert model.samplable is True


class TestCorrelatedBurstModel:
    def test_parameter_validation(self):
        with pytest.raises(SimulationError):
            CorrelatedBurstModel(0.1, weight=0)
        with pytest.raises(SimulationError):
            CorrelatedBurstModel(0.1, weight=2, min_weight=3)
        with pytest.raises(SimulationError):
            CorrelatedBurstModel(0.1, weight=2, decay=0.0)
        with pytest.raises(SimulationError):
            CorrelatedBurstModel(0.1, weight=2, temporal_extent=-1)

    def test_fixed_weight_cluster(self, circuit):
        model = CorrelatedBurstModel.fixed(1.0, weight=3)
        rng = np.random.default_rng(0)
        loc = FaultLocation(kind="input", qubits=(1,), after_op=-1)
        faults = model.sample_faults(circuit, rng, [loc])
        assert len(faults) == 1
        pauli = faults[0].pauli
        struck = [q for q in range(circuit.num_qubits)
                  if pauli.kind_at(q) != "I"]
        assert struck == [1, 2, 3]
        assert set(pauli.label()) - {"I"} == {"X"}  # bit_flip default

    def test_cluster_clipped_at_register_edge(self, circuit):
        model = CorrelatedBurstModel.fixed(1.0, weight=4)
        rng = np.random.default_rng(0)
        top = circuit.num_qubits - 1
        loc = FaultLocation(kind="input", qubits=(top,), after_op=-1)
        faults = model.sample_faults(circuit, rng, [loc])
        struck = [q for q in range(circuit.num_qubits)
                  if faults[0].pauli.kind_at(q) != "I"]
        assert struck == [top]

    def test_weight_distribution_follows_decay(self, circuit):
        model = CorrelatedBurstModel(1.0, weight=3, decay=0.5)
        rng = np.random.default_rng(1)
        loc = FaultLocation(kind="input", qubits=(0,), after_op=-1)
        widths = []
        for _ in range(2000):
            fault = model.sample_faults(circuit, rng, [loc])[0]
            widths.append(sum(1 for q in range(circuit.num_qubits)
                              if fault.pauli.kind_at(q) != "I"))
        # P(w) ~ (1, 1/2, 1/4) / (7/4) = (4/7, 2/7, 1/7)
        share1 = widths.count(1) / len(widths)
        assert 0.52 < share1 < 0.62

    def test_temporal_extent_spreads_cluster(self, circuit):
        model = CorrelatedBurstModel.fixed(1.0, weight=3,
                                           temporal_extent=2)
        rng = np.random.default_rng(2)
        loc = FaultLocation(kind="gate", qubits=(0,), after_op=0)
        faults = model.sample_faults(circuit, rng, [loc])
        assert len(faults) == 3  # one fault per insertion point
        assert sorted(f.after_op for f in faults) == [0, 1, 2]

    def test_input_locations_keep_single_insertion(self, circuit):
        # Temporal smearing only applies after operations (after_op
        # >= 0); input-time bursts stay at -1.
        model = CorrelatedBurstModel.fixed(1.0, weight=2,
                                           temporal_extent=3)
        rng = np.random.default_rng(3)
        loc = FaultLocation(kind="input", qubits=(0,), after_op=-1)
        faults = model.sample_faults(circuit, rng, [loc])
        assert len(faults) == 1
        assert faults[0].after_op == -1


class TestCoherentOverRotationModel:
    def test_not_samplable(self, circuit, locations):
        model = CoherentOverRotationModel.uniform(0.2)
        assert model.samplable is False
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError, match="unravelling"):
            model.sample_faults(circuit, rng, locations)

    def test_engine_refuses_coherent_model(self, trivial):
        from repro.analysis import n_gadget_evaluator
        from repro.analysis.engine import run_monte_carlo

        gadget = build_n_gadget(trivial)
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(trivial, 0)}
        )
        evaluator = n_gadget_evaluator(gadget, trivial, 0)
        with pytest.raises(AnalysisError, match="sampling engine"):
            run_monte_carlo(gadget, initial, evaluator,
                            CoherentOverRotationModel.uniform(0.2),
                            trials=10, seed=1)

    def test_axis_validation(self):
        with pytest.raises(SimulationError, match="axis"):
            CoherentOverRotationModel.uniform(0.1, axis="Q")

    def test_exact_composition_matches_manual(self):
        theta = 0.37
        circuit = Circuit(1)
        circuit.add_gate(gates.H, 0)
        model = CoherentOverRotationModel({"H": ("Z", theta)})
        noisy = run_with_coherent_noise(circuit, model)
        expected = StateVector(1)
        expected.apply_gate(gates.H, (0,))
        expected.apply_gate(gates.rz(theta), (0,))
        assert abs(abs(np.vdot(noisy.amplitudes,
                               expected.amplitudes)) - 1.0) < 1e-12

    def test_unaffected_gate_kinds_are_clean(self):
        circuit = Circuit(2)
        circuit.add_gate(gates.H, 0)
        circuit.add_gate(gates.CNOT, 0, 1)
        model = CoherentOverRotationModel({"X": ("Z", 0.5)})
        noisy = run_with_coherent_noise(circuit, model)
        clean = StateVector(2)
        clean.apply_gate(gates.H, (0,))
        clean.apply_gate(gates.CNOT, (0, 1))
        assert abs(abs(np.vdot(noisy.amplitudes,
                               clean.amplitudes)) - 1.0) < 1e-12

    def test_twirled_probability(self):
        theta = 0.5
        model = CoherentOverRotationModel.uniform(theta, axis="X")
        expected = math.sin(theta / 2.0) ** 2
        assert model.effective_pauli_probability("CNOT") \
            == pytest.approx(expected)
        twirled = model.twirled()
        assert twirled.samplable and twirled.structured

    def test_twirled_sampling_strikes_axis_pauli(self, circuit,
                                                 locations):
        model = CoherentOverRotationModel.uniform(math.pi / 2,
                                                  axis="Y").twirled()
        rng = np.random.default_rng(7)
        letters = set()
        count = 0
        for _ in range(40):
            for fault in model.sample_faults(circuit, rng, locations):
                letters.update(set(fault.pauli.label()) - {"I"})
                count += 1
                assert fault.location.kind == "gate"
        assert letters == {"Y"}
        assert count > 0

    def test_twirled_expected_count(self, circuit, locations):
        theta = 0.6
        model = CoherentOverRotationModel.uniform(theta).twirled()
        probability = math.sin(theta / 2.0) ** 2
        touched = sum(len(loc.qubits) for loc in locations
                      if loc.kind == "gate")
        assert model.expected_fault_count(circuit, locations) \
            == pytest.approx(probability * touched)


class TestDriftingRateModel:
    def test_schedule_shapes(self):
        linear = RateSchedule.linear(0.0, 1.0)
        assert linear.rate(0.0) == 0.0
        assert linear.rate(0.5) == pytest.approx(0.5)
        assert linear.rate(1.0) == 1.0
        step = RateSchedule.step(0.1, 0.9, at=0.5)
        assert step.rate(0.49) == pytest.approx(0.1)
        assert step.rate(0.5) == pytest.approx(0.9)
        wave = RateSchedule.sinusoidal(0.5, 0.25, cycles=1.0)
        assert wave.rate(0.25) == pytest.approx(0.75)
        assert wave.rate(0.75) == pytest.approx(0.25)

    def test_rates_clipped_to_unit_interval(self):
        wild = RateSchedule.sinusoidal(0.9, 0.5)
        assert wild.rate(0.25) == 1.0
        falling = RateSchedule.linear(0.2, -1.0)
        assert falling.rate(1.0) == 0.0

    def test_unknown_kind_raises(self):
        with pytest.raises(SimulationError, match="schedule"):
            RateSchedule("warp", (0.1,)).rate(0.0)

    def test_probability_at_uses_location_time(self, circuit):
        model = DriftingRateModel(RateSchedule.linear(0.0, 1.0))
        num_ops = len(circuit.operations)
        start = FaultLocation(kind="input", qubits=(0,), after_op=-1)
        end = FaultLocation(kind="gate", qubits=(0,),
                            after_op=num_ops - 1)
        assert model.probability_at(start, num_ops) == 0.0
        assert model.probability_at(end, num_ops) == 1.0

    def test_zero_rate_region_never_strikes(self, circuit, locations):
        model = DriftingRateModel(RateSchedule.step(0.0, 1.0, at=0.99))
        rng = np.random.default_rng(11)
        for _ in range(20):
            for fault in model.sample_faults(circuit, rng, locations):
                # Only the very last operations can be struck.
                assert fault.after_op >= 0

    def test_expected_count_integrates_schedule(self, circuit,
                                                locations):
        model = DriftingRateModel(RateSchedule.linear(0.5, 0.5))
        flat = NoiseModel.uniform(0.5)
        assert model.expected_fault_count(circuit, locations) \
            == pytest.approx(flat.expected_fault_count(
                circuit, locations))


class TestCrosstalkModel:
    def test_spectator_faults_marked(self, circuit, locations):
        model = CrosstalkModel(0.0, p_spectator=1.0)
        rng = np.random.default_rng(0)
        faults = model.sample_faults(circuit, rng, locations)
        assert faults
        for fault in faults:
            assert fault.location.kind == "crosstalk"
            assert set(fault.pauli.label()) - {"I"} == {"X"}

    def test_spectators_are_neighbors_not_operands(self, circuit,
                                                   locations):
        model = CrosstalkModel(0.0, p_spectator=1.0)
        rng = np.random.default_rng(1)
        by_op = {loc.after_op: loc for loc in locations
                 if loc.kind == "gate"}
        for fault in model.sample_faults(circuit, rng, locations):
            gate_loc = by_op[fault.after_op]
            spectator = fault.location.qubits[0]
            assert spectator not in gate_loc.qubits
            assert any(abs(spectator - operand) == 1
                       for operand in gate_loc.qubits)

    def test_zero_spectator_matches_base_model(self, circuit,
                                               locations):
        model = CrosstalkModel(0.3, p_spectator=0.0)
        base = NoiseModel.uniform(0.3)
        a = model.sample_faults(circuit, np.random.default_rng(5),
                                locations)
        b = base.sample_faults(circuit, np.random.default_rng(5),
                               locations)
        assert [(f.pauli.label(), f.after_op) for f in a] \
            == [(f.pauli.label(), f.after_op) for f in b]

    def test_custom_coupling_map(self, circuit, locations):
        # Empty adjacency: no spectators anywhere.
        model = CrosstalkModel(0.0, p_spectator=1.0, coupling={})
        rng = np.random.default_rng(2)
        assert model.sample_faults(circuit, rng, locations) == []

    def test_expected_count_includes_spectators(self, circuit,
                                                locations):
        model = CrosstalkModel(0.0, p_spectator=0.5)
        coupled = sum(1 for loc in locations
                      if loc.kind == "gate" and len(loc.qubits) >= 2)
        assert model.expected_fault_count(circuit, locations) \
            == pytest.approx(0.5 * coupled)

    def test_probability_validation(self):
        with pytest.raises(SimulationError):
            CrosstalkModel(0.1, p_spectator=1.5)


class TestFingerprints:
    def test_all_models_fingerprint_and_repr(self):
        models = [
            BiasedPauliModel.phase_biased(0.1),
            CorrelatedBurstModel(0.1, weight=2),
            CoherentOverRotationModel.uniform(0.2),
            CoherentOverRotationModel.uniform(0.2).twirled(),
            DriftingRateModel(RateSchedule.linear(0.0, 0.1)),
            CrosstalkModel(0.1, p_spectator=0.05),
        ]
        prints = [m.fingerprint() for m in models]
        assert len(set(prints)) == len(prints)
        for model, print_ in zip(models, prints):
            hash(print_)  # must be hashable (cache / journal keys)
            assert repr(model)

    def test_equal_models_share_fingerprint(self):
        a = CorrelatedBurstModel(0.1, weight=3, decay=0.25)
        b = CorrelatedBurstModel(0.1, weight=3, decay=0.25)
        assert a.fingerprint() == b.fingerprint()
        assert a.stream_key() == b.stream_key()
