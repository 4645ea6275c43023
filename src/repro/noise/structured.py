"""Structured noise: correlated, biased, coherent and drifting models.

The paper's guarantees are proved against independent Pauli faults,
but its central constructions make *structural* claims — the classical
ancilla only admits bit errors so phase noise flows through harmlessly
(Eq. 1 / Fig. 1), and the 2k+1 repetition plus majority vote survives
any <= k bit errors — that are only meaningful if they hold (or fail
predictably) under noise the iid model cannot express.  This module
supplies that adversarial/realistic family, behind the existing
:class:`~repro.noise.model.NoiseModel` interface so every sampler,
engine entry point and checkpointed sweep takes them unchanged:

* :class:`CorrelatedBurstModel` — spatially/temporally clustered
  multi-qubit Pauli bursts with tunable weight and decay (control
  glitches, RF spikes on an NMR ensemble);
* :class:`BiasedPauliModel` — arbitrary X:Y:Z bias, including the
  fully phase-dominated regime the classical ancilla is supposed to
  shrug off;
* :class:`CoherentOverRotationModel` — systematic unitary
  over-rotation per gate kind.  Not Pauli-expressible: composed
  exactly on the state-vector/sparse/density-matrix backends (see
  :func:`repro.noise.injection.run_with_coherent_noise`), or
  stochastically approximated via :meth:`~CoherentOverRotationModel.
  twirled`;
* :class:`DriftingRateModel` — time-dependent p(t) schedules (linear
  drift, sinusoidal, step), typical of slowly decalibrating hardware;
* :class:`CrosstalkModel` — spectator errors on the neighbors of
  coupled-gate operands.

Every structured model carries a :meth:`~repro.noise.model.NoiseModel.
fingerprint` and derives a non-empty :meth:`~repro.noise.model.
NoiseModel.stream_key` from it, so the engine's chunked SeedSequence
streams differ per model while the baseline depolarizing / bit-flip /
phase-flip streams stay byte-identical to their historical values.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.circuits.pauli import PauliString
from repro.exceptions import SimulationError
from repro.noise.locations import FaultLocation, enumerate_locations
from repro.noise.model import (
    NoiseModel,
    SampledFault,
    channel_spec,
    register_channel,
)

_LETTER_ORDER = "XYZ"


def _stream_key_from(fingerprint: Tuple) -> Tuple[int, ...]:
    """Stable 128-bit spawn key derived from a model fingerprint."""
    digest = hashlib.sha256(repr(fingerprint).encode()).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "little")
                 for i in range(0, 16, 4))


class StructuredNoiseModel(NoiseModel):
    """Base class for the structured family.

    Subclasses must implement :meth:`fingerprint`; the engine keys its
    per-model RNG streams and checkpoint fingerprints off it.
    """

    structured = True

    def fingerprint(self) -> Tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    def stream_key(self) -> Tuple[int, ...]:
        return _stream_key_from(self.fingerprint())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.fingerprint()[1:]!r}"


# ---------------------------------------------------------------------------
# Biased Pauli noise
# ---------------------------------------------------------------------------

class BiasedPauliModel(StructuredNoiseModel):
    """Per-location Pauli noise with an arbitrary X:Y:Z bias.

    Args:
        p_gate / p_input / p_delay: strike probabilities, as in the
            base model.
        bias: relative (X, Y, Z) weights; need not be normalised.
            Zero entries remove the species entirely — ``(0, 0, 1)``
            is the fully phase-dominated regime of the paper's
            classical-ancilla immunity claim.

    Multi-qubit (gate) locations draw each choice with probability
    proportional to the product of its per-qubit species weights, so
    the marginal per-qubit statistics follow the bias exactly.
    """

    def __init__(self, p_gate: float,
                 bias: Sequence[float] = (1.0, 1.0, 1.0),
                 p_input: Optional[float] = None,
                 p_delay: Optional[float] = None) -> None:
        bias = tuple(float(b) for b in bias)
        if len(bias) != 3 or any(b < 0 for b in bias) or sum(bias) <= 0:
            raise SimulationError(
                f"bias must be three non-negative weights with a "
                f"positive sum, got {bias!r}"
            )
        total = sum(bias)
        self.bias = tuple(b / total for b in bias)
        letters = tuple(letter for letter, share
                        in zip(_LETTER_ORDER, self.bias) if share > 0)
        channel = f"pauli[{''.join(letters)}]"
        register_channel(channel, letters)
        super().__init__(p_gate, p_input=p_input, p_delay=p_delay,
                         channel=channel)
        self._share = {letter: share for letter, share
                       in zip(_LETTER_ORDER, self.bias) if share > 0}

    @classmethod
    def phase_biased(cls, p: float, **kwargs) -> "BiasedPauliModel":
        """Z-only noise: the regime the classical ancilla must shrug
        off (paper Sec. 4.1 — it only ever serves as a control)."""
        return cls(p, bias=(0.0, 0.0, 1.0), **kwargs)

    @classmethod
    def bit_biased(cls, p: float, **kwargs) -> "BiasedPauliModel":
        """X-only noise: everything the repetition code must fight."""
        return cls(p, bias=(1.0, 0.0, 0.0), **kwargs)

    @classmethod
    def with_eta(cls, p: float, eta: float, **kwargs
                 ) -> "BiasedPauliModel":
        """Standard biased-noise parametrisation: eta = p_Z / (p_X +
        p_Y), with the X and Y shares equal.  eta = 0.5 recovers the
        unbiased depolarizing ratios; large eta approaches the
        phase-dominated regime."""
        if eta < 0:
            raise SimulationError(f"eta must be >= 0, got {eta}")
        return cls(p, bias=(1.0, 1.0, 2.0 * eta), **kwargs)

    def fault_weights(self, location: FaultLocation,
                      choices: Sequence[PauliString]
                      ) -> Optional[np.ndarray]:
        weights = np.empty(len(choices), dtype=float)
        for index, choice in enumerate(choices):
            weight = 1.0
            for qubit in location.qubits:
                kind = choice.kind_at(qubit)
                if kind != "I":
                    weight *= self._share[kind]
            weights[index] = weight
        total = weights.sum()
        if total <= 0:  # pragma: no cover - bias>0 guarantees mass
            return None
        return weights / total

    def fingerprint(self) -> Tuple:
        return ("biased", float(self.p_gate), float(self.p_input),
                float(self.p_delay), self.bias)


# ---------------------------------------------------------------------------
# Correlated bursts
# ---------------------------------------------------------------------------

class CorrelatedBurstModel(StructuredNoiseModel):
    """Spatially (and optionally temporally) clustered Pauli bursts.

    Each location can *trigger* a burst with its usual strike
    probability; a triggered burst hits a contiguous cluster of
    qubits anchored at the location instead of the location alone:

    * the cluster weight w is drawn from a truncated geometric law,
      P(w) proportional to ``decay**(w - 1)`` for ``min_weight <= w <=
      weight`` (``decay=1`` makes all weights equally likely;
      ``min_weight == weight`` forces a fixed weight — the
      certification harness uses this to find the exact break point of
      the 2k+1 majority vote);
    * the cluster occupies qubits ``anchor .. anchor + w - 1`` (the
      location's first qubit plus its upward neighbors, clipped at the
      register edge — the 1-D chain picture of the paper's NMR
      setting);
    * each cluster qubit receives an independent letter from the
      channel alphabet;
    * with ``temporal_extent > 0`` the cluster is smeared over time:
      cluster qubit i lands after operation ``after_op + (i mod
      (temporal_extent + 1))`` instead of all at once.
    """

    def __init__(self, p_burst: float,
                 weight: int = 2,
                 decay: float = 0.5,
                 min_weight: int = 1,
                 temporal_extent: int = 0,
                 channel: str = "bit_flip",
                 p_input: Optional[float] = None,
                 p_delay: Optional[float] = None) -> None:
        if weight < 1 or min_weight < 1 or min_weight > weight:
            raise SimulationError(
                f"need 1 <= min_weight <= weight, got "
                f"min_weight={min_weight}, weight={weight}"
            )
        if not 0.0 < decay <= 1.0:
            raise SimulationError(
                f"decay must be in (0, 1], got {decay}"
            )
        if temporal_extent < 0:
            raise SimulationError(
                f"temporal_extent must be >= 0, got {temporal_extent}"
            )
        super().__init__(p_burst, p_input=p_input, p_delay=p_delay,
                         channel=channel)
        self.weight = int(weight)
        self.min_weight = int(min_weight)
        self.decay = float(decay)
        self.temporal_extent = int(temporal_extent)
        spec = channel_spec(channel)
        self._letters = tuple(sorted(spec.letters)) \
            if spec.letters is not None else tuple(_LETTER_ORDER)
        widths = np.arange(self.min_weight, self.weight + 1)
        mass = self.decay ** (widths - self.min_weight)
        self._weight_values = widths
        self._weight_probs = mass / mass.sum()

    @classmethod
    def fixed(cls, p_burst: float, weight: int,
              **kwargs) -> "CorrelatedBurstModel":
        """Every burst has exactly ``weight`` qubits (edge clipping
        aside) — the adversarial probe for radius claims."""
        kwargs.setdefault("min_weight", weight)
        return cls(p_burst, weight=weight, **kwargs)

    def _draw_weight(self, rng: np.random.Generator) -> int:
        if self.min_weight == self.weight:
            return self.weight
        return int(rng.choice(self._weight_values,
                              p=self._weight_probs))

    def _draw_letter(self, rng: np.random.Generator) -> str:
        if len(self._letters) == 1:
            return self._letters[0]
        return self._letters[int(rng.integers(0, len(self._letters)))]

    def sample_faults(self, circuit: Circuit,
                      rng: np.random.Generator,
                      locations: Optional[Sequence[FaultLocation]] = None
                      ) -> List[SampledFault]:
        if locations is None:
            locations = enumerate_locations(circuit)
        last_op = len(circuit.operations) - 1
        faults: List[SampledFault] = []
        for location in locations:
            probability = self.probability_for(location)
            if probability <= 0.0 or rng.random() >= probability:
                continue
            width = self._draw_weight(rng)
            anchor = location.qubits[0]
            cluster = [anchor + offset for offset in range(width)
                       if anchor + offset < circuit.num_qubits]
            letters = [self._draw_letter(rng) for _ in cluster]
            window = self.temporal_extent + 1
            by_op: Dict[int, List[Tuple[int, str]]] = {}
            for index, (qubit, letter) in enumerate(zip(cluster,
                                                        letters)):
                after_op = location.after_op
                if self.temporal_extent and after_op >= 0:
                    after_op = min(after_op + index % window, last_op)
                by_op.setdefault(after_op, []).append((qubit, letter))
            for after_op in sorted(by_op):
                label = ["I"] * circuit.num_qubits
                for qubit, letter in by_op[after_op]:
                    label[qubit] = letter
                faults.append(SampledFault(
                    pauli=PauliString.from_label("".join(label)),
                    after_op=after_op,
                    location=location,
                ))
        return faults

    def fingerprint(self) -> Tuple:
        return ("burst", float(self.p_gate), float(self.p_input),
                float(self.p_delay), self.weight, self.min_weight,
                self.decay, self.temporal_extent, self.channel)


# ---------------------------------------------------------------------------
# Coherent over-rotation
# ---------------------------------------------------------------------------

#: Rotation-gate factories per axis letter.
_ROTATIONS = {"X": gates.rx, "Y": gates.ry, "Z": gates.rz}


class CoherentOverRotationModel(StructuredNoiseModel):
    """Systematic unitary over-rotation per gate kind.

    A miscalibrated pulse does not flip a coin: after every
    application of an affected gate kind, each touched qubit is
    over-rotated by a *fixed* angle about a fixed axis.  The error is
    unitary, so it is not expressible as a stochastic Pauli model and
    cannot feed the sampling engine (``samplable`` is False and
    :meth:`sample_faults` raises).  Use instead:

    * :func:`repro.noise.injection.run_with_coherent_noise` — exact
      composition on the state-vector / sparse backends (pure states
      stay pure under a fixed unitary), or :meth:`error_gate` applied
      to a :class:`~repro.simulators.density_matrix.DensityMatrix`;
    * :meth:`twirled` — the Pauli twirl of each over-rotation
      (probability ``sin^2(theta/2)`` of the axis Pauli per touched
      qubit), which IS samplable and bounds the incoherent part.

    Args:
        rotations: gate name -> (axis, angle) systematic error.
        default: (axis, angle) applied to gate kinds not listed
            (None = unlisted kinds are clean).
    """

    samplable = False

    def __init__(self,
                 rotations: Optional[Dict[str, Tuple[str, float]]] = None,
                 default: Optional[Tuple[str, float]] = None) -> None:
        super().__init__(0.0)
        self.rotations: Dict[str, Tuple[str, float]] = {}
        for name, (axis, angle) in (rotations or {}).items():
            self.rotations[name] = (self._check_axis(axis), float(angle))
        if default is not None:
            default = (self._check_axis(default[0]), float(default[1]))
        self.default = default

    @staticmethod
    def _check_axis(axis: str) -> str:
        if axis not in _ROTATIONS:
            raise SimulationError(
                f"over-rotation axis must be X, Y or Z, got {axis!r}"
            )
        return axis

    @classmethod
    def uniform(cls, angle: float, axis: str = "Z"
                ) -> "CoherentOverRotationModel":
        """The same over-rotation after every gate of every kind."""
        return cls(default=(axis, angle))

    def rotation_for(self, gate_name: str
                     ) -> Optional[Tuple[str, float]]:
        rotation = self.rotations.get(gate_name, self.default)
        if rotation is None or abs(rotation[1]) <= 0.0:
            return None
        return rotation

    def error_gate(self, gate_name: str) -> Optional[gates.Gate]:
        """The single-qubit over-rotation unitary for a gate kind."""
        rotation = self.rotation_for(gate_name)
        if rotation is None:
            return None
        axis, angle = rotation
        return _ROTATIONS[axis](angle)

    def effective_pauli_probability(self, gate_name: str) -> float:
        """The Pauli-twirl strike probability sin^2(theta/2)."""
        rotation = self.rotation_for(gate_name)
        if rotation is None:
            return 0.0
        return math.sin(rotation[1] / 2.0) ** 2

    def twirled(self) -> "TwirledOverRotationModel":
        """Stochastic (Pauli-twirl) approximation, engine-samplable."""
        return TwirledOverRotationModel(self)

    def sample_faults(self, circuit, rng, locations=None):
        raise SimulationError(
            "coherent over-rotation is a unitary error with no "
            "stochastic Pauli unravelling; compose it exactly with "
            "repro.noise.injection.run_with_coherent_noise or sample "
            "its Pauli twirl via .twirled()"
        )

    def expected_fault_count(self, circuit, locations=None) -> float:
        return 0.0

    def fingerprint(self) -> Tuple:
        return ("coherent", tuple(sorted(self.rotations.items())),
                self.default)


class TwirledOverRotationModel(StructuredNoiseModel):
    """Pauli twirl of a :class:`CoherentOverRotationModel`.

    Each touched qubit of each affected gate independently receives
    the rotation-axis Pauli with probability ``sin^2(theta/2)`` — the
    standard twirl that keeps the channel's incoherent weight while
    discarding the coherent (worst-case-amplifying) part.  Comparing
    this model's failure rates against the exact coherent composition
    measures exactly how much the coherence costs.
    """

    def __init__(self, coherent: CoherentOverRotationModel) -> None:
        super().__init__(0.0)
        self.coherent = coherent

    def sample_faults(self, circuit: Circuit,
                      rng: np.random.Generator,
                      locations: Optional[Sequence[FaultLocation]] = None
                      ) -> List[SampledFault]:
        if locations is None:
            locations = enumerate_locations(circuit)
        faults: List[SampledFault] = []
        for location in locations:
            if location.kind != "gate":
                continue
            op = circuit.operations[location.after_op]
            rotation = self.coherent.rotation_for(op.gate.name)
            if rotation is None:
                continue
            axis, angle = rotation
            probability = math.sin(angle / 2.0) ** 2
            if probability <= 0.0:
                continue
            for qubit in location.qubits:
                if rng.random() >= probability:
                    continue
                faults.append(SampledFault(
                    pauli=PauliString.single(circuit.num_qubits, qubit,
                                             axis),
                    after_op=location.after_op,
                    location=location,
                ))
        return faults

    def expected_fault_count(self, circuit: Circuit,
                             locations: Optional[Sequence[FaultLocation]]
                             = None) -> float:
        if locations is None:
            locations = enumerate_locations(circuit)
        total = 0.0
        for location in locations:
            if location.kind != "gate":
                continue
            op = circuit.operations[location.after_op]
            probability = self.coherent.effective_pauli_probability(
                op.gate.name)
            total += probability * len(location.qubits)
        return total

    def fingerprint(self) -> Tuple:
        return ("twirled",) + self.coherent.fingerprint()[1:]


# ---------------------------------------------------------------------------
# Drifting error rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateSchedule:
    """A declarative p(t) schedule over normalised circuit time.

    t runs from 0 (circuit input) to 1 (after the last operation).
    Declarative (kind + params) rather than a callable so schedules
    fingerprint stably into checkpoint identities and seed streams.
    """

    kind: str
    params: Tuple[float, ...]

    @classmethod
    def linear(cls, p_start: float, p_end: float) -> "RateSchedule":
        """Linear decalibration drift from p_start to p_end."""
        return cls("linear", (float(p_start), float(p_end)))

    @classmethod
    def sinusoidal(cls, mean: float, amplitude: float,
                   cycles: float = 1.0) -> "RateSchedule":
        """Periodic modulation: mean + amplitude*sin(2 pi cycles t)."""
        return cls("sinusoidal",
                   (float(mean), float(amplitude), float(cycles)))

    @classmethod
    def step(cls, p_before: float, p_after: float,
             at: float = 0.5) -> "RateSchedule":
        """Abrupt rate change at normalised time ``at`` (an
        environment event mid-run)."""
        return cls("step", (float(p_before), float(p_after), float(at)))

    def rate(self, t: float) -> float:
        if self.kind == "linear":
            p_start, p_end = self.params
            value = p_start + (p_end - p_start) * t
        elif self.kind == "sinusoidal":
            mean, amplitude, cycles = self.params
            value = mean + amplitude * math.sin(
                2.0 * math.pi * cycles * t)
        elif self.kind == "step":
            p_before, p_after, at = self.params
            value = p_before if t < at else p_after
        else:
            raise SimulationError(
                f"unknown schedule kind {self.kind!r}"
            )
        return min(1.0, max(0.0, value))

    def mean_rate(self, samples: int = 101) -> float:
        grid = np.linspace(0.0, 1.0, samples)
        return float(np.mean([self.rate(t) for t in grid]))


class DriftingRateModel(StructuredNoiseModel):
    """Time-dependent strike probability p(t) over the circuit.

    Location time is its ``after_op`` normalised by the operation
    count: input locations sit at t = 0, the last gate at t = 1.
    :meth:`probability_for` (which cannot see time) reports the
    schedule's mean rate; the sampler itself uses the exact p(t).
    """

    def __init__(self, schedule: RateSchedule,
                 channel: str = "depolarizing") -> None:
        self.schedule = schedule
        super().__init__(schedule.mean_rate(), channel=channel)

    def probability_at(self, location: FaultLocation,
                       num_operations: int) -> float:
        if num_operations <= 0 or location.after_op < 0:
            t = 0.0
        else:
            t = (location.after_op + 1) / num_operations
        return self.schedule.rate(t)

    def sample_faults(self, circuit: Circuit,
                      rng: np.random.Generator,
                      locations: Optional[Sequence[FaultLocation]] = None
                      ) -> List[SampledFault]:
        if locations is None:
            locations = enumerate_locations(circuit)
        num_operations = len(circuit.operations)
        faults: List[SampledFault] = []
        for location in locations:
            probability = self.probability_at(location, num_operations)
            if probability <= 0.0 or rng.random() >= probability:
                continue
            choices = self.fault_choices(location, circuit.num_qubits)
            if not choices:
                continue
            pauli = choices[int(rng.integers(0, len(choices)))]
            faults.append(SampledFault(
                pauli=pauli, after_op=location.after_op,
                location=location,
            ))
        return faults

    def expected_fault_count(self, circuit: Circuit,
                             locations: Optional[Sequence[FaultLocation]]
                             = None) -> float:
        if locations is None:
            locations = enumerate_locations(circuit)
        num_operations = len(circuit.operations)
        return float(sum(self.probability_at(loc, num_operations)
                         for loc in locations))

    def fingerprint(self) -> Tuple:
        return ("drift", self.schedule.kind, self.schedule.params,
                self.channel)


# ---------------------------------------------------------------------------
# Crosstalk
# ---------------------------------------------------------------------------

class CrosstalkModel(StructuredNoiseModel):
    """Independent noise plus spectator errors on coupled-gate
    neighbors.

    On top of the usual iid per-location faults at ``p``, every
    multi-qubit gate throws an error onto one of its operands'
    neighbors with probability ``p_spectator`` — residual coupling
    leaking onto qubits the iid model charges nothing.

    Args:
        p: iid strike probability (as :class:`NoiseModel`).
        p_spectator: probability a coupled gate disturbs one neighbor.
        coupling: adjacency map qubit -> neighbors (default: linear
            chain q-1, q+1 — the paper's NMR spin-chain picture).
        channel: alphabet for the iid faults.
        spectator_channel: alphabet for spectator errors (default
            bit_flip: ZZ-coupling crosstalk flips spectators in the
            rotating frame).
    """

    def __init__(self, p: float,
                 p_spectator: float,
                 coupling: Optional[Dict[int, Sequence[int]]] = None,
                 channel: str = "depolarizing",
                 spectator_channel: str = "bit_flip",
                 p_input: Optional[float] = None,
                 p_delay: Optional[float] = None) -> None:
        if not 0.0 <= p_spectator <= 1.0:
            raise SimulationError(
                f"probability {p_spectator} outside [0,1]"
            )
        super().__init__(p, p_input=p_input, p_delay=p_delay,
                         channel=channel)
        self.p_spectator = float(p_spectator)
        self.spectator_channel = spectator_channel
        spec = channel_spec(spectator_channel)
        self._spectator_letters = tuple(sorted(spec.letters)) \
            if spec.letters is not None else tuple(_LETTER_ORDER)
        self.coupling = None if coupling is None else {
            int(q): tuple(sorted(int(n) for n in neighbors))
            for q, neighbors in coupling.items()
        }

    def _neighbors(self, qubit: int, num_qubits: int) -> List[int]:
        if self.coupling is not None:
            return [q for q in self.coupling.get(qubit, ())
                    if 0 <= q < num_qubits]
        return [q for q in (qubit - 1, qubit + 1)
                if 0 <= q < num_qubits]

    def _spectators(self, location: FaultLocation,
                    num_qubits: int) -> List[int]:
        return sorted({
            q for operand in location.qubits
            for q in self._neighbors(operand, num_qubits)
        } - set(location.qubits))

    def sample_faults(self, circuit: Circuit,
                      rng: np.random.Generator,
                      locations: Optional[Sequence[FaultLocation]] = None
                      ) -> List[SampledFault]:
        if locations is None:
            locations = enumerate_locations(circuit)
        faults = super().sample_faults(circuit, rng, locations)
        if self.p_spectator <= 0.0:
            return faults
        for location in locations:
            if location.kind != "gate" or len(location.qubits) < 2:
                continue
            if rng.random() >= self.p_spectator:
                continue
            spectators = self._spectators(location, circuit.num_qubits)
            if not spectators:
                continue
            spectator = spectators[int(rng.integers(0, len(spectators)))]
            if len(self._spectator_letters) == 1:
                letter = self._spectator_letters[0]
            else:
                letter = self._spectator_letters[
                    int(rng.integers(0, len(self._spectator_letters)))]
            faults.append(SampledFault(
                pauli=PauliString.single(circuit.num_qubits, spectator,
                                        letter),
                after_op=location.after_op,
                location=FaultLocation(
                    kind="crosstalk", qubits=(spectator,),
                    after_op=location.after_op,
                    detail=f"crosstalk q{spectator}<-{location.detail}",
                ),
            ))
        return faults

    def expected_fault_count(self, circuit: Circuit,
                             locations: Optional[Sequence[FaultLocation]]
                             = None) -> float:
        if locations is None:
            locations = enumerate_locations(circuit)
        locations = list(locations)
        base = super().expected_fault_count(circuit, locations)
        coupled = sum(
            1 for loc in locations
            if loc.kind == "gate" and len(loc.qubits) >= 2
            and self._spectators(loc, circuit.num_qubits)
        )
        return base + self.p_spectator * coupled

    def fingerprint(self) -> Tuple:
        coupling = None if self.coupling is None else \
            tuple(sorted(self.coupling.items()))
        return ("crosstalk", float(self.p_gate), float(self.p_input),
                float(self.p_delay), self.p_spectator, self.channel,
                self.spectator_channel, coupling)
