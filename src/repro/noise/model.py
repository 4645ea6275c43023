"""Stochastic noise models over fault locations.

A :class:`NoiseModel` assigns an error probability to each location
kind (gate / input / delay line — the paper's three) and a channel
describing what a fault looks like when it strikes (uniform
depolarizing by default, or restricted bit-flip / phase-flip channels
for the ablation studies that separate the two error species the
paper treats so differently).

Channels live in an open registry (:func:`register_channel`): the
structured-noise models of :mod:`repro.noise.structured` and the
verify fuzz generators add restricted channels without editing this
module.  A channel is a named restriction of the per-qubit Pauli
alphabet; everything else about a model (probabilities, correlations,
weights) belongs to the model, not the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.pauli import PauliString
from repro.exceptions import SimulationError
from repro.noise.locations import (
    FaultLocation,
    channel_paulis,
    enumerate_locations,
)

_PAULI_LETTERS = frozenset("XYZ")


@dataclass(frozen=True)
class ChannelSpec:
    """One registered channel: a named per-qubit Pauli restriction.

    Attributes:
        name: registry key (what ``NoiseModel(channel=...)`` takes).
        letters: allowed non-identity Pauli letters; ``None`` means the
            full X/Y/Z alphabet (depolarizing-style).
    """

    name: str
    letters: Optional[frozenset] = None

    def allows(self, label: str) -> bool:
        """Whether a (possibly multi-qubit) Pauli label fits here."""
        if self.letters is None:
            return True
        return not (set(label) - ({"I"} | self.letters))


_CHANNEL_REGISTRY: Dict[str, ChannelSpec] = {}


def register_channel(name: str,
                     letters: Optional[Sequence[str]] = None,
                     overwrite: bool = False) -> ChannelSpec:
    """Register a channel so any :class:`NoiseModel` can use it.

    Args:
        name: registry key.
        letters: allowed non-identity Pauli letters (subset of XYZ);
            ``None`` allows all three.
        overwrite: allow replacing an existing registration (identical
            re-registration is always allowed — structured models
            register their channels idempotently on construction).
    """
    if letters is not None:
        letter_set = frozenset(letters)
        if not letter_set or letter_set - _PAULI_LETTERS:
            raise SimulationError(
                f"channel {name!r}: letters must be a non-empty subset "
                f"of X/Y/Z, got {sorted(letters)!r}"
            )
    else:
        letter_set = None
    spec = ChannelSpec(name=name, letters=letter_set)
    existing = _CHANNEL_REGISTRY.get(name)
    if existing is not None and existing != spec and not overwrite:
        raise SimulationError(
            f"channel {name!r} is already registered with different "
            f"letters; pass overwrite=True to replace it"
        )
    _CHANNEL_REGISTRY[name] = spec
    return spec


def channel_spec(name: str) -> ChannelSpec:
    """Look up a registered channel, with a helpful failure message."""
    try:
        return _CHANNEL_REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown channel {name!r}; registered channels: "
            f"{channel_names()}"
        ) from None


def channel_names() -> Tuple[str, ...]:
    """All registered channel names, registration order."""
    return tuple(_CHANNEL_REGISTRY)


# The paper's three ablation channels, always present.
register_channel("depolarizing", None)
register_channel("bit_flip", ("X",))
register_channel("phase_flip", ("Z",))

#: Built-in channel names (kept for backwards compatibility; the full
#: set, including registered extensions, is :func:`channel_names`).
CHANNELS = ("depolarizing", "bit_flip", "phase_flip")


@dataclass(frozen=True)
class SampledFault:
    """One fault drawn by the noise model."""

    pauli: PauliString
    after_op: int
    location: FaultLocation


class NoiseModel:
    """Per-location stochastic Pauli noise.

    Args:
        p_gate: probability that a gate application is faulty.
        p_input: probability of an error on each circuit input qubit
            (None copies p_gate).
        p_delay: probability of an error per delay-line location
            (None copies p_gate).
        channel: any registered channel name — 'depolarizing' (uniform
            over non-identity Paulis), 'bit_flip' (X only),
            'phase_flip' (Z only), or an extension added through
            :func:`register_channel`.
    """

    #: Structured subclasses (correlated/biased/drifting models) set
    #: this True; the engine then samples through the model instead of
    #: the vectorised iid path.
    structured = False
    #: False for models with no stochastic Pauli unravelling (coherent
    #: over-rotations); those cannot feed the sampling engine.
    samplable = True

    def __init__(self, p_gate: float,
                 p_input: Optional[float] = None,
                 p_delay: Optional[float] = None,
                 channel: str = "depolarizing") -> None:
        for value in (p_gate, p_input, p_delay):
            if value is not None and not 0.0 <= value <= 1.0:
                raise SimulationError(f"probability {value} outside [0,1]")
        channel_spec(channel)  # validate against the registry
        self.p_gate = p_gate
        self.p_input = p_gate if p_input is None else p_input
        self.p_delay = p_gate if p_delay is None else p_delay
        self.channel = channel

    @classmethod
    def uniform(cls, p: float, channel: str = "depolarizing") -> "NoiseModel":
        """Same probability at every location — the paper's model."""
        return cls(p_gate=p, p_input=p, p_delay=p, channel=channel)

    def probability_for(self, location: FaultLocation) -> float:
        if location.kind == "gate":
            return self.p_gate
        if location.kind == "input":
            return self.p_input
        return self.p_delay

    def fault_choices(self, location: FaultLocation,
                      num_qubits: int) -> List[PauliString]:
        """The Pauli faults this channel can place at a location."""
        qubits = list(location.qubits)
        return [local.embedded(num_qubits, qubits) for local in
                channel_paulis(len(qubits), self.channel)]

    def fault_weights(self, location: FaultLocation,
                      choices: Sequence[PauliString]
                      ) -> Optional[np.ndarray]:
        """Relative strike weights over ``choices`` (None = uniform).

        The base model is uniform and returns ``None``, which keeps
        the historical RNG stream (a single ``rng.integers`` draw)
        byte-identical; biased subclasses return a probability vector
        and the sampler switches to a weighted draw.
        """
        return None

    def fingerprint(self) -> Tuple:
        """Stable, hashable description of the model.

        Used for checkpoint-run identity and (for structured models)
        to derive the :meth:`stream_key` that separates their RNG
        streams from the baseline ones.
        """
        return ("iid", float(self.p_gate), float(self.p_input),
                float(self.p_delay), self.channel)

    def stream_key(self) -> Tuple[int, ...]:
        """SeedSequence spawn key for the engine's chunked streams.

        Baseline models return the empty tuple — the engine then seeds
        ``SeedSequence(seed)`` exactly as it always has, keeping
        historical seeded results byte-identical.  Structured models
        derive a non-empty key from their fingerprint so two different
        models never share a fault stream for the same seed.
        """
        return ()

    def sample_faults(self, circuit: Circuit,
                      rng: np.random.Generator,
                      locations: Optional[Sequence[FaultLocation]] = None
                      ) -> List[SampledFault]:
        """Draw the fault set for one Monte-Carlo run of the circuit."""
        if locations is None:
            locations = enumerate_locations(circuit)
        faults: List[SampledFault] = []
        for location in locations:
            probability = self.probability_for(location)
            if probability <= 0.0 or rng.random() >= probability:
                continue
            choices = self.fault_choices(location, circuit.num_qubits)
            if not choices:
                continue
            weights = self.fault_weights(location, choices)
            if weights is None:
                pauli = choices[int(rng.integers(0, len(choices)))]
            else:
                pauli = choices[int(rng.choice(len(choices), p=weights))]
            faults.append(SampledFault(
                pauli=pauli, after_op=location.after_op, location=location,
            ))
        return faults

    def expected_fault_count(self, circuit: Circuit,
                             locations: Optional[Sequence[FaultLocation]]
                             = None) -> float:
        """Mean number of faults per run (the paper's Np figure)."""
        if locations is None:
            locations = enumerate_locations(circuit)
        return float(sum(self.probability_for(loc) for loc in locations))

    def __repr__(self) -> str:
        return (
            f"NoiseModel(p_gate={self.p_gate}, p_input={self.p_input}, "
            f"p_delay={self.p_delay}, channel={self.channel!r})"
        )
