"""Noise models, fault locations and fault injection."""

from repro.noise.injection import run_with_coherent_noise
from repro.noise.locations import (
    FaultLocation,
    FaultSpace,
    burst_locations,
    count_locations,
    enumerate_locations,
)
from repro.noise.model import (
    CHANNELS,
    ChannelSpec,
    NoiseModel,
    SampledFault,
    channel_names,
    channel_spec,
    register_channel,
)
from repro.noise.structured import (
    BiasedPauliModel,
    CoherentOverRotationModel,
    CorrelatedBurstModel,
    CrosstalkModel,
    DriftingRateModel,
    RateSchedule,
    StructuredNoiseModel,
    TwirledOverRotationModel,
)

__all__ = [
    "BiasedPauliModel",
    "CHANNELS",
    "ChannelSpec",
    "CoherentOverRotationModel",
    "CorrelatedBurstModel",
    "CrosstalkModel",
    "DriftingRateModel",
    "FaultLocation",
    "FaultSpace",
    "NoiseModel",
    "RateSchedule",
    "SampledFault",
    "StructuredNoiseModel",
    "TwirledOverRotationModel",
    "burst_locations",
    "channel_names",
    "channel_spec",
    "count_locations",
    "enumerate_locations",
    "register_channel",
    "run_with_coherent_noise",
]
