"""The bundle the engine threads through a resilient run.

:class:`RuntimePolicy` groups the two orthogonal resilience
mechanisms — worker supervision and (for the certification suite)
fault injection — into one object the public ``runtime=`` keyword
accepts.  ``RuntimePolicy()`` is the production default: generous
supervision deadlines, no chaos.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.runtime.chaos import FaultPlan
from repro.runtime.supervisor import SupervisorConfig


@dataclass(frozen=True)
class RuntimePolicy:
    """How a run should survive its own infrastructure.

    Args:
        supervisor: pool supervision knobs (deadlines, retries,
            backoff).
        chaos: deterministic fault injection; the engine acts on the
            plan's ``engine`` faults, matched once per chunk attempt.
            Production runs leave this ``None``.
    """

    supervisor: SupervisorConfig = field(
        default_factory=SupervisorConfig)
    chaos: Optional[FaultPlan] = None


def resolve_policy(runtime: Optional[RuntimePolicy]) -> RuntimePolicy:
    """The engine's single place to default the ``runtime=`` knob."""
    return runtime if runtime is not None else RuntimePolicy()
