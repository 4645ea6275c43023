"""The bundle the engine threads through a resilient run.

:class:`RuntimePolicy` groups the three orthogonal resilience
mechanisms — worker supervision, backend fallback and (for the
certification suite) fault injection — into one object the public
``runtime=`` keyword accepts.  ``RuntimePolicy()`` is the production
default: generous supervision deadlines, the full degradation ladder,
no chaos.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.runtime.chaos import FaultPlan
from repro.runtime.fallback import FallbackPolicy
from repro.runtime.supervisor import SupervisorConfig


@dataclass(frozen=True)
class RuntimePolicy:
    """How a run should survive its own infrastructure.

    Args:
        supervisor: pool supervision knobs (deadlines, retries,
            backoff).
        fallback: the backend degradation ladder; ``None`` disables
            degradation (errors escape to the supervisor's retry
            path instead).
        chaos: deterministic fault injection; the engine acts on the
            plan's ``engine`` faults, matched once per chunk attempt.
            Production runs leave this ``None``.
    """

    supervisor: SupervisorConfig = field(
        default_factory=SupervisorConfig)
    fallback: Optional[FallbackPolicy] = field(
        default_factory=FallbackPolicy)
    chaos: Optional[FaultPlan] = None


def resolve_policy(runtime: Optional[RuntimePolicy]) -> RuntimePolicy:
    """The engine's single place to default the ``runtime=`` knob."""
    return runtime if runtime is not None else RuntimePolicy()
