"""Resilient execution runtime: checkpoint, supervise, degrade, prove.

The paper's thesis is computing reliably on unreliable hardware; this
package applies the same discipline to the *analysis software*: a
threshold campaign must survive hung or killed workers, simulator
out-of-memory, Ctrl-C and half-written files — and must prove it.

* :mod:`repro.runtime.checkpoint` — crash-safe journals
  (:class:`CheckpointStore`): atomic write-tmp-then-rename records
  with integrity checksums and run fingerprints, powering
  ``checkpoint=``/``resume=`` on every engine entry point.
* :mod:`repro.runtime.supervisor` — :class:`Supervisor`: per-chunk
  deadlines over the fork pool, bounded retry, pool restarts,
  in-parent quarantine; :func:`backoff_delay` is the one retry rule
  shared with the certification service.
* :mod:`repro.runtime.fallback` — :class:`FallbackPolicy`: sparse →
  statevector → density-matrix degradation on ``MemoryError`` /
  ``SimulationError``, and retry-once on ``VerificationError``.
* :mod:`repro.runtime.chaos` — deterministic infrastructure-fault
  injection plus checkpoint-corruption helpers; the certification
  suite in ``tests/runtime`` drives every scenario to "correct result
  or typed :class:`~repro.exceptions.RuntimeIntegrityError`".
* :mod:`repro.runtime.policy` — :class:`RuntimePolicy`, the bundle
  the engine's ``runtime=`` keyword accepts.
"""

from repro.runtime.chaos import (
    ChaosEvent,
    ChaosPlan,
    garble_checkpoint_record,
    poison_checkpoint_verdict,
    truncate_checkpoint_record,
)
from repro.runtime.checkpoint import (
    DEFAULT_ROOT,
    CheckpointStore,
    as_store,
    deserialize_pattern,
    serialize_pattern,
)
from repro.runtime.fallback import FallbackPolicy, FallbackRecord
from repro.runtime.policy import RuntimePolicy, resolve_policy
from repro.runtime.supervisor import (
    SupervisionReport,
    Supervisor,
    SupervisorConfig,
    backoff_delay,
)

__all__ = [
    "ChaosEvent",
    "ChaosPlan",
    "CheckpointStore",
    "DEFAULT_ROOT",
    "FallbackPolicy",
    "FallbackRecord",
    "RuntimePolicy",
    "SupervisionReport",
    "Supervisor",
    "SupervisorConfig",
    "as_store",
    "backoff_delay",
    "deserialize_pattern",
    "garble_checkpoint_record",
    "poison_checkpoint_verdict",
    "resolve_policy",
    "serialize_pattern",
    "truncate_checkpoint_record",
]
