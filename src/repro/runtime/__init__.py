"""Resilient execution runtime: checkpoint, supervise, prove.

The paper's thesis is computing reliably on unreliable hardware; this
package applies the same discipline to the *analysis software*: a
threshold campaign must survive hung or killed workers, simulator
out-of-memory, Ctrl-C and half-written files — and must prove it.

* :mod:`repro.runtime.checkpoint` — crash-safe journals
  (:class:`CheckpointStore`): atomic write-tmp-then-rename records
  with integrity checksums and run fingerprints, powering
  ``checkpoint=`` on every engine entry point: a journal whose
  fingerprint matches is always resumed, and
  :meth:`CheckpointStore.clear` starts a run afresh.
* :mod:`repro.runtime.supervisor` — the one process supervisor:
  :class:`Slots` of forked children, each SIGKILLed on its own
  deadline and respawned on exit, which run both the engine's chunks
  (:class:`Supervisor`: per-chunk deadlines, bounded retry, in-parent
  quarantine) and the certification service's workers;
  :func:`backoff_delay` is the one retry rule the service shares.
* :mod:`repro.runtime.chaos` — :class:`FaultPlan`, the one
  deterministic fault plan: :class:`Fault`\\ s keyed by (layer, site,
  index) that the engine, the service worker and the HTTP server each
  match at their own coordinates; plus checkpoint-corruption helpers.
  The certification suite in ``tests/runtime`` drives every engine
  scenario to "correct result or typed
  :class:`~repro.exceptions.RuntimeIntegrityError`".
* :mod:`repro.runtime.policy` — :class:`RuntimePolicy`, the bundle
  the engine's ``runtime=`` keyword accepts.
"""

from repro.runtime.chaos import (
    Fault,
    FaultPlan,
    garble_checkpoint_record,
    poison_checkpoint_verdict,
    truncate_checkpoint_record,
)
from repro.runtime.checkpoint import (
    CheckpointStore,
    as_store,
    deserialize_pattern,
    serialize_pattern,
)
from repro.runtime.policy import RuntimePolicy, resolve_policy
from repro.runtime.supervisor import (
    SupervisionReport,
    Supervisor,
    SupervisorConfig,
    backoff_delay,
)

__all__ = [
    "CheckpointStore",
    "Fault",
    "FaultPlan",
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
