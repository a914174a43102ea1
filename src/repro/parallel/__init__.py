"""Multi-process experiment engine.

Three pieces, designed to compose with :mod:`repro.robustness` rather
than replace it:

* :mod:`repro.parallel.pool` — a fork-based worker pool with an explicit
  message protocol (start/done/error/event/crash), batched dispatch with
  per-unit reporting so a dying worker loses exactly the unit it was
  running.  Workers inherit the units by fork; results return as plain
  pickles.
* :mod:`repro.parallel.cache` — a content-addressed on-disk result cache
  keyed by SHA-256 of (trace fingerprint, config, kernel, penalty
  model), consulted before any simulation.
* :mod:`repro.parallel.supervisor` — the supervision policy layered on
  the pool: heartbeat/deadline hang detection, requeue-then-quarantine
  of worker-killing units, exponential-backoff respawn, AIMD admission
  control, and degraded-serial fallback.  Callers set four knobs
  (:class:`SupervisorConfig`); the policy numbers are module constants.

The engine (:mod:`repro.parallel.engine`) ties them together behind
``run_units(..., jobs=N)``, the one way work leaves the parent process:
each call forks one pool for its own units and packs them into
count-sized batches.  The engine only runs units; the executor's single
stage-and-flush loop keeps sole ownership of the journal and of every
publish callback, so checkpoint/resume and failure isolation are the
serial path's own.
"""

from repro.parallel.cache import SimulationCache, canonical_key
from repro.parallel.pool import (
    in_worker,
    resolve_jobs,
    shutdown_shared_pool,
)
from repro.parallel.supervisor import (
    AIMDController,
    SupervisorConfig,
)

__all__ = [
    "AIMDController",
    "SimulationCache",
    "SupervisorConfig",
    "canonical_key",
    "in_worker",
    "resolve_jobs",
    "shutdown_shared_pool",
]
