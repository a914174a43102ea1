"""Batch packing and worker affinity for experiment units.

A :class:`~repro.robustness.executor.UnitSpec` may carry an
``affinity`` key (units sharing a key run in the same worker, so
worker-local state — a warmed stack pass — is actually reused) and a
``cost`` estimate steering how many units travel per dispatch.

The scheduler is parent-side bookkeeping only; it never touches
processes.  The engine asks it three questions: *is this unit list
valid* (:func:`validate_units`), *how many units go in one dispatch*
(:func:`plan_batch_size` / :func:`plan_batch_budget`), and *which
worker should run this unit* (:class:`AffinityRouter`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ParallelError


def unit_affinity(spec) -> Optional[str]:
    """The unit's affinity key, or None (units without the field: None)."""
    return getattr(spec, "affinity", None)


def validate_units(units: Sequence) -> Dict[str, int]:
    """Check unit names are unique; returns {unit name: index}.

    Raises :class:`~repro.errors.ParallelError` on a duplicate: the
    journal, the timing breakdown and the report are all keyed by name.
    """
    by_name: Dict[str, int] = {}
    for index, spec in enumerate(units):
        if spec.name in by_name:
            raise ParallelError(f"duplicate unit name {spec.name!r}")
        by_name[spec.name] = index
    return by_name


#: Target number of dispatch round-trips per worker for a whole run.
#: Each round-trip costs roughly a pipe write + wakeup + pipe read
#: (~1ms of parent/worker ping-pong); packing a run into ~8 batches per
#: worker makes that overhead a rounding error while still leaving
#: enough batches for the least-loaded-first scheduler to balance load.
DEFAULT_DISPATCHES_PER_WORKER = 8


def unit_cost(spec) -> float:
    """Relative cost estimate of one unit (units without the field: 1.0).

    The cost model is deliberately crude — estimated references times
    geometry count, normalized however the caller likes — because it
    only steers *batch packing*, not correctness: a bad estimate costs
    some load imbalance, never a wrong result.
    """
    cost = getattr(spec, "cost", None)
    if cost is None:
        return 1.0
    try:
        value = float(cost)
    except (TypeError, ValueError):
        return 1.0
    return value if value > 0 else 1.0


def plan_batch_size(
    count: int,
    workers: int,
    *,
    target_per_worker: int = DEFAULT_DISPATCHES_PER_WORKER,
) -> int:
    """How many units to pack per dispatch for ``count`` units.

    Sized so the run makes about ``workers * target_per_worker``
    dispatches total: small runs (fewer units than dispatch slots) get
    batch size 1 — batching them would serialize work that could
    overlap — and only genuinely wide fan-outs amortize the round-trip.
    """
    if count <= 0 or workers <= 0:
        return 1
    slots = max(1, workers * target_per_worker)
    return max(1, -(-count // slots))


def plan_batch_budget(
    costs: Sequence[float],
    workers: int,
    *,
    target_per_worker: int = DEFAULT_DISPATCHES_PER_WORKER,
) -> Optional[float]:
    """Cost ceiling per batch, or None when cost cannot steer packing.

    A batch stops accepting units once its accumulated
    :func:`unit_cost` reaches ``total_cost / (workers * target)`` —
    the even-split share of one dispatch slot — so one expensive unit
    does not drag a batch of cheap siblings behind it.
    """
    if workers <= 0 or not costs:
        return None
    total = float(sum(costs))
    if total <= 0:
        return None
    return total / max(1, workers * target_per_worker)


class AffinityRouter:
    """Sticky unit-to-worker routing.

    The first unit of an affinity group binds the group to a worker (the
    least-loaded idle one at that moment); later units of the group wait
    for *that* worker even if others are idle — the point of affinity is
    reusing worker-local state, which a different worker does not have.
    A dead worker's bindings are dropped so its groups rebind: the
    supervised engine calls :meth:`forget_worker` for every crash *and*
    hang kill, so a requeued unit rebinds its group to a fresh worker
    (whose cold state is rebuilt on first use) instead of waiting on a
    corpse.
    """

    def __init__(self) -> None:
        self._binding: Dict[str, int] = {}

    def bindings(self) -> Dict[str, int]:
        """Snapshot of group -> worker bindings (diagnostics/tests)."""
        return dict(self._binding)

    def pick_worker(self, spec, idle_workers: Sequence[int]) -> Optional[int]:
        """Choose a worker for ``spec`` from ``idle_workers``.

        ``idle_workers`` must be least-loaded-first (the pool's
        ``idle_workers()`` order).  Returns None when the unit must wait
        (no idle worker, or its bound worker is busy).
        """
        if not idle_workers:
            return None
        key = unit_affinity(spec)
        if key is None:
            return idle_workers[0]
        bound = self._binding.get(key)
        if bound is None:
            self._binding[key] = idle_workers[0]
            return idle_workers[0]
        return bound if bound in idle_workers else None

    def forget_worker(self, worker_id: int) -> None:
        """Unbind every group routed to a (now dead) worker."""
        for key in [k for k, wid in self._binding.items() if wid == worker_id]:
            del self._binding[key]


__all__ = [
    "AffinityRouter",
    "DEFAULT_DISPATCHES_PER_WORKER",
    "plan_batch_budget",
    "plan_batch_size",
    "unit_affinity",
    "unit_cost",
    "validate_units",
]
