"""The worker pool behind ``run_units(..., jobs=N)``.

:func:`repro.robustness.executor.run_units` owns the one loop that
stages finished units and flushes them — publish, journal, report — as
a contiguous prefix of spec order.  :class:`PoolEngine` is what that
loop calls while a forked pool is running its units: workers execute
units; the **parent does everything else**.  Outcomes are staged as
workers finish (any order), and because flushing stays in the loop:

* the journal's unit records appear in the same deterministic order a
  serial run would write them, and a ``--resume`` after a crash under
  ``jobs=4`` skips the same set regardless of worker finish order;
* publish callbacks (rendering, result files, stdout) run in spec order
  in the parent, byte-identical to a serial run;
* the publish-before-journal contract holds unchanged: a unit is
  journaled complete only after its outputs exist.

Failure isolation also carries over: a unit that exhausts its retries —
or whose *worker dies outright* (segfault, ``os._exit``, OOM kill) — is
recorded FAILED while the rest of the suite keeps running on the
surviving (or respawned) workers.

Dispatch has one path.  Each call forks one private
:class:`~repro.parallel.pool.WorkerPool` whose workers inherit the unit
closures, so nothing but task ids is pickled on the way out and results
come back as plain pickles.  Independent units are packed into batches
(one queue round-trip each, sized from the unit count by
:func:`_plan_batch_size`) while the worker still reports
start/done/error *per unit* — so journal records, cache entries and
supervision are per-unit, and a poisoned unit quarantines alone while
its batch siblings come back as ``"requeue"`` messages.

Supervision (on by default, see
:class:`~repro.parallel.supervisor.SupervisorConfig`) layers four
behaviors on top:

* a killed worker's in-flight unit is **requeued at the back of the
  dispatch order** (a suspect must not hog every kill opportunity), not
  failed — until the unit has killed ``MAX_WORKER_KILLS`` workers, when
  it is quarantined as a :class:`~repro.errors.PoisonUnitError`;
* hung workers (blown ``unit_deadline``, lost heartbeat) surface as
  ``"hang"`` messages and are treated like crashes;
* respawns back off exponentially and draw from a bounded budget;
  exhausting it terminates the pool, and the loop finishes the suite
  **degraded-serial** in the parent, exactly as a serial run would
  (or raises, with ``degraded_ok=False``);
* an AIMD window throttles how many workers hold batches at once.

Every unit that runs gets a timing breakdown (``dispatch_s`` /
``queue_wait_s`` / ``run_s`` / ``result_transfer_s`` / ``flush_s``) in
``report.timing`` — orchestration overhead must be diagnosable from
the report alone.
"""

from __future__ import annotations

import functools
import pickle
import time as time_module
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ParallelError, PoisonUnitError, WorkerCrashError
from repro.parallel.pool import WorkerPool, emit_event, reconstruct_error
from repro.parallel.supervisor import (
    HEARTBEAT_INTERVAL,
    HEARTBEAT_TIMEOUT,
    KILL_GRACE,
    MAX_WORKER_KILLS,
    SupervisorConfig,
    UnitSupervisor,
)
from repro.robustness.executor import (
    STATUS_OK,
    StagedOutcome,
    UnitOutcome,
    UnitSpec,
    failed_stage,
)

#: How long one poll waits for worker messages before rechecking state.
_POLL_SECONDS = 0.05

#: The five per-unit timing phases surfaced in ``report.timing``.
_TIMING_KEYS = (
    "dispatch_s",
    "queue_wait_s",
    "run_s",
    "result_transfer_s",
    "flush_s",
)


#: Target number of dispatch round-trips per worker for a whole run.
#: Each round-trip costs roughly a pipe write + wakeup + pipe read
#: (~1ms of parent/worker ping-pong); packing a run into ~8 batches per
#: worker makes that overhead a rounding error while still leaving
#: enough batches for the least-loaded-first scheduler to balance load.
_DEFAULT_DISPATCHES_PER_WORKER = 8


def _plan_batch_size(
    count: int,
    workers: int,
    *,
    target_per_worker: int = _DEFAULT_DISPATCHES_PER_WORKER,
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


def _announce_retry(attempt: int, error: BaseException, delay: float) -> None:
    """Worker side: ship one retry notice home, to be announced at flush."""
    emit_event(("retry", attempt, type(error).__name__, str(error), delay))


class PoolEngine:
    """The worker pool behind ``run_units(jobs=N)``.

    ``run_units`` owns the one stage/flush loop; while a unit it needs
    next is unstaged and :attr:`pool` is alive, it calls :meth:`step`,
    which dispatches batches, reads worker messages, stages finished
    units into the shared ``staged`` list and supervises the pool.  When
    the pool cannot be kept alive (and ``degraded_ok``), :meth:`step`
    terminates it and sets :attr:`pool` to ``None``: the loop then runs
    the rest in-process.  ``supervision=None`` means default supervision
    (heartbeats, requeue-then-quarantine, AIMD admission); pass
    ``SupervisorConfig(enabled=False)`` for the bare engine.
    """

    def __init__(
        self,
        units: Sequence[UnitSpec],
        staged: List[Optional[StagedOutcome]],
        attempt: Callable[[UnitSpec, Callable], Tuple[Any, int]],
        *,
        jobs: int,
        supervision: Optional[SupervisorConfig],
        sleep: Callable[[float], None],
    ) -> None:
        count = len(units)
        self.units = units
        self.staged = staged
        self.sleep = sleep
        self.config = supervision if supervision is not None else SupervisorConfig()
        #: Dispatch preference order.  Starts as spec order; a unit whose
        #: worker was killed is *demoted* to the back on requeue, so a
        #: suspected-poison unit cannot hog every kill opportunity
        #: (burning the whole respawn budget, and its own quarantine
        #: allowance, while innocent units starve behind it).
        self.dispatch_order = list(range(count))
        self.dispatched = [False] * count
        #: Each unit's worker retry notices, staged with its outcome.
        self.events: List[List[Tuple]] = [[] for _ in range(count)]
        self.submitted_at: List[Optional[float]] = [None] * count
        self.unit_timing: Dict[str, Dict[str, float]] = {}
        #: Corrupt cache entries discarded inside workers.
        self.corrupt_discarded = 0
        self.respawn_budget = count + jobs
        runnable = staged.count(None)
        worker_count = max(1, min(jobs, runnable))
        self.supervisor: Optional[UnitSupervisor] = (
            UnitSupervisor(self.config, jobs=worker_count, count=count)
            if self.config.enabled
            else None
        )
        self.batch_cap = _plan_batch_size(runnable, worker_count)
        self.pool: Optional[WorkerPool] = None
        if runnable:
            pool_options: Dict[str, Any] = {}
            if self.supervisor is not None:
                pool_options = dict(
                    heartbeat_interval=HEARTBEAT_INTERVAL,
                    heartbeat_timeout=HEARTBEAT_TIMEOUT,
                    unit_deadline=self.config.unit_deadline,
                    kill_grace=KILL_GRACE,
                )
            self.pool = WorkerPool(
                [functools.partial(attempt, spec, _announce_retry) for spec in units],
                worker_count,
                **pool_options,
            )
        self.started = time_module.monotonic()

    # -- timing -----------------------------------------------------------

    def record_timing(
        self,
        index: int,
        *,
        run_s: float,
        queue_wait_s: float = 0.0,
        result_transfer_s: float = 0.0,
    ) -> None:
        sent = self.submitted_at[index]
        self.unit_timing[self.units[index].name] = {
            "dispatch_s": max(0.0, (sent or self.started) - self.started),
            "queue_wait_s": queue_wait_s,
            "run_s": run_s,
            "result_transfer_s": result_transfer_s,
            "flush_s": 0.0,
        }

    def record_flush(self, index: int, seconds: float) -> None:
        timing = self.unit_timing.get(self.units[index].name)
        if timing is not None:
            timing["flush_s"] = seconds

    # -- staging ----------------------------------------------------------

    def _retries(self, index: int) -> Tuple[Tuple[int, BaseException, float], ...]:
        return tuple(
            (attempt, reconstruct_error(type_name, message), delay)
            for _tag, attempt, type_name, message, delay in self.events[index]
        )

    def _stage_failure(
        self,
        index: int,
        error: BaseException,
        *,
        attempts: int,
        elapsed: float = 0.0,
        traceback: Optional[str] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.staged[index] = failed_stage(
            self.units[index].name,
            error,
            traceback=traceback,
            elapsed=elapsed,
            attempts=attempts,
            detail=detail,
            retries=self._retries(index),
        )

    def _handle_kill(self, index: int, reason: str, error_text: str) -> None:
        """A worker kill took unit ``index`` with it: requeue or poison.

        ``reason`` is ``"crash"`` or a hang reason; ``error_text`` is the
        human-readable account of what the killed worker was doing, and
        is embedded in the quarantine message so the journal still names
        the underlying failure.
        """
        supervisor = self.supervisor
        kills = supervisor.record_kill(index, reason=reason, error=error_text)
        if kills < MAX_WORKER_KILLS:
            supervisor.requeues += 1
            self.dispatched[index] = False
            self.events[index] = []  # the retry notices died with the attempt
            # Send the suspect to the back of the dispatch order: other
            # units get their turn (and their own workers) first.
            self.dispatch_order.remove(index)
            self.dispatch_order.append(index)
            return
        name = self.units[index].name
        supervisor.poisoned_units.append(name)
        self._stage_failure(
            index,
            PoisonUnitError(
                f"unit {name!r} quarantined after killing {kills} workers; "
                f"last: {error_text}"
            ),
            attempts=kills,
            detail=supervisor.poison_detail(index),
        )

    # -- one round --------------------------------------------------------

    def step(self) -> None:
        """Dispatch to idle workers, stage what finished, tend the pool."""
        self._dispatch()
        for message in self.pool.poll(_POLL_SECONDS):
            self._receive(message)
        outstanding = any(
            stage is None and not dispatched
            for stage, dispatched in zip(self.staged, self.dispatched)
        )
        if outstanding:
            self._keep_alive()

    def _dispatch(self) -> None:
        pool, supervisor = self.pool, self.supervisor
        busy = pool.busy_count()
        for worker_id in pool.idle_workers():
            # The AIMD window admits *workers holding batches*, not
            # individual units — at batch size 1 the two are the same
            # thing, which is what the window's jobs-sized cap was
            # calibrated against.
            if supervisor is not None and busy >= supervisor.window():
                break
            batch: List[int] = []
            for index in self.dispatch_order:
                if len(batch) >= self.batch_cap:
                    break
                if self.staged[index] is not None or self.dispatched[index]:
                    continue
                batch.append(index)
                self.dispatched[index] = True
            if not batch:
                break
            now = time_module.monotonic()
            for index in batch:
                self.submitted_at[index] = now
            pool.submit_batch(worker_id, batch)
            busy += 1

    def _receive(self, message) -> None:
        index = message.task_id
        supervisor = self.supervisor
        if message.kind == "event":
            if message.payload[0] == "cache_corrupt":
                self.corrupt_discarded += 1
            elif index is not None and message.payload[0] == "retry":
                self.events[index].append(message.payload)
        elif message.kind == "requeue":
            # A batch sibling of a dead worker: it never ran, so it is
            # not charged a kill — just dispatched again.
            if index is not None and self.staged[index] is None:
                self.dispatched[index] = False
                self.events[index] = []
                self.submitted_at[index] = None
                if supervisor is not None:
                    supervisor.sibling_requeues += 1
        elif message.kind == "done" and self.staged[index] is None:
            blob, elapsed, meta = message.payload
            received = time_module.monotonic()
            try:
                result, attempts = pickle.loads(blob)
            except Exception as error:  # noqa: BLE001 - contained
                self._stage_failure(
                    index,
                    error,
                    elapsed=elapsed,
                    attempts=len(self.events[index]) + 1,
                )
                return
            decode_s = time_module.monotonic() - received
            sent = self.submitted_at[index]
            started_at = meta.get("started_at")
            sent_at = meta.get("sent_at")
            self.record_timing(
                index,
                run_s=meta.get("run_s", elapsed),
                queue_wait_s=(
                    max(0.0, started_at - sent)
                    if sent is not None and started_at is not None
                    else 0.0
                ),
                result_transfer_s=(
                    (max(0.0, received - sent_at) if sent_at is not None else 0.0)
                    + meta.get("encode_s", 0.0)
                    + decode_s
                ),
            )
            self.staged[index] = StagedOutcome(
                UnitOutcome(
                    name=self.units[index].name,
                    status=STATUS_OK,
                    result=result,
                    elapsed=elapsed,
                    attempts=attempts,
                ),
                retries=self._retries(index),
            )
            if supervisor is not None:
                supervisor.on_healthy()
        elif message.kind == "error" and self.staged[index] is None:
            type_name, text, remote_tb, elapsed = message.payload
            retries = len(self.events[index])
            self._stage_failure(
                index,
                reconstruct_error(type_name, text, remote_tb),
                traceback=remote_tb,
                elapsed=elapsed,
                attempts=(
                    retries if type_name == "DeadlineExceededError" else retries + 1
                ),
            )
            self.record_timing(index, run_s=elapsed)
            if supervisor is not None:
                # An ordinary reported error is a *healthy* worker doing
                # its job; only kills shrink the admission window.
                supervisor.on_healthy()
        elif message.kind == "crash":
            if index is None or self.staged[index] is not None:
                return
            account = (
                f"worker {message.worker_id} exited with code "
                f"{message.payload} while running {self.units[index].name!r}"
            )
            if supervisor is not None:
                self._handle_kill(index, "crash", f"WorkerCrashError: {account}")
            else:
                self._stage_failure(
                    index,
                    WorkerCrashError(account),
                    attempts=len(self.events[index]) + 1,
                )
        elif message.kind == "hang":
            # Only supervised pools synthesize hangs; the worker is
            # already dead (killed by the pool).
            if index is not None and self.staged[index] is None:
                reason = message.payload["reason"]
                self._handle_kill(
                    index,
                    reason,
                    f"WorkerHangError: worker {message.worker_id} hung "
                    f"({reason}) after {message.payload['elapsed']:.1f}s "
                    f"running {self.units[index].name!r}",
                )

    def _keep_alive(self) -> None:
        """Respawn dead workers; give the pool up when that fails."""
        pool, supervisor = self.pool, self.supervisor
        if supervisor is None:
            if pool.alive_count() == 0:
                if self.respawn_budget <= 0:
                    raise ParallelError(
                        "workers keep dying before accepting work; "
                        "giving up on the remaining units"
                    )
                for worker_id in range(pool.jobs):
                    self.respawn_budget -= 1
                    pool.respawn(worker_id)
            return
        dead = pool.dead_workers()
        if dead:
            delay = supervisor.backoff_delay()
            if delay > 0.0:
                self.sleep(delay)
            for worker_id in dead:
                if not supervisor.consume_respawn():
                    break
                pool.respawn(worker_id)
        if pool.alive_count() == 0:
            # The respawn budget is gone and no worker survives: the pool
            # cannot be kept healthy.
            if not self.config.degraded_ok:
                raise ParallelError(
                    "workers keep dying and the respawn budget is "
                    f"exhausted after {supervisor.respawns} respawns; "
                    "remaining units not run "
                    "(degraded_ok would fall back to serial)"
                )
            pool.terminate()
            self.pool = None
            supervisor.degraded = True

    # -- end of run -------------------------------------------------------

    def close(self, *, graceful: bool) -> None:
        """Close the pool after a finished run; kill it otherwise."""
        if self.pool is not None:
            if graceful:
                self.pool.close()
            else:
                self.pool.terminate()
            self.pool = None

    def finish(self, report) -> None:
        """Fill the report's supervision, timing and worker-side counts."""
        if self.supervisor is not None:
            report.supervision = self.supervisor.stats()
        if self.unit_timing:
            report.timing = {
                "units": self.unit_timing,
                "totals": {
                    key: sum(timing[key] for timing in self.unit_timing.values())
                    for key in _TIMING_KEYS
                },
            }
        report.cache_corrupt_discarded += self.corrupt_discarded


__all__ = ["PoolEngine"]
