"""The parallel experiment engine behind ``run_units(..., jobs=N)``.

Workers execute units; the **parent does everything else** — journaling,
publishing, retry announcements, failure reports.  Outcomes are staged
as workers finish (any order) but *flushed* strictly as a contiguous
prefix of the original spec order, so:

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
  exhausting it falls back to **degraded-serial** execution in the
  parent (or raises, with ``degraded_ok=False``);
* an AIMD window throttles how many workers hold batches at once.

Every unit that runs gets a timing breakdown (``dispatch_s`` /
``queue_wait_s`` / ``run_s`` / ``result_transfer_s`` / ``flush_s``) in
``report.timing`` — orchestration overhead must be diagnosable from
the report alone.
"""

from __future__ import annotations

import pickle
import time as time_module
import traceback as traceback_module
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import (
    DeadlineExceededError,
    ParallelError,
    PoisonUnitError,
    WorkerCrashError,
)
from repro.parallel.cache import corrupt_discarded_total
from repro.parallel.pool import (
    WorkerPool,
    emit_event,
    reconstruct_error,
)
from repro.parallel.supervisor import (
    HEARTBEAT_INTERVAL,
    HEARTBEAT_TIMEOUT,
    KILL_GRACE,
    MAX_WORKER_KILLS,
    SupervisorConfig,
    UnitSupervisor,
)
from repro.robustness.journal import RunJournal
from repro.robustness.retry import Deadline, RetryPolicy, call_with_retry

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


def run_units_parallel(
    units: Sequence,
    *,
    jobs: int,
    journal: Optional[RunJournal],
    resume: bool,
    retry_policy: RetryPolicy,
    deadline_seconds: Optional[float],
    fail_fast: bool,
    retriable: Tuple[Type[BaseException], ...],
    on_success: Optional[Callable],
    on_skip: Optional[Callable],
    on_failure: Optional[Callable],
    on_retry: Optional[Callable],
    journal_payload: Optional[Callable],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    supervision: Optional[SupervisorConfig] = None,
):
    """Parallel twin of the serial loop in ``robustness.executor``.

    Same report, same journal contents, same callback order — only the
    wall clock differs.  Called via ``run_units(jobs=N)``; not meant to
    be invoked directly.  ``supervision=None`` means default supervision
    (heartbeats, requeue-then-quarantine, AIMD admission); pass
    ``SupervisorConfig(enabled=False)`` for the bare engine.
    """
    from repro.robustness.executor import (
        STATUS_FAILED,
        STATUS_OK,
        STATUS_SKIPPED,
        SuiteReport,
        UnitOutcome,
    )

    count = len(units)
    #: Dispatch preference order.  Starts as spec order; a unit whose
    #: worker was killed is *demoted* to the back on requeue, so a
    #: suspected-poison unit cannot hog every kill opportunity (burning
    #: the whole respawn budget, and its own quarantine allowance,
    #: while innocent units starve behind it).
    dispatch_order = list(range(count))

    #: Per-unit staged outcome, filled as units finish, flushed in
    #: spec order.  Kinds: "skip" | "ok" | "fail".
    staged: List[Optional[Dict[str, Any]]] = [None] * count
    dispatched = [False] * count
    events: List[List[Tuple]] = [[] for _ in range(count)]

    for index, spec in enumerate(units):
        if resume and journal is not None and journal.completed(spec.name):
            staged[index] = {"kind": "skip"}

    def make_task(spec):
        def task():
            deadline = Deadline(deadline_seconds, clock=clock)

            def notify(attempt, error, delay):
                emit_event(
                    ("retry", attempt, type(error).__name__, str(error), delay)
                )

            return call_with_retry(
                spec.run,
                policy=retry_policy,
                deadline=deadline,
                retriable=retriable,
                on_retry=notify,
                sleep=sleep,
                label=spec.name,
            )

        return task

    config = supervision if supervision is not None else SupervisorConfig()
    runnable = sum(1 for stage in staged if stage is None)
    worker_count = max(1, min(jobs, runnable))
    supervisor: Optional[UnitSupervisor] = (
        UnitSupervisor(config, jobs=worker_count, count=count)
        if config.enabled
        else None
    )
    pool: Optional[WorkerPool] = None
    if runnable:
        pool_options: Dict[str, Any] = {}
        if supervisor is not None:
            pool_options = dict(
                heartbeat_interval=HEARTBEAT_INTERVAL,
                heartbeat_timeout=HEARTBEAT_TIMEOUT,
                unit_deadline=config.unit_deadline,
                kill_grace=KILL_GRACE,
            )
        pool = WorkerPool(
            [make_task(spec) for spec in units], worker_count, **pool_options
        )
    batch_cap = _plan_batch_size(runnable, worker_count)
    report = SuiteReport()
    # Parent-side discards (cache hits checked in the parent, degraded
    # mode); worker-side ones arrive as "cache_corrupt" events.
    corrupt_before = corrupt_discarded_total()

    engine_started = time_module.monotonic()
    submitted_at: List[Optional[float]] = [None] * count
    unit_timing: Dict[str, Dict[str, float]] = {}

    def record_timing(
        index: int,
        *,
        run_s: float,
        queue_wait_s: float = 0.0,
        result_transfer_s: float = 0.0,
    ) -> None:
        sent = submitted_at[index]
        unit_timing[units[index].name] = {
            "dispatch_s": max(0.0, (sent or engine_started) - engine_started),
            "queue_wait_s": queue_wait_s,
            "run_s": run_s,
            "result_transfer_s": result_transfer_s,
            "flush_s": 0.0,
        }

    def stage_failure(
        index: int,
        *,
        error_text: str,
        traceback_text: Optional[str],
        elapsed: float,
        attempts: int,
        exception: BaseException,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        staged[index] = {
            "kind": "fail",
            "error": error_text,
            "traceback": traceback_text,
            "elapsed": elapsed,
            "attempts": attempts,
            "exception": exception,
            "detail": detail,
        }

    def flush(index: int) -> bool:
        """Publish/journal/report one unit; True if it ended FAILED."""
        spec = units[index]
        stage = staged[index]
        if stage["kind"] == "skip":
            previous = journal.get(spec.name) if journal is not None else None
            report.outcomes.append(
                UnitOutcome(
                    name=spec.name,
                    status=STATUS_SKIPPED,
                    elapsed=previous.elapsed if previous else 0.0,
                )
            )
            if on_skip is not None:
                on_skip(spec)
            return False
        # Replay the worker's retry notices now, so announcements land
        # in spec order exactly as a serial run would print them.
        for event in events[index]:
            _tag, attempt, type_name, message, delay = event
            if on_retry is not None:
                on_retry(
                    spec, attempt, reconstruct_error(type_name, message), delay
                )
        if stage["kind"] == "ok":
            result = stage["result"]
            attempts = stage["attempts"]
            elapsed = stage["elapsed"]
            payload = None
            try:
                if on_success is not None:
                    on_success(spec, result, elapsed)
                if journal is not None and journal_payload is not None:
                    payload = journal_payload(spec, result)
            except (KeyboardInterrupt, SystemExit) as interrupt:
                if journal is not None:
                    journal.record_failure(
                        spec.name,
                        error=f"interrupted: {interrupt!r}",
                        elapsed=elapsed,
                        attempts=attempts,
                    )
                raise
            except BaseException as error:  # noqa: BLE001 - isolation boundary
                trace_text = "".join(
                    traceback_module.format_exception(
                        type(error), error, error.__traceback__
                    )
                )
                error_text = f"{type(error).__name__}: {error}"
                if journal is not None:
                    journal.record_failure(
                        spec.name,
                        error=error_text,
                        traceback=trace_text,
                        elapsed=elapsed,
                        attempts=attempts,
                    )
                report.outcomes.append(
                    UnitOutcome(
                        name=spec.name,
                        status=STATUS_FAILED,
                        error=error_text,
                        traceback=trace_text,
                        elapsed=elapsed,
                        attempts=attempts,
                    )
                )
                if on_failure is not None:
                    on_failure(spec, error)
                return True
            if journal is not None:
                journal.record_success(
                    spec.name,
                    elapsed=elapsed,
                    attempts=attempts,
                    payload=payload,
                )
            report.outcomes.append(
                UnitOutcome(
                    name=spec.name,
                    status=STATUS_OK,
                    result=result,
                    elapsed=elapsed,
                    attempts=attempts,
                )
            )
            return False
        # stage["kind"] == "fail"
        if journal is not None:
            journal.record_failure(
                spec.name,
                error=stage["error"],
                traceback=stage["traceback"],
                elapsed=stage["elapsed"],
                attempts=stage["attempts"],
                detail=stage.get("detail"),
            )
        report.outcomes.append(
            UnitOutcome(
                name=spec.name,
                status=STATUS_FAILED,
                error=stage["error"],
                traceback=stage["traceback"],
                elapsed=stage["elapsed"],
                attempts=stage["attempts"],
            )
        )
        if on_failure is not None:
            on_failure(spec, stage["exception"])
        return True

    def flush_timed(index: int) -> bool:
        flush_started = time_module.monotonic()
        try:
            return flush(index)
        finally:
            timing = unit_timing.get(units[index].name)
            if timing is not None:
                timing["flush_s"] = time_module.monotonic() - flush_started

    def handle_kill(index: int, worker_id: int, reason: str, error_text: str):
        """A worker kill took unit ``index`` with it: requeue or poison.

        ``reason`` is ``"crash"`` or a hang reason; ``error_text`` is the
        human-readable account of what the killed worker was doing, and
        is embedded in the quarantine message so the journal still names
        the underlying failure.
        """
        kills = supervisor.record_kill(index, reason=reason, error=error_text)
        if kills < MAX_WORKER_KILLS:
            supervisor.requeues += 1
            dispatched[index] = False
            events[index] = []  # the retry notices died with the attempt
            # Send the suspect to the back of the dispatch order: other
            # units get their turn (and their own workers) first.
            dispatch_order.remove(index)
            dispatch_order.append(index)
            return
        name = units[index].name
        supervisor.poisoned_units.append(name)
        error = PoisonUnitError(
            f"unit {name!r} quarantined after killing {kills} workers; "
            f"last: {error_text}"
        )
        stage_failure(
            index,
            error_text=f"{type(error).__name__}: {error}",
            traceback_text=None,
            elapsed=0.0,
            attempts=kills,
            exception=error,
            detail=supervisor.poison_detail(index),
        )

    def run_inline(index: int) -> None:
        """Degraded mode: run one unit in the parent, staging its outcome."""
        spec = units[index]
        deadline = Deadline(deadline_seconds, clock=clock)
        attempts_seen = {"count": 0}

        def notify(attempt, error, delay):
            attempts_seen["count"] = attempt
            # Staged like worker retry events so flush announces them
            # identically.
            events[index].append(
                ("retry", attempt, type(error).__name__, str(error), delay)
            )

        started = clock()
        try:
            result, attempts = call_with_retry(
                spec.run,
                policy=retry_policy,
                deadline=deadline,
                retriable=retriable,
                on_retry=notify,
                sleep=sleep,
                label=spec.name,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as error:  # noqa: BLE001 - isolation boundary
            attempts = attempts_seen["count"] + (
                0 if isinstance(error, DeadlineExceededError) else 1
            )
            elapsed = clock() - started
            stage_failure(
                index,
                error_text=f"{type(error).__name__}: {error}",
                traceback_text="".join(
                    traceback_module.format_exception(
                        type(error), error, error.__traceback__
                    )
                ),
                elapsed=elapsed,
                attempts=attempts,
                exception=error,
            )
            record_timing(index, run_s=elapsed)
            return
        elapsed = clock() - started
        staged[index] = {
            "kind": "ok",
            "result": result,
            "attempts": attempts,
            "elapsed": elapsed,
        }
        record_timing(index, run_s=elapsed)

    flushed = 0
    stop = False
    respawn_budget = count + jobs
    clean = False

    def run_degraded_serial() -> None:
        """The pool is gone: finish the suite serially in the parent.

        Flush is a contiguous prefix of spec order, so running and
        flushing unit ``flushed`` in lockstep preserves every ordering
        contract.
        """
        nonlocal flushed, stop
        supervisor.degraded = True
        while flushed < count and not stop:
            if staged[flushed] is None:
                run_inline(flushed)
            failed = flush_timed(flushed)
            flushed += 1
            if failed and fail_fast:
                stop = True
    try:
        while flushed < count:
            while flushed < count and staged[flushed] is not None:
                failed = flush_timed(flushed)
                flushed += 1
                if failed and fail_fast:
                    stop = True
                    break
            if stop or flushed >= count:
                break
            if pool is None:
                raise ParallelError(
                    "internal: unfinished units but no worker pool"
                )
            busy = pool.busy_count()
            for worker_id in pool.idle_workers():
                # The AIMD window admits *workers holding batches*, not
                # individual units — at batch size 1 the two are the
                # same thing, which is what the window's jobs-sized cap
                # was calibrated against.
                if supervisor is not None and busy >= supervisor.window():
                    break
                batch: List[int] = []
                for index in dispatch_order:
                    if len(batch) >= batch_cap:
                        break
                    if staged[index] is not None or dispatched[index]:
                        continue
                    batch.append(index)
                    dispatched[index] = True
                if not batch:
                    break
                now = time_module.monotonic()
                for index in batch:
                    submitted_at[index] = now
                pool.submit_batch(worker_id, batch)
                busy += 1
            for message in pool.poll(_POLL_SECONDS):
                index = message.task_id
                if message.kind == "event":
                    if message.payload[0] == "cache_corrupt":
                        report.cache_corrupt_discarded += 1
                    elif index is not None and message.payload[0] == "retry":
                        events[index].append(message.payload)
                elif message.kind == "requeue":
                    # A batch sibling of a dead worker: it never ran, so
                    # it is not charged a kill — just dispatched again.
                    if index is not None and staged[index] is None:
                        dispatched[index] = False
                        events[index] = []
                        submitted_at[index] = None
                        if supervisor is not None:
                            supervisor.sibling_requeues += 1
                elif message.kind == "done" and staged[index] is None:
                    blob, elapsed, meta = message.payload
                    received = time_module.monotonic()
                    try:
                        result, attempts = pickle.loads(blob)
                    except Exception as error:  # noqa: BLE001 - contained
                        stage_failure(
                            index,
                            error_text=f"{type(error).__name__}: {error}",
                            traceback_text=None,
                            elapsed=elapsed,
                            attempts=len(events[index]) + 1,
                            exception=error,
                        )
                        continue
                    decode_s = time_module.monotonic() - received
                    sent = submitted_at[index]
                    started_at = meta.get("started_at")
                    sent_at = meta.get("sent_at")
                    record_timing(
                        index,
                        run_s=meta.get("run_s", elapsed),
                        queue_wait_s=(
                            max(0.0, started_at - sent)
                            if sent is not None and started_at is not None
                            else 0.0
                        ),
                        result_transfer_s=(
                            (
                                max(0.0, received - sent_at)
                                if sent_at is not None
                                else 0.0
                            )
                            + meta.get("encode_s", 0.0)
                            + decode_s
                        ),
                    )
                    staged[index] = {
                        "kind": "ok",
                        "result": result,
                        "attempts": attempts,
                        "elapsed": elapsed,
                    }
                    if supervisor is not None:
                        supervisor.on_healthy()
                elif message.kind == "error" and staged[index] is None:
                    type_name, text, remote_tb, elapsed = message.payload
                    retries = len(events[index])
                    attempts = (
                        retries
                        if type_name == "DeadlineExceededError"
                        else retries + 1
                    )
                    stage_failure(
                        index,
                        error_text=f"{type_name}: {text}",
                        traceback_text=remote_tb,
                        elapsed=elapsed,
                        attempts=attempts,
                        exception=reconstruct_error(type_name, text, remote_tb),
                    )
                    record_timing(index, run_s=elapsed)
                    if supervisor is not None:
                        # An ordinary reported error is a *healthy*
                        # worker doing its job; only kills shrink the
                        # admission window.
                        supervisor.on_healthy()
                elif message.kind == "crash":
                    if index is None or staged[index] is not None:
                        continue
                    error_text = (
                        f"WorkerCrashError: worker {message.worker_id} "
                        f"exited with code {message.payload} while running "
                        f"{units[index].name!r}"
                    )
                    if supervisor is not None:
                        handle_kill(
                            index, message.worker_id, "crash", error_text
                        )
                    else:
                        error = WorkerCrashError(
                            f"worker {message.worker_id} exited with code "
                            f"{message.payload} while running "
                            f"{units[index].name!r}"
                        )
                        stage_failure(
                            index,
                            error_text=f"{type(error).__name__}: {error}",
                            traceback_text=None,
                            elapsed=0.0,
                            attempts=len(events[index]) + 1,
                            exception=error,
                        )
                elif message.kind == "hang":
                    # Only supervised pools synthesize hangs; the worker
                    # is already dead (killed by the pool).
                    if index is not None and staged[index] is None:
                        reason = message.payload["reason"]
                        hang_elapsed = message.payload["elapsed"]
                        handle_kill(
                            index,
                            message.worker_id,
                            reason,
                            f"WorkerHangError: worker {message.worker_id} "
                            f"hung ({reason}) after {hang_elapsed:.1f}s "
                            f"running {units[index].name!r}",
                        )
            if supervisor is None:
                if pool.alive_count() == 0:
                    outstanding = any(
                        staged[index] is None and not dispatched[index]
                        for index in range(count)
                    )
                    if outstanding:
                        if respawn_budget <= 0:
                            raise ParallelError(
                                "workers keep dying before accepting work; "
                                "giving up on the remaining units"
                            )
                        for worker_id in range(pool.jobs):
                            respawn_budget -= 1
                            pool.respawn(worker_id)
                continue
            outstanding = any(
                staged[index] is None and not dispatched[index]
                for index in range(count)
            )
            if not outstanding:
                continue
            dead = pool.dead_workers()
            if dead:
                delay = supervisor.backoff_delay()
                if delay > 0.0:
                    sleep(delay)
                for worker_id in dead:
                    if not supervisor.consume_respawn():
                        break
                    pool.respawn(worker_id)
            if pool.alive_count() == 0:
                # The respawn budget is gone and no worker survives:
                # the pool cannot be kept healthy.
                if not config.degraded_ok:
                    raise ParallelError(
                        "workers keep dying and the respawn budget is "
                        f"exhausted after {supervisor.respawns} respawns; "
                        "remaining units not run "
                        "(degraded_ok would fall back to serial)"
                    )
                pool.terminate()
                run_degraded_serial()
        clean = True
    finally:
        if pool is not None:
            if clean and not stop:
                pool.close()
            else:
                pool.terminate()
    if supervisor is not None:
        report.supervision = supervisor.stats()
    if unit_timing:
        report.timing = {
            "units": unit_timing,
            "totals": {
                key: sum(timing[key] for timing in unit_timing.values())
                for key in _TIMING_KEYS
            },
        }
    report.cache_corrupt_discarded += (
        corrupt_discarded_total() - corrupt_before
    )
    return report


__all__ = ["run_units_parallel"]
