"""Failure-isolated execution of a suite of experiment units.

:func:`run_units` is the degrade-don't-die engine behind
``repro-experiments``: each unit runs under a retry policy and an
optional per-unit deadline; a unit that still fails is recorded as
FAILED with its traceback and the *rest of the suite keeps going*; with
a :class:`~repro.robustness.journal.RunJournal` attached, every outcome
is checkpointed so an interrupted run resumes where it left off.

The resulting :class:`SuiteReport` renders a one-screen summary (OK /
SKIPPED / FAILED per unit plus each failure's message) and maps to the
process exit code: 0 when everything succeeded, 1 when any unit failed.
"""

from __future__ import annotations

import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.errors import DeadlineExceededError
from repro.parallel.supervisor import SupervisorConfig
from repro.robustness.journal import RunJournal
from repro.robustness.retry import Deadline, RetryPolicy, call_with_retry

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class UnitSpec:
    """One schedulable unit of work: a name and a zero-argument callable.

    Units are independent: each runs (or fails) on its own, and results
    are published in list order.  ``affinity`` is an opaque grouping key
    for parallel runs — units sharing a key run in the same worker
    process, so worker-local state (a warmed stack pass) is actually
    reused; it is moot in serial runs.

    ``cost`` is an optional relative size estimate (e.g. estimated
    references x geometry count) steering parallel batch packing; it
    never affects correctness, only how units are grouped per dispatch.
    """

    name: str
    run: Callable[[], Any]
    affinity: Optional[str] = None
    cost: Optional[float] = None


@dataclass(frozen=True)
class UnitOutcome:
    """What happened to one unit.

    ``status`` is ``"ok"`` (ran and succeeded), ``"skipped"`` (already
    journaled as complete by a previous run), or ``"failed"`` (exhausted
    its retries or its deadline).  ``result`` is the unit's return value
    only when it ran this time; skipped units carry ``None``.
    """

    name: str
    status: str
    result: Any = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    elapsed: float = 0.0
    attempts: int = 0

    @property
    def failed(self) -> bool:
        return self.status == STATUS_FAILED


@dataclass
class SuiteReport:
    """Every unit's outcome, in execution order."""

    outcomes: List[UnitOutcome] = field(default_factory=list)
    #: Supervision counters from a supervised parallel run (kills,
    #: requeues, respawns, poisoned units, degraded flag); None for
    #: serial or unsupervised runs.
    supervision: Optional[Dict[str, Any]] = None
    #: Corrupt cache entries discarded (and recomputed) during the run.
    cache_corrupt_discarded: int = 0
    #: Per-unit orchestration timing from a parallel run: ``{"units":
    #: {name: {dispatch_s, queue_wait_s, run_s, result_transfer_s,
    #: flush_s}}, "totals": {...}}``; None for serial runs.
    timing: Optional[Dict[str, Any]] = None

    @property
    def succeeded(self) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.status == STATUS_OK]

    @property
    def skipped(self) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.status == STATUS_SKIPPED]

    @property
    def failures(self) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        """One-screen failure report in the style of a test summary."""
        lines = [
            f"suite: {len(self.succeeded)} ok, {len(self.skipped)} resumed, "
            f"{len(self.failures)} failed"
        ]
        for outcome in self.outcomes:
            marker = {
                STATUS_OK: "ok    ",
                STATUS_SKIPPED: "resume",
                STATUS_FAILED: "FAILED",
            }[outcome.status]
            detail = f" ({outcome.elapsed:.1f}s, {outcome.attempts} attempt"
            detail += "s)" if outcome.attempts != 1 else ")"
            if outcome.status == STATUS_SKIPPED:
                detail = " (journaled by a previous run)"
            lines.append(f"  {marker}  {outcome.name}{detail}")
        if self.cache_corrupt_discarded:
            lines.append(
                f"  note: {self.cache_corrupt_discarded} corrupt cache "
                f"entr{'ies' if self.cache_corrupt_discarded != 1 else 'y'} "
                f"discarded and recomputed"
            )
        if self.supervision:
            sup = self.supervision
            interventions = (
                sup.get("crashes", 0)
                + sup.get("hangs", 0)
                + sup.get("respawns", 0)
            )
            if interventions or sup.get("degraded") or sup.get("poisoned"):
                lines.append(
                    f"  supervision: {sup.get('crashes', 0)} crashes, "
                    f"{sup.get('hangs', 0)} hangs, "
                    f"{sup.get('respawns', 0)} respawns, "
                    f"{len(sup.get('poisoned', []))} quarantined"
                    + (" [degraded to serial]" if sup.get("degraded") else "")
                )
        for outcome in self.failures:
            lines.append("")
            lines.append(f"FAILED {outcome.name}: {outcome.error}")
            if outcome.traceback:
                lines.append(outcome.traceback.rstrip("\n"))
        return "\n".join(lines)


def run_units(
    units: Sequence[UnitSpec],
    *,
    journal: Optional[RunJournal] = None,
    resume: bool = False,
    retry_policy: RetryPolicy = RetryPolicy(),
    deadline_seconds: Optional[float] = None,
    fail_fast: bool = False,
    retriable: Tuple[Type[BaseException], ...] = (Exception,),
    on_success: Optional[Callable[[UnitSpec, Any, float], None]] = None,
    on_skip: Optional[Callable[[UnitSpec], None]] = None,
    on_failure: Optional[Callable[[UnitSpec, BaseException], None]] = None,
    on_retry: Optional[Callable[[UnitSpec, int, BaseException, float], None]] = None,
    journal_payload: Optional[
        Callable[[UnitSpec, Any], Optional[Dict[str, Any]]]
    ] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    jobs: Optional[int] = None,
    supervision: Optional[SupervisorConfig] = None,
    batch_size: Optional[int] = None,
) -> SuiteReport:
    """Run every unit, isolating failures; never raises for a unit's error.

    ``on_success`` (publishing: rendering, writing result files) runs
    *before* the unit is journaled as complete, and inside the same
    failure-isolation boundary as the unit itself — a publish error
    records the unit FAILED rather than letting a later ``--resume``
    skip a unit whose outputs were never written.  ``journal_payload``
    maps a unit's result to the dict stored on its success record, so a
    resumed run can re-publish outputs without re-running the unit.

    ``jobs`` spreads units over that many forked worker processes
    (``0`` = one per CPU; default serial).  The workers inherit the unit
    closures by fork, so units need not pickle; their results must.
    The parallel path (:mod:`repro.parallel.engine`) produces the same
    report, journal contents and callback order as this serial loop:
    workers only compute, while the parent publishes and journals
    outcomes as a contiguous prefix of spec order.  ``clock``/``sleep`` injection only
    affects worker-side retry timing through the fork, so tests that
    fake time should stay serial.

    ``KeyboardInterrupt``/``SystemExit`` still propagate (after being
    journaled as a failure when a journal is attached) so an operator's
    Ctrl-C actually stops the run — the journal then makes the rerun
    cheap, which is the whole point.
    """
    from repro.parallel.cache import corrupt_discarded_total
    from repro.parallel.pool import resolve_jobs

    worker_count = resolve_jobs(jobs)
    corrupt_before = corrupt_discarded_total()
    if worker_count > 1 and len(units) > 1:
        from repro.parallel.engine import run_units_parallel

        return run_units_parallel(
            units,
            jobs=worker_count,
            journal=journal,
            resume=resume,
            retry_policy=retry_policy,
            deadline_seconds=deadline_seconds,
            fail_fast=fail_fast,
            retriable=retriable,
            on_success=on_success,
            on_skip=on_skip,
            on_failure=on_failure,
            on_retry=on_retry,
            journal_payload=journal_payload,
            clock=clock,
            sleep=sleep,
            supervision=supervision,
            batch_size=batch_size,
        )
    if any(spec.affinity is not None for spec in units):
        from repro.parallel.scheduler import validate_units

        validate_units(units)

    report = SuiteReport()
    for spec in units:
        if resume and journal is not None and journal.completed(spec.name):
            previous = journal.get(spec.name)
            report.outcomes.append(
                UnitOutcome(
                    name=spec.name,
                    status=STATUS_SKIPPED,
                    elapsed=previous.elapsed if previous else 0.0,
                )
            )
            if on_skip is not None:
                on_skip(spec)
            continue

        deadline = Deadline(deadline_seconds, clock=clock)
        started = clock()
        attempts_seen = {"count": 0}

        def unit_on_retry(attempt, error, delay, _spec=spec):
            attempts_seen["count"] = attempt
            if on_retry is not None:
                on_retry(_spec, attempt, error, delay)

        def journal_interrupt(interrupt, attempts, _spec=spec, _started=started):
            if journal is not None:
                journal.record_failure(
                    _spec.name,
                    error=f"interrupted: {interrupt!r}",
                    elapsed=clock() - _started,
                    attempts=attempts,
                )

        def record_unit_failure(error, attempts, _spec=spec, _started=started):
            elapsed = clock() - _started
            trace_text = "".join(
                traceback_module.format_exception(
                    type(error), error, error.__traceback__
                )
            )
            if journal is not None:
                journal.record_failure(
                    _spec.name,
                    error=f"{type(error).__name__}: {error}",
                    traceback=trace_text,
                    elapsed=elapsed,
                    attempts=attempts,
                )
            report.outcomes.append(
                UnitOutcome(
                    name=_spec.name,
                    status=STATUS_FAILED,
                    error=f"{type(error).__name__}: {error}",
                    traceback=trace_text,
                    elapsed=elapsed,
                    attempts=attempts,
                )
            )
            if on_failure is not None:
                on_failure(_spec, error)

        try:
            result, attempts = call_with_retry(
                spec.run,
                policy=retry_policy,
                deadline=deadline,
                retriable=retriable,
                on_retry=unit_on_retry,
                sleep=sleep,
                label=spec.name,
            )
        except (KeyboardInterrupt, SystemExit) as interrupt:
            journal_interrupt(interrupt, attempts_seen["count"] + 1)
            raise
        except BaseException as error:  # noqa: BLE001 - isolation boundary
            attempts = (
                attempts_seen["count"] + 1
                if not isinstance(error, DeadlineExceededError)
                else attempts_seen["count"]
            )
            record_unit_failure(error, attempts)
            if fail_fast:
                break
            continue

        # Publish BEFORE journaling success: a unit is complete only
        # once its outputs exist, so a publish error (render, CSV or
        # results-dir write) must not leave a success record that a
        # later --resume would trust.
        elapsed = clock() - started
        payload: Optional[Dict[str, Any]] = None
        try:
            if on_success is not None:
                on_success(spec, result, elapsed)
            if journal is not None and journal_payload is not None:
                payload = journal_payload(spec, result)
        except (KeyboardInterrupt, SystemExit) as interrupt:
            journal_interrupt(interrupt, attempts)
            raise
        except BaseException as error:  # noqa: BLE001 - isolation boundary
            record_unit_failure(error, attempts)
            if fail_fast:
                break
            continue

        if journal is not None:
            journal.record_success(
                spec.name, elapsed=elapsed, attempts=attempts, payload=payload
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
    report.cache_corrupt_discarded = corrupt_discarded_total() - corrupt_before
    return report


__all__ = [
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "SuiteReport",
    "UnitOutcome",
    "UnitSpec",
    "run_units",
]
