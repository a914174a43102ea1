"""Failure-isolated execution of a suite of experiment units.

:func:`run_units` is the degrade-don't-die engine behind
``repro-experiments``: each unit runs under a retry policy and an
optional per-unit deadline; a unit that still fails is recorded as
FAILED with its traceback and the *rest of the suite keeps going*; with
a :class:`~repro.robustness.journal.RunJournal` attached, every outcome
is checkpointed so an interrupted run resumes where it left off.

Serial, parallel and degraded-serial runs share one loop: units are
staged as they finish and flushed (published, journaled, reported) in
spec order.  Only who runs the next unit differs — the parent itself,
or a forked worker pool from :mod:`repro.parallel.engine`.

The resulting :class:`SuiteReport` renders a one-screen summary (OK /
SKIPPED / FAILED per unit plus each failure's message) and maps to the
process exit code: 0 when everything succeeded, 1 when any unit failed.
"""

from __future__ import annotations

import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DeadlineExceededError, ParallelError
from repro.parallel.supervisor import SupervisorConfig
from repro.robustness.journal import RunJournal
from repro.robustness.retry import (
    NO_RETRY,
    Deadline,
    RetryPolicy,
    call_with_retry,
)

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class UnitSpec:
    """One schedulable unit of work: a name and a zero-argument callable.

    Units are independent: each runs (or fails) on its own, and results
    are published in list order.  Names must be unique within a run
    (see :func:`validate_units`).
    """

    name: str
    run: Callable[[], Any]


def validate_units(units: Sequence[UnitSpec]) -> None:
    """Reject a unit list with a repeated name.

    Raises :class:`~repro.errors.ParallelError` on a duplicate: the
    journal, the timing breakdown and the report are all keyed by name.
    """
    seen = set()
    for spec in units:
        if spec.name in seen:
            raise ParallelError(f"duplicate unit name {spec.name!r}")
        seen.add(spec.name)


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


@dataclass(frozen=True)
class StagedOutcome:
    """A finished unit waiting for its turn to be flushed.

    ``outcome`` is what the report will say unless publishing fails;
    ``exception`` is handed to ``on_failure``; ``detail`` is stored on
    the journal's failure record; ``retries`` are ``(attempt, error,
    delay)`` notices from a worker, announced when the unit is flushed.
    """

    outcome: UnitOutcome
    exception: Optional[BaseException] = None
    detail: Optional[Dict[str, Any]] = None
    retries: Tuple[Tuple[int, BaseException, float], ...] = ()


def failed_stage(
    name: str,
    error: BaseException,
    *,
    traceback: Optional[str],
    elapsed: float,
    attempts: int,
    detail: Optional[Dict[str, Any]] = None,
    retries: Tuple[Tuple[int, BaseException, float], ...] = (),
) -> StagedOutcome:
    """Stage unit ``name`` as FAILED with ``error``."""
    outcome = UnitOutcome(
        name=name,
        status=STATUS_FAILED,
        error=f"{type(error).__name__}: {error}",
        traceback=traceback,
        elapsed=elapsed,
        attempts=attempts,
    )
    return StagedOutcome(outcome, error, detail, retries)


def _format_traceback(error: BaseException) -> str:
    return "".join(
        traceback_module.format_exception(
            type(error), error, error.__traceback__
        )
    )


def run_units(
    units: Sequence[UnitSpec],
    *,
    journal: Optional[RunJournal] = None,
    resume: bool = False,
    retry_policy: RetryPolicy = RetryPolicy(),
    deadline_seconds: Optional[float] = None,
    fail_fast: bool = False,
    on_success: Optional[Callable[[UnitSpec, Any, float], None]] = None,
    on_skip: Optional[Callable[[UnitSpec], None]] = None,
    on_failure: Optional[Callable[[UnitSpec, BaseException], None]] = None,
    on_retry: Optional[Callable[[UnitSpec, int, BaseException, float], None]] = None,
    journal_payload: Optional[
        Callable[[UnitSpec, Any], Optional[Dict[str, Any]]]
    ] = None,
    sleep: Callable[[float], None] = time.sleep,
    jobs: Optional[int] = None,
    supervision: Optional[SupervisorConfig] = None,
) -> SuiteReport:
    """Run every unit, isolating failures; never raises for a unit's error.

    A repeated unit name raises :class:`~repro.errors.ParallelError`
    before any unit runs.

    ``on_success`` (publishing: rendering, writing result files) runs
    *before* the unit is journaled as complete, and inside the same
    failure-isolation boundary as the unit itself — a publish error
    records the unit FAILED rather than letting a later ``--resume``
    skip a unit whose outputs were never written.  ``journal_payload``
    maps a unit's result to the dict stored on its success record, so a
    resumed run can re-publish outputs without re-running the unit.

    There is one loop: finished units are *staged*, then *flushed*
    (published, journaled, reported) strictly as a contiguous prefix of
    spec order.  ``jobs`` (``0`` = one per CPU; default serial) decides
    who runs the next unstaged unit.  With one worker or one unit the
    parent runs it in-process and flushes it at once.  Otherwise a
    forked pool (:class:`repro.parallel.engine.PoolEngine`) runs units
    in any order and stages them as they finish; workers inherit the
    unit closures by fork, so units need not pickle, but their results
    must.  When a supervised pool cannot be kept alive the loop carries
    on in-process (degraded-serial).  Either way the report, journal
    contents and callback order are the same.  In-process retries call
    ``on_retry`` as they happen; a worker's are announced when its unit
    is flushed.

    ``KeyboardInterrupt``/``SystemExit`` raised by a unit running in the
    parent, or by a publish callback, is journaled as a failure (when a
    journal is attached) and then propagates, so an operator's Ctrl-C
    actually stops the run — the journal then makes the rerun cheap.
    """
    from repro.parallel.cache import corrupt_discarded_total
    from repro.parallel.pool import resolve_jobs

    validate_units(units)
    report = SuiteReport()
    corrupt_before = corrupt_discarded_total()
    staged: List[Optional[StagedOutcome]] = [None] * len(units)
    if resume and journal is not None:
        for index, spec in enumerate(units):
            if journal.completed(spec.name):
                staged[index] = StagedOutcome(
                    UnitOutcome(
                        name=spec.name,
                        status=STATUS_SKIPPED,
                        elapsed=journal.get(spec.name).elapsed,
                    )
                )

    def attempt(spec: UnitSpec, notify: Callable) -> Tuple[Any, int]:
        """Run one unit under the retry policy, in a worker or here."""
        return call_with_retry(
            spec.run,
            policy=retry_policy,
            deadline=Deadline(deadline_seconds),
            on_retry=notify,
            sleep=sleep,
            label=spec.name,
        )

    engine = None
    workers = resolve_jobs(jobs)
    if workers > 1 and len(units) > 1:
        from repro.parallel.engine import PoolEngine

        engine = PoolEngine(
            units,
            staged,
            attempt,
            jobs=workers,
            supervision=supervision,
            sleep=sleep,
        )

    def journal_interrupt(spec, interrupt, elapsed, attempts) -> None:
        if journal is not None:
            journal.record_failure(
                spec.name,
                error=f"interrupted: {interrupt!r}",
                elapsed=elapsed,
                attempts=attempts,
            )

    def run_here(index: int) -> None:
        """Run unit ``index`` in this process and stage its outcome."""
        spec = units[index]
        retried = [0]

        def notify(number, error, delay):
            retried[0] = number
            if on_retry is not None:
                on_retry(spec, number, error, delay)

        started = time.monotonic()
        try:
            result, attempts = attempt(spec, notify)
        except (KeyboardInterrupt, SystemExit) as interrupt:
            journal_interrupt(
                spec, interrupt, time.monotonic() - started, retried[0] + 1
            )
            raise
        except BaseException as error:  # noqa: BLE001 - isolation boundary
            elapsed = time.monotonic() - started
            timed_out = isinstance(error, DeadlineExceededError)
            staged[index] = failed_stage(
                spec.name,
                error,
                traceback=_format_traceback(error),
                elapsed=elapsed,
                attempts=retried[0] + (0 if timed_out else 1),
            )
        else:
            elapsed = time.monotonic() - started
            staged[index] = StagedOutcome(
                UnitOutcome(
                    name=spec.name,
                    status=STATUS_OK,
                    result=result,
                    elapsed=elapsed,
                    attempts=attempts,
                )
            )
        if engine is not None:
            engine.record_timing(index, run_s=elapsed)

    def flush(index: int) -> bool:
        """Publish, journal and report one staged unit; True if FAILED."""
        spec = units[index]
        stage = staged[index]
        outcome = stage.outcome
        if outcome.status == STATUS_SKIPPED:
            report.outcomes.append(outcome)
            if on_skip is not None:
                on_skip(spec)
            return False
        if on_retry is not None:
            for number, error, delay in stage.retries:
                on_retry(spec, number, error, delay)
        if outcome.status == STATUS_OK:
            # Publish BEFORE journaling success: a unit is complete only
            # once its outputs exist, so a publish error (render, CSV or
            # results-dir write) must not leave a success record that a
            # later --resume would trust.
            payload: Optional[Dict[str, Any]] = None
            try:
                if on_success is not None:
                    on_success(spec, outcome.result, outcome.elapsed)
                if journal is not None and journal_payload is not None:
                    payload = journal_payload(spec, outcome.result)
            except (KeyboardInterrupt, SystemExit) as interrupt:
                journal_interrupt(
                    spec, interrupt, outcome.elapsed, outcome.attempts
                )
                raise
            except BaseException as error:  # noqa: BLE001 - isolation boundary
                stage = failed_stage(
                    spec.name,
                    error,
                    traceback=_format_traceback(error),
                    elapsed=outcome.elapsed,
                    attempts=outcome.attempts,
                )
            else:
                if journal is not None:
                    journal.record_success(
                        spec.name,
                        elapsed=outcome.elapsed,
                        attempts=outcome.attempts,
                        payload=payload,
                    )
                report.outcomes.append(outcome)
                return False
        failure = stage.outcome
        if journal is not None:
            journal.record_failure(
                spec.name,
                error=failure.error,
                traceback=failure.traceback,
                elapsed=failure.elapsed,
                attempts=failure.attempts,
                detail=stage.detail,
            )
        report.outcomes.append(failure)
        if on_failure is not None:
            on_failure(spec, stage.exception)
        return True

    flushed = 0
    try:
        while flushed < len(units):
            if staged[flushed] is None:
                if engine is not None and engine.pool is not None:
                    engine.step()
                    continue
                run_here(flushed)
            flush_started = time.monotonic()
            failed = flush(flushed)
            if engine is not None:
                engine.record_flush(flushed, time.monotonic() - flush_started)
            flushed += 1
            if failed and fail_fast:
                break
    finally:
        if engine is not None:
            engine.close(graceful=flushed == len(units))
    if engine is not None:
        engine.finish(report)
    report.cache_corrupt_discarded += corrupt_discarded_total() - corrupt_before
    return report


def run_passes(
    passes: Sequence[Tuple[str, Callable[[], Any]]],
    *,
    jobs: Optional[int] = None,
) -> List[Any]:
    """Run independent ``(label, fn)`` passes; return results in order.

    Serially (``jobs`` resolving to 1, which it always does inside a
    worker, or fewer than two passes) this is a plain loop and a pass's
    exception propagates unchanged.  Otherwise each pass is one
    :func:`run_units` unit without retries: ``fn`` may be a closure
    (workers are forked after it is captured) but its result must
    pickle, and once every pass has finished the first failed one
    raises :class:`~repro.errors.ParallelError` as ``"<label> failed:
    Type: message"``.
    """
    from repro.parallel.pool import resolve_jobs

    if resolve_jobs(jobs) <= 1 or len(passes) < 2:
        return [fn() for _label, fn in passes]
    report = run_units(
        [
            UnitSpec(name=f"{index}/{label}", run=fn)
            for index, (label, fn) in enumerate(passes)
        ],
        retry_policy=NO_RETRY,
        jobs=jobs,
    )
    for (label, _fn), outcome in zip(passes, report.outcomes):
        if outcome.failed:
            raise ParallelError(f"{label} failed: {outcome.error}")
    return [outcome.result for outcome in report.outcomes]


__all__ = [
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "StagedOutcome",
    "SuiteReport",
    "UnitOutcome",
    "UnitSpec",
    "failed_stage",
    "run_passes",
    "run_units",
    "validate_units",
]
