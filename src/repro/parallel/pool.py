"""Fork-based worker pool with an explicit message protocol.

The pool exists to run *experiment units* — closures over traces,
configs and policies that are expensive or impossible to pickle — so it
forks workers **after** the task registry is built and ships only small
integers (task ids) to workers.  This is the only way work leaves the
parent process: each ``run_units(..., jobs=N)`` call builds one pool
over its own units and closes it when the call ends.

Design decisions, each load-bearing:

* **Batched dispatch, per-unit accounting.**  The parent ships a *batch*
  (a list of task ids) in one queue round-trip, but the worker reports
  ``start``/``done``/``error`` per task, so journal records, cache
  entries and supervision stay per-unit.  A worker that dies mid-batch
  takes down exactly the task it was running — the untouched siblings
  come back as ``"requeue"`` messages, not failures.  Scheduling
  (affinity, batch packing) lives in the parent, which is what makes
  deterministic journal ordering possible.
* **One result pipe per worker, written synchronously.**  A pool-wide
  ``multiprocessing.Queue`` shares one feeder lock and one byte stream
  between every worker, so a worker SIGKILLed mid-write can wedge the
  channel for all survivors — perfectly healthy workers then go silent
  and get killed as heartbeat hangs.  A private ``Pipe`` per worker
  fails alone: the dead worker's write end closes, the parent reads
  EOF, and everyone else keeps talking.  Synchronous sends also mean a
  message that finished sending is never lost with a feeder thread —
  the parent reads a dead worker's last reports before judging what
  the death orphaned.
* **Results are pickled inside the worker's try block.**  An
  unpicklable result would otherwise blow up the transport send after
  the reporting path; encoding eagerly turns it into an ordinary
  reported error.  The pipe carries the plain pickle blob.
* **Crashes are messages, not exceptions.**  ``poll`` watches worker
  liveness and synthesizes a ``"crash"`` message for the running task
  of a dead worker (plus ``"requeue"`` for its pending batch siblings),
  so callers handle a segfault with the same code path as a Python
  exception.
* **Hangs are messages too.**  A supervised pool (one built with
  ``heartbeat_interval`` and/or ``unit_deadline``) runs a daemon
  heartbeat thread in every worker and tracks dispatch times in the
  parent; ``poll`` synthesizes a ``"hang"`` message — after killing the
  worker, SIGTERM then SIGKILL past the grace period — when a worker
  blows its per-unit deadline, stops heartbeating (a GIL-holding C
  hang, a SIGSTOP, a wedged transport), or trips the optional RSS
  watchdog.  Workers only beat while running a task, so an idle
  worker fills no pipe.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from multiprocessing import connection as connection_module
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ParallelError, WorkerCrashError

#: Worker-side globals, set once per forked process.
_CURRENT_WORKER: Optional[int] = None
_CURRENT_TASK: Optional[int] = None
_RESULT_QUEUE: Any = None


class RemoteTaskError(RuntimeError):
    """Base of dynamically rebuilt worker exceptions.

    A worker reports failures as ``(type_name, message, traceback)``
    strings; :func:`reconstruct_error` rebuilds an exception whose
    *class name* matches the original, so parent-side formatting
    (``f"{type(error).__name__}: {error}"``) is identical to a serial
    run.  The worker's formatted traceback rides along as
    ``remote_traceback``.
    """


def reconstruct_error(
    type_name: str, message: str, traceback_text: Optional[str] = None
) -> BaseException:
    """Rebuild a worker-reported exception for parent-side handling."""
    error = type(type_name, (RemoteTaskError,), {})(message)
    error.remote_traceback = traceback_text
    return error


def in_worker() -> bool:
    """True inside a pool worker process (used to forbid nesting)."""
    return _CURRENT_WORKER is not None


def emit_event(payload: Any) -> None:
    """Send an out-of-band event (e.g. a retry notice) to the parent.

    No-op outside a worker, so code instrumented with events runs
    unchanged in serial mode.
    """
    if _RESULT_QUEUE is not None:
        _RESULT_QUEUE.put(("event", _CURRENT_WORKER, _CURRENT_TASK, payload))


def fork_available() -> bool:
    """Whether this platform supports the fork start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` request to an actual worker count.

    ``None`` or ``1`` mean serial; ``0`` means one worker per CPU;
    anything else is taken literally.  Inside a pool worker, or on a
    platform without fork, the answer is always 1 — parallelism never
    nests and never silently switches to spawn semantics (which could
    not see the parent's task closures).
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ParallelError(f"jobs must be >= 0, got {jobs}")
    if in_worker() or not fork_available():
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


#: A pool message: kind is "start" | "done" | "error" | "event" |
#: "bye" | "crash" | "hang" | "requeue".  ``payload`` is kind-specific
#: (see ``_worker_main``; for "hang" it is a dict with ``reason`` —
#: ``"deadline"``/``"heartbeat"``/``"rss"`` — and ``elapsed`` seconds;
#: for "done" it is ``(blob, elapsed, meta)`` where ``blob`` is the
#: pickled result and ``meta`` carries worker-side timestamps).  A
#: "requeue" message names a task that was pending in a dead/killed
#: worker's batch and was never started — the caller should simply
#: dispatch it again.  "heartbeat" messages exist on the wire
#: but are consumed inside ``poll`` and never returned to callers.
@dataclass(frozen=True)
class Message:
    kind: str
    worker_id: int
    task_id: Optional[int]
    payload: Any = None


class _WorkerChannel:
    """Worker-side writer for the per-worker result pipe.

    The worker's main thread and its heartbeat thread both report
    through this; a raw ``Connection`` is not thread-safe, so sends are
    serialized under a lock.  Exposes the same ``put`` surface as the
    queue it replaced, keeping :func:`emit_event` and the heartbeat
    loop transport-agnostic.
    """

    def __init__(self, connection: Any) -> None:
        self._connection = connection
        self._lock = threading.Lock()

    def put(self, item: Any) -> None:
        with self._lock:
            self._connection.send(item)


def _heartbeat_loop(worker_id, result_queue, interval) -> None:
    """Worker-side daemon thread: prove liveness every ``interval`` seconds.

    The thread keeps beating through a pure-Python busy loop in the main
    thread (the GIL is released every switch interval), so a lost
    heartbeat means something harder — a C extension holding the GIL, a
    stopped process, a wedged pipe — which is exactly what the
    parent's hang detector should treat as dead.  Beats are only sent
    while a task is running: the parent's detector only judges busy
    workers, and an idle worker must not fill the result pipe while
    nobody is polling it.
    """
    while True:
        time.sleep(interval)
        if _CURRENT_TASK is None:
            continue
        try:
            result_queue.put(
                ("heartbeat", worker_id, _CURRENT_TASK, time.monotonic())
            )
        except Exception:  # noqa: BLE001 - interpreter teardown
            return


def _worker_main(
    worker_id,
    tasks,
    task_queue,
    result_connection,
    heartbeat_interval=None,
    progress_started=None,
    progress_done=None,
) -> None:
    """Worker loop: take a batch of task ids off the queue.

    Each id indexes the fork-inherited ``tasks`` registry.  Each task in
    the batch is reported individually; the batch is only a transport
    envelope.  Reports travel over this worker's private
    ``result_connection`` (see the module docstring for why it is not
    a shared queue).

    ``progress_started``/``progress_done`` are fork-shared ints updated
    around every task.  Pipe sends are synchronous, so a report that
    finished sending always survives the worker — but a worker killed
    *mid-send* leaves a truncated frame the parent must discard, and
    with it the ``"done"`` or ``"start"`` it never got to read.  The
    shared slots survive the death and give the parent ground truth:
    ``started != done`` names the task that was running.
    """
    global _CURRENT_WORKER, _CURRENT_TASK, _RESULT_QUEUE
    _CURRENT_WORKER = worker_id
    result_queue = _WorkerChannel(result_connection)
    _RESULT_QUEUE = result_queue
    if heartbeat_interval is not None:
        threading.Thread(
            target=_heartbeat_loop,
            args=(worker_id, result_queue, heartbeat_interval),
            daemon=True,
        ).start()
    while True:
        batch = task_queue.get()
        if batch is None:
            result_queue.put(("bye", worker_id, None, None))
            return
        for task_id in batch:
            _CURRENT_TASK = task_id
            if progress_started is not None:
                progress_started.value = task_id
            started = time.monotonic()
            result_queue.put(("start", worker_id, task_id, started))
            try:
                result = tasks[task_id]()
                run_seconds = time.monotonic() - started
                encode_started = time.monotonic()
                blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
                encode_seconds = time.monotonic() - encode_started
            except BaseException as error:  # noqa: BLE001 - reported
                detail = (
                    type(error).__name__,
                    str(error),
                    "".join(
                        traceback_module.format_exception(
                            type(error), error, error.__traceback__
                        )
                    ),
                    time.monotonic() - started,
                )
                result_queue.put(("error", worker_id, task_id, detail))
                if progress_done is not None:
                    progress_done.value = task_id
                _CURRENT_TASK = None
                if isinstance(error, (KeyboardInterrupt, SystemExit)):
                    return
            else:
                meta = {
                    "started_at": started,
                    "sent_at": time.monotonic(),
                    "run_s": run_seconds,
                    "encode_s": encode_seconds,
                }
                result_queue.put(
                    ("done", worker_id, task_id, (blob, run_seconds, meta))
                )
                if progress_done is not None:
                    progress_done.value = task_id
                _CURRENT_TASK = None


@dataclass
class _WorkerHandle:
    worker_id: int
    process: Any
    task_queue: Any
    #: The task the worker has reported "start" for (or the whole batch
    #: until the first start arrives — see ``in_flight``), plus the
    #: batch tail it has not started yet.
    current: Optional[int] = None
    pending: List[int] = field(default_factory=list)
    dispatched: int = 0
    sentinel_sent: bool = False
    said_bye: bool = False
    reported_dead: bool = False
    #: Supervision bookkeeping: when the current batch was dispatched,
    #: when the running unit started (parent clock), and when the
    #: worker last proved liveness.
    dispatched_at: Optional[float] = None
    unit_started_at: Optional[float] = None
    last_beat: Optional[float] = None
    #: Fork-shared ints the worker writes around each task; survive the
    #: worker's death and outlive any report SIGKILL truncated mid-send.
    progress_started: Any = None
    progress_done: Any = None
    #: Parent-side read end of this worker's private result pipe.  EOF
    #: (the worker died and its write end closed) or a truncated frame
    #: marks the channel closed; other workers' channels are unaffected.
    receiver: Any = None
    receiver_closed: bool = False

    def victim_and_siblings(self) -> Tuple[Optional[int], List[int]]:
        """Which unacknowledged task this worker died on, and the rest.

        Message-based accounting (``current``/``pending``) can be stale
        when the worker was SIGKILLed mid-send: the parent discards the
        truncated frame, and with it the ``done`` for the previous task
        or the ``start`` for the running one.  The shared progress
        slots are authoritative: ``started != done`` names the exact
        task that was running at death.  Fall back to the
        message-based ``in_flight`` when the slots say the worker was
        between tasks (or for pools predating them).
        """
        unacked: List[int] = []
        if self.current is not None:
            unacked.append(self.current)
        unacked.extend(tid for tid in self.pending if tid != self.current)
        victim = self.in_flight
        started = (
            self.progress_started.value
            if self.progress_started is not None
            else -1
        )
        done = (
            self.progress_done.value
            if self.progress_done is not None
            else -1
        )
        if started >= 0 and started != done and started in unacked:
            victim = started
        siblings = [tid for tid in unacked if tid != victim]
        return victim, siblings

    @property
    def usable(self) -> bool:
        return (
            not self.sentinel_sent
            and not self.reported_dead
            and self.process.is_alive()
        )

    @property
    def busy(self) -> bool:
        return self.current is not None or bool(self.pending)

    @property
    def in_flight(self) -> Optional[int]:
        """The task this worker would orphan if it died right now."""
        if self.current is not None:
            return self.current
        return self.pending[0] if self.pending else None


def _process_rss_kb(pid: int) -> Optional[int]:
    """Resident set size of ``pid`` in KB via /proc, or None off-Linux."""
    try:
        with open(f"/proc/{pid}/statm", "rb") as stream:
            pages = int(stream.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        return None


class WorkerPool:
    """A fixed-size pool of forked workers; see the module docstring.

    The keyword-only supervision knobs are all off by default (an
    unsupervised pool behaves exactly as before):

    * ``heartbeat_interval`` — workers run a daemon thread proving
      liveness this often while a task runs; ``poll`` declares a worker
      hung when no beat arrives for ``heartbeat_timeout`` (default 6x
      the interval).
    * ``unit_deadline`` — hard per-task wall clock; a worker still
      running one task past it is killed and the task surfaces as a
      ``"hang"`` message.
    * ``rss_limit_kb`` — RSS watchdog; a worker whose resident set
      exceeds this while running a task is killed the same way.
    * ``kill_grace`` — seconds between SIGTERM and SIGKILL in
      :meth:`kill`.
    """

    def __init__(
        self,
        tasks: Sequence[Callable[[], Any]],
        jobs: int = 1,
        *,
        heartbeat_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        unit_deadline: Optional[float] = None,
        rss_limit_kb: Optional[int] = None,
        kill_grace: float = 1.0,
    ) -> None:
        if in_worker():
            raise ParallelError("worker pools must not be created in a worker")
        if not fork_available():
            raise ParallelError("worker pools need the fork start method")
        if jobs < 1:
            raise ParallelError(f"a pool needs at least one worker, got {jobs}")
        for name, value in (
            ("heartbeat_interval", heartbeat_interval),
            ("heartbeat_timeout", heartbeat_timeout),
            ("unit_deadline", unit_deadline),
            ("kill_grace", kill_grace),
        ):
            if value is not None and value <= 0:
                raise ParallelError(f"{name} must be positive, got {value}")
        self.jobs = jobs
        self._tasks = list(tasks)
        self._heartbeat_interval = heartbeat_interval
        if heartbeat_timeout is None and heartbeat_interval is not None:
            heartbeat_timeout = 6.0 * heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._unit_deadline = unit_deadline
        self._rss_limit_kb = rss_limit_kb
        self._kill_grace = kill_grace
        self._last_rss_check = 0.0
        self._context = multiprocessing.get_context("fork")
        self._workers: Dict[int, _WorkerHandle] = {}
        self._deferred: List[Message] = []
        self._closed = False
        for worker_id in range(jobs):
            self._spawn(worker_id)

    def _spawn(self, worker_id: int) -> None:
        old = self._workers.get(worker_id)
        if old is not None:
            # Replacing a dead worker: drain and close its channel so
            # no leftover report is read under the new worker's id.
            self._retire_channel(old)
        task_queue = self._context.SimpleQueue()
        receiver, sender = self._context.Pipe(duplex=False)
        # Unlocked shared ints: single-writer (the worker), single-reader
        # (the parent, and only once the worker is dead or being killed).
        progress_started = self._context.Value("q", -1, lock=False)
        progress_done = self._context.Value("q", -1, lock=False)
        process = self._context.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._tasks,
                task_queue,
                sender,
                self._heartbeat_interval,
                progress_started,
                progress_done,
            ),
            daemon=True,
        )
        process.start()
        # Close the parent's copy of the write end: the worker now holds
        # the only one, so its death — however abrupt — EOFs the pipe.
        # (Spawns are sequential in the parent, so no other fork can
        # inherit this write end in between.)
        sender.close()
        self._workers[worker_id] = _WorkerHandle(
            worker_id,
            process,
            task_queue,
            progress_started=progress_started,
            progress_done=progress_done,
            receiver=receiver,
        )

    def respawn(self, worker_id: int) -> None:
        """Replace a dead worker so remaining work can still be absorbed."""
        handle = self._workers[worker_id]
        if handle.process.is_alive():
            raise ParallelError(f"worker {worker_id} is alive; not respawning")
        self._spawn(worker_id)

    def kill(self, worker_id: int) -> Optional[int]:
        """Forcibly stop one worker: SIGTERM, then SIGKILL after grace.

        Returns the task id that was running (now orphaned), or None.
        Batch siblings the worker never started are deferred as
        ``"requeue"`` messages surfaced by the next :meth:`poll`.  The
        handle is marked dead so ``poll`` does not also synthesize a
        ``"crash"`` for it; the caller decides what the orphaned task
        means (requeue, fail, quarantine).
        """
        handle = self._workers[worker_id]
        task_id, siblings = handle.victim_and_siblings()
        handle.current = None
        handle.pending = []
        handle.dispatched_at = None
        handle.unit_started_at = None
        handle.reported_dead = True
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(self._kill_grace)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(1.0)
        else:
            handle.process.join(0.0)
        self._deferred.extend(
            Message("requeue", worker_id, sibling, None) for sibling in siblings
        )
        return task_id

    def submit(self, worker_id: int, task_id: int) -> None:
        """Dispatch one registry task to an idle worker."""
        self.submit_batch(worker_id, [task_id])

    def submit_batch(self, worker_id: int, task_ids: Sequence[int]) -> None:
        """Dispatch registry tasks to an idle worker in one round-trip.

        The worker reports each task individually; order within the
        batch is execution order.
        """
        if self._closed:
            raise ParallelError("pool is closed")
        if not task_ids:
            raise ParallelError("submit_batch needs at least one task")
        handle = self._workers[worker_id]
        if handle.busy:
            raise ParallelError(
                f"worker {worker_id} already has task {handle.in_flight}"
            )
        if not handle.usable:
            raise WorkerCrashError(f"worker {worker_id} is not running")
        handle.pending = list(task_ids)
        handle.dispatched += len(handle.pending)
        now = time.monotonic()
        handle.dispatched_at = now
        handle.unit_started_at = None
        handle.last_beat = now
        handle.task_queue.put(list(task_ids))

    def idle_workers(self) -> List[int]:
        """Usable workers with no task in flight, least-loaded first."""
        idle = [
            handle
            for handle in self._workers.values()
            if handle.usable and not handle.busy
        ]
        idle.sort(key=lambda handle: (handle.dispatched, handle.worker_id))
        return [handle.worker_id for handle in idle]

    def alive_count(self) -> int:
        return sum(1 for handle in self._workers.values() if handle.usable)

    def busy_count(self) -> int:
        """Workers holding a batch whose outcome is still unresolved.

        Deliberately *not* gated on process liveness: a worker that died
        with work in flight stays "busy" until :meth:`poll` synthesizes
        its crash and requeues the siblings.  The engine's AIMD window
        compares against this count, so counting the dead worker as free
        would let a requeued crasher be re-dispatched before its own
        crash was even accounted — racing the supervisor's kill
        bookkeeping and respawn budget.
        """
        return sum(
            1
            for handle in self._workers.values()
            if not handle.sentinel_sent and handle.busy
        )

    def dead_workers(self) -> List[int]:
        """Worker ids that died (or were killed) and were not retired."""
        return [
            handle.worker_id
            for handle in self._workers.values()
            if not handle.sentinel_sent and not handle.process.is_alive()
        ]

    def _retire_channel(self, handle: _WorkerHandle) -> None:
        """Drain and close one worker's pipe for good.

        Any unread report is stale by definition (the worker is being
        replaced or the pool is shutting down).
        """
        self._drain_receiver(handle)
        self._close_receiver(handle)

    def _close_receiver(self, handle: _WorkerHandle) -> None:
        handle.receiver_closed = True
        if handle.receiver is not None:
            try:
                handle.receiver.close()
            except OSError:
                pass

    def _drain_receiver(self, handle: _WorkerHandle) -> List[Any]:
        """Read every complete frame waiting on one worker's pipe.

        EOF (the worker died, its write end closed) and a truncated or
        corrupt frame (the worker died *mid-send*) both end the channel
        — for this worker only.  Everything sent before that is
        returned intact: pipe writes are synchronous in the worker, so
        unlike a queue's feeder thread, a finished ``send`` cannot be
        lost to SIGKILL.
        """
        items: List[Any] = []
        conn = handle.receiver
        if conn is None or handle.receiver_closed:
            return items
        while True:
            try:
                if not conn.poll(0):
                    break
                items.append(conn.recv())
            except (EOFError, OSError):
                self._close_receiver(handle)
                break
            except Exception:  # noqa: BLE001 - unpicklable/corrupt frame
                self._close_receiver(handle)
                break
        return items

    def _read_available(self, timeout: float) -> List[Any]:
        """Multiplex all live worker pipes for up to ``timeout`` seconds."""
        receivers = {
            handle.receiver: handle
            for handle in self._workers.values()
            if handle.receiver is not None and not handle.receiver_closed
        }
        if not receivers:
            if timeout > 0:
                time.sleep(timeout)
            return []
        try:
            ready = connection_module.wait(list(receivers), timeout)
        except OSError:
            return []
        items: List[Any] = []
        for conn in ready:
            items.extend(self._drain_receiver(receivers[conn]))
        return items

    def _account(self, item: Any, messages: List[Message]) -> None:
        """Fold one raw transport item into handle state and ``messages``."""
        message = Message(*item)
        handle = self._workers.get(message.worker_id)
        if message.kind == "heartbeat":
            # Parent clock, not the worker's send time: delivery may
            # lag, but delivery proves liveness.
            if handle is not None:
                handle.last_beat = time.monotonic()
            return
        messages.append(message)
        if handle is None:
            return
        if message.kind == "start":
            now = time.monotonic()
            handle.last_beat = now
            handle.unit_started_at = now
            handle.current = message.task_id
            if message.task_id in handle.pending:
                handle.pending.remove(message.task_id)
        elif message.kind in ("done", "error"):
            handle.last_beat = time.monotonic()
            if handle.current == message.task_id:
                handle.current = None
                handle.unit_started_at = None
            elif message.task_id in handle.pending:
                # Start message lost/merged; keep accounting sane.
                handle.pending.remove(message.task_id)
            if not handle.busy:
                handle.dispatched_at = None
        elif message.kind == "bye":
            handle.said_bye = True

    def poll(self, timeout: float = 0.1) -> List[Message]:
        """Drain pending messages, then synthesize crashes and hangs.

        Heartbeat messages are consumed here (they refresh the sender's
        liveness clock) and never returned.  A worker with a task in
        flight that blows the per-unit deadline, goes silent past the
        heartbeat timeout, or trips the RSS watchdog is killed via
        :meth:`kill` and reported as a ``"hang"`` message whose payload
        carries the reason and elapsed seconds.  Batch siblings of dead
        or killed workers surface as ``"requeue"`` messages after the
        crash/hang that stranded them.
        """
        messages: List[Message] = []
        for item in self._read_available(timeout):
            self._account(item, messages)
        for handle in self._workers.values():
            if (
                not handle.said_bye
                and not handle.reported_dead
                and not handle.sentinel_sent
                and not handle.process.is_alive()
            ):
                # Read the dead worker's final reports *before* judging
                # what the death orphaned: sends are synchronous, so a
                # "done" that finished sending is still in the pipe and
                # must not be charged as the crash victim.
                for item in self._drain_receiver(handle):
                    self._account(item, messages)
                handle.reported_dead = True
                task_id, siblings = handle.victim_and_siblings()
                handle.current = None
                handle.pending = []
                handle.dispatched_at = None
                handle.unit_started_at = None
                messages.append(
                    Message(
                        "crash",
                        handle.worker_id,
                        task_id,
                        handle.process.exitcode,
                    )
                )
                messages.extend(
                    Message("requeue", handle.worker_id, sibling, None)
                    for sibling in siblings
                )
        messages.extend(self._detect_hangs())
        if self._deferred:
            messages.extend(self._deferred)
            self._deferred = []
        return messages

    def _detect_hangs(self) -> List[Message]:
        """Kill and report workers that look hung (supervised pools only)."""
        if (
            self._unit_deadline is None
            and self._heartbeat_timeout is None
            and self._rss_limit_kb is None
        ):
            return []
        now = time.monotonic()
        check_rss = False
        if self._rss_limit_kb is not None and (
            now - self._last_rss_check >= 0.5
        ):
            self._last_rss_check = now
            check_rss = True
        hangs: List[Message] = []
        for handle in list(self._workers.values()):
            if not handle.usable or not handle.busy:
                continue
            # The deadline clock starts when the unit starts running,
            # falling back to batch dispatch time until the start
            # message arrives (queue wait on an idle worker is bounded
            # by transport, not simulation, time).
            started = handle.unit_started_at or handle.dispatched_at or now
            elapsed = now - started
            reason = None
            if (
                self._unit_deadline is not None
                and elapsed > self._unit_deadline
            ):
                reason = "deadline"
            elif (
                self._heartbeat_timeout is not None
                and handle.last_beat is not None
                and now - handle.last_beat > self._heartbeat_timeout
            ):
                reason = "heartbeat"
            elif check_rss:
                rss = _process_rss_kb(handle.process.pid)
                if rss is not None and rss > self._rss_limit_kb:
                    reason = "rss"
            if reason is None:
                continue
            task_id = self.kill(handle.worker_id)
            hangs.append(
                Message(
                    "hang",
                    handle.worker_id,
                    task_id,
                    {"reason": reason, "elapsed": elapsed},
                )
            )
        return hangs

    def close(self, timeout: float = 10.0) -> None:
        """Send sentinels and join workers (idempotent)."""
        if self._closed:
            return
        for handle in self._workers.values():
            if not handle.sentinel_sent and handle.process.is_alive():
                handle.sentinel_sent = True
                try:
                    handle.task_queue.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + timeout
        for handle in self._workers.values():
            # Keep this worker's pipe drained while waiting: a worker
            # mid-report into a full pipe could otherwise never reach
            # the sentinel (the parent is the only reader).
            while handle.process.is_alive() and time.monotonic() < deadline:
                self._drain_receiver(handle)
                handle.process.join(0.05)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
            if handle.process.is_alive():
                # A worker ignoring/blocked from SIGTERM (a C-level hang,
                # a masked handler) must not hold close() hostage.
                handle.process.kill()
                handle.process.join(1.0)
            self._retire_channel(handle)
        self._closed = True

    def terminate(self) -> None:
        """Kill all workers immediately (used on interrupt/fatal error)."""
        if self._closed:
            return
        for handle in self._workers.values():
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in self._workers.values():
            handle.process.join(1.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(1.0)
            self._retire_channel(handle)
        self._closed = True


def shutdown_shared_pool() -> None:
    """Close the process-wide pool: a no-op kept for existing callers.

    Every pool is closed by the ``run_units`` call that built it, so no
    pool outlives a call and there is nothing process-wide to close.
    """
