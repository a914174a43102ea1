"""Parallel chaos harness (marker: ``chaos``).

Every fault class the supervised engine claims to contain is exercised
end to end: SIGKILLed workers, crash-looping poison units, pure hangs
caught by the per-unit deadline, heartbeat loss (SIGSTOP), result-cache
corruption, and total pool collapse into degraded-serial mode.  The
contract under test is the supervision acceptance criterion — a chaos
run terminates within its deadline and yields either results identical
to a clean serial run or a structured failure report (no hangs, no
silent wrong answers), and ``--resume`` completes the remainder.

Chaos strikes fire only inside pool workers, so the same wrapped units
double as their own serial baseline.
"""

import json
import os
import signal
import time

import pytest

from repro.errors import ParallelError
from repro.parallel.pool import WorkerPool, fork_available
from repro.parallel.supervisor import SupervisorConfig
from repro.robustness import faultinject
from repro.robustness.executor import UnitSpec, run_units
from repro.robustness.journal import RunJournal
from repro.sim.config import SingleSizeScheme, TLBConfig
from repro.sim.driver import run_single_size
from repro.workloads.registry import generate_trace

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(not fork_available(), reason="needs fork"),
]

def _units(plan=None, count=4):
    """Deterministic units (``u0``..): value * 11, optionally chaotic."""

    def make(index):
        task = lambda value=index: value * 11  # noqa: E731
        if plan is not None:
            task = plan.wrap(f"u{index}", task)
        return UnitSpec(name=f"u{index}", run=task)

    return [make(index) for index in range(count)]


def _journal_units(path):
    """Unit names in on-disk record order (not the replayed dict)."""
    names = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            if record.get("type") == "unit":
                names.append(record["unit"])
    return names


class TestKillRecovery:
    def test_killed_unit_requeued_and_matches_serial(self, tmp_path):
        plan = faultinject.ChaosPlan(
            tmp_path / "tokens", victims={"u1": ("kill", 1)}
        )
        serial_journal = RunJournal(tmp_path / "s.jsonl", fingerprint={"s": 1})
        serial = run_units(_units(plan), journal=serial_journal, jobs=None)
        assert serial.ok
        assert plan.strikes_delivered() == 0  # strikes no-op in the parent

        chaos_journal = RunJournal(tmp_path / "c.jsonl", fingerprint={"s": 1})
        chaos = run_units(_units(plan), journal=chaos_journal, jobs=2)
        assert chaos.ok and chaos.exit_code == 0
        assert plan.strikes_delivered() == 1
        assert [
            (o.name, o.status, o.result) for o in chaos.outcomes
        ] == [(o.name, o.status, o.result) for o in serial.outcomes]
        # Journal records land in the same spec order as the serial run.
        assert _journal_units(tmp_path / "c.jsonl") == _journal_units(
            tmp_path / "s.jsonl"
        )
        sup = chaos.supervision
        assert sup["crashes"] == 1
        assert sup["requeues"] == 1
        assert sup["respawns"] >= 1
        assert sup["poisoned"] == []
        assert sup["window_decreases"] >= 1  # AIMD shed load on the kill


class TestPoisonQuarantine:
    def test_crash_loop_quarantined_with_structured_record(self, tmp_path):
        plan = faultinject.ChaosPlan(
            tmp_path / "tokens", victims={"u1": ("kill", 8)}
        )
        journal = RunJournal(tmp_path / "q.jsonl", fingerprint={"s": 1})
        report = run_units(_units(plan), journal=journal, jobs=2)
        assert report.exit_code == 1
        statuses = {o.name: o.status for o in report.outcomes}
        assert statuses == {
            "u0": "ok", "u1": "failed", "u2": "ok", "u3": "ok"
        }
        poisoned = next(o for o in report.outcomes if o.name == "u1")
        assert "PoisonUnitError" in poisoned.error
        assert "quarantined after killing 3 workers" in poisoned.error
        # The underlying crash still shows through the quarantine text.
        assert "WorkerCrashError" in poisoned.error
        assert report.supervision["poisoned"] == ["u1"]
        # Exactly max_worker_kills strikes were spent, not the full 8.
        assert plan.strikes_delivered() == 3

        record = journal.get("u1")
        assert not record.succeeded
        assert record.detail["poison"] is True
        assert record.detail["kills"] == 3
        assert record.detail["reasons"] == ["crash", "crash", "crash"]
        assert "WorkerCrashError" in record.detail["last_error"]

    def test_poison_inside_batch_quarantined_alone(self, tmp_path):
        # With batched dispatch a crashing unit takes down a worker that
        # holds its batch siblings too.  The siblings were never *run*,
        # so they are requeued without being charged a kill — only the
        # actual poison unit is quarantined.  33 units on two workers go
        # out three to a batch, so the first batch is u0, u1, u2.
        plan = faultinject.ChaosPlan(
            tmp_path / "tokens", victims={"u1": ("kill", 8)}
        )
        journal = RunJournal(tmp_path / "b.jsonl", fingerprint={"s": 1})
        report = run_units(_units(plan, count=33), journal=journal, jobs=2)
        assert report.exit_code == 1
        statuses = {o.name: o.status for o in report.outcomes}
        assert statuses == {
            f"u{index}": ("failed" if index == 1 else "ok")
            for index in range(33)
        }
        assert report.supervision["poisoned"] == ["u1"]
        assert plan.strikes_delivered() == 3
        # At least one batch sibling rode along on a killed worker and
        # came back requeued-not-killed; every survivor finished clean.
        assert report.supervision["sibling_requeues"] >= 1
        for index in (i for i in range(33) if i != 1):
            record = journal.get(f"u{index}")
            assert record.succeeded
            assert record.payload is None or "poison" not in (
                record.detail or {}
            )

    def test_resume_completes_the_remainder(self, tmp_path):
        plan = faultinject.ChaosPlan(
            tmp_path / "tokens", victims={"u2": ("kill", 8)}
        )
        path = tmp_path / "resume.jsonl"
        journal = RunJournal(path, fingerprint={"s": 1})
        first = run_units(_units(plan), journal=journal, jobs=2)
        assert first.exit_code == 1

        # The poison fixed (plain units), the journal keeps the rest.
        journal = RunJournal(path, fingerprint={"s": 1})
        second = run_units(_units(), journal=journal, resume=True, jobs=2)
        assert second.exit_code == 0
        statuses = [(o.name, o.status) for o in second.outcomes]
        assert statuses == [
            ("u0", "skipped"),
            ("u1", "skipped"),
            ("u2", "ok"),
            ("u3", "skipped"),
        ]
        repaired = next(o for o in second.outcomes if o.name == "u2")
        assert repaired.result == 22


class TestHangContainment:
    def test_deadline_hang_killed_and_requeued(self, tmp_path):
        plan = faultinject.ChaosPlan(
            tmp_path / "tokens",
            victims={"u2": ("hang", 1)},
            hang_seconds=30.0,
        )
        started = time.monotonic()
        report = run_units(
            _units(plan),
            jobs=2,
            supervision=SupervisorConfig(unit_deadline=1.0),
        )
        elapsed = time.monotonic() - started
        assert report.ok and report.exit_code == 0
        assert elapsed < 15.0  # contained, nowhere near the 30s hang
        assert [o.result for o in report.outcomes] == [0, 11, 22, 33]
        sup = report.supervision
        assert sup["hangs"] == 1
        assert sup["crashes"] == 0
        assert sup["requeues"] == 1

    def test_sigstopped_worker_reported_as_heartbeat_hang(self):
        pool = WorkerPool(
            [lambda: time.sleep(30.0)],
            1,
            heartbeat_interval=0.1,
            heartbeat_timeout=0.8,
            kill_grace=0.2,
        )
        try:
            pool.submit(0, 0)
            # SIGSTOP freezes the worker and its heartbeat thread: the
            # beat stream stops even though the process still exists.
            os.kill(pool._workers[0].process.pid, signal.SIGSTOP)
            hang = None
            deadline = time.monotonic() + 15.0
            while hang is None and time.monotonic() < deadline:
                for message in pool.poll(0.05):
                    if message.kind == "hang":
                        hang = message
            assert hang is not None
            assert hang.payload["reason"] == "heartbeat"
            assert hang.task_id == 0
            # SIGKILL works on stopped processes: no leak, no zombie.
            assert not pool._workers[0].process.is_alive()
        finally:
            pool.terminate()


class TestCacheCorruption:
    SCHEME = SingleSizeScheme(4096)
    CONFIGS = (TLBConfig(entries=16, associativity=2), TLBConfig(entries=8))

    def _units(self, trace, cache):
        return [
            UnitSpec(
                name=f"cfg{index}",
                run=lambda c=config: run_single_size(
                    trace, self.SCHEME, c, cache=cache
                ).to_payload(),
            )
            for index, config in enumerate(self.CONFIGS)
        ]

    def test_corrupt_entry_counted_and_healed_in_parallel(self, tmp_path):
        from repro.parallel.cache import SimulationCache

        cache = SimulationCache.open(tmp_path / "cache")
        trace = generate_trace("li", 4000, seed=3)

        first = run_units(self._units(trace, cache), jobs=2)
        assert first.ok and first.cache_corrupt_discarded == 0
        assert len(list(cache.root.rglob("*.json"))) == len(self.CONFIGS)

        faultinject.corrupt_cache_entry(cache.root, seed=0)
        second = run_units(self._units(trace, cache), jobs=2)
        assert second.ok
        # The worker-side discard travelled back as an event and shows
        # up in the sweep summary counter; the payload is recomputed.
        assert second.cache_corrupt_discarded == 1
        assert [o.result for o in second.outcomes] == [
            o.result for o in first.outcomes
        ]

        # The rewritten entry is trusted again: no discards third time.
        third = run_units(self._units(trace, cache), jobs=2)
        assert third.ok and third.cache_corrupt_discarded == 0


class TestDegradedSerial:
    def test_pool_collapse_falls_back_to_serial(self, tmp_path):
        plan = faultinject.ChaosPlan(
            tmp_path / "tokens",
            victims={f"u{index}": ("kill", 10) for index in range(4)},
        )
        report = run_units(
            _units(plan),
            jobs=2,
            supervision=SupervisorConfig(max_respawns=2),
        )
        # Strikes no-op in the parent, so degraded mode completes the
        # whole suite correctly.
        assert report.ok and report.exit_code == 0
        assert [o.result for o in report.outcomes] == [0, 11, 22, 33]
        sup = report.supervision
        assert sup["degraded"] is True
        assert sup["respawns"] <= 2

    def test_no_degraded_raises_instead(self, tmp_path):
        plan = faultinject.ChaosPlan(
            tmp_path / "tokens",
            victims={f"u{index}": ("kill", 10) for index in range(4)},
        )
        with pytest.raises(ParallelError, match="respawn budget"):
            run_units(
                _units(plan),
                jobs=2,
                supervision=SupervisorConfig(
                    max_respawns=0, degraded_ok=False
                ),
            )


class TestCloseUnderAdversity:
    def _wait_for_start(self, pool, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for message in pool.poll(0.05):
                if message.kind == "start":
                    return
        raise AssertionError("worker never picked up the task")

    def test_close_escalates_to_sigkill_for_term_blocking_worker(self):
        def stubborn():
            # Process-wide disposition (a per-thread mask would leave
            # the queue feeder thread killable by SIGTERM).
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(60.0)

        pool = WorkerPool([stubborn], 1)
        pool.submit(0, 0)
        self._wait_for_start(pool)
        time.sleep(0.2)  # let the worker install its SIGTERM handler
        started = time.monotonic()
        pool.close(timeout=0.5)
        elapsed = time.monotonic() - started
        handle = pool._workers[0]
        assert elapsed < 8.0  # bounded: sentinel + SIGTERM + SIGKILL
        assert not handle.process.is_alive()
        assert handle.process.exitcode == -signal.SIGKILL

    def test_close_after_mid_run_crash_leaves_no_zombies(self):
        pool = WorkerPool([lambda: os._exit(5), lambda: 1], 2)
        pool.submit(0, 0)
        pool._workers[0].process.join(10.0)  # the crash lands first
        pool.close(timeout=5.0)
        for handle in pool._workers.values():
            assert not handle.process.is_alive()
            assert handle.process.exitcode is not None  # reaped, no zombie
        pool.close()  # idempotent
