"""The multi-process experiment engine (marker: ``parallel``).

The contract under test is *equivalence*: a parallel run must produce
the same results, the same journal records in the same order, and the
same published outputs as a serial run — only the wall clock may
differ.  Plus the failure story: a worker that dies mid-unit fails only
that unit, and a journal written under ``jobs=4`` resumes serially.
``map_workloads``, the per-workload fan-out of the experiments, rides
the same engine and keeps the same order and error contract.
"""

import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import ParallelError
from repro.experiments.scale import map_workloads
from repro.parallel.cache import SimulationCache
from repro.parallel.engine import _plan_batch_size
from repro.parallel.pool import (
    WorkerPool,
    fork_available,
    in_worker,
    resolve_jobs,
)
from repro.robustness.executor import (
    UnitSpec,
    run_passes,
    run_units,
    validate_units,
)
from repro.robustness.journal import RunJournal
from repro.robustness.retry import RetryPolicy
from repro.sim.config import TLBConfig
from repro.sim.sweep import sweep_single_size
from repro.workloads.registry import generate_trace

pytestmark = [
    pytest.mark.parallel,
    pytest.mark.skipif(not fork_available(), reason="needs fork"),
]


def _spec(name, value):
    """A deterministic unit: squares its value (picklable result)."""
    return UnitSpec(name=name, run=lambda v=value: v * v)


def _journal_units(path):
    """Unit names in on-disk record order (not the replayed dict)."""
    names = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            if record.get("type") == "unit":
                names.append(record["unit"])
    return names


class TestScheduler:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ParallelError, match="duplicate"):
            validate_units([_spec("a", 1), _spec("a", 2)])


class TestPool:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        with pytest.raises(ParallelError):
            resolve_jobs(-1)

    def test_no_nested_parallelism(self):
        assert not in_worker()
        # Inside a worker, any jobs request resolves to serial.
        names = ["li", "gcc"]
        nested = map_workloads(lambda _name: resolve_jobs(4), names, jobs=2)
        assert nested == [1, 1]
        inside = map_workloads(lambda _name: in_worker(), names, jobs=2)
        assert inside == [True, True]


class TestRunPasses:
    def test_results_in_pass_order(self):
        passes = [(f"p{i}", lambda i=i: (i * i, os.getpid())) for i in range(5)]
        results = run_passes(passes, jobs=2)
        assert [value for value, _pid in results] == [0, 1, 4, 9, 16]
        assert os.getpid() not in {pid for _value, pid in results}
        assert run_passes(passes) == [(i * i, os.getpid()) for i in range(5)]

    def test_names_first_failed_pass(self):
        def boom(tag):
            raise ValueError(f"bad {tag}")

        passes = [
            ("a", lambda: 1),
            ("b", lambda: boom("b")),
            ("c", lambda: boom("c")),
        ]
        with pytest.raises(ParallelError) as info:
            run_passes(passes, jobs=2)
        assert str(info.value) == "b failed: ValueError: bad b"
        # Serially, and for a lone pass, the original exception
        # propagates unchanged.
        with pytest.raises(ValueError, match="bad b"):
            run_passes(passes)
        with pytest.raises(ValueError, match="bad c"):
            run_passes(passes[2:], jobs=2)


class TestMapWorkloads:
    NAMES = ["li", "gcc", "espresso", "matrix300", "tomcatv"]

    def test_preserves_order(self):
        def measure(name):
            return name.upper(), os.getpid()

        results = map_workloads(measure, self.NAMES, jobs=2)
        assert [value for value, _pid in results] == [
            name.upper() for name in self.NAMES
        ]
        assert os.getpid() not in {pid for _value, pid in results}
        # The default name list is the paper's workload order.
        assert map_workloads(len, jobs=2) == map_workloads(len)

    def test_names_lowest_indexed_failure(self):
        def measure(name):
            if name in ("gcc", "matrix300"):
                raise ValueError(f"bad {name}")
            return name

        with pytest.raises(ParallelError) as info:
            map_workloads(measure, self.NAMES, jobs=2)
        assert str(info.value) == "workload 'gcc' failed: ValueError: bad gcc"
        # Serially the original exception propagates unchanged.
        with pytest.raises(ValueError, match="bad gcc"):
            map_workloads(measure, self.NAMES)


class TestRunUnitsEquivalence:
    def _run(self, tmp_path, tag, jobs, fail=(), flaky=(), count=5):
        published = []
        outdir = tmp_path / tag
        outdir.mkdir()
        attempts_left = {name: 1 for name in flaky}

        def make(name, value):
            def task(v=value, _name=name):
                if _name in fail:
                    raise RuntimeError(f"{_name} exploded")
                if attempts_left.get(_name, 0) > 0:
                    attempts_left[_name] -= 1
                    raise RuntimeError(f"{_name} hiccup")
                return v * v

            return UnitSpec(name=name, run=task)

        units = [make(f"u{i}", i) for i in range(count)]

        def publish(spec, result, elapsed):
            published.append((spec.name, result))
            (outdir / f"{spec.name}.txt").write_text(f"{spec.name}={result}\n")

        journal = RunJournal(tmp_path / f"{tag}.jsonl", fingerprint={"s": 1})
        report = run_units(
            units,
            journal=journal,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            on_success=publish,
            journal_payload=lambda spec, result: {"value": result},
            jobs=jobs,
        )
        files = {
            path.name: path.read_text() for path in sorted(outdir.iterdir())
        }
        return report, published, files, journal

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_identical_to_serial(self, tmp_path, jobs):
        serial = self._run(tmp_path, "serial", None, flaky={"u2"})
        parallel = self._run(tmp_path, f"jobs{jobs}", jobs, flaky={"u2"})
        # Same published results in the same (spec) order...
        assert parallel[1] == serial[1]
        # ... same output files byte for byte ...
        assert parallel[2] == serial[2]
        # ... same journal records in the same on-disk order ...
        assert _journal_units(tmp_path / f"jobs{jobs}.jsonl") == _journal_units(
            tmp_path / "serial.jsonl"
        )
        # ... and the same statuses, attempts and payloads per unit.
        for ours, theirs in zip(parallel[0].outcomes, serial[0].outcomes):
            assert (ours.name, ours.status, ours.attempts) == (
                theirs.name,
                theirs.status,
                theirs.attempts,
            )
        assert parallel[3].get("u2").payload == {"value": 4}
        assert parallel[0].outcomes[2].attempts == 2  # the flaky unit

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("batch", [1, 4, 16])
    def test_batched_identical_to_serial(self, tmp_path, jobs, batch):
        # Batching is a dispatch optimization, never a semantic one: any
        # (batch size, worker count) cell must be byte-identical to the
        # serial run — published order, files, journal order, statuses.
        # Batches are sized from the unit count, so the cell picks it.
        count = batch * jobs * 8
        if jobs > 1:
            assert _plan_batch_size(count, jobs) == batch
        serial = self._run(tmp_path, "serial", None, flaky={"u2"}, count=count)
        tag = f"j{jobs}b{batch}"
        batched = self._run(tmp_path, tag, jobs, flaky={"u2"}, count=count)
        assert batched[1] == serial[1]
        assert batched[2] == serial[2]
        assert _journal_units(tmp_path / f"{tag}.jsonl") == _journal_units(
            tmp_path / "serial.jsonl"
        )
        assert [
            (o.name, o.status, o.attempts) for o in batched[0].outcomes
        ] == [(o.name, o.status, o.attempts) for o in serial[0].outcomes]

    def test_failure_isolated_and_exit_one(self, tmp_path):
        report, published, _files, journal = self._run(
            tmp_path, "fail", 2, fail={"u1"}
        )
        assert report.exit_code == 1
        statuses = {o.name: o.status for o in report.outcomes}
        assert statuses == {
            "u0": "ok", "u1": "failed", "u2": "ok", "u3": "ok", "u4": "ok"
        }
        assert [name for name, _ in published] == ["u0", "u2", "u3", "u4"]
        record = journal.get("u1")
        assert not record.succeeded and "exploded" in record.error


class TestWorkerCrash:
    def test_dead_worker_fails_only_its_unit(self, tmp_path):
        units = [
            UnitSpec(name="ok1", run=lambda: 1),
            UnitSpec(name="doomed", run=lambda: os._exit(3)),
            UnitSpec(name="ok2", run=lambda: 2),
            UnitSpec(name="ok3", run=lambda: 3),
        ]
        journal = RunJournal(tmp_path / "crash.jsonl", fingerprint={"s": 1})
        report = run_units(
            units,
            journal=journal,
            retry_policy=RetryPolicy(max_attempts=1, base_delay=0.0),
            jobs=2,
        )
        assert report.exit_code == 1
        statuses = {o.name: o.status for o in report.outcomes}
        assert statuses == {
            "ok1": "ok", "doomed": "failed", "ok2": "ok", "ok3": "ok"
        }
        doomed = next(o for o in report.outcomes if o.name == "doomed")
        assert "WorkerCrashError" in doomed.error
        assert "exited with code 3" in doomed.error
        # The crash is journaled like any other failure.
        assert not journal.get("doomed").succeeded

    def test_death_respawned_before_poll_is_still_reported(self):
        # A worker can die after one poll and be respawned before the
        # next; its crash and its unstarted batch sibling must still
        # surface, or the engine waits forever on tasks nobody holds.
        pool = WorkerPool([lambda: os._exit(7), lambda: 1], 1)
        try:
            pool.submit_batch(0, [0, 1])
            pool._workers[0].process.join(10.0)
            assert not pool._workers[0].process.is_alive()
            pool.respawn(0)
            reported = {(m.kind, m.task_id) for m in pool.poll(0.0)}
            assert ("crash", 0) in reported
            assert ("requeue", 1) in reported
        finally:
            pool.terminate()


class TestBatchedDispatch:
    def test_batch_interior_failure_isolated(self, tmp_path):
        # One bad unit inside a 4-unit batch fails alone; its batch
        # siblings complete normally on the same dispatch.  64 units on
        # two workers go out four to a batch.
        def make(name, value, broken=False):
            def task(v=value, b=broken):
                if b:
                    raise RuntimeError("mid-batch failure")
                return v * v

            return UnitSpec(name=name, run=task)

        assert _plan_batch_size(64, 2) == 4
        units = [make(f"u{i}", i, broken=(i == 1)) for i in range(64)]
        report = run_units(
            units,
            retry_policy=RetryPolicy(max_attempts=1, base_delay=0.0),
            jobs=2,
        )
        assert report.exit_code == 1
        statuses = {o.name: o.status for o in report.outcomes}
        assert statuses == {
            f"u{i}": ("failed" if i == 1 else "ok") for i in range(64)
        }
        failed = next(o for o in report.outcomes if o.name == "u1")
        assert "mid-batch failure" in failed.error

    def test_timing_breakdown_present(self, tmp_path):
        units = [_spec(f"t{i}", i) for i in range(4)]
        report = run_units(units, jobs=2)
        assert report.ok
        assert report.timing is not None
        per_unit = report.timing["units"]
        assert set(per_unit) == {f"t{i}" for i in range(4)}
        keys = {
            "dispatch_s", "queue_wait_s", "run_s",
            "result_transfer_s", "flush_s",
        }
        for breakdown in per_unit.values():
            assert set(breakdown) == keys
            assert all(value >= 0.0 for value in breakdown.values())
        assert set(report.timing["totals"]) == keys

    def test_serial_run_has_no_timing(self):
        report = run_units([_spec("s0", 1)], jobs=None)
        assert report.ok and report.timing is None


def _big_payload():
    return {
        "addresses": np.arange(200_000, dtype=np.uint64),
        "count": 200_000,
    }


class TestResultTransport:
    def test_large_result_round_trips(self):
        # A >1MB numpy payload comes back as a plain pickle on the
        # worker's result pipe and must arrive intact.
        expected = _big_payload()
        report = run_units(
            [
                UnitSpec(name="big", run=_big_payload),
                UnitSpec(name="small", run=lambda: 1),
            ],
            jobs=2,
        )
        assert report.ok
        result = report.outcomes[0].result
        assert result["count"] == expected["count"]
        np.testing.assert_array_equal(
            result["addresses"], expected["addresses"]
        )


class TestResumeAcrossModes:
    def test_serial_resume_from_parallel_journal(self, tmp_path):
        path = tmp_path / "resume.jsonl"
        calls = []

        def make(name, broken):
            def task(_name=name):
                calls.append(_name)
                if broken:
                    raise RuntimeError(f"{_name} broken")
                return _name.upper()

            return UnitSpec(name=name, run=task)

        first = [make("a", False), make("b", True), make("c", False),
                 make("d", False)]
        journal = RunJournal(path, fingerprint={"s": 1})
        report = run_units(
            first,
            journal=journal,
            retry_policy=RetryPolicy(max_attempts=1, base_delay=0.0),
            jobs=4,
        )
        assert report.exit_code == 1
        # Journal records land in spec order even under jobs=4.
        assert _journal_units(path) == ["a", "b", "c", "d"]

        # Second run: serial, resumed, with the broken unit repaired.
        calls.clear()
        second = [make("a", False), make("b", False), make("c", False),
                  make("d", False)]
        journal = RunJournal(path, fingerprint={"s": 1})
        report = run_units(
            second, journal=journal, resume=True, jobs=None
        )
        assert report.exit_code == 0
        statuses = [(o.name, o.status) for o in report.outcomes]
        assert statuses == [
            ("a", "skipped"), ("b", "ok"), ("c", "skipped"), ("d", "skipped")
        ]
        # Only the repaired unit actually ran again... in the parent.
        assert calls == ["b"]


class TestSweepParallel:
    CONFIGS = (
        TLBConfig(entries=16, associativity=2),
        TLBConfig(entries=8),  # fully associative: its own pass family
    )

    def test_jobs_two_matches_serial(self, tmp_path):
        trace = generate_trace("li", 6000, seed=3)
        serial_cache = SimulationCache.open(tmp_path / "s")
        parallel_cache = SimulationCache.open(tmp_path / "p")
        serial = sweep_single_size(
            trace, (4096, 8192), self.CONFIGS, cache=serial_cache
        )
        parallel = sweep_single_size(
            trace, (4096, 8192), self.CONFIGS, cache=parallel_cache, jobs=2
        )
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert serial[key].to_payload() == parallel[key].to_payload()
        # The parent stores every result, whichever process computed it.
        entries = {
            root: sorted(
                path.relative_to(tmp_path / root).as_posix()
                for path in (tmp_path / root).rglob("*.json")
            )
            for root in ("s", "p")
        }
        assert entries["s"] == entries["p"] and len(entries["s"]) == 4


@dataclass
class FakeArtifact:
    """Minimal experiment result (module-level: workers pickle it back)."""

    text: str

    def render(self):
        return self.text


def _fake_alpha(scale):
    return FakeArtifact(f"alpha@{scale.trace_length}")


def _fake_beta(scale):
    return FakeArtifact(f"beta@{scale.window}")


class TestRunnerJobs:
    def test_cli_jobs_matches_serial(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import runner

        monkeypatch.setattr(
            runner, "EXPERIMENTS", {"alpha": _fake_alpha, "beta": _fake_beta}
        )
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "jobs2"
        assert runner.main(["--results-dir", str(serial_dir)]) == 0
        serial_out = capsys.readouterr().out
        assert (
            runner.main(["--results-dir", str(parallel_dir), "--jobs", "2"])
            == 0
        )
        parallel_out = capsys.readouterr().out

        def stable(text):
            # Drop the wall-clock suffix lines ("[name: 1.2s]").
            return [
                line
                for line in text.splitlines()
                if not (line.startswith("[") and line.endswith("s]"))
            ]

        assert stable(parallel_out) == stable(serial_out)
        assert {p.name: p.read_text() for p in parallel_dir.iterdir()} == {
            p.name: p.read_text() for p in serial_dir.iterdir()
        }
