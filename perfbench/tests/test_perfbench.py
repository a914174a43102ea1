"""Self-tests of the suite benchmark.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests

They run the suite at the ``smoke`` scale (seconds per pass), so they
check the benchmark's machinery, not its timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SMOKE = run.SCALES["smoke"]


@pytest.fixture(scope="module")
def cold_passes(tmp_path_factory):
    """One untraced and one traced cold serial pass at the smoke scale."""
    base = tmp_path_factory.mktemp("passes")
    passes = {}
    for traced in (False, True):
        directory = base / f"traced{int(traced)}"
        passes[traced] = run.run_pass(
            directory, seed=3, scale=SMOKE, jobs=1,
            caches=run._fresh_caches(directory / "caches"), traced=traced,
            deadline=time.monotonic() + 300,
        )
    return passes


def _digests(document):
    return {name: entry.get("digest")
            for name, entry in document["experiments"].items()}


def test_tracing_leaves_every_digest_unchanged(cold_passes):
    plain, traced = cold_passes[False], cold_passes[True]
    assert all(e["status"] == "ok" for e in plain["experiments"].values())
    assert all(e["status"] == "ok" for e in traced["experiments"].values())
    assert _digests(plain) == _digests(traced)
    assert plain["model"] == traced["model"]


def test_self_times_sum_to_no_more_than_traced_suite(cold_passes):
    traced = cold_passes[True]
    selfs = tracing.self_times(traced["trace"]["spans"])
    suite_s = traced["done_at"] - traced["dispatch_at"]
    assert all(seconds >= 0 for seconds in selfs.values())
    assert 0 < sum(selfs.values()) <= suite_s
    # Every experiment opened a root span, and the layers below saw work.
    roots = {s[0] for s in traced["trace"]["spans"] if s[3] == -1}
    assert {f"experiments.{name}" for name in run.EXPERIMENT_FILES} <= roots
    counters = traced["trace"]["counters"]
    assert counters["workloads.generate.calls"] == traced["workload_count"]
    assert counters["mem.paging.calls"] > 0
    assert counters.get("cache.hits_unstored", 0) == 0


def test_self_times_subtract_children():
    spans = [
        ["a", 0.0, 10.0, -1, "r"],
        ["b", 1.0, 4.0, 0, "r"],
        ["c", 2.0, 3.0, 1, "r"],
        ["b", 5.0, 6.0, 0, "r"],
    ]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}
    merged = tracing.merge([{"spans": spans[:2], "counters": {"x": 1}},
                            {"spans": spans[:2], "counters": {"x": 2}}])
    assert [s[3] for s in merged["spans"]] == [-1, 0, -1, 2]
    assert merged["counters"] == {"x": 3}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_of_each_workload(workload):
    record = run.benchmark(workload, seed=3, seconds=0.1, trace=True,
                           scale_name="smoke")
    assert record["correct"], record["mismatches"]
    assert record["failed"] == 0
    assert set(record["end_to_end"]) == {n for n, _ in run.END_TO_END}
    assert list(record["per_layer"]) == [n for n, _ in
                                         run.per_layer_metrics()]
    layers = record["per_layer"]
    if workload == "suite-warm":
        assert layers["workloads.generate_calls"] == 0
        assert layers["cache.stores"] == 0
        assert layers["bench.warm_fill_s"] > 0
    elif workload == "suite-jobs2":
        assert layers["workloads.generate_calls"] == 0
        assert layers["trace.write_s"] == 0
        assert layers["cache.stores"] > 0
        assert layers["bench.warm_fill_s"] > 0
    else:
        assert layers["workloads.generate_calls"] == 12
    if workload == "suite-jobs2":
        assert layers["engine.run_s"] > 0
    else:
        assert layers["engine.run_s"] == 0


def _write_same_trace(path, rounds, failures, start):
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.trace.trace_io import write_trace
    from repro.workloads.registry import generate_trace

    trace = generate_trace("li", 2_000, 0)
    start.wait(timeout=60)
    for _ in range(rounds):
        try:
            write_trace(path, trace)
        except FileNotFoundError:
            failures.value += 1


@pytest.mark.xfail(reason="repro.trace.trace_io.write_trace: concurrent "
                   "writers share <file>.tmp (see NOTES.md); suite-jobs2 "
                   "pre-fills its trace cache because of it",
                   strict=False)
def test_concurrent_trace_writes_to_one_path_never_fail(tmp_path):
    import multiprocessing

    context = multiprocessing.get_context("fork")
    failures = context.Value("i", 0)
    start = context.Barrier(2)
    writers = [context.Process(target=_write_same_trace,
                               args=(tmp_path / "li.rpt", 1_000, failures,
                                     start))
               for _ in range(2)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)
    assert not any(writer.is_alive() for writer in writers)
    assert failures.value == 0


def test_stalled_pass_dumps_stacks_and_counts_as_unfinished(tmp_path):
    document = run.run_pass(
        tmp_path, seed=3, scale=run.SCALES["bench"], jobs=2,
        caches=run._fresh_caches(tmp_path / "caches"), traced=False,
        deadline=time.monotonic() + 3.0,
    )
    assert document["stalled"]
    assert "Current thread" in document["log_tail"] \
        or "Thread 0x" in document["log_tail"]
    statuses = {e["status"] for e in document["experiments"].values()}
    assert "unfinished" in statuses


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in run.WORKLOADS if name != "suite-warm"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()


def test_compare_flags_records_from_another_host():
    import compare

    record = {"host": run.host_stamp(), "workload": "suite-cold",
              "end_to_end": {"suite_s": 2.0}}
    other = json.loads(json.dumps(record))
    other["end_to_end"]["suite_s"] = 3.0
    lines = compare.compare(record, other)
    assert not any(line.startswith("FLAG") for line in lines)
    assert any("1.500x" in line for line in lines)
    other["host"]["cpu_model"] = "another CPU"
    assert compare.compare(record, other)[0].startswith(
        "FLAG different host cpu_model")


def test_without_the_repository_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "suite-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
