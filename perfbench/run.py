"""Benchmark of the whole paper suite: every experiment, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-cold --seed 0 --seconds 50 --trace 0

Workloads (same inputs: all experiments of
``repro.experiments.runner.EXPERIMENTS``, 12 programs, seeded traces):

* ``suite-cold``: serial, trace and result caches empty in private dirs;
* ``suite-warm``: serial, both caches filled by one untimed pass first;
* ``suite-jobs2``: ``jobs=2`` through ``run_units``; the result cache
  starts empty, the trace cache is filled by one untimed serial step.

A run repeats fresh-process passes of the suite (``suite.py``) until
``--seconds`` are used and reports medians.  Before every pass and after
the last it times a fixed calibration workload twice (``calibrate.py``).
The end-to-end times are host seconds scaled by the calibration's
reference time over the run's median calibration time, so a host that
runs slower for minutes slows the calibration too and leaves them
steady; the unscaled host seconds are per-layer metrics (``host.*``).
With ``--trace 1`` it spends half of ``--seconds`` on untraced passes,
then makes one traced pass whose spans give the per-layer metrics.
Every pass's rendered outputs are hashed and checked against
``reference.json``; every pass is checked to be the workload it claims.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name and unit, and a full record (host stamp, every
pass, spans) is written under ``.perfbench/records/``.

Exit codes: 0 result printed and correct; 1 result printed, not correct;
2 no ``src/repro`` to benchmark; 3 a pass was not the workload it claims;
4 the untimed cache fill failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

#: name -> (worker processes, what an untimed step fills first: nothing,
#: the trace cache only, or both caches).  ``BENCHMARK.json`` lists
#: ``suite-cold`` and ``suite-jobs2`` only: two workloads fit runs long
#: enough to be steady on a shared host; ``suite-warm`` is run by hand.  ``suite-jobs2`` starts with its
#: traces on disk because workers that generate the same trace at once
#: race in ``repro.trace.trace_io.write_trace`` (both write
#: ``<file>.tmp``; one ``os.replace`` then fails), see ``NOTES.md``.
WORKLOADS: Dict[str, Tuple[int, str]] = {
    "suite-cold": (1, ""),
    "suite-warm": (1, "all"),
    "suite-jobs2": (2, "traces"),
}

#: name -> (references per program trace, working-set window T).  The
#: benchmark scale keeps the default scale's T/length ratio of 1/8 at an
#: eighth of its length so a run fits the benchmark's time budget;
#: ``paper`` is ``repro-experiments``' default scale, whose seed-0 digests
#: (recorded by ``record_reference.py``) are compared with ``results/``,
#: and ``smoke`` the benchmark's self-tests' scale.
SCALES: Dict[str, Tuple[int, int]] = {
    "bench": (50_000, 6_250),
    "paper": (400_000, 50_000),
    "smoke": (12_000, 1_500),
}

#: Experiment names in paper order (``EXPERIMENTS`` keys) and the
#: ``results/`` file each one's default-scale rendering is archived in.
EXPERIMENT_FILES: Dict[str, str] = {
    "table31": "table31",
    "fig41": "fig41",
    "fig42": "fig42",
    "fig51": "fig51",
    "fig52": "fig52",
    "table51": "table51",
    "headline": "headline",
    "pairs": "pairs",
    "threshold": "ablation_threshold",
    "penalty": "ablation_penalty",
    "probe": "ablation_probe",
    "replacement": "ablation_replacement",
    "split": "ablation_split",
    "multiprogramming": "ablation_multiprogramming",
    "walkcost": "ablation_walkcost",
    "memdemand": "memdemand",
    "twolevel": "ablation_twolevel",
}

#: Paper values of the headline statistics (Section 6 and abstract).
PAPER_MODEL: Dict[str, float] = {
    "ws_norm_32kb": 1.67,
    "ws_norm_64kb": 2.03,
    "two_size_ws_mean": 1.1,
    "fa16_cpi_reduction": 8.0,
    "improving_16": 8,
}

END_TO_END: List[Tuple[str, str]] = [
    ("suite_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]

#: Span names reported as ``<name>_s`` self times (and ``_calls``).
SPAN_METRICS: List[str] = [
    "workloads.generate",
    "trace.read",
    "trace.write",
    "trace.fingerprint",
    "cache.probe",
    "cache.store",
    "sim.run_single_size",
    "sim.run_with_policy",
    "sim.run_two_sizes",
    "sim.run_split_two_sizes",
    "sim.sweep_single_size",
    "sim.sweep_two_level",
    "sim.sweep_multiprogrammed",
    "perf.two_size_counts",
    "perf.attach_tombstones",
    "perf.stack_depths",
    "perf.window_events",
    "policy.decisions",
    "policy.dynamic_ws",
    "stacksim.miss_curve",
    "stacksim.working_set",
    "mem.paging",
    "studies.run_study",
]

#: Layers whose spans' self times are summed into ``self.<layer>_s``.
LAYERS = ["experiments", "workloads", "trace", "cache", "sim", "perf",
          "policy", "stacksim", "mem", "studies"]

ENGINE_TIMES = ["dispatch_s", "queue_wait_s", "run_s", "result_transfer_s",
                "flush_s"]

#: A pass gets this long before its process group is dumped and killed.
RUN_BUDGET_S = 170.0


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every ``--trace 1`` metric, in print order, with its unit."""
    metrics = [(f"experiments.{name}_s", "s") for name in EXPERIMENT_FILES]
    metrics += [
        ("workloads.generate_s", "s"), ("workloads.generate_calls", "count"),
        ("trace.read_s", "s"), ("trace.write_s", "s"),
        ("trace.fingerprint_s", "s"), ("trace.fingerprint_calls", "count"),
        ("cache.probes", "count"), ("cache.hits", "count"),
        ("cache.hit_ratio", "ratio"), ("cache.stores", "count"),
        ("cache.probe_s", "s"), ("cache.store_s", "s"),
    ]
    for stem in SPAN_METRICS:
        if stem.startswith("sim."):
            metrics += [(f"{stem}_s", "s"), (f"{stem}_calls", "count")]
    metrics += [("sim.scalar_calls", "count"), ("sim.scalar_s", "s")]
    for stem in SPAN_METRICS:
        if stem.split(".")[0] in ("perf", "policy", "stacksim"):
            metrics.append((f"{stem}_s", "s"))
    metrics += [
        ("mem.paging_s", "s"), ("mem.paging_calls", "count"),
        ("mem.paged_refs", "count"),
        ("studies.run_study_s", "s"), ("studies.units_planned", "count"),
        ("studies.units_cached", "count"),
        ("studies.units_simulated", "count"),
    ]
    metrics += [(f"engine.{key}", "s") for key in ENGINE_TIMES]
    metrics += [("engine.crashes", "count"), ("engine.respawns", "count"),
                ("engine.idle_share", "ratio")]
    metrics.append(("report.render_s", "s"))
    for key in PAPER_MODEL:
        metrics += [(f"model.{key}", "value"),
                    (f"model.{key}_vs_paper", "value")]
    metrics += [(f"self.{layer}_s", "s") for layer in LAYERS]
    metrics += [
        ("self.outside_spans_s", "s"),
        ("host.suite_s", "s"),
        ("host.cpu_s", "s"),
        ("host.setup_s", "s"),
        ("host.calibration_s", "s"),
        ("bench.traced_suite_s", "s"),
        ("bench.trace_overhead_s", "s"),
        ("bench.warm_fill_s", "s"),
        ("bench.results_drift", "count"),
    ]
    return metrics


class IdentityError(Exception):
    """A pass was not the workload it claims to be."""


class FillError(Exception):
    """The untimed step that fills a workload's caches failed."""


# --------------------------------------------------------------------------
# Host stamp


def host_stamp() -> Dict[str, Any]:
    """What every record carries so records from other hosts stand out."""
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": revision,
        "load_start": list(os.getloadavg()),
    }


# --------------------------------------------------------------------------
# One pass


def _listing(directory: Path) -> Dict[str, Tuple[int, int]]:
    return {
        str(path.relative_to(directory)): (path.stat().st_size,
                                           path.stat().st_mtime_ns)
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def _kill_group(process: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(process.pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def run_pass(
    workdir: Path,
    *,
    seed: int,
    scale: Tuple[int, int],
    jobs: int,
    caches: Tuple[Path, Path],
    traced: bool,
    deadline: float,
    traces_only: bool = False,
) -> Dict[str, Any]:
    """Run the suite once in a fresh process group; never raises for it.

    Returns the pass document from ``suite.py`` plus ``spawn_at``,
    ``wall_s`` and ``stalled``.  A pass still running at ``deadline``
    (a ``time.monotonic()`` value) gets SIGUSR1 — every process in its
    group dumps all thread stacks to the pass log — then SIGKILL; the
    experiments it never finished are listed as failed.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    out, progress, log = (workdir / name for name in
                          ("pass.json", "progress.tsv", "pass.log"))
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_JOBS", "REPRO_CACHE",
                          "REPRO_TRACE_LENGTH", "REPRO_WINDOW")}
    env.update(
        REPRO_CACHE_DIR=str(caches[0]),
        REPRO_TRACE_CACHE=str(caches[1]),
        TMPDIR=str(workdir),
        PYTHONDONTWRITEBYTECODE="1",
    )
    command = [
        sys.executable, str(HERE / "suite.py"),
        "--src", str(ROOT / "src"), "--seed", str(seed),
        "--trace-length", str(scale[0]), "--window", str(scale[1]),
        "--jobs", str(jobs), "--result-cache", str(caches[0]),
        "--trace-cache", str(caches[1]), "--traced", str(int(traced)),
        "--traces-only", str(int(traces_only)),
        "--out", str(out), "--progress", str(progress),
    ]
    with open(log, "wb") as log_file:
        spawn_at = time.monotonic()
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=log_file, stderr=log_file,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        stalled = False
        try:
            process.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            stalled = True
            _kill_group(process, signal.SIGUSR1)
            time.sleep(1.0)
            _kill_group(process, signal.SIGKILL)
            process.wait()
        wall_s = time.monotonic() - spawn_at
        # Whatever the pass left behind (a worker orphaned by a crash)
        # goes with it.
        _kill_group(process, signal.SIGKILL)
    document: Dict[str, Any] = {}
    if process.returncode == 0 and out.exists():
        document = json.loads(out.read_text(encoding="utf-8"))
    if traces_only:
        document.update(wall_s=wall_s, returncode=process.returncode)
        if process.returncode != 0:
            document["log_tail"] = log.read_text(errors="replace")[-20_000:]
        return document
    finished = {}
    if progress.exists():
        for line in progress.read_text(encoding="utf-8").splitlines():
            name, _, digest = line.partition("\t")
            finished[name] = digest
    experiments = document.setdefault("experiments", {})
    for name in EXPERIMENT_FILES:
        if name not in experiments:
            experiments[name] = {
                "status": "ok" if name in finished else "unfinished",
                "digest": finished.get(name),
            }
    document.update(spawn_at=spawn_at, wall_s=wall_s, stalled=stalled,
                    returncode=process.returncode)
    if stalled or process.returncode != 0:
        document["log_tail"] = log.read_text(errors="replace")[-20_000:]
    return document


# --------------------------------------------------------------------------
# Checks


def load_reference() -> Dict[str, Any]:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def expected_digests(reference: Dict[str, Any], scale_name: str,
                     scale: Tuple[int, int], seed: int
                     ) -> Optional[Dict[str, str]]:
    """The recorded digests for this scale and seed, if any."""
    entry = reference.get(scale_name, {})
    if (entry.get("trace_length"), entry.get("window")) != tuple(scale):
        return None
    return entry.get("seeds", {}).get(str(seed))


def results_drift(reference: Dict[str, Any]) -> List[str]:
    """Experiments whose ``results/<file>.txt`` differs from its render.

    The render is the default-scale, seed-0 one whose digest
    ``reference.json`` records.  The archive holds ``render() + "\\n"``.
    """
    rendered = reference["paper"]["seeds"]["0"]
    drift = []
    for name, stem in EXPERIMENT_FILES.items():
        path = ROOT / "results" / f"{stem}.txt"
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            drift.append(name)
            continue
        digest = hashlib.sha256(text[:-1].encode("utf-8")).hexdigest()
        if not text.endswith("\n") or digest != rendered.get(name):
            drift.append(name)
    return drift


def check_identity(workload: str, document: Dict[str, Any],
                   before: Dict[str, Dict[str, Tuple[int, int]]],
                   after: Dict[str, Dict[str, Tuple[int, int]]]) -> None:
    """Raise :class:`IdentityError` unless the pass is ``workload``."""
    jobs, fill = WORKLOADS[workload]
    programs = document.get("workload_count")
    counters = document.get("trace", {}).get("counters", {})
    traces_after = [name for name in after["traces"]
                    if name.endswith(".rpt")]
    stats = document.get("cache_stats", {})
    if fill == "all":
        if before != after:
            raise IdentityError("a warm pass changed its caches "
                                "(generated a trace or stored a result)")
        if stats.get("stores", 0) or counters.get("cache.store.calls", 0):
            raise IdentityError("a warm pass stored results")
        if counters.get("workloads.generate.calls", 0):
            raise IdentityError("a warm pass generated traces")
        if not stats.get("hits"):
            raise IdentityError("a warm pass read nothing from its cache")
        return
    if before["results"]:
        raise IdentityError("a pass started with a non-empty result cache")
    if len(traces_after) != programs:
        raise IdentityError(f"a pass left {len(traces_after)} traces "
                            f"for {programs} programs")
    if fill == "traces":
        if before["traces"] != after["traces"]:
            raise IdentityError("a pass changed its pre-filled trace cache")
    elif before["traces"]:
        raise IdentityError("a cold pass started with a non-empty "
                            "trace cache")
    if jobs == 1:
        generated = counters.get("workloads.generate.calls", programs)
        if generated != programs:
            raise IdentityError(f"a cold pass generated {generated} traces "
                                f"for {programs} programs")
        if counters.get("cache.hits_unstored", 0):
            raise IdentityError("a cold pass hit entries it never stored")
    else:
        supervision = document.get("supervision") or {}
        if not supervision or supervision.get("degraded"):
            raise IdentityError("the jobs=2 pass did not run in parallel "
                                "(degraded to serial)")


# --------------------------------------------------------------------------
# Aggregation


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(passes: List[Dict[str, Any]], failed: int, attempted: int,
               speed: float = 1.0) -> Dict[str, float]:
    """The end-to-end metrics; times are host seconds times ``speed``."""
    ok = [p for p in passes if "dispatch_at" in p]
    return {
        "suite_s": speed * _median([p["done_at"] - p["dispatch_at"]
                                    for p in ok]),
        "cpu_s": speed * _median([p["cpu_s"] for p in ok]),
        "setup_s": speed * _median([p["dispatch_at"] - p["spawn_at"]
                                    for p in ok]),
        "peak_rss_mb": max((p["peak_rss_kb"] / 1024.0 for p in ok),
                           default=0.0),
        "ok_ratio": (attempted - failed) / attempted,
    }


def layer_metrics(timed: List[Dict[str, Any]], traced: Dict[str, Any],
                  host_seconds: Dict[str, float], calibration_s: float,
                  warm_fill_s: float, drift: int) -> Dict[str, float]:
    """Every per-layer metric, from the timed passes and the traced one.

    Unlike the end-to-end times, these are host seconds, unscaled.
    """
    ok = [p for p in timed if "dispatch_at" in p]
    values: Dict[str, float] = {
        f"host.{name}": host_seconds[name]
        for name in ("suite_s", "cpu_s", "setup_s")
    }
    values["host.calibration_s"] = calibration_s
    for name in EXPERIMENT_FILES:
        values[f"experiments.{name}_s"] = _median(
            [p["experiments"][name].get("elapsed_s", 0.0) for p in ok])
    values["report.render_s"] = _median(
        [sum(e.get("render_s", 0.0) for e in p["experiments"].values())
         for p in ok])
    for key in ENGINE_TIMES:
        values[f"engine.{key}"] = _median(
            [(p.get("timing") or {}).get(key, 0.0) for p in ok])
    supervision = [p.get("supervision") or {} for p in ok + [traced]]
    values["engine.crashes"] = sum(s.get("crashes", 0) for s in supervision)
    values["engine.respawns"] = sum(s.get("respawns", 0) for s in supervision)
    jobs = max(1, ok[0].get("jobs", 1)) if ok else 1
    values["engine.idle_share"] = _median([
        1.0 - (p["timing"]["run_s"]
               / (jobs * (p["done_at"] - p["dispatch_at"])))
        for p in ok if p.get("timing")
    ])

    trace = traced.get("trace", {"spans": [], "counters": {}})
    selfs = tracing.self_times(trace["spans"])
    counters = trace["counters"]
    for stem in SPAN_METRICS:
        values[f"{stem}_s"] = selfs.get(stem, 0.0)
        values[f"{stem}_calls"] = counters.get(f"{stem}.calls", 0)
    renamed = {
        "cache.probe_calls": "cache.probes",
        "cache.store_calls": "cache.stores",
    }
    for old, new in renamed.items():
        values[new] = values.pop(old)
    # Counters the tracer keeps under their metric names (cache.hits,
    # sim.scalar_*, mem.paged_refs, studies.units_*).
    for name, _ in per_layer_metrics():
        if name in counters:
            values[name] = counters[name]
    values["cache.hit_ratio"] = (
        counters.get("cache.hits", 0) / values["cache.probes"]
        if values["cache.probes"] else 0.0)

    model = traced.get("model") or (ok[0].get("model", {}) if ok else {})
    for key, paper in PAPER_MODEL.items():
        measured = model.get(key, 0.0)
        values[f"model.{key}"] = measured
        values[f"model.{key}_vs_paper"] = measured - paper

    traced_suite_s = traced.get("done_at", 0.0) - traced.get("dispatch_at",
                                                             0.0)
    for layer in LAYERS:
        values[f"self.{layer}_s"] = sum(
            seconds for name, seconds in selfs.items()
            if name.split(".")[0] == layer)
    # Process capacity the spans leave uncovered: dispatch, rendering,
    # code in no wrapped layer and, at jobs=2, idle workers.
    values["self.outside_spans_s"] = (traced.get("jobs", 1) * traced_suite_s
                                      - sum(selfs.values()))
    values["bench.traced_suite_s"] = traced_suite_s
    values["bench.trace_overhead_s"] = (traced_suite_s
                                        - host_seconds["suite_s"])
    values["bench.warm_fill_s"] = warm_fill_s
    values["bench.results_drift"] = drift
    return {name: int(values.get(name, 0)) if unit == "count"
            else values.get(name, 0.0)
            for name, unit in per_layer_metrics()}


# --------------------------------------------------------------------------
# The run


def _fresh_caches(directory: Path) -> Tuple[Path, Path]:
    caches = (directory / "results", directory / "traces")
    for path in caches:
        path.mkdir(parents=True, exist_ok=False)
    return caches


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              scale_name: str = "bench") -> Dict[str, Any]:
    """Run one workload; return the full record (see the module doc)."""
    started = time.monotonic()
    hard_stop = started + RUN_BUDGET_S
    jobs, fill = WORKLOADS[workload]
    scale = SCALES[scale_name]
    reference = load_reference()
    expected = expected_digests(reference, scale_name, scale, seed)
    stamp = host_stamp()
    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    workdir = STATE / "work" / run_id
    record: Dict[str, Any] = {
        "run_id": run_id, "workload": workload, "seed": seed,
        "seconds": seconds, "trace": trace, "scale": scale_name,
        "trace_length": scale[0], "window": scale[1], "host": stamp,
    }
    passes: List[Dict[str, Any]] = []

    def one_pass(label: str, caches: Tuple[Path, Path], traced: bool,
                 check: bool = True) -> Dict[str, Any]:
        before = {"results": _listing(caches[0]),
                  "traces": _listing(caches[1])}
        document = run_pass(workdir / label, seed=seed, scale=scale,
                            jobs=jobs, caches=caches, traced=traced,
                            deadline=hard_stop)
        document.update(label=label, jobs=jobs)
        after = {"results": _listing(caches[0]),
                 "traces": _listing(caches[1])}
        passes.append(document)
        # A pass with failed experiments is counted as failed; what it
        # left in its caches says nothing about which workload it was.
        if check and "dispatch_at" in document and all(
                entry.get("status") == "ok"
                for entry in document["experiments"].values()):
            check_identity(workload, document, before, after)
        return document

    warm_fill_s = 0.0
    warm_caches = None
    trace_cache: Optional[Path] = None

    def caches_for(label: str) -> Tuple[Path, Path]:
        if warm_caches:
            return warm_caches
        caches = _fresh_caches(workdir / f"{label}-caches")
        if trace_cache is None:
            return caches
        caches[1].rmdir()
        return caches[0], trace_cache

    try:
        if fill == "all":
            warm_caches = _fresh_caches(workdir / "warm-caches")
            filled = one_pass("fill", warm_caches, traced=False, check=False)
            warm_fill_s = filled["wall_s"]
        elif fill == "traces":
            fill_caches = _fresh_caches(workdir / "fill-caches")
            trace_cache = fill_caches[1]
            filled = run_pass(workdir / "fill", seed=seed, scale=scale,
                              jobs=1, caches=fill_caches, traced=False,
                              deadline=hard_stop, traces_only=True)
            if filled["returncode"] != 0:
                raise FillError("filling the trace cache failed:\n"
                                + filled.get("log_tail", ""))
            warm_fill_s = filled["wall_s"]
        budget = seconds / 2 if trace else seconds
        timed: List[Dict[str, Any]] = []
        calibration: List[float] = []
        calibrate.sample()  # A process's first sample runs about 8% slow.
        measure_start = time.monotonic()
        while True:
            calibration += calibrate.samples()
            caches = caches_for(f"pass{len(timed)}")
            document = one_pass(f"pass{len(timed)}", caches, traced=False)
            timed.append(document)
            typical = _median([p["wall_s"] for p in timed])
            now = time.monotonic()
            if ("dispatch_at" not in document or document["stalled"]
                    or now - measure_start + typical / 2 > budget
                    or now + typical * (2 if trace else 1) > hard_stop):
                break
        calibration += calibrate.samples()
        traced_doc: Dict[str, Any] = {}
        if trace and time.monotonic() < hard_stop:
            caches = caches_for("traced")
            traced_doc = one_pass("traced", caches, traced=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Correctness: every experiment of every pass finished and rendered
    # the recorded (or, for an unrecorded seed, the first pass's) bytes.
    baseline = expected or next(
        ({name: e.get("digest") for name, e in p["experiments"].items()}
         for p in passes if "dispatch_at" in p), {})
    failed = 0
    attempted = len(EXPERIMENT_FILES) * len(passes)
    mismatches: List[str] = []
    models = []
    for document in passes:
        extra = set(document["experiments"]) - set(EXPERIMENT_FILES)
        if extra:
            attempted += len(extra)
            failed += len(extra)
            mismatches.append(f"{document['label']}: experiments unknown "
                              f"to the benchmark: {sorted(extra)}")
        for name in EXPERIMENT_FILES:
            entry = document["experiments"][name]
            if entry.get("status") != "ok":
                failed += 1
                error = (entry.get("error") or "").strip().splitlines()
                mismatches.append(f"{document['label']}:{name}:"
                                  f"{entry.get('status')}"
                                  + (f": {error[-1]}" if error else ""))
            elif entry.get("digest") != baseline.get(name):
                failed += 1
                mismatches.append(f"{document['label']}:{name}:digest")
        if document.get("model"):
            models.append(document["model"])
    model_steady = all(model == models[0] for model in models)
    if not model_steady:
        mismatches.append("model statistics differ between passes")

    calibration_s = _median(calibration)
    metrics = end_to_end(timed, failed, attempted,
                         speed=calibrate.REFERENCE_S / calibration_s)
    host_seconds = end_to_end(timed, failed, attempted)
    drift = results_drift(reference)
    if trace:
        layers = layer_metrics(timed, traced_doc, host_seconds,
                               calibration_s, warm_fill_s, len(drift))
    else:
        layers = {}
    stamp["load_end"] = list(os.getloadavg())
    record.update(
        passes=[{k: v for k, v in p.items() if k != "trace"}
                for p in passes],
        correct=(failed == 0 and model_steady
                 and (not trace or "dispatch_at" in traced_doc)),
        attempted=attempted, failed=failed, mismatches=mismatches,
        reference_seed_recorded=expected is not None,
        results_drift=drift, end_to_end=metrics, per_layer=layers,
        calibration_s=calibration, host_seconds=host_seconds,
        elapsed_s=time.monotonic() - started,
    )
    if traced_doc.get("trace"):
        record["spans"] = traced_doc["trace"]
    return record


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(record: Dict[str, Any]) -> None:
    host = record["host"]
    print(f"# host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"python={host['python']} numpy={host['numpy']} "
          f"git={host['git_revision']} load={host['load_start']}"
          f" -> {host['load_end']}")
    timed = [p for p in record["passes"] if p["label"].startswith("pass")]
    print(f"# {record['workload']} seed={record['seed']} "
          f"scale={record['scale']} ({record['trace_length']} refs, "
          f"T={record['window']}): {len(timed)} timed passes, medians; "
          f"times scaled by calibration {calibrate.REFERENCE_S} s / "
          f"{statistics.median(record['calibration_s']):.4f} s; "
          f"reference digests "
          f"{'recorded' if record['reference_seed_recorded'] else 'absent'}"
          f" for this seed")
    for mismatch in record["mismatches"]:
        print(f"# FAILED {mismatch}")
    if record["results_drift"]:
        print(f"# results/ drift vs default-scale renders: "
              f"{', '.join(record['results_drift'])}")
    units = dict(END_TO_END)
    for name, value in record["end_to_end"].items():
        print(f"{name} {_format(value)} {units[name]}")
    units = dict(per_layer_metrics())
    for name, value in record["per_layer"].items():
        print(f"{name} {_format(value)} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    try:
        record = benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except IdentityError as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 3
    except FillError as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 4
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / (f"{record['run_id']}-{args.workload}-s{args.seed}"
                      f"-t{args.trace}.json")
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print_report(record)
    for passed in record["passes"]:
        if passed.get("log_tail"):
            print(f"perfbench: pass {passed['label']} log:\n"
                  f"{passed['log_tail']}", file=sys.stderr)
    chosen = record["per_layer"] if args.trace else record["end_to_end"]
    units = dict(per_layer_metrics() if args.trace else END_TO_END)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
