"""One pass of the paper suite in a fresh process (a benchmark repetition).

``run.py`` starts this script once per repetition so every pass pays
the same process start, imports and cache-directory set-up a user of
``repro-experiments`` pays, and so no in-process memo survives from one
pass to the next.  It runs all experiments of
``repro.experiments.runner.EXPERIMENTS`` through ``ExperimentScale`` and
``run_units`` (the runner's own path), renders each result, and writes
one JSON document to ``--out``.  With ``--traces-only 1`` it only fills
the trace cache, serially, and runs no experiment.  The document:

* ``dispatch_at`` / ``done_at``: ``time.monotonic()`` at the first
  dispatch and after the last render (the parent holds the spawn time);
* ``cpu_s`` / ``peak_rss_kb``: user+sys seconds and peak RSS of this
  process and its reaped worker children over the pass;
* per-experiment status, elapsed seconds, render seconds and the
  SHA-256 of the rendered text;
* cache statistics, the engine's ``SuiteReport.timing`` totals and
  supervision counters, and the headline model statistics;
* with ``--traced 1``, the spans and counters of every process.

Each completed experiment is also appended to ``--progress`` at once, so
the parent can tell which experiments a stalled pass never finished.
"""

from __future__ import annotations

import argparse
import faulthandler
import hashlib
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-length", type=int, required=True)
    parser.add_argument("--window", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--result-cache", required=True)
    parser.add_argument("--trace-cache", required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--traces-only", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--progress", required=True)
    return parser.parse_args(argv)


def _headline_model(result) -> dict:
    return {
        "ws_norm_32kb": result.ws_normalized_32kb,
        "ws_norm_64kb": result.ws_normalized_64kb,
        "two_size_ws_mean": result.ws_normalized_two_size_mean,
        "fa16_cpi_reduction": result.fa16_mean_reduction,
        "improving_16": len(result.improving_programs_16),
    }


def _own_peak_rss_kb() -> int:
    """This process's peak RSS since it started (``VmHWM``).

    ``ru_maxrss`` of ``RUSAGE_SELF`` survives ``execve``, so it would
    count the launching ``run.py``'s memory too.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    args = _parse(argv)
    # A stalled pass is diagnosed by the parent sending SIGUSR1 to the
    # whole process group: every process, forked workers included
    # (they inherit the handler), dumps all its threads' stacks.
    faulthandler.register(signal.SIGUSR1, all_threads=True)
    sys.path.insert(0, args.src)

    from repro.experiments.runner import EXPERIMENTS
    from repro.experiments.scale import ExperimentScale
    from repro.parallel.cache import SimulationCache
    from repro.parallel.pool import shutdown_shared_pool
    from repro.parallel.supervisor import SupervisorConfig
    from repro.robustness.executor import UnitSpec, run_units
    from repro.robustness.retry import RetryPolicy
    from repro.workloads.registry import workload_names

    for directory in (args.result_cache, args.trace_cache):
        Path(directory).mkdir(parents=True, exist_ok=True)
    scale = ExperimentScale(
        trace_length=args.trace_length,
        window=args.window,
        seed=args.seed,
        jobs=args.jobs if args.jobs > 1 else None,
    )

    if args.traces_only:
        # Fill the trace cache only, serially, the way the experiments
        # read it (``ExperimentScale.trace``); no experiment runs.
        for name in workload_names():
            scale.trace(name)
        Path(args.out).write_text(json.dumps({"traces_only": True}),
                                  encoding="utf-8")
        return 0

    recorder = None
    if args.traced:
        import tracing

        recorder = tracing.SpanRecorder(f"seed{args.seed}-pid{os.getpid()}")
        tracing.install(recorder)

    def make_unit(name: str) -> UnitSpec:
        runner = EXPERIMENTS[name]
        if recorder is None:
            return UnitSpec(name=f"experiment:{name}",
                            run=lambda: runner(scale))

        def traced_run():
            # In a forked worker the recorder is a copy of the parent's:
            # start from zero and ship this unit's spans home with it.
            recorder.reset()
            result = recorder.call(f"experiments.{name}", runner,
                                   (scale,), {})
            spans = recorder.export()
            recorder.reset()
            return result, spans

        return UnitSpec(name=f"experiment:{name}", run=traced_run)

    experiments = {}
    span_parts = []
    model = {}
    def publish(spec, result, elapsed: float) -> None:
        name = spec.name.split(":", 1)[1]
        if recorder is not None:
            result, spans = result
            span_parts.append(spans)
        started = time.perf_counter()
        text = result.render()
        render_s = time.perf_counter() - started
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if name == "headline":
            model.update(_headline_model(result))
        experiments[name] = {
            "status": "ok",
            "elapsed_s": elapsed,
            "render_s": render_s,
            "digest": digest,
        }
        progress.write(f"{name}\t{digest}\n")
        progress.flush()

    units = [make_unit(name) for name in EXPERIMENTS]
    with open(args.progress, "a", encoding="utf-8") as progress:
        dispatch_at = time.monotonic()
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        report = run_units(
            units,
            # No retry: an experiment that raises counts as failed, and
            # no retry's backoff or rerun lands in the pass's timings.
            retry_policy=RetryPolicy(max_attempts=1),
            on_success=publish,
            jobs=scale.jobs,
            supervision=SupervisorConfig(degraded_ok=True),
        )
        done_at = time.monotonic()
    # Reap the persistent pool so its workers' CPU counts as children.
    shutdown_shared_pool()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (
        (self_after.ru_utime - self_before.ru_utime)
        + (self_after.ru_stime - self_before.ru_stime)
        + children.ru_utime + children.ru_stime
    )

    for outcome in report.outcomes:
        name = outcome.name.split(":", 1)[1]
        entry = experiments.setdefault(name, {"status": outcome.status})
        entry["attempts"] = outcome.attempts
        if outcome.failed:
            entry["status"] = "failed"
            entry["error"] = outcome.error

    cache = SimulationCache.from_environment()
    document = {
        "dispatch_at": dispatch_at,
        "done_at": done_at,
        "cpu_s": cpu_s,
        "peak_rss_kb": max(_own_peak_rss_kb(), children.ru_maxrss),
        "experiments": experiments,
        "workload_count": len(workload_names()),
        "cache_stats": vars(cache.stats) if cache is not None else {},
        "timing": (report.timing or {}).get("totals"),
        "supervision": report.supervision,
        "model": {k: v for k, v in model.items() if math.isfinite(v)},
    }
    if recorder is not None:
        document["trace"] = tracing.merge([recorder.export(), *span_parts])
    Path(args.out).write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
