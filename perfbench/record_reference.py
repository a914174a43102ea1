"""Record the render digests the benchmark checks every pass against.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py --scale bench --seeds 0-31 101
    python3 perfbench/record_reference.py --scale paper --seeds 0

Each seed runs one cold serial pass of the suite (``suite.py``) and
stores the SHA-256 of every experiment's ``render()`` under
``reference.json[scale]["seeds"][seed]``, merging with what is already
recorded.  Re-record only when a change is meant to alter outputs, and
say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run


def _seeds(items):
    for item in items:
        low, _, high = item.partition("-")
        yield from range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=run.SCALES, default="bench")
    parser.add_argument("--seeds", nargs="+", default=["0"],
                        help="seeds or inclusive ranges such as 0-31")
    args = parser.parse_args(argv)
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    length, window = run.SCALES[args.scale]
    entry = reference.setdefault(args.scale, {})
    if (entry.get("trace_length"), entry.get("window")) != (length, window):
        entry.clear()
    entry.update(trace_length=length, window=window)
    seeds = entry.setdefault("seeds", {})
    workdir = run.STATE / "work" / f"reference-{time.strftime('%Y%m%dT%H%M%S')}"
    try:
        for seed in _seeds(args.seeds):
            passdir = workdir / f"seed{seed}"
            document = run.run_pass(
                passdir, seed=seed, scale=(length, window), jobs=1,
                caches=run._fresh_caches(passdir / "caches"), traced=False,
                deadline=time.monotonic() + 3600,
            )
            experiments = document["experiments"]
            failed = [name for name, e in experiments.items()
                      if e.get("status") != "ok"]
            if failed:
                print(f"seed {seed}: failed {failed}\n"
                      f"{document.get('log_tail', '')}", file=sys.stderr)
                return 1
            seeds[str(seed)] = {name: experiments[name]["digest"]
                                for name in run.EXPERIMENT_FILES}
            print(f"seed {seed}: {document['wall_s']:.1f}s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    entry["seeds"] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
