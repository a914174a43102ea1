"""Compare two benchmark records side by side.

Usage::

    python3 perfbench/compare.py .perfbench/records/A.json .perfbench/records/B.json

Prints each metric both records carry with the second as a share of the
first.  Records from different hosts (CPU model or core count) or
different benchmark settings are flagged, because their times do not
compare.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Host fields that must match for two records' times to compare.
HOST_KEYS = ("nproc", "cpu_model", "python", "numpy")
SETTING_KEYS = ("workload", "scale", "trace_length", "window", "seconds")


def compare(first: dict, second: dict) -> list:
    lines = []
    for key in HOST_KEYS:
        if first["host"].get(key) != second["host"].get(key):
            lines.append(f"FLAG different host {key}: "
                         f"{first['host'].get(key)!r} vs "
                         f"{second['host'].get(key)!r}")
    for key in SETTING_KEYS:
        if first.get(key) != second.get(key):
            lines.append(f"FLAG different {key}: {first.get(key)!r} vs "
                         f"{second.get(key)!r}")
    for section in ("end_to_end", "per_layer"):
        for name, before in first.get(section, {}).items():
            after = second.get(section, {}).get(name)
            if after is None:
                continue
            share = f"{after / before:.3f}x" if before else "-"
            lines.append(f"{name:44s} {before:12.6g} {after:12.6g} {share}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(p).read_text()) for p in argv)
    lines = compare(first, second)
    print("\n".join(lines))
    return 1 if any(line.startswith("FLAG") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
