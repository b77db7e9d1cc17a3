"""Compare two benchmark records (``run.py --report``) metric by metric.

Usage (from the repository root)::

    python3 servicebench/compare.py BASE.json NEW.json

Prints each metric of both records with the change relative to BASE, and
flags a comparison between records taken with a different ``cpu_count``,
workload, trace mode or Python version: such numbers are not comparable.
Exits 1 when a flag was raised.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Environment fields that must match for the numbers to be comparable.
MUST_MATCH = ("cpu_count", "workload", "python")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    flags = [
        f"{key}: {base['env'].get(key)} vs {new['env'].get(key)}"
        for key in MUST_MATCH
        if base["env"].get(key) != new["env"].get(key)
    ]
    if base.get("trace") != new.get("trace"):
        flags.append(f"trace: {base.get('trace')} vs {new.get('trace')}")
    for flag in flags:
        print(f"NOT COMPARABLE — {flag}")
    for name, old in base["metrics"].items():
        value = new["metrics"].get(name)
        if value is None:
            print(f"{name:36s} {old:14.4f} {'missing':>14s}")
            continue
        change = f"{(value / old - 1) * 100:+8.1f}%" if old else "       n/a"
        print(f"{name:36s} {old:14.4f} {value:14.4f} {change}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
