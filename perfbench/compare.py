"""Compare run records written by perfbench/run.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both records with the relative change, the instances
attempted and failed, and any difference in the recorded environment.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    for key in ("workload", "seconds", "trace"):
        if a[key] != b[key]:
            print(f"warning: {key} differs: {a[key]!r} vs {b[key]!r}")
    for key in sorted(set(a["environment"]) | set(b["environment"])):
        va, vb = a["environment"].get(key), b["environment"].get(key)
        if va != vb:
            print(f"environment {key}: {va} -> {vb}")
    print(f"seed {a['seed']} -> {b['seed']}; attempted {a['attempted']} -> {b['attempted']}; "
          f"failed {a['failed']} -> {b['failed']}; correct {a['correct']} -> {b['correct']}")
    section = "per_layer" if a["trace"] else "end_to_end"
    for name, ma in a[section].items():
        mb = b[section].get(name)
        if mb is None:
            print(f"{name:28s} {ma['value']:14.6g} {'-':>14s}")
            continue
        change = (mb["value"] - ma["value"]) / ma["value"] * 100 if ma["value"] else float("nan")
        print(f"{name:28s} {ma['value']:14.6g} {mb['value']:14.6g} {change:+8.1f}% {ma['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
