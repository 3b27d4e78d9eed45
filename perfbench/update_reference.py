"""Record the reference digests the result check compares against.

    python3 perfbench/update_reference.py [WORKLOAD ...]

Runs each workload twice at the default seed, each call in a fresh
interpreter, refuses to record unless both calls agree and pass the
paper-shape invariants, and writes ``perfbench/reference.json``. Rerun it
only when a change is meant to alter the program's output, and say in the
change which digests moved and why.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import REFERENCE, run_child  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, invariant_problems  # noqa: E402


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)
    for name in names:
        first, second = (run_child(name, DEFAULT_SEED, "full") for _ in range(2))
        for record in (first, second):
            if not record["ok"]:
                print(f"{name}: call failed: {record['error']}", file=sys.stderr)
                return 1
        if first["digests"] != second["digests"]:
            print(f"{name}: twin calls disagree; not recording", file=sys.stderr)
            return 1
        problems = invariant_problems(name, first["shape"])
        if problems:
            print(f"{name}: {problems}; not recording", file=sys.stderr)
            return 1
        reference[name] = {str(DEFAULT_SEED): first["digests"]}
        print(f"{name}: recorded {len(first['digests'])} digests")
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
