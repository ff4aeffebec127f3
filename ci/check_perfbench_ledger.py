#!/usr/bin/env python3
"""Check one perfbench result against the committed count ledger.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload column --seed 1 --seconds 0.001 --trace 1 \\
        | python3 ci/check_perfbench_ledger.py column

perfbench prints its JSON result on the last line of stdout.  At
``--seconds 0.001`` it times exactly one complete reconfiguration, so its
deterministic counters must equal the ledger entry for the workload
exactly.  Exits non-zero, naming every differing counter, unless the
result reports ``"correct": true`` and every ledger counter matches.
"""

import json
import os
import sys

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perfbench_ledger.json")


def main():
    if len(sys.argv) != 2:
        print("usage: check_perfbench_ledger.py <workload>", file=sys.stderr)
        return 2
    workload = sys.argv[1]
    with open(LEDGER) as f:
        expected = json.load(f)[workload]
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    if not lines:
        print(f"{workload}: perfbench printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    failures = []
    if result.get("correct") is not True:
        failures.append(f"correct is {result.get('correct')!r}, expected true")
    metrics = result.get("metrics", {})
    for name, want in expected.items():
        got = metrics.get(name, {}).get("value")
        if got != want:
            failures.append(f"{name}: got {got}, ledger {want}")
    for failure in failures:
        print(f"{workload}: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"{workload}: correct, {len(expected)} counters match the ledger")
    return 0


if __name__ == "__main__":
    sys.exit(main())
