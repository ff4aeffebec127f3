#!/usr/bin/env python3
"""Compare two perfbench binaries in alternating pairs of runs.

Usage, from the root of a checkout:

    python3 ci/perf_pairs.py <parent-bin> <change-bin> \\
        --workload reliable_lossy --pairs 10 --seconds 15 --seed 11

Each binary is a built perfbench (``$CARGO_TARGET_DIR/release/perfbench``
after ``python3 perfbench/run.py``, or ``cargo build --release
--manifest-path perfbench/Cargo.toml``).  Pair ``i`` runs both binaries
once on the same workload and seed, the parent first in even pairs and
the change first in odd ones, so a drift of the host over time hits both
sides alike.

For every end-to-end metric of BENCHMARK.json the script prints each
side's median and quartiles, the pairs the change won, and the verdict
of the pairs rule: the change claims a gain on a metric only if it is
better in at least 90% of the pairs (9 of 10) and its median beats the
parent's by more than the parent's interquartile range.  Quartiles are
the inclusive (linearly interpolated) ones of ``statistics.quantiles``.

Wall time varies from host to host and from run to run, so CI never runs
this script; use it to back a claimed speed-up with numbers from one
host.  It exits non-zero only when a run fails or reports an incorrect
result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def run(binary, args):
    """Runs one perfbench draw and returns its JSON result."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    lines = [line for line in out.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed", 0) != 0:
        raise SystemExit(f"{binary}: incorrect result {lines[-1]}")
    return result["metrics"]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    samples = {side: {m["name"]: [] for m in metrics} for side in ("parent", "change")}
    for i in range(args.pairs):
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        drawn = {side: run(binary, args) for side, binary in order}
        for side, result in drawn.items():
            for m in metrics:
                samples[side][m["name"]].append(result[m["name"]]["value"])
        first = metrics[0]["name"]
        print(f"pair {i + 1}/{args.pairs} ({order[0][0]} first): {first} "
              f"parent {drawn['parent'][first]['value']:.4g}, "
              f"change {drawn['change'][first]['value']:.4g}", file=sys.stderr)

    need = math.ceil(0.9 * args.pairs)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds} s "
          f"(a gain needs >= {need} wins and a median gap > parent IQR)")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent, change = samples["parent"][name], samples["change"][name]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        gap = (pm - cm) if lower else (cm - pm)
        claimed = wins >= need and gap > p3 - p1
        print(f"  {name:12} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
              f"change {cm:.4g} [{c1:.4g}, {c3:.4g}] {m['unit']}  "
              f"change won {wins}/{args.pairs}  "
              f"{'GAIN' if claimed else 'no gain'} (gap {gap:+.4g}, parent IQR {p3 - p1:.4g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
