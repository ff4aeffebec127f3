#!/usr/bin/env python3
"""Compare two perfbench binaries in alternating pairs of runs.

Usage, from the root of a checkout:

    python3 ci/perf_pairs.py <parent-bin> <change-bin> \\
        --workload reliable_lossy --pairs 10 --seconds 15 --seed 11

``--workload`` takes one or more names (repeat the flag or list them after
it), or ``all`` for every workload of BENCHMARK.json; the workloads run
one after another and each prints its own block.

Each binary is a built perfbench (``$CARGO_TARGET_DIR/release/perfbench``
after ``python3 perfbench/run.py``, or ``cargo build --release
--manifest-path perfbench/Cargo.toml``).  Pair ``i`` runs both binaries
once on the same workload and seed, the parent first in even pairs and
the change first in odd ones, so a drift of the host over time hits both
sides alike.

For every end-to-end metric of BENCHMARK.json the script prints each
side's median and quartiles, the relative change of the median, the
pairs the change won, and the verdict of the pairs rule: the change
claims a gain (``GAIN``) on a metric only if it is better in at least 90%
of the pairs (9 of 10) and its median beats the parent's by more than
the parent's interquartile range.  ``WORSE`` is the same rule turned
round: worse in at least 90% of the pairs and a median behind the
parent's by more than its interquartile range.  Anything else reads
``even``.  A last line names every metric found ``WORSE`` and whether
its median fell behind by more than the metric's BENCHMARK.json bound, so
one run over ``all`` shows whether any end-to-end metric got worse
anywhere.  Quartiles are the inclusive (linearly interpolated) ones of
``statistics.quantiles``.

Wall time varies from host to host and from run to run, so CI never runs
this script; use it to back a claimed speed-up with numbers from one
host.  It exits non-zero only when a run fails or reports an incorrect
result.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def run(binary, workload, args):
    """Runs one perfbench draw and returns its JSON result."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
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


def verdict(wins, losses, need, gap, iqr):
    """The pairs rule, both ways: GAIN, WORSE or even."""
    if wins >= need and gap > iqr:
        return "GAIN"
    if losses >= need and -gap > iqr:
        return "WORSE"
    return "even"


def compare(workload, metrics, args):
    """Runs the pairs of one workload, prints its block and returns the
    names of the metrics found WORSE."""
    samples = {side: {m["name"]: [] for m in metrics} for side in ("parent", "change")}
    for i in range(args.pairs):
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        drawn = {side: run(binary, workload, args) for side, binary in order}
        for side, result in drawn.items():
            for m in metrics:
                samples[side][m["name"]].append(result[m["name"]]["value"])
        first = metrics[0]["name"]
        print(f"{workload} pair {i + 1}/{args.pairs} ({order[0][0]} first): {first} "
              f"parent {drawn['parent'][first]['value']:.4g}, "
              f"change {drawn['change'][first]['value']:.4g}", file=sys.stderr)

    need = math.ceil(0.9 * args.pairs)
    print(f"{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds} s "
          f"(GAIN or WORSE needs >= {need} pairs and a median gap > parent IQR)")
    worse = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent, change = samples["parent"][name], samples["change"][name]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        gap = (pm - cm) if lower else (cm - pm)
        shift = (cm - pm) / pm if pm else 0.0
        call = verdict(wins, losses, need, gap, p3 - p1)
        if call == "WORSE":
            behind = shift if lower else -shift
            beyond = "beyond" if behind > m["bound"] else "within"
            worse.append(f"{workload} {name} ({behind:+.1%}, {beyond} its {m['bound']:.0%} bound)")
        print(f"  {name:12} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
              f"change {cm:.4g} [{c1:.4g}, {c3:.4g}] {m['unit']} ({shift:+.1%})  "
              f"change won {wins}/{args.pairs}, lost {losses}  "
              f"{call} (gap {gap:+.4g}, parent IQR {p3 - p1:.4g})")
    return worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, nargs="+", action="extend",
                        help="workload names, or 'all' for every BENCHMARK.json workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with open(BENCHMARK) as f:
        benchmark = json.load(f)
    metrics = benchmark["end_to_end"]
    workloads = []
    for name in args.workload:
        names = [w["name"] for w in benchmark["workloads"]] if name == "all" else [name]
        workloads.extend(n for n in names if n not in workloads)
    # Both binaries run from paths of one length: the path is argv[0],
    # whose copy is among the first heap allocations, and its length shifts
    # the heap layout enough to decide whether glibc trims and re-faults
    # the heap between draws (seen as +50% `setup_s` on one seed).
    worse = []
    with tempfile.TemporaryDirectory() as tmp:
        for side in ("parent", "change"):
            os.mkdir(os.path.join(tmp, side))
            copy = shutil.copy2(getattr(args, side), os.path.join(tmp, side, "perfbench"))
            setattr(args, side, copy)
        for workload in workloads:
            worse.extend(compare(workload, metrics, args))
    print(f"WORSE: {', '.join(worse)}" if worse else
          f"no end-to-end metric WORSE on {', '.join(workloads)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
