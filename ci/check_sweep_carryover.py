#!/usr/bin/env python3
"""Check that the sweep schema v9 BENCH records carry every v8 value over.

Usage, from the root of a checkout, after regenerating both records with
``cargo run --release --example scaling_sweep`` and
``cargo run --release --example fault_recovery``:

    python3 ci/check_sweep_carryover.py <base-rev>

``<base-rev>`` is a git revision whose BENCH_planner.json and
BENCH_fault_recovery.json are schema v8; they are read with
``git show <base-rev>:<file>``.  The v9 records are read from disk.  For
every group and every cell, in order, each v8 value must be present under
its v9 name with the same value:

* ``moves`` is ``elementary_moves`` in v9;
* a cell's ``messages`` is the sum of the five message-kind counters;
* ``motion`` was always ``"rule_based"`` and is gone in v9;
* every other field, ``cell_seed`` included, keeps its name and value.

Exits non-zero, naming every difference, unless both records carry over.
"""

import json
import subprocess
import sys

RECORDS = ["BENCH_planner.json", "BENCH_fault_recovery.json"]
RENAMED = {"moves": "elementary_moves"}
MESSAGE_KINDS = ["activate_msgs", "ack_msgs", "select_msgs", "select_ack_msgs", "round_sync_msgs"]


def v9_value(record, name, is_cell):
    """The v9 value that carries the v8 field `name`."""
    if is_cell and name == "messages":
        return sum(record[kind] for kind in MESSAGE_KINDS)
    return record.get(RENAMED.get(name, name))


def compare(kind, old_records, new_records, failures):
    """Compares one array of v8 records with its v9 counterpart; returns
    the number of values compared."""
    if len(old_records) != len(new_records):
        failures.append(f"{kind}: {len(old_records)} v8 records, {len(new_records)} v9")
        return 0
    is_cell = kind == "cells"
    values = 0
    for i, (old, new) in enumerate(zip(old_records, new_records)):
        for name, want in old.items():
            if name == "motion":
                if want != "rule_based":
                    failures.append(f"{kind}[{i}]: v8 motion {want!r}")
                if "motion" in new:
                    failures.append(f"{kind}[{i}]: v9 still records motion")
                continue
            got = v9_value(new, name, is_cell)
            if got != want:
                failures.append(f"{kind}[{i}].{name}: v8 {want!r}, v9 {got!r}")
            values += 1
    return values


def main():
    if len(sys.argv) != 2:
        print("usage: check_sweep_carryover.py <base-rev>", file=sys.stderr)
        return 2
    base = sys.argv[1]
    failures = []
    for path in RECORDS:
        old = json.loads(subprocess.check_output(["git", "show", f"{base}:{path}"]))
        with open(path) as f:
            new = json.load(f)
        record_failures = []
        if old.get("version") != 8 or new.get("version") != 9:
            record_failures.append(
                f"versions {old.get('version')} -> {new.get('version')}, expected 8 -> 9"
            )
        for field in ["schema", "plan_seed", "seeds_per_cell", "percentile_method"]:
            if old.get(field) != new.get(field):
                record_failures.append(f"{field}: v8 {old.get(field)!r}, v9 {new.get(field)!r}")
        groups = compare("groups", old["groups"], new["groups"], record_failures)
        cells = compare("cells", old["cells"], new["cells"], record_failures)
        for failure in record_failures:
            print(f"{path}: {failure}", file=sys.stderr)
        failures.extend(record_failures)
        if not record_failures:
            print(
                f"{path}: {len(old['groups'])} groups / {len(old['cells'])} cells, "
                f"{groups + cells} v8 values ({groups} group, {cells} cell) carried over, "
                f"every cell_seed unchanged"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
