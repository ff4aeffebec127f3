//! Fault-recovery gate: proves the reliable delivery layer repairs the
//! assumption-violation probes and the round-structured re-election
//! recovers from module crashes — and fails the build if either does
//! not.
//!
//! Two plans run back to back and merge into one record:
//!
//! * [`sb_bench::sweep::SweepPlan::fault_probes`] sweeps every workload
//!   family at small sizes across jitter bursts, i.i.d. drop at 1% and
//!   10%, 1% i.i.d. duplication and the combined heavy-tail+drop+dup
//!   regime — each with reliability off (the measured damage) and on
//!   (the measured recovery).
//! * [`sb_bench::sweep::SweepPlan::fault_probes_crash`] sweeps the same
//!   families across three crash scenarios — Root crash/rejoin (leader
//!   handover), relay crash/rejoin, and permanent relay crash — under
//!   fast failure detection and round-structured re-election, on a
//!   benign and a 10%-drop transport.
//!
//! The example prints both sides, writes the machine-readable
//! `BENCH_fault_recovery.json` (one merged sweep record — the plans
//! share a seed) and then **gates**:
//!
//! * every reliability-on probe group must match the completion rate of
//!   its own benign reference (the jitter-bursts group of the same
//!   family and size, which respects Assumption 3) and never time out;
//! * every crash scenario whose victim *rejoins* must restore that same
//!   benign completion rate — a crash plus recovery ends where the
//!   fault-free run ends;
//! * every crash scenario, including the permanent one, must reach a
//!   reported outcome (`timeout_rate == 0`): the round-skip valve turns
//!   even an unsolvable instance into a clean stall, never a hang.
//!
//! ```text
//! cargo run --release --example fault_recovery
//! ```

use sb_bench::sweep::{Family, GroupSummary, SweepEngine, SweepPlan};

fn print_groups(report: &sb_bench::sweep::SweepReport) {
    println!(
        "\n{:>11} {:>4} {:>13} {:>7} {:>18} {:>9} {:>6} {:>8} {:>13} {:>13}",
        "family",
        "N",
        "network",
        "rel",
        "fault",
        "complete",
        "stall",
        "timeout",
        "messages p50",
        "retrans p50"
    );
    for g in &report.groups {
        println!(
            "{:>11} {:>4} {:>13} {:>7} {:>18} {:>8.0}% {:>5.0}% {:>7.0}% {:>13.0} {:>13.0}",
            g.cell.family.name(),
            g.cell.blocks,
            g.cell.network.name,
            g.cell.reliability.name,
            g.cell.fault.name,
            g.completed_rate * 100.0,
            g.stall_rate * 100.0,
            g.timeout_rate * 100.0,
            g.stat("messages").p50,
            g.stat("retransmissions").p50,
        );
    }
}

fn main() {
    let probe_plan = SweepPlan::fault_probes();
    let crash_plan = SweepPlan::fault_probes_crash();
    let engine = SweepEngine::with_available_parallelism();
    println!(
        "fault-recovery gate: {} probe + {} crash cells across {} workers…",
        probe_plan.cells().len(),
        crash_plan.cells().len(),
        engine.workers()
    );
    let mut report = engine.run(&probe_plan);
    let crashes = engine.run(&crash_plan);
    print_groups(&report);
    print_groups(&crashes);
    // The plans share plan seed and seeds-per-cell, so the two runs
    // concatenate into a single well-formed sweep record.
    report.groups.extend(crashes.groups);
    report.cells.extend(crashes.cells);

    let json = report.to_json();
    match std::fs::write("BENCH_fault_recovery.json", &json) {
        Ok(()) => println!(
            "\nwrote BENCH_fault_recovery.json ({} groups, {} cells)",
            report.groups.len(),
            report.cells.len()
        ),
        Err(e) => eprintln!("\ncould not write BENCH_fault_recovery.json: {e}"),
    }

    // The benign reference per (family, N): jitter bursts respect
    // Assumption 3, so this group's completion rate is what the instance
    // does when no message is ever lost and no module ever crashes.
    let reference = |family: Family, blocks: usize| -> &GroupSummary {
        report
            .groups
            .iter()
            .find(|g| {
                g.cell.family == family
                    && g.cell.blocks == blocks
                    && g.cell.network.name == "jitter_bursts"
                    && g.cell.reliability.name == "on"
                    && g.cell.fault.name == "none"
            })
            .expect("the fault-probe plan sweeps a benign reference group")
    };

    let mut failures = 0usize;
    let mut completing_references = 0usize;
    for g in &report.groups {
        let c = &g.cell;
        if c.reliability.name == "off"
            || (c.network.name == "jitter_bursts" && c.fault.name == "none")
        {
            continue;
        }
        let expected = reference(c.family, c.blocks).completed_rate;
        completing_references += usize::from(expected == 1.0);
        let label = format!(
            "{} N={} {} fault={} ({})",
            c.family.name(),
            c.blocks,
            c.network.name,
            c.fault.name,
            c.reliability.name
        );
        // A permanent crash may legitimately lower the completion rate
        // (losing a path block can make the instance unsolvable); every
        // other group — loss probes and rejoining crashes alike — must
        // restore the benign rate exactly.
        if c.fault.name != "relay_crash" && g.completed_rate != expected {
            failures += 1;
            eprintln!(
                "GATE FAILURE: {label}: completed_rate {:.3}, benign reference {:.3}",
                g.completed_rate, expected
            );
        }
        // Reliability-on runs must always reach a reported outcome — a
        // timeout would mean a message was silently lost for good (the
        // hang the delivery layer exists to eliminate) or an election
        // hung on a dead peer (the hang the round valve eliminates).
        if g.timeout_rate != 0.0 {
            failures += 1;
            eprintln!(
                "GATE FAILURE: {label}: timeout_rate {:.3} != 0",
                g.timeout_rate
            );
        }
    }
    // The gate must not pass vacuously: the plans have to contain groups
    // whose benign reference completes (the column and serpentine
    // families do at these sizes), so `completed_rate == 1.0` is really
    // being demanded of the drop/dup probes and the crash/rejoin
    // scenarios somewhere.
    if completing_references == 0 {
        failures += 1;
        eprintln!("GATE FAILURE: no probe group has a completing benign reference");
    }

    if failures > 0 {
        eprintln!("\nfault-recovery gate: {failures} group(s) failed");
        std::process::exit(1);
    }
    println!(
        "\nfault-recovery gate: every probe group recovered, every crash scenario \
         reached an outcome"
    );
}
