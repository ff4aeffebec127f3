//! Scenario-diverse complexity sweep (Remarks 2–4 of the paper), run on
//! the parallel [`sb_bench::SweepEngine`].
//!
//! The paper states, for `N` blocks:
//!
//! * Remark 2 — the number of distance computations is `O(N³)`;
//! * Remark 3 — the number of messages exchanged is `O(N³)`;
//! * Remark 4 — the number of block hops needed to build the path is
//!   `O(N²)`.
//!
//! This example fans the standard sweep plan — five workload families
//! (the column family up to `N = 256`), four network regimes (fixed,
//! jittered, heterogeneous/asymmetric per-link, heavy-tailed), three
//! seeds per cell — across every available core, prints the per-group
//! aggregates, fits a power-law exponent for the column family so the
//! growth rates can be compared against the remarks, and writes the
//! versioned machine-readable `BENCH_planner.json` (schema v8, see
//! `sb_bench::sweep`) — per-group aggregates and bisectable per-cell
//! records, all deterministic, so the file is byte-identical across runs
//! and hosts and any behaviour change shows up as a diff.
//!
//! It then smoke-runs the **fault-probe plan** — jitter bursts, i.i.d.
//! drop at 1% and 10%, 1% i.i.d. duplication and the combined
//! heavy-tail+drop regime, each with the reliable delivery layer off and
//! on — so the assumption-violation transport path and the
//! ack/timeout/retransmit recovery path both execute on every CI run and
//! their stall/timeout rates are printed as measured data.  The hard
//! recovery *gate* (reliability on must restore the fault-free outcome)
//! lives in `examples/fault_recovery.rs`.
//!
//! ```text
//! cargo run --release --example scaling_sweep
//! ```

use sb_bench::fit_exponent;
use sb_bench::sweep::{Family, SweepEngine, SweepPlan, SweepReport};

fn print_groups(report: &SweepReport) {
    println!(
        "\n{:>11} {:>4} {:>20} {:>9} {:>6} {:>8} {:>12} {:>14} {:>10} {:>10}",
        "family",
        "N",
        "network",
        "complete",
        "stall",
        "timeout",
        "messages p50",
        "dist-comps p50",
        "moves p50",
        "moves p95"
    );
    for g in &report.groups {
        println!(
            "{:>11} {:>4} {:>20} {:>8.0}% {:>5.0}% {:>7.0}% {:>12.0} {:>14.0} {:>10.0} {:>10.0}",
            g.family.name(),
            g.blocks,
            g.network,
            g.completed_rate * 100.0,
            g.stall_rate * 100.0,
            g.timeout_rate * 100.0,
            g.messages.p50,
            g.distance_computations.p50,
            g.moves.p50,
            g.moves.p95,
        );
    }
}

fn main() {
    let plan = SweepPlan::standard();
    let engine = SweepEngine::with_available_parallelism();
    println!(
        "sweeping {} cells across {} workers…",
        plan.cells().len(),
        engine.workers()
    );
    // sb-allow: wall-clock-in-sim — stdout-only wall timing of the sweep itself
    let start = std::time::Instant::now();
    let report = engine.run(&plan);
    let wall = start.elapsed();
    print_groups(&report);

    // Machine-readable record for future perf comparisons (deterministic
    // and byte-identical for a fixed plan regardless of worker count).
    let json = report.to_json();
    match std::fs::write("BENCH_planner.json", &json) {
        Ok(()) => println!(
            "\nwrote BENCH_planner.json ({} groups, {} cells)",
            report.groups.len(),
            report.cells.len()
        ),
        Err(e) => eprintln!("\ncould not write BENCH_planner.json: {e}"),
    }

    // Wall-clock throughput summary (host-dependent; kept out of the
    // JSON record on purpose).
    let cell_wall = report.total_cell_wall().as_secs_f64();
    println!(
        "{} events across {} runs in {:.2?} wall ({:.0} events/s aggregate, {:.1}x parallel speed-up)",
        report.total_events(),
        report.cells.len(),
        wall,
        report.total_events() as f64 / wall.as_secs_f64().max(1e-9),
        cell_wall / wall.as_secs_f64().max(1e-9),
    );

    // Least-squares slope of log(y) vs log(N) on the column family under
    // the deterministic latency: the empirical exponent of Remarks 2-4.
    let column: Vec<_> = report
        .groups
        .iter()
        .filter(|g| g.family == Family::Column && g.network == "fixed_10us")
        .collect();
    let pts = |select: fn(&sb_bench::sweep::GroupSummary) -> f64| -> Vec<(f64, f64)> {
        column
            .iter()
            .map(|g| (g.blocks as f64, select(g)))
            .collect()
    };
    println!("\nEmpirical growth exponents, column family (slope of log-log fit):");
    println!(
        "  messages              ~ N^{:.2}   (Remark 3 upper bound: N^3)",
        fit_exponent(&pts(|g| g.messages.mean))
    );
    println!(
        "  distance computations ~ N^{:.2}   (Remark 2 upper bound: N^3)",
        fit_exponent(&pts(|g| g.distance_computations.mean))
    );
    println!(
        "  elementary moves      ~ N^{:.2}   (Remark 4 upper bound: N^2)",
        fit_exponent(&pts(|g| g.moves.mean))
    );

    // Assumption-violation probes: jitter bursts respect Assumption 3
    // (finite time) and must still complete; i.i.d. drop deadlocks raw
    // elections (timeouts), i.i.d. duplication perturbs raw ack counting
    // (clean stalls) — and the reliability-on half of the plan repairs
    // both.  These rates are the measurement; the hard recovery gate is
    // `examples/fault_recovery.rs`.
    let fault_plan = SweepPlan::fault_probes();
    println!(
        "\nfault probes: {} cells (jitter bursts, 1%/10% drop, 1% duplication, \
         heavy-tail combined; reliability off/on)…",
        fault_plan.cells().len()
    );
    let fault_report = engine.run(&fault_plan);
    print_groups(&fault_report);
}
