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
//! versioned machine-readable `BENCH_planner.json` (schema v9, see
//! `sb_bench::sweep`) — per-group aggregates and bisectable per-cell
//! records, all deterministic, so the file is byte-identical across runs
//! and hosts and any behaviour change shows up as a diff.  The
//! assumption-violation and crash probes run in
//! `examples/fault_recovery.rs`.
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
            g.cell.family.name(),
            g.cell.blocks,
            g.cell.network.name,
            g.completed_rate * 100.0,
            g.stall_rate * 100.0,
            g.timeout_rate * 100.0,
            g.stat("messages").p50,
            g.stat("distance_computations").p50,
            g.stat("elementary_moves").p50,
            g.stat("elementary_moves").p95,
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
        .filter(|g| g.cell.family == Family::Column && g.cell.network.name == "fixed_10us")
        .collect();
    let pts = |name: &str| -> Vec<(f64, f64)> {
        column
            .iter()
            .map(|g| (g.cell.blocks as f64, g.stat(name).mean))
            .collect()
    };
    println!("\nEmpirical growth exponents, column family (slope of log-log fit):");
    println!(
        "  messages              ~ N^{:.2}   (Remark 3 upper bound: N^3)",
        fit_exponent(&pts("messages"))
    );
    println!(
        "  distance computations ~ N^{:.2}   (Remark 2 upper bound: N^3)",
        fit_exponent(&pts("distance_computations"))
    );
    println!(
        "  elementary moves      ~ N^{:.2}   (Remark 4 upper bound: N^2)",
        fit_exponent(&pts("elementary_moves"))
    );
}
