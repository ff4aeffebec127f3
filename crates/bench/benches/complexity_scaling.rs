//! Complexity-scaling benchmark (Remarks 2–4 of the paper), driven by the
//! parallel sweep engine.
//!
//! * Remark 2: the number of distance computations is `O(N³)`.
//! * Remark 3: the number of messages exchanged is `O(N³)`.
//! * Remark 4: the number of block hops to build the path is `O(N²)`.
//!
//! The informational sweep fans the deterministic column workload across
//! every core through [`SweepEngine`], prints the measured counters and
//! the fitted growth exponents (which must stay at or below the paper's
//! upper bounds), then Criterion measures the wall-clock time of a full
//! single-cell engine run per size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sb_bench::sweep::{
    run_cell, Family, FamilyPlan, FaultSpec, NetworkSpec, ReliabilitySpec, SweepEngine, SweepPlan,
};
use sb_bench::{fit_exponent, SCALING_SIZES};
use sb_core::election::TieBreak;
use std::hint::black_box;

fn column_plan(sizes: Vec<usize>) -> SweepPlan {
    SweepPlan {
        plan_seed: 1,
        families: vec![FamilyPlan {
            family: Family::Column,
            sizes,
        }],
        seeds: vec![1],
        networks: vec![NetworkSpec::fixed_10us()],
        tie_breaks: vec![TieBreak::Random],
        reliability: vec![ReliabilitySpec::off()],
        faults: vec![FaultSpec::none()],
    }
}

fn bench_scaling(c: &mut Criterion) {
    println!("\n== Complexity scaling (Remarks 2-4, sweep engine) ==");
    let report =
        SweepEngine::with_available_parallelism().run(&column_plan(SCALING_SIZES.to_vec()));
    println!(
        "{:>6} {:>10} {:>12} {:>14} {:>10} {:>10}",
        "N", "elections", "messages", "dist-comps", "moves", "completed"
    );
    for g in &report.groups {
        println!(
            "{:>6} {:>10.0} {:>12.0} {:>14.0} {:>10.0} {:>10}",
            g.cell.blocks,
            g.stat("elections").mean,
            g.stat("messages").mean,
            g.stat("distance_computations").mean,
            g.stat("elementary_moves").mean,
            if g.completed_rate == 1.0 { "yes" } else { "NO" }
        );
    }
    let pts = |name: &str| -> Vec<(f64, f64)> {
        report
            .groups
            .iter()
            .map(|g| (g.cell.blocks as f64, g.stat(name).mean))
            .collect()
    };
    println!(
        "fitted exponents: messages ~ N^{:.2} (<= 3), distance computations ~ N^{:.2} (<= 3), moves ~ N^{:.2} (<= 2)\n",
        fit_exponent(&pts("messages")),
        fit_exponent(&pts("distance_computations")),
        fit_exponent(&pts("elementary_moves")),
    );

    let mut group = c.benchmark_group("complexity_scaling");
    group.sample_size(10);
    for &n in &[8usize, 16, 32] {
        // Measure the cell runner itself, not the engine's thread-spawn
        // and aggregation scaffolding (which would dominate at small N).
        let cell = column_plan(vec![n]).cells()[0];
        group.bench_with_input(BenchmarkId::new("engine_cell", n), &n, |b, _| {
            b.iter(|| black_box(run_cell(&cell, 1).metrics.elementary_moves))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
