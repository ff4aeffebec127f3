//! Benchmark of the worked example of the paper (Figs. 10–11).
//!
//! Measures the wall-clock cost of a full Fig. 10 reconfiguration on the
//! discrete-event runtime and prints the paper-facing counters (elections,
//! elementary block moves — the paper quotes 55 moves with its rule set —
//! messages and distance computations).

use criterion::{criterion_group, criterion_main, Criterion};
use sb_bench::{fig10_driver, ResultRow};
use std::hint::black_box;

fn bench_fig10(c: &mut Criterion) {
    // Print the experiment row once, so `cargo bench` output doubles as
    // the reproduction record of the paper's worked example.
    let report = fig10_driver().run_des();
    println!(
        "\n== Fig. 10/11 worked example (paper: 55 block moves, 12 blocks, path of 11 cells) =="
    );
    println!("{}", ResultRow::header());
    println!("{}", ResultRow::from_report(&report).formatted());
    println!(
        "completed={} path_complete={} sim_time={}us events={}\n",
        report.completed,
        report.path_complete,
        report.sim_time_us.unwrap_or(0),
        report.events_processed.unwrap_or(0)
    );
    assert!(report.completed, "the Fig. 10 instance must reconfigure");

    let mut group = c.benchmark_group("fig10");
    group.sample_size(20);
    group.bench_function("des_full_reconfiguration", |b| {
        b.iter(|| {
            let report = fig10_driver().run_des();
            black_box(report.elementary_moves())
        })
    });
    group.bench_function("des_build_only", |b| {
        b.iter(|| black_box(fig10_driver().config().block_count()))
    });
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
