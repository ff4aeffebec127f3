//! Ablation benchmarks for three design choices of the reproduction:
//!
//! 1. rule-catalogue breadth (standard extended set vs the two rule
//!    families printed in the paper vs sliding-only);
//! 2. election tie-breaking (random, as in the paper, vs deterministic);
//! 3. termination condition (Algorithm 1's literal `P(Bk) = O` vs
//!    path-complete).

use criterion::{criterion_group, criterion_main, Criterion};
use sb_bench::column_config;
use sb_core::{AlgorithmConfig, ReconfigurationDriver, Termination, TieBreak};
use sb_motion::RuleCatalog;
use std::hint::black_box;

fn run_with_catalog(n: usize, catalog: RuleCatalog) -> (bool, u64, u64) {
    let report = ReconfigurationDriver::new(column_config(n))
        .with_catalog(catalog)
        .run_des();
    (
        report.completed,
        report.elementary_moves(),
        report.elections(),
    )
}

fn run_with_algorithm(n: usize, algorithm: AlgorithmConfig) -> (bool, u64, u64) {
    let report = ReconfigurationDriver::new(column_config(n))
        .with_algorithm(algorithm)
        .run_des();
    (
        report.completed,
        report.elementary_moves(),
        report.elections(),
    )
}

fn bench_ablations(c: &mut Criterion) {
    let n = 12usize;

    println!("\n== Ablation 1: rule-catalogue breadth (N = {n}) ==");
    for (label, catalog) in [
        ("standard (extended)", RuleCatalog::standard()),
        ("paper rules only", RuleCatalog::paper_rules_only()),
        ("sliding only", RuleCatalog::sliding_only()),
        ("carrying only", RuleCatalog::carrying_only()),
    ] {
        let (completed, moves, elections) = run_with_catalog(n, catalog);
        println!("  {label:<22} completed={completed:<5} moves={moves:<5} elections={elections}");
    }

    println!("\n== Ablation 2: tie-breaking policy (N = {n}) ==");
    for (label, tie) in [
        ("random (paper)", TieBreak::Random),
        ("first seen", TieBreak::FirstSeen),
        ("lowest id", TieBreak::LowestId),
    ] {
        let algorithm = AlgorithmConfig {
            tie_break: tie,
            ..AlgorithmConfig::default()
        };
        let (completed, moves, elections) = run_with_algorithm(n, algorithm);
        println!("  {label:<22} completed={completed:<5} moves={moves:<5} elections={elections}");
    }

    println!("\n== Ablation 3: termination condition (N = {n}) ==");
    for (label, term) in [
        ("path complete", Termination::PathComplete),
        ("output reached (Alg.1)", Termination::OutputReached),
    ] {
        let algorithm = AlgorithmConfig {
            termination: term,
            ..AlgorithmConfig::default()
        };
        let (completed, moves, elections) = run_with_algorithm(n, algorithm);
        println!("  {label:<22} completed={completed:<5} moves={moves:<5} elections={elections}");
    }
    println!();

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.bench_function("standard_catalog", |b| {
        b.iter(|| black_box(run_with_catalog(n, RuleCatalog::standard())))
    });
    group.bench_function("paper_rules_only", |b| {
        b.iter(|| black_box(run_with_catalog(n, RuleCatalog::paper_rules_only())))
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
