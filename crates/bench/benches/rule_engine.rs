//! Micro-benchmarks of the motion-rule engine (Section IV) and the XML
//! capability codec (Fig. 7): the `MM ⊗ MP` validation operator, the
//! planner queries used by every election, catalogue generation, and
//! capability-file round-trips.

use criterion::{criterion_group, criterion_main, Criterion};
use sb_bench::column_config;
use sb_core::workloads::serpentine_instance;
use sb_grid::ConnectivityOracle;
use sb_motion::{MotionPlanner, PresenceMatrix, RuleCatalog};
use sb_rules_xml::{parse_capabilities, write_capabilities};
use std::hint::black_box;

fn bench_rule_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("rule_engine");

    // Table II operator: one rule against one presence matrix.
    let rule = sb_motion::rules::east_sliding();
    let presence = PresenceMatrix::from_bits(3, &[0, 0, 0, 1, 1, 0, 1, 1, 1]).unwrap();
    group.bench_function("validate_mm_op_mp", |b| {
        b.iter(|| black_box(rule.matrix().validates(black_box(&presence))))
    });

    // Catalogue generation (full D4 orbits).
    group.bench_function("standard_catalog_generation", |b| {
        b.iter(|| black_box(RuleCatalog::standard().len()))
    });

    // Planner query on a realistic mid-reconfiguration grid.
    let config = column_config(16);
    let planner = MotionPlanner::standard();
    let mut oracle = ConnectivityOracle::new();
    let positions: Vec<_> = config.grid().blocks().map(|(_, p)| p).collect();
    group.bench_function("planner_motions_involving_16_blocks", |b| {
        b.iter(|| {
            let mut count = 0usize;
            for &p in &positions {
                count += planner
                    .motions_involving(config.grid(), p, &mut oracle)
                    .len();
            }
            black_box(count)
        })
    });

    // Bitboard engine vs the retained naive matrix matcher at N=32: the
    // same full-surface sweep through both implementations.  The bitboard
    // path must sustain >= 5x the naive throughput.
    let config32 = column_config(32);
    let planner32 = MotionPlanner::standard();
    let positions32: Vec<_> = config32.grid().blocks().map(|(_, p)| p).collect();
    group.bench_function("planner_motions_involving_bitboard_n32", |b| {
        b.iter(|| {
            let mut count = 0usize;
            for &p in &positions32 {
                count += planner32
                    .motions_involving(config32.grid(), p, &mut oracle)
                    .len();
            }
            black_box(count)
        })
    });
    group.bench_function("planner_motions_involving_naive_n32", |b| {
        b.iter(|| {
            let mut count = 0usize;
            for &p in &positions32 {
                count += planner32
                    .motions_involving_reference(config32.grid(), p)
                    .len();
            }
            black_box(count)
        })
    });
    // The election's Eq. (9) feasibility probe: short-circuit, zero-alloc.
    let output32 = config32.output();
    group.bench_function("planner_any_motion_towards_n32", |b| {
        b.iter(|| {
            let mut count = 0usize;
            for &p in &positions32 {
                count += usize::from(planner32.any_motion_towards(
                    config32.grid(),
                    p,
                    output32,
                    |_| true,
                    &mut oracle,
                ));
            }
            black_box(count)
        })
    });

    // The same question on the serpentine N = 128 instance, every block
    // towards the output, on an oracle warmed by one untimed sweep: the
    // cost of an Eq. (9) question the world's memo misses, on the
    // workload whose probes meet the most cut vertices.
    let serpentine = serpentine_instance(128, 0);
    let serpentine_blocks: Vec<_> = serpentine.grid().blocks().map(|(_, p)| p).collect();
    let serpentine_output = serpentine.output();
    let mut serpentine_oracle = ConnectivityOracle::new();
    let ask_every_block = |oracle: &mut ConnectivityOracle| {
        let mut count = 0usize;
        for &p in &serpentine_blocks {
            count += usize::from(planner.any_motion_towards(
                serpentine.grid(),
                p,
                serpentine_output,
                |_| true,
                oracle,
            ));
        }
        count
    };
    ask_every_block(&mut serpentine_oracle);
    group.bench_function("planner_any_motion_towards_serpentine_n128", |b| {
        b.iter(|| black_box(ask_every_block(&mut serpentine_oracle)))
    });

    // XML capability file round-trip (Fig. 7 format, full catalogue).
    let catalog = RuleCatalog::standard();
    let text = write_capabilities(&catalog);
    group.bench_function("xml_write_capabilities", |b| {
        b.iter(|| black_box(write_capabilities(black_box(&catalog)).len()))
    });
    group.bench_function("xml_parse_capabilities", |b| {
        b.iter(|| black_box(parse_capabilities(black_box(&text)).unwrap().len()))
    });

    group.finish();
}

criterion_group!(benches, bench_rule_engine);
criterion_main!(benches);
