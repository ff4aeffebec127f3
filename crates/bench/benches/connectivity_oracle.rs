//! Connectivity-probe benchmark: the cut-vertex [`ConnectivityOracle`]
//! against the per-probe scratch BFS it replaced, across every workload
//! family of the sweep.
//!
//! The measured workload is the election's admission filter: for every
//! block of the instance, probe its *supported* single-block moves (free
//! destinations in the radius-2 diamond with at least one occupied
//! lateral neighbour besides the mover — the destinations the
//! support-requiring motion rules actually emit, and the cases where the
//! BFS must traverse the whole ensemble rather than bail on an isolated
//! mover).  The BFS pays O(N) per probe; the oracle pays one Tarjan pass
//! per world state and O(1) per probe, so at N ≥ 128 the oracle must
//! sustain **at least 5×** the BFS throughput on these single-block
//! probes (the PR 3 acceptance bar — the two must return identical
//! verdicts, which the harness asserts).
//!
//! PR 7 adds the **carrying** probe set: hand-over chains
//! `[(a, d), (b, a)]`, the shape of every catalogue carrying rule (net
//! effect: one block relocates), plus genuine two-cell vacates
//! `[(a, d1), (b, d2)]`, which no catalogue rule emits and the oracle
//! hands to the BFS.  The harness asserts batch-for-batch verdict
//! identity over the whole set *and* pins the fallback-probe count for
//! hand-over chains on connected instances to zero, then times
//! `bfs_per_carrying_batch` against `oracle_carrying` on the chains.
//!
//! PR 9 adds the **epoch replay**: the oracle dragged through a full
//! recorded reconfiguration — probe, absorb, advance — timing the
//! amortised-O(1) maintenance itself and reporting rebuilds and
//! incremental absorptions per epoch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sb_bench::sweep::Family;
use sb_core::ReconfigurationDriver;
use sb_grid::connectivity::{is_connected_after, ConnectivityScratch};
use sb_grid::{ConnectivityOracle, Pos, SurfaceConfig};
use std::hint::black_box;

/// The single-block probe set of one world state: every block to each
/// free, support-bearing destination within two lateral steps.
fn probe_set(cfg: &SurfaceConfig) -> Vec<(Pos, Pos)> {
    let grid = cfg.grid();
    let mut probes = Vec::new();
    for (_, from) in grid.blocks() {
        for dx in -2i32..=2 {
            for dy in -2i32..=2 {
                if (dx, dy) == (0, 0) || dx.abs() + dy.abs() > 2 {
                    continue;
                }
                let to = from.offset(dx, dy);
                let supported = to
                    .neighbors4()
                    .iter()
                    .any(|&q| q != from && grid.is_occupied(q));
                if grid.is_free(to) && supported {
                    probes.push((from, to));
                }
            }
        }
    }
    probes
}

/// The carrying probe set of one world state: for every occupied
/// adjacent pair `(a, b)`, the hand-over chains `[(a, d), (b, a)]` (the
/// carried block steps into the carrier's cell — every carrying rule in
/// the catalogue has this shape) plus the genuine two-cell vacates
/// `[(a, d1), (b, d2)]` with both destinations free (the BFS's share).  Destination fan-out is capped so the set stays
/// O(blocks)-sized across families.
fn carrying_set(cfg: &SurfaceConfig) -> Vec<[(Pos, Pos); 2]> {
    let grid = cfg.grid();
    let mut batches = Vec::new();
    for (_, a) in grid.blocks() {
        for b in a.neighbors4() {
            if !grid.is_occupied(b) {
                continue;
            }
            let free_near = |c: Pos| {
                c.neighbors4()
                    .into_iter()
                    .filter(|&d| d != a && d != b && grid.is_free(d))
            };
            // Hand-over chains: a vacates to d, b refills a's cell.
            for d in free_near(a).take(2) {
                batches.push([(a, d), (b, a)]);
            }
            // Two-cell vacates: a and b leave simultaneously.
            for d1 in free_near(a).take(1) {
                for d2 in free_near(b).filter(|&d2| d2 != d1).take(2) {
                    batches.push([(a, d1), (b, d2)]);
                }
            }
        }
    }
    batches
}

/// The maintenance section: replay a recorded column reconfiguration —
/// probe the epoch's net move, apply it, advance — so the timed quantity
/// is the amortised-O(1) upkeep (light sync + edit log + occasional
/// rebuild), not just probes against a static state.  Prints the
/// measured rebuilds and incremental absorptions per epoch once.
fn bench_epoch_replay(c: &mut Criterion) {
    let n = 64usize;
    let cfg = Family::Column.build(n, 1);
    let report = ReconfigurationDriver::new(Family::Column.build(n, 1))
        .with_seed(9)
        .run_des();
    assert!(report.completed, "column N={n} must complete");
    let log: Vec<(Pos, Pos)> = report
        .move_log
        .iter()
        .map(|record| {
            let sources: Vec<Pos> = record.moves.iter().map(|&(_, s, _)| s).collect();
            let dests: Vec<Pos> = record.moves.iter().map(|&(_, _, d)| d).collect();
            let f = *sources.iter().find(|s| !dests.contains(s)).unwrap();
            let t = *dests.iter().find(|d| !sources.contains(d)).unwrap();
            (f, t)
        })
        .collect();

    // Counter report from a single replay (outside the timing loop).
    {
        let mut grid = cfg.grid().clone();
        let mut oracle = ConnectivityOracle::new();
        for &(f, t) in &log {
            oracle.preserves_connectivity(&grid, &[(f, t)]);
            grid.move_block(f, t).unwrap();
        }
        oracle.preserves_connectivity(&grid, &[]);
        eprintln!(
            "epoch replay column N={n}: {} epochs, {} rebuilds, {} incremental \
             ({:.4} rebuilds/epoch), {} fallbacks",
            log.len(),
            oracle.rebuilds(),
            oracle.incremental_updates(),
            oracle.rebuilds() as f64 / log.len() as f64,
            oracle.fallback_probes(),
        );
    }

    let mut group = c.benchmark_group("connectivity_oracle");
    group.sample_size(10);
    let mut oracle = ConnectivityOracle::new();
    group.bench_function(BenchmarkId::new("oracle_epoch_replay", n), |b| {
        b.iter(|| {
            let mut grid = cfg.grid().clone();
            let mut admitted = 0usize;
            for &(f, t) in &log {
                admitted += usize::from(oracle.preserves_connectivity(&grid, &[(f, t)]));
                grid.move_block(f, t).unwrap();
            }
            black_box(admitted)
        })
    });
    group.finish();
}

fn bench_connectivity_oracle(c: &mut Criterion) {
    let n = 128usize;
    let seed = 11u64;
    let mut group = c.benchmark_group("connectivity_oracle");

    for family in Family::ALL {
        let cfg = family.build(n, seed);
        let grid = cfg.grid();
        let probes = probe_set(&cfg);
        assert!(
            !probes.is_empty(),
            "{}: no single-block probes",
            family.name()
        );

        // The two implementations must agree probe for probe before any
        // timing is trusted.
        {
            let mut oracle = ConnectivityOracle::new();
            let mut scratch = ConnectivityScratch::new();
            for &(from, to) in &probes {
                let moves = [(from, to)];
                assert_eq!(
                    oracle.preserves_connectivity(grid, &moves),
                    is_connected_after(grid, &moves, &mut scratch),
                    "{}: verdict mismatch on {} -> {}",
                    family.name(),
                    from,
                    to
                );
            }
        }

        let mut scratch = ConnectivityScratch::new();
        group.bench_with_input(
            BenchmarkId::new("bfs_per_probe", family.name()),
            &probes,
            |b, probes| {
                b.iter(|| {
                    let mut admitted = 0usize;
                    for &(from, to) in probes {
                        admitted +=
                            usize::from(is_connected_after(grid, &[(from, to)], &mut scratch));
                    }
                    black_box(admitted)
                })
            },
        );

        let mut oracle = ConnectivityOracle::new();
        group.bench_with_input(
            BenchmarkId::new("oracle", family.name()),
            &probes,
            |b, probes| {
                b.iter(|| {
                    let mut admitted = 0usize;
                    for &(from, to) in probes {
                        admitted += usize::from(oracle.preserves_connectivity(grid, &[(from, to)]));
                    }
                    black_box(admitted)
                })
            },
        );

        let batches = carrying_set(&cfg);
        assert!(
            !batches.is_empty(),
            "{}: no carrying batches",
            family.name()
        );
        let chains: Vec<[(Pos, Pos); 2]> = batches
            .iter()
            .copied()
            .filter(|b| b[1].1 == b[0].0)
            .collect();

        // Batch-for-batch agreement first, and — on connected instances —
        // the PR 7 pin: hand-over chains never reach the BFS (the
        // net-effect reduction answers them from the block-cut tree).
        {
            let mut oracle = ConnectivityOracle::new();
            let mut scratch = ConnectivityScratch::new();
            let connected = is_connected_after(grid, &[], &mut scratch);
            for batch in &batches {
                assert_eq!(
                    oracle.preserves_connectivity(grid, batch),
                    is_connected_after(grid, batch, &mut scratch),
                    "{}: carrying verdict mismatch on {:?}",
                    family.name(),
                    batch
                );
            }
            if connected {
                let before = oracle.fallback_probes();
                for batch in &chains {
                    oracle.preserves_connectivity(grid, batch);
                }
                assert_eq!(
                    oracle.fallback_probes(),
                    before,
                    "{}: a hand-over chain fell back to the BFS",
                    family.name()
                );
            }
        }

        let mut scratch = ConnectivityScratch::new();
        group.bench_with_input(
            BenchmarkId::new("bfs_per_carrying_batch", family.name()),
            &chains,
            |b, chains| {
                b.iter(|| {
                    let mut admitted = 0usize;
                    for batch in chains {
                        admitted += usize::from(is_connected_after(grid, batch, &mut scratch));
                    }
                    black_box(admitted)
                })
            },
        );

        let mut oracle = ConnectivityOracle::new();
        group.bench_with_input(
            BenchmarkId::new("oracle_carrying", family.name()),
            &chains,
            |b, chains| {
                b.iter(|| {
                    let mut admitted = 0usize;
                    for batch in chains {
                        admitted += usize::from(oracle.preserves_connectivity(grid, batch));
                    }
                    black_box(admitted)
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_connectivity_oracle, bench_epoch_replay);
criterion_main!(benches);
