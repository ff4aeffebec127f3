//! Differential property tests for the block-cut-tree connectivity
//! oracle: [`ConnectivityOracle::preserves_connectivity`] must be
//! bit-for-bit identical to the scratch-BFS [`is_connected_after`] on
//! every geometrically valid batch — random single-block moves (adjacent
//! hops and longer repositionings), the carrying batches the rule
//! catalogue actually produces, genuine two-cell vacates on cut-vertex
//! chains and ribbon turns (which the oracle hands to the BFS), and the
//! `sparse_wide` geometry where the articulation reasoning is most at
//! risk.

use proptest::prelude::*;
use sb_grid::connectivity::{is_connected_after, ConnectivityScratch};
use sb_grid::gen::{random_connected_config, random_flat_config, InstanceSpec};
use sb_grid::{BlockId, Bounds, ConnectivityOracle, OccupancyGrid, Pos, SurfaceConfig};
use sb_motion::MotionPlanner;

/// The `sparse_wide` workload geometry (flat strip, thickness ≤ 3): thins
/// into chains whose interior blocks are all articulation points.
fn sparse_wide_config(blocks: usize, seed: u64) -> SurfaceConfig {
    let width = (blocks as u32 + 6).max(8);
    let height = (blocks as u32).max(6);
    let mid = width as i32 / 2;
    let spec = InstanceSpec {
        bounds: Bounds::new(width, height),
        input: Pos::new(mid, 0),
        output: Pos::new(mid, blocks as i32 - 2),
        blocks,
    };
    random_flat_config(&spec, seed, 2)
}

/// Every valid single-block batch from `from`: free destinations within a
/// radius-2 diamond (adjacent hops plus the longer repositionings the
/// `is_connected_after` contract also admits).
fn single_move_destinations(cfg: &SurfaceConfig, from: Pos) -> Vec<Pos> {
    let mut out = Vec::new();
    for dx in -2i32..=2 {
        for dy in -2i32..=2 {
            if (dx, dy) == (0, 0) || dx.abs() + dy.abs() > 2 {
                continue;
            }
            let to = from.offset(dx, dy);
            if cfg.grid().is_free(to) {
                out.push(to);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Oracle ≡ BFS over random connected blobs and sparse cut-vertex
    /// chains, for single-block moves and for the multi-block carrying
    /// batches of the standard catalogue.
    #[test]
    fn oracle_agrees_with_bfs(blocks in 6usize..16, seed in 0u64..10_000, sparse in any::<bool>()) {
        let cfg = if sparse {
            sparse_wide_config(blocks, seed)
        } else {
            random_connected_config(&InstanceSpec::column_instance(blocks), seed)
        };
        let grid = cfg.grid();
        let mut oracle = ConnectivityOracle::new();
        let mut scratch = ConnectivityScratch::new();

        // Single-block batches (the oracle's O(1) fast path plus its
        // cut-vertex BFS fallback).
        for (_, from) in grid.blocks() {
            for to in single_move_destinations(&cfg, from) {
                let moves = [(from, to)];
                prop_assert_eq!(
                    oracle.preserves_connectivity(grid, &moves),
                    is_connected_after(grid, &moves, &mut scratch),
                    "single move {} -> {} (sparse={})", from, to, sparse
                );
            }
        }

        // Multi-block batches: every carrying motion the catalogue can
        // instantiate anywhere on this grid (connectivity filter off so
        // disconnecting candidates are exercised too).
        let planner = MotionPlanner::standard().without_connectivity_check();
        for (_, pos) in grid.blocks() {
            for motion in planner.motions_involving(grid, pos) {
                prop_assert_eq!(
                    oracle.preserves_connectivity(grid, &motion.moves),
                    is_connected_after(grid, &motion.moves, &mut scratch),
                    "batch {:?} (sparse={})", motion.moves, sparse
                );
            }
        }

        // The same oracle kept probing one state must have amortised to
        // the fast path at least once on these workloads.
        prop_assert!(oracle.fast_probes() > 0);
    }

    /// Carrying-batch-heavy geometries: supported pairs marching along
    /// cut-vertex chains and around 2-thick ribbon turns.  Genuine
    /// two-cell vacates, which no catalogue rule produces, go to the BFS
    /// and must match it bit-for-bit; catalogue-style hand-over chains
    /// must additionally never touch the BFS on these connected states.
    #[test]
    fn pair_batches_agree_with_bfs_on_chains_and_ribbons(
        rows in 2usize..5,
        width in 3usize..7,
        thick in any::<bool>(),
    ) {
        // A serpentine ribbon: `rows` west↔east runs (1- or 2-thick)
        // joined by single-cell elbows at alternating ends.
        let stride = if thick { 3 } else { 2 };
        let mut cells: Vec<Pos> = Vec::new();
        for r in 0..rows {
            let y0 = (r * stride) as i32;
            for x in 0..width {
                cells.push(Pos::new(x as i32, y0));
                if thick {
                    cells.push(Pos::new(x as i32, y0 + 1));
                }
            }
            if r + 1 < rows {
                let elbow_x = if r % 2 == 0 { width as i32 - 1 } else { 0 };
                cells.push(Pos::new(elbow_x, y0 + stride as i32 - 1));
            }
        }
        let bounds = Bounds::new(width as u32 + 4, (rows * stride) as u32 + 4);
        let mut grid = OccupancyGrid::new(bounds);
        for (i, &p) in cells.iter().enumerate() {
            grid.place(BlockId(i as u32 + 1), p).unwrap();
        }
        let mut oracle = ConnectivityOracle::new();
        let mut scratch = ConnectivityScratch::new();

        // Free landing cells within a radius-2 diamond of the pair.
        let landings = |grid: &OccupancyGrid, around: Pos| -> Vec<Pos> {
            let mut out = Vec::new();
            for dx in -2i32..=2 {
                for dy in -2i32..=2 {
                    if (dx, dy) == (0, 0) || dx.abs() + dy.abs() > 2 {
                        continue;
                    }
                    let to = around.offset(dx, dy);
                    if grid.is_free(to) {
                        out.push(to);
                    }
                }
            }
            out
        };

        // Genuine two-cell vacates on every laterally adjacent pair.
        for &a in &cells {
            for b in a.neighbors4() {
                if !grid.is_occupied(b) {
                    continue;
                }
                let dests = landings(&grid, a);
                for (i, &d1) in dests.iter().enumerate() {
                    for &d2 in dests[i + 1..].iter().take(3) {
                        let moves = [(a, d1), (b, d2)];
                        prop_assert_eq!(
                            oracle.preserves_connectivity(&grid, &moves),
                            is_connected_after(&grid, &moves, &mut scratch),
                            "pair vacate {},{} -> {},{} (thick={})", a, b, d1, d2, thick
                        );
                    }
                }
            }
        }

        // Hand-over carrying chains (the catalogue shape: the helper
        // refills the leader's cell) reduce to a net single move and
        // must never reach the BFS while the ensemble is connected.
        let fallbacks_before = oracle.fallback_probes();
        for &a in &cells {
            for b in a.neighbors4() {
                if !grid.is_occupied(b) {
                    continue;
                }
                for &d in landings(&grid, a).iter().take(3) {
                    let chain = [(a, d), (b, a)];
                    prop_assert_eq!(
                        oracle.preserves_connectivity(&grid, &chain),
                        is_connected_after(&grid, &chain, &mut scratch),
                        "hand-over chain {},{} -> {} (thick={})", a, b, d, thick
                    );
                }
            }
        }
        prop_assert_eq!(
            oracle.fallback_probes(),
            fallbacks_before,
            "hand-over chains must stay on the O(1) path"
        );
    }

    /// On the planner's own output the oracle-backed filter reports
    /// exactly the motions the BFS-backed reference matcher reports (the
    /// end-to-end guarantee behind identical sweep numbers).
    #[test]
    fn oracle_backed_planner_matches_reference(blocks in 5usize..12, seed in 0u64..10_000) {
        let cfg = random_connected_config(&InstanceSpec::column_instance(blocks), seed);
        let planner = MotionPlanner::standard();
        for pos in cfg.grid().bounds().iter() {
            prop_assert_eq!(
                planner.motions_involving(cfg.grid(), pos),
                planner.motions_involving_reference(cfg.grid(), pos),
                "at {}", pos
            );
        }
    }
}

/// Long random-walk full-state differential over every sweep family: one
/// oracle is dragged through hundreds of occupancy epochs — the edit-log
/// regime the PR 9 incremental maintenance lives in, with a journeying
/// mover leaving a ghost/missing trail behind it — and must, at every
/// epoch, agree bit-for-bit with the scratch BFS on every single-move
/// verdict and on pair vacates around the mover (the BFS's share), and,
/// at checkpoints, agree with a freshly built oracle on the complete
/// articulation state (component count, per-block cut verdicts and the
/// raw cut mask).
#[test]
fn random_walk_differential_over_all_families() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sb_core::workloads;
    use sb_grid::connectivity::articulation_points;

    type FamilyBuild = fn(usize, u64) -> SurfaceConfig;
    let families: [(&str, FamilyBuild); 5] = [
        ("column", workloads::column_instance),
        ("serpentine", workloads::serpentine_instance),
        ("sparse_wide", workloads::sparse_wide_instance),
        ("minimal", workloads::minimal_instance),
        ("high_aspect", workloads::high_aspect_instance),
    ];
    for (name, build) in families {
        for walk_seed in [1u64, 5] {
            let cfg = build(18, walk_seed);
            let mut grid = cfg.grid().clone();
            let mut oracle = ConnectivityOracle::new();
            let mut scratch = ConnectivityScratch::new();
            let mut rng = SmallRng::seed_from_u64(walk_seed.wrapping_mul(1009).wrapping_add(9));
            let mut mover: Option<Pos> = None;

            // A surface step `from -> to`: free destination within the
            // radius-2 diamond (adjacent hops plus the diagonal surface
            // rolls the catalogue emits), supported by a block other
            // than the mover, connectivity preserved.
            let valid_steps =
                |grid: &OccupancyGrid, from: Pos, scratch: &mut ConnectivityScratch| {
                    let mut out: Vec<Pos> = Vec::new();
                    for dx in -2i32..=2 {
                        for dy in -2i32..=2 {
                            if (dx, dy) == (0, 0) || dx.abs() + dy.abs() > 2 {
                                continue;
                            }
                            let to = from.offset(dx, dy);
                            if grid.is_free(to)
                                && to
                                    .neighbors4()
                                    .iter()
                                    .any(|&q| q != from && grid.is_occupied(q))
                                && is_connected_after(grid, &[(from, to)], scratch)
                            {
                                out.push(to);
                            }
                        }
                    }
                    out
                };

            let mut steps_taken = 0usize;
            for step in 0..200usize {
                // Walk: continue the active mover's journey when it can
                // move (the driver's trail-building shape), otherwise
                // start a fresh journey from a random movable block.
                let from = match mover {
                    Some(f)
                        if rng.gen_range(0..8) != 0
                            && !valid_steps(&grid, f, &mut scratch).is_empty() =>
                    {
                        f
                    }
                    _ => {
                        let movable: Vec<Pos> = grid
                            .blocks()
                            .map(|(_, p)| p)
                            .filter(|&p| !valid_steps(&grid, p, &mut scratch).is_empty())
                            .collect();
                        if movable.is_empty() {
                            break;
                        }
                        movable[rng.gen_range(0..movable.len())]
                    }
                };
                let steps = valid_steps(&grid, from, &mut scratch);
                let to = steps[rng.gen_range(0..steps.len())];
                grid.move_block(from, to).unwrap();
                mover = Some(to);
                steps_taken += 1;

                // Every single-move verdict of the new state, patched
                // oracle against scratch BFS.
                for (_, f) in grid.blocks() {
                    for t in f.neighbors4() {
                        if !grid.is_free(t) {
                            continue;
                        }
                        let moves = [(f, t)];
                        assert_eq!(
                            oracle.preserves_connectivity(&grid, &moves),
                            is_connected_after(&grid, &moves, &mut scratch),
                            "{name} seed={walk_seed} step={step}: single {f} -> {t}"
                        );
                    }
                }
                // Pair vacates around the mover (BFS fallbacks with the
                // pending trail nearby).
                for b in to.neighbors4() {
                    if !grid.is_occupied(b) {
                        continue;
                    }
                    let dests: Vec<Pos> = to
                        .neighbors8()
                        .into_iter()
                        .chain(b.neighbors8())
                        .filter(|&d| grid.is_free(d))
                        .collect();
                    for (i, &d1) in dests.iter().enumerate().take(3) {
                        for &d2 in dests[i + 1..].iter().take(2) {
                            let moves = [(to, d1), (b, d2)];
                            assert_eq!(
                                oracle.preserves_connectivity(&grid, &moves),
                                is_connected_after(&grid, &moves, &mut scratch),
                                "{name} seed={walk_seed} step={step}: pair {to},{b} -> {d1},{d2}"
                            );
                        }
                    }
                }

                // Checkpoint: the patched state must equal a fresh
                // rebuild exactly — components, every cut verdict, and
                // the raw cut mask.
                if step % 50 == 49 {
                    let mut fresh = ConnectivityOracle::new();
                    assert_eq!(
                        oracle.component_count(&grid),
                        fresh.component_count(&grid),
                        "{name} seed={walk_seed} step={step}: component count"
                    );
                    let cuts = articulation_points(&grid);
                    for (id, p) in grid.blocks() {
                        assert_eq!(
                            oracle.is_cut_vertex(&grid, p),
                            cuts.contains(&id),
                            "{name} seed={walk_seed} step={step}: cut verdict at {p}"
                        );
                    }
                    assert_eq!(
                        oracle.cut_mask(&grid),
                        fresh.cut_mask(&grid),
                        "{name} seed={walk_seed} step={step}: cut mask"
                    );
                }
            }
            assert_eq!(
                steps_taken, 200,
                "{name} seed={walk_seed}: the walk stalled early"
            );
            assert!(
                oracle.incremental_updates() > 0,
                "{name} seed={walk_seed}: the walk never exercised the incremental path"
            );
        }
    }
}
