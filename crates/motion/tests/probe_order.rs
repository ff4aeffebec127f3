//! Differential test of the planner's subject-frame candidate table.
//!
//! `MotionPlanner` answers a question from one 7×7 window lifted around
//! the subject block and a table of `(rule, move)` candidates compiled
//! relative to it.  The reference is the per-rule scan of
//! `CompiledRule::applies_at` in `common` (one rule window lifted per
//! candidate), driven through the same query logic the planner had
//! before the table: the closer test, then the oracle, then `admit` for
//! Eq. 9; deduplication, then the oracle, for the motion enumeration.
//!
//! The two must agree on every occupied cell of every board, towards a
//! target in each of the nine relative directions (the cell itself and
//! the axis-aligned ones included): the same verdict, the same batches
//! handed to `admit`, in the same order, and the same probe counters on
//! two fresh oracles.  The boards are the five workload families, random
//! blobs, short random walks of both, and hand-built boards with blocks
//! on every edge and corner of small surfaces, where the frame reaches
//! past the surface on several sides.

mod common;

use common::{rule_instances, unfiltered_batches};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sb_core::workloads;
use sb_grid::gen::{random_connected_config, InstanceSpec};
use sb_grid::{BlockId, Bounds, ConnectivityOracle, OccupancyGrid, Pos};
use sb_motion::{MotionPlanner, PlannedMotion, RuleCatalog};

/// The oracle counters a probe sequence leaves behind.
fn counters(oracle: &ConnectivityOracle) -> [u64; 3] {
    [
        oracle.fast_probes(),
        oracle.fallback_probes(),
        oracle.rebuilds(),
    ]
}

/// The Eq. 9 question answered by the per-rule scan.
fn reference_any_motion_towards(
    catalog: &RuleCatalog,
    grid: &OccupancyGrid,
    pos: Pos,
    target: Pos,
    mut admit: impl FnMut(&[(Pos, Pos)]) -> bool,
    oracle: &mut ConnectivityOracle,
) -> bool {
    if !grid.is_occupied(pos) {
        return false;
    }
    let from_d = pos.manhattan(target);
    rule_instances(catalog, grid, pos).iter().any(|m| {
        m.subject_to.manhattan(target) < from_d
            && oracle.preserves_connectivity(grid, &m.moves)
            && admit(&m.moves)
    })
}

/// The motion enumeration answered by the per-rule scan.
fn reference_motions_involving(
    catalog: &RuleCatalog,
    grid: &OccupancyGrid,
    pos: Pos,
    oracle: &mut ConnectivityOracle,
) -> Vec<PlannedMotion> {
    let mut out: Vec<PlannedMotion> = Vec::new();
    if !grid.is_occupied(pos) {
        return out;
    }
    for m in rule_instances(catalog, grid, pos) {
        let duplicate = out.iter().any(|p| {
            p.subject_to == m.subject_to
                && p.moves.len() == m.moves.len()
                && p.moves.iter().all(|mv| m.moves.contains(mv))
        });
        if !duplicate && oracle.preserves_connectivity(grid, &m.moves) {
            out.push(m);
        }
    }
    out
}

/// Targets around `pos` in each of the nine relative directions, near
/// and far (the cell itself once).
fn targets(pos: Pos) -> Vec<Pos> {
    let mut out = vec![pos];
    for dx in -1..=1 {
        for dy in -1..=1 {
            if (dx, dy) != (0, 0) {
                out.extend([1, 4].map(|d| pos.offset(dx * d, dy * d)));
            }
        }
    }
    out
}

/// Compares planner and reference on every occupied cell of `grid`
/// under `planner`'s catalogue; returns the number of batches `admit`
/// saw, so callers can check the boards exercised the oracle.
fn assert_same_probes(planner: &MotionPlanner, grid: &OccupancyGrid, board: &str) -> usize {
    let catalog = planner.catalog();
    let (mut framed, mut scanned) = (ConnectivityOracle::new(), ConnectivityOracle::new());
    let mut admitted = 0;
    let cells: Vec<Pos> = grid.blocks().map(|(_, p)| p).collect();
    for &pos in &cells {
        for target in targets(pos) {
            let at = format!("{board}: block at {pos}, target {target}");
            // Every batch the oracle admits reaches `admit`, in order.
            let (mut seen, mut expected) = (Vec::new(), Vec::new());
            let got = planner.any_motion_towards(
                grid,
                pos,
                target,
                |moves| {
                    seen.push(moves.to_vec());
                    false
                },
                &mut framed,
            );
            let want = reference_any_motion_towards(
                catalog,
                grid,
                pos,
                target,
                |moves| {
                    expected.push(moves.to_vec());
                    false
                },
                &mut scanned,
            );
            assert!(!got && !want, "{at}");
            assert_eq!(seen, expected, "{at}: batches passed to admit");
            admitted += seen.len();
            // The verdict with every motion admitted.
            assert_eq!(
                planner.any_motion_towards(grid, pos, target, |_| true, &mut framed),
                reference_any_motion_towards(catalog, grid, pos, target, |_| true, &mut scanned),
                "{at}: verdict"
            );
            assert_eq!(counters(&framed), counters(&scanned), "{at}: probes");
        }
        assert_eq!(
            planner.motions_involving(grid, pos, &mut framed),
            reference_motions_involving(catalog, grid, pos, &mut scanned),
            "{board}: motions of the block at {pos}"
        );
        assert_eq!(
            counters(&framed),
            counters(&scanned),
            "{board}: enumeration probes at {pos}"
        );
    }
    admitted
}

/// Applies up to `hops` random connectivity-preserving rule instances
/// (drawn from the reference scan) to `grid`, checking the planner
/// against the reference before each.
fn walk(planner: &MotionPlanner, mut grid: OccupancyGrid, hops: usize, seed: u64, board: &str) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut oracle = ConnectivityOracle::new();
    for hop in 0..=hops {
        assert_same_probes(planner, &grid, &format!("{board}, hop {hop}"));
        let cells: Vec<Pos> = grid.blocks().map(|(_, p)| p).collect();
        let batches: Vec<Vec<(Pos, Pos)>> = cells
            .into_iter()
            .flat_map(|p| unfiltered_batches(planner.catalog(), &grid, p))
            .filter(|moves| oracle.preserves_connectivity(&grid, moves))
            .collect();
        if batches.is_empty() {
            break;
        }
        grid.apply_simultaneous_moves(&batches[rng.gen_range(0..batches.len())])
            .expect("applicable rule instances are executable");
    }
}

#[test]
fn frame_table_matches_the_per_rule_scan_on_every_family() {
    type FamilyBuild = fn(usize, u64) -> sb_grid::SurfaceConfig;
    let families: [(&str, FamilyBuild); 5] = [
        ("column", workloads::column_instance),
        ("serpentine", workloads::serpentine_instance),
        ("sparse_wide", workloads::sparse_wide_instance),
        ("minimal", workloads::minimal_instance),
        ("high_aspect", workloads::high_aspect_instance),
    ];
    let planner = MotionPlanner::standard();
    for (name, build) in families {
        for seed in [1u64, 4] {
            let cfg = build(14, seed);
            walk(
                &planner,
                cfg.grid().clone(),
                12,
                seed,
                &format!("{name} seed {seed}"),
            );
        }
    }
    for seed in 0..6u64 {
        let cfg = random_connected_config(&InstanceSpec::column_instance(10), seed);
        walk(
            &planner,
            cfg.grid().clone(),
            8,
            seed,
            &format!("blob seed {seed}"),
        );
    }
}

/// A grid of `width × height` with blocks on the given cells.
fn board(width: u32, height: u32, cells: &[Pos]) -> OccupancyGrid {
    let mut grid = OccupancyGrid::new(Bounds::new(width, height));
    for (i, &p) in cells.iter().enumerate() {
        let id = BlockId(u32::try_from(i).unwrap() + 1);
        grid.place(id, p).unwrap();
    }
    grid
}

/// Hand-built boards: the full border of each small surface (every edge
/// and corner cell occupied), the border minus each corner, and an L of
/// three blocks in each corner, the kinds of board on which a rule's
/// window or destination reaches off the surface.
fn edge_boards() -> Vec<(String, OccupancyGrid)> {
    let mut out = Vec::new();
    for (w, h) in [(2u32, 2u32), (3, 2), (2, 4), (4, 3), (5, 5), (7, 4)] {
        let (wi, hi) = (i32::try_from(w).unwrap(), i32::try_from(h).unwrap());
        let border: Vec<Pos> = Bounds::new(w, h)
            .iter()
            .filter(|p| p.x == 0 || p.y == 0 || p.x == wi - 1 || p.y == hi - 1)
            .collect();
        out.push((format!("{w}x{h} border"), board(w, h, &border)));
        let corners = [
            (Pos::new(0, 0), 1, 1),
            (Pos::new(wi - 1, 0), -1, 1),
            (Pos::new(0, hi - 1), 1, -1),
            (Pos::new(wi - 1, hi - 1), -1, -1),
        ];
        for (corner, dx, dy) in corners {
            let open: Vec<Pos> = border.iter().copied().filter(|&p| p != corner).collect();
            out.push((
                format!("{w}x{h} border without {corner}"),
                board(w, h, &open),
            ));
            let l = [corner, corner.offset(dx, 0), corner.offset(0, dy)];
            if l.iter().all(|&p| Bounds::new(w, h).contains(p)) {
                out.push((format!("{w}x{h} L at {corner}"), board(w, h, &l)));
            }
        }
    }
    out
}

#[test]
fn frame_table_matches_the_per_rule_scan_on_edges_and_corners() {
    let mut admitted = 0;
    for catalog in [RuleCatalog::standard(), RuleCatalog::sliding_only()] {
        let planner = MotionPlanner::new(catalog);
        for (name, grid) in edge_boards() {
            admitted += assert_same_probes(&planner, &grid, &name);
        }
    }
    assert!(admitted > 0, "the edge boards must offer motions");
}
