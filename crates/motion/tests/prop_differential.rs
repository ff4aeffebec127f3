//! Differential property tests: the bitboard matcher must be observably
//! identical to the retained naive matrix matcher, and a planned motion
//! followed by its inverse batch must restore configurations bit-for-bit.

use proptest::prelude::*;
use sb_grid::gen::{random_connected_config, InstanceSpec};
use sb_grid::{ConnectivityOracle, Pos};
use sb_motion::MotionPlanner;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On random connected grids the bitboard matcher and the naive
    /// matrix matcher return identical `PlannedMotion` lists for every
    /// cell of the surface (occupied or not); and, below the Remark 1
    /// filter, every compiled rule matches exactly where its Motion
    /// Matrix does, with the same world moves, at every anchor whose
    /// window touches the surface.
    #[test]
    fn bitboard_and_naive_matchers_agree(blocks in 4usize..14, seed in 0u64..10_000) {
        let cfg = random_connected_config(&InstanceSpec::column_instance(blocks), seed);
        let grid = cfg.grid();
        let planner = MotionPlanner::standard();
        let mut oracle = ConnectivityOracle::new();
        for pos in grid.bounds().iter() {
            prop_assert_eq!(
                planner.motions_involving(grid, pos, &mut oracle),
                planner.motions_involving_reference(grid, pos),
                "connectivity-filtered mismatch at {}", pos
            );
        }
        let catalog = planner.catalog();
        let width = i32::try_from(grid.bounds().width).unwrap();
        let height = i32::try_from(grid.bounds().height).unwrap();
        for (compiled, rule) in catalog.compiled().iter().zip(catalog.rules()) {
            let r = i32::try_from(compiled.size / 2).unwrap();
            for y in -r..height + r {
                for x in -r..width + r {
                    let anchor = Pos::new(x, y);
                    let applies = compiled.applies_at(grid, anchor);
                    prop_assert_eq!(
                        applies,
                        rule.applies_at(grid, anchor),
                        "unfiltered mismatch for {} at {}", rule.name(), anchor
                    );
                    if applies {
                        let moves: Vec<(Pos, Pos)> = compiled
                            .moves
                            .iter()
                            .map(|m| compiled.world_move(m, anchor))
                            .collect();
                        prop_assert_eq!(moves, rule.world_moves(anchor));
                    }
                }
            }
        }
    }

    /// Applying any planned motion and then its inverse batch leaves the
    /// grid bit-identical (cells, bitboard words, id index).
    #[test]
    fn apply_undo_round_trips_bit_identically(blocks in 4usize..14, seed in 0u64..10_000) {
        let cfg = random_connected_config(&InstanceSpec::column_instance(blocks), seed);
        let before = cfg.grid();
        let planner = MotionPlanner::standard();
        let mut oracle = ConnectivityOracle::new();
        for (_, pos) in before.blocks() {
            for motion in planner.motions_involving(before, pos, &mut oracle) {
                let mut grid = before.clone();
                grid.apply_simultaneous_moves(&motion.moves)
                    .expect("planned motions are executable");
                // While applied, the subject really sits at its
                // destination and the ensemble stays connected.
                prop_assert!(grid.is_occupied(motion.subject_to));
                prop_assert!(grid.is_connected());
                let inverse: Vec<(Pos, Pos)> =
                    motion.moves.iter().map(|&(from, to)| (to, from)).collect();
                grid.apply_simultaneous_moves(&inverse)
                    .expect("the inverse batch is executable");
                prop_assert_eq!(&grid, before, "undo must restore the configuration");
                prop_assert_eq!(grid.occupancy_words(), before.occupancy_words());
                for (id, p) in before.blocks() {
                    prop_assert_eq!(grid.position_of(id), Some(p));
                }
            }
        }
    }

    /// The short-circuit feasibility probe agrees with full enumeration on
    /// every cell and every plausible target.
    #[test]
    fn fast_feasibility_probe_agrees_with_enumeration(blocks in 4usize..12, seed in 0u64..10_000) {
        let cfg = random_connected_config(&InstanceSpec::column_instance(blocks), seed);
        let planner = MotionPlanner::standard();
        let mut oracle = ConnectivityOracle::new();
        let targets = [cfg.output(), cfg.input(), Pos::new(0, 0)];
        for pos in cfg.grid().bounds().iter() {
            for target in targets {
                prop_assert_eq!(
                    planner.any_motion_towards(cfg.grid(), pos, target, |_| true, &mut oracle),
                    !planner.motions_towards(cfg.grid(), pos, target, &mut oracle).is_empty(),
                    "pos {} target {}", pos, target
                );
            }
        }
    }
}
