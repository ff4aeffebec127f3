//! Property-based tests for the motion-rule engine.

mod common;

use common::unfiltered_batches;
use proptest::prelude::*;
use sb_grid::gen::{random_connected_config, InstanceSpec};
use sb_grid::{ConnectivityOracle, OccupancyGrid};
use sb_motion::{EventCode, MotionPlanner, PresenceMatrix, RuleCatalog, Transform};

fn arb_presence3() -> impl Strategy<Value = PresenceMatrix> {
    proptest::collection::vec(any::<bool>(), 9)
        .prop_map(|bits| PresenceMatrix::from_bools(3, bits).unwrap())
}

proptest! {
    /// Table II is consistent with the cell-state semantics: an event is
    /// compatible with a presence bit iff the event's *initial* state
    /// requirement matches the bit.
    #[test]
    fn truth_table_matches_initial_state_semantics(code in 0u8..6, presence in any::<bool>()) {
        let event = EventCode::from_code(code).unwrap();
        let expected = match event {
            EventCode::Any => true,
            EventCode::RemainsEmpty | EventCode::BecomesOccupied => !presence,
            EventCode::RemainsOccupied | EventCode::BecomesEmpty | EventCode::Handover => presence,
        };
        prop_assert_eq!(event.compatible_with(presence), expected);
    }

    /// The validation matrix is all-true exactly when `validates` says so,
    /// for every rule of the standard catalogue against random presences.
    #[test]
    fn validates_iff_validation_matrix_all_true(mp in arb_presence3()) {
        for rule in RuleCatalog::standard().rules() {
            let vm = rule.matrix().validation_matrix(&mp);
            prop_assert_eq!(vm.iter().all(|&b| b), rule.matrix().validates(&mp));
        }
    }

    /// D4 transforms preserve rule well-formedness, window size and the
    /// number of elementary moves; the orbit of an orbit adds nothing new.
    #[test]
    fn transform_orbit_is_closed(mirror in any::<bool>(), rotations in 0u8..4) {
        let t = Transform::new(mirror, rotations);
        for base in sb_motion::rules::base_rules() {
            let derived = t.apply_rule(&base);
            prop_assert_eq!(derived.size(), base.size());
            prop_assert_eq!(derived.moves().len(), base.moves().len());
            // Re-applying every transform to the derived rule never leaves
            // the 16-rule standard orbit (by matrix+moves identity).
            let standard = RuleCatalog::standard();
            for t2 in Transform::ALL {
                let again = t2.apply_rule(&derived);
                let in_orbit = standard.rules().iter().any(|r| {
                    r.matrix() == again.matrix() && r.moves() == again.moves()
                });
                prop_assert!(in_orbit);
            }
        }
    }

    /// Every planned motion reported by the planner is executable on the
    /// grid, moves the subject block where it claims, and preserves
    /// connectivity.
    #[test]
    fn planned_motions_are_sound(blocks in 5usize..16, seed in 0u64..300) {
        let spec = InstanceSpec::column_instance(blocks);
        let cfg = random_connected_config(&spec, seed);
        let planner = MotionPlanner::standard();
        let mut oracle = ConnectivityOracle::new();
        for (_, pos) in cfg.grid().blocks() {
            for motion in planner.motions_involving(cfg.grid(), pos, &mut oracle) {
                prop_assert_eq!(motion.subject_from, pos);
                let mut trial: OccupancyGrid = cfg.grid().clone();
                let moved = trial.apply_simultaneous_moves(&motion.moves).unwrap();
                prop_assert_eq!(moved.len(), motion.blocks_moved());
                // The subject block ended up at subject_to.
                let id = cfg.grid().block_at(pos).unwrap();
                prop_assert_eq!(trial.position_of(id), Some(motion.subject_to));
                // Block count conserved and still connected.
                prop_assert_eq!(trial.block_count(), cfg.grid().block_count());
                prop_assert!(trial.is_connected());
            }
        }
    }

    /// `motions_towards` only returns single-hop improvements: the subject
    /// ends exactly one cell closer to the target.
    #[test]
    fn motions_towards_are_single_hop(blocks in 5usize..14, seed in 0u64..200) {
        let spec = InstanceSpec::l_shaped_instance(blocks.max(6));
        let cfg = random_connected_config(&spec, seed);
        let planner = MotionPlanner::standard();
        let mut oracle = ConnectivityOracle::new();
        let target = cfg.output();
        for (_, pos) in cfg.grid().blocks() {
            for m in planner.motions_towards(cfg.grid(), pos, target, &mut oracle) {
                prop_assert_eq!(m.progress_towards(target), 1);
                prop_assert_eq!(m.subject_from.manhattan(m.subject_to), 1);
            }
        }
    }

    /// Every planned motion is one of the rule instances that match
    /// before the Remark 1 filter: the filter only removes options.
    #[test]
    fn connectivity_filter_only_removes_options(blocks in 5usize..14, seed in 0u64..200) {
        let spec = InstanceSpec::column_instance(blocks);
        let cfg = random_connected_config(&spec, seed);
        let planner = MotionPlanner::standard();
        let mut oracle = ConnectivityOracle::new();
        for (_, pos) in cfg.grid().blocks() {
            let unfiltered = unfiltered_batches(planner.catalog(), cfg.grid(), pos);
            let planned = planner.motions_involving(cfg.grid(), pos, &mut oracle);
            prop_assert!(unfiltered.len() >= planned.len());
            for m in &planned {
                prop_assert!(unfiltered.contains(&m.moves), "{} is not a rule instance", m);
            }
        }
    }
}
