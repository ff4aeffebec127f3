//! Property tests on the protocol-level invariants of the distributed
//! election, checked through the metric counters and the move log.

mod common;

use common::expected_activations;
use proptest::prelude::*;
use smart_surface::core::workloads::{column_instance, random_blob_instance};
use smart_surface::core::ReconfigurationDriver;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Message-conservation invariants of the Dijkstra-Scholten election:
    /// every activation is acknowledged exactly once, the selection and its
    /// acknowledgment traverse the same number of hops, and the counters
    /// relate to the number of elections as the protocol dictates.
    #[test]
    fn election_message_invariants(blocks in 5usize..16, seed in 0u64..100) {
        let config = random_blob_instance(blocks, seed);
        let report = ReconfigurationDriver::new(config.clone()).with_seed(seed).run_des();
        let m = &report.metrics;
        // Every election ends in one hop, except a stalled run's last.
        prop_assert!(report.completed || report.stalled);
        prop_assert_eq!(m.elections, m.elected_hops + u64::from(report.stalled));
        // Remark 3, exactly: the flood's cost follows from the
        // configuration each election starts from, and each Activate is
        // answered by exactly one Ack (a subtree acknowledgment or an
        // immediate decline).
        prop_assert_eq!(m.activate_msgs, expected_activations(&config, &report));
        prop_assert_eq!(m.activate_msgs, m.ack_msgs);
        // Select and SelectAck travel the same tree path, hop for hop.
        prop_assert_eq!(m.select_msgs, m.select_ack_msgs);
        // Selections never appear without an election.
        if m.select_msgs > 0 {
            prop_assert!(m.elections > 0);
        }
        // Every elected hop moves at least one block, at most two (3x3
        // rules move at most a pair).
        prop_assert!(m.elementary_moves >= m.elected_hops);
        prop_assert!(m.elementary_moves <= 2 * m.elected_hops);
        // Every block computes its distance at most once per election.
        prop_assert!(m.distance_computations <= m.elections * blocks as u64);
    }

    /// The move log and the metric counters describe the same execution.
    #[test]
    fn move_log_matches_metrics(blocks in 5usize..14, seed in 0u64..100) {
        let config = random_blob_instance(blocks, seed);
        let report = ReconfigurationDriver::new(config).with_seed(seed).run_des();
        prop_assert_eq!(report.move_log.len() as u64, report.metrics.elected_hops);
        let moves_in_log: u64 = report.move_log.iter().map(|r| r.moves.len() as u64).sum();
        prop_assert_eq!(moves_in_log, report.metrics.elementary_moves);
        // Iterations recorded in the log are strictly increasing.
        let iterations: Vec<u32> = report.move_log.iter().map(|r| r.iteration).collect();
        prop_assert!(iterations.windows(2).all(|w| w[0] < w[1]));
        // Every individual move is a single-cell rectilinear step.
        for record in &report.move_log {
            for &(_, from, to) in &record.moves {
                prop_assert_eq!(from.manhattan(to), 1);
            }
        }
    }

    /// Block conservation: no block ever appears or disappears, and block
    /// identities are preserved by the reconfiguration.
    #[test]
    fn blocks_are_conserved(blocks in 5usize..14, seed in 0u64..100) {
        let config = column_instance(blocks, seed);
        let before: Vec<_> = config.grid().block_ids_sorted();
        let report = ReconfigurationDriver::new(config).run_des();
        let final_config =
            smart_surface::grid::SurfaceConfig::from_ascii(&report.final_ascii).unwrap();
        prop_assert_eq!(final_config.grid().block_count(), blocks);
        prop_assert_eq!(before.len(), blocks);
    }
}
