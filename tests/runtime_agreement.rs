//! Integration tests across runtimes and latency regimes.
//!
//! Assumption 3 of the paper only requires communications to complete in
//! finite time; the algorithm must therefore behave identically (in
//! outcome) under the deterministic discrete-event scheduler, under heavy
//! random message jitter, and under true thread-level asynchrony.

mod common;

use common::expected_activations;
use sb_bench::sweep::{Family, FaultSpec, ReliabilitySpec};
use smart_surface::core::election::AlgorithmConfig;
use smart_surface::core::workloads::{column_instance, fig10_instance};
use smart_surface::core::{ReconfigurationDriver, ReliabilityConfig, Termination, TieBreak};
use smart_surface::desim::{Duration as SimDuration, LatencyModel, NetworkModel};
use std::time::Duration;

#[test]
fn des_and_actor_runtimes_agree_on_the_outcome() {
    let config = column_instance(8, 0);
    let driver = ReconfigurationDriver::new(config);
    let des = driver.run_des();
    let actors = driver.run_actors(Duration::from_secs(120));
    assert!(des.completed, "{des}");
    assert!(actors.completed, "{actors}");
    assert!(des.path_complete && actors.path_complete);
    // Both runtimes must build a complete column; the exact helper-block
    // position may differ (the actor runtime's interleaving is not
    // deterministic), but the path cells are fully determined.
    let path_of = |ascii: &str| {
        let cfg = smart_surface::grid::SurfaceConfig::from_ascii(ascii).unwrap();
        cfg.graph()
            .occupied_shortest_path(cfg.grid())
            .expect("path exists")
    };
    assert_eq!(path_of(&des.final_ascii), path_of(&actors.final_ascii));
}

#[test]
fn heavy_message_jitter_does_not_break_termination() {
    // Failure-injection flavoured test: highly variable per-message
    // latencies reorder deliveries across links; the Dijkstra-Scholten
    // election must still terminate with the same outcome.
    let reference = ReconfigurationDriver::new(fig10_instance()).run_des();
    assert!(reference.completed);
    for seed in [1u64, 7, 23, 99] {
        let jittered = ReconfigurationDriver::new(fig10_instance())
            .with_network(NetworkModel::Uniform(LatencyModel::Uniform {
                min: SimDuration::micros(1),
                max: SimDuration::micros(5_000),
            }))
            .with_seed(seed)
            .run_des();
        assert!(jittered.completed, "seed {seed}: {jittered}");
        assert!(jittered.path_complete);
        // The number of elections needed to build the path does not depend
        // on message timing (one election per hop), only tie-breaking and
        // therefore the move sequence may differ.
        assert!(jittered.elections() > 0);
    }
}

#[test]
fn zero_latency_executions_terminate() {
    let report = ReconfigurationDriver::new(column_instance(8, 0))
        .with_network(NetworkModel::Uniform(LatencyModel::Instant))
        .run_des();
    assert!(report.completed, "{report}");
    assert_eq!(
        report.sim_time_us,
        Some(0),
        "instant latency keeps simulated time at zero"
    );
}

#[test]
fn termination_policies_agree_when_the_column_ends_at_the_output() {
    // On the column family the last block to move lands on O exactly when
    // the path completes, so both termination policies give the same final
    // occupancy.
    for termination in [Termination::OutputReached, Termination::PathComplete] {
        let algo = smart_surface::core::election::AlgorithmConfig {
            termination,
            tie_break: TieBreak::LowestId,
            ..Default::default()
        };
        let report = ReconfigurationDriver::new(column_instance(10, 0))
            .with_algorithm(algo)
            .run_des();
        assert!(report.completed, "{termination:?}: {report}");
        assert!(report.path_complete, "{termination:?}");
    }
}

#[test]
fn all_families_agree_across_runtimes_at_small_n() {
    // Every workload family of the sweep, at N = 8, on both runtimes.
    // With the deterministic LowestId tie-break the elected block of each
    // iteration is the global (distance, id) minimum — independent of
    // message timing — so the hop sequence, the final occupancy and the
    // outcome must agree between the deterministic scheduler and true
    // thread-level asynchrony, for completing and stalling families
    // alike.  Remark 3's flood cost is exact on both runtimes: it follows
    // from the configurations the elections start from, not from message
    // order.
    for family in Family::ALL {
        let algo = AlgorithmConfig {
            tie_break: TieBreak::LowestId,
            ..Default::default()
        };
        let config = family.build(8, 1);
        let driver = ReconfigurationDriver::new(config.clone()).with_algorithm(algo);
        let des = driver.run_des();
        let actors = driver.run_actors(Duration::from_secs(120));
        assert!(
            actors.stopped && !actors.timed_out,
            "{}: the actor run must terminate by itself: {actors}",
            family.name()
        );
        assert_eq!(
            (des.completed, des.stalled),
            (actors.completed, actors.stalled),
            "{}: outcome must not depend on the runtime",
            family.name()
        );
        assert_eq!(
            des.final_ascii,
            actors.final_ascii,
            "{}: final occupancy must not depend on the runtime",
            family.name()
        );
        assert_eq!(
            des.elementary_moves(),
            actors.elementary_moves(),
            "{}: the hop sequence is timing-independent under LowestId",
            family.name()
        );
        for report in [&des, &actors] {
            let m = &report.metrics;
            let expected = expected_activations(&config, report);
            assert_eq!(
                (m.activate_msgs, m.ack_msgs),
                (expected, expected),
                "{}: every Activate of the flood is acked once: {report}",
                family.name()
            );
            assert_eq!(
                m.elections,
                m.elected_hops + u64::from(report.stalled),
                "{}: one hop per election, none in a stalled run's last: {report}",
                family.name()
            );
        }
    }
}

#[test]
fn heterogeneous_and_bursty_networks_do_not_break_termination() {
    // Per-link asymmetric constants and burst-jittered links are still
    // finite-time transports (Assumption 3 holds), so the election must
    // terminate with the same outcome as the fixed-latency reference.
    let reference = ReconfigurationDriver::new(fig10_instance()).run_des();
    assert!(reference.completed);
    for network in [
        NetworkModel::HeterogeneousLinks {
            min: SimDuration::micros(1),
            max: SimDuration::micros(500),
            symmetric: false,
        },
        NetworkModel::HeavyTail {
            min: SimDuration::micros(1),
            max: SimDuration::millis(10),
        },
        NetworkModel::JitterBursts {
            base: SimDuration::micros(10),
            spike: SimDuration::millis(1),
            period: 64,
            burst_len: 8,
        },
    ] {
        for seed in [1u64, 23] {
            let report = ReconfigurationDriver::new(fig10_instance())
                .with_network(network)
                .with_seed(seed)
                .run_des();
            assert!(report.completed, "{network:?} seed {seed}: {report}");
            assert!(report.path_complete, "{network:?} seed {seed}");
        }
    }
}

#[test]
fn runtimes_agree_with_the_reliable_delivery_layer_enabled() {
    // With reliability on, every send arms a retransmission timer: on the
    // DES it fires as a simulated event, on the actor runtime through the
    // timer thread (actor runs take far longer than the 1 ms base RTO, so
    // wall-clock timers genuinely fire — usually finding their payload
    // already acked, occasionally retransmitting after a scheduling
    // hiccup, which the dedup window then absorbs).  The election logic
    // sees exactly-once delivery either way, so under the deterministic
    // LowestId tie-break both runtimes must agree on the hop sequence and
    // final occupancy.
    let algo = AlgorithmConfig {
        tie_break: TieBreak::LowestId,
        ..Default::default()
    };
    let driver = ReconfigurationDriver::new(column_instance(8, 0))
        .with_algorithm(algo)
        .with_reliability(ReliabilityConfig::on());
    let des = driver.run_des();
    let actors = driver.run_actors(Duration::from_secs(120));
    assert!(des.completed, "{des}");
    assert!(actors.completed, "{actors}");
    assert!(actors.stopped && !actors.timed_out);
    assert_eq!(des.final_ascii, actors.final_ascii);
    assert_eq!(des.elementary_moves(), actors.elementary_moves());
    // The layer was genuinely active on both runtimes: every payload was
    // transport-acked, and no retry budget was ever exhausted.
    for report in [&des, &actors] {
        assert!(report.metrics.delivery_acks > 0, "{report}");
        assert_eq!(report.metrics.delivery_failures, 0, "{report}");
    }
}

#[test]
fn runtimes_agree_on_recovery_from_a_root_crash() {
    // The full fault lifecycle on both runtimes: the Root crashes at
    // 800 µs, rejoins at 3.8 ms, re-announces one round past its
    // crash-time snapshot, and the round-structured re-election carries
    // the reconfiguration to completion.  On the DES the crash window is
    // simulated time; on the actor runtime the same control timers fire
    // on the wall clock, so thread interleaving differs wildly — which
    // is the point.  Outcomes must agree; move counts need not (a crash
    // discards timing-dependent partial progress, so the hop sequence is
    // no longer determined by the LowestId tie-break alone).
    let spec = FaultSpec::root_crash_rejoin();
    let algo = AlgorithmConfig {
        tie_break: TieBreak::LowestId,
        rounds: spec.rounds,
        ..Default::default()
    };
    let driver = ReconfigurationDriver::new(column_instance(8, 0))
        .with_algorithm(algo)
        .with_reliability(ReliabilitySpec::on_fast().config)
        .with_faults(spec.injection);
    let des = driver.run_des();
    let actors = driver.run_actors(Duration::from_secs(120));
    assert!(des.completed, "{des}");
    assert!(
        actors.stopped && !actors.timed_out,
        "the actor run must terminate by itself: {actors}"
    );
    assert!(actors.completed, "{actors}");
    for report in [&des, &actors] {
        assert_eq!(report.metrics.crashes_injected, 1, "{report}");
        assert_eq!(report.metrics.rejoins, 1, "{report}");
        assert!(report.path_complete, "{report}");
    }
}

#[test]
fn actor_runtime_handles_message_storms_from_many_blocks() {
    // A slightly larger ensemble on the threaded runtime: 16 OS threads
    // exchanging the full election traffic.  The deadline is generous; the
    // point is that the system terminates by itself, not by timeout.
    let report =
        ReconfigurationDriver::new(column_instance(16, 0)).run_actors(Duration::from_secs(300));
    assert!(report.completed, "{report}");
    assert!(report.path_complete);
}
