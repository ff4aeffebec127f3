//! Property test: round-structured re-election restores the benign
//! outcome of every workload family under crash/rejoin fault injection.
//!
//! A crashed module goes silent mid-protocol — without rounds the
//! Dijkstra-Scholten election waits on it forever.  With rounds enabled
//! and the fast-detection reliability profile, retry exhaustion resolves
//! the dead peer's pending contribution, the skip watchdog abandons any
//! round the crash still manages to stall, and a rejoining victim is
//! pulled forward by `RoundSync`.  Two properties, over every family ×
//! scenario × seed drawn:
//!
//! * **zero hangs** — every run reports `Completed` or `Stalled`, never
//!   a drained-queue timeout, even when the crash is permanent;
//! * **recovery** — when the victim rejoins, the run completes exactly
//!   when the fault-free reference completes.

use proptest::prelude::*;
use sb_bench::sweep::{Family, FaultSpec, ReliabilitySpec};
use sb_core::ReconfigurationDriver;

fn scenarios() -> [FaultSpec; 3] {
    [
        FaultSpec::root_crash_rejoin(),
        FaultSpec::relay_crash_rejoin(),
        FaultSpec::relay_crash(),
    ]
}

proptest! {
    // Every case is two full DES reconfigurations (reference + crash
    // run); 48 cases sweep all five families and all three crash
    // scenarios while keeping the test inside a few seconds.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rounds_restore_benign_completion_under_crashes(
        family_idx in 0usize..Family::ALL.len(),
        blocks in 8usize..=16,
        workload_seed in 0u64..50,
        scenario_idx in 0usize..3,
        sim_seed in 1u64..1_000,
    ) {
        let family = Family::ALL[family_idx];
        let spec = scenarios()[scenario_idx];
        let config = family.build(blocks, workload_seed);

        // Fault-free reference: what the instance does when nobody
        // crashes (the zero-spare family stalls structurally).
        let reference = ReconfigurationDriver::new(config.clone()).run_des();
        prop_assert!(reference.completed || reference.stalled);

        let mut driver = ReconfigurationDriver::new(config)
            .with_reliability(ReliabilitySpec::on_fast().config)
            .with_seed(sim_seed)
            .with_faults(spec.injection);
        let mut algorithm = *driver.algorithm();
        algorithm.rounds = spec.rounds();
        driver = driver.with_algorithm(algorithm);
        let report = driver.run_des();

        prop_assert!(
            report.completed || report.stalled,
            "family {} n {} seed {}/{} scenario {}: a crash must never \
             hang the run\n{}",
            family.name(), blocks, workload_seed, sim_seed, spec.name, report
        );
        prop_assert_eq!(report.metrics.crashes_injected, 1);
        let rejoins = spec
            .injection
            .and_then(|f| f.schedule.rejoin_at_us)
            .is_some();
        if rejoins {
            prop_assert_eq!(report.metrics.rejoins, 1);
            prop_assert_eq!(
                report.completed,
                reference.completed,
                "family {} n {} seed {}/{} scenario {}: a crash whose \
                 victim rejoins must restore the fault-free outcome\n\
                 reference: {}\ncrashed: {}",
                family.name(), blocks, workload_seed, sim_seed, spec.name,
                reference, report
            );
        }
    }
}
