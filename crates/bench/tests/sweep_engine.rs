//! Integration tests for the parallel sweep engine: worker-count
//! determinism of the aggregate JSON, sanity of the aggregates, and the
//! fault-injection (assumption-violation) network axis.

use sb_bench::sweep::{
    Family, FamilyPlan, FaultSpec, NetworkSpec, ReliabilitySpec, SweepEngine, SweepPlan,
};
use sb_core::election::TieBreak;
use sb_core::Metrics;

/// A plan whose cells are genuinely seed-sensitive: random workload
/// geometry, jittered latencies and random tie-breaking all read the
/// per-cell seed, so a scheduling bug that handed one cell another
/// cell's seed would change the measured counters (the smoke plan alone
/// could not catch that — its families and policies are deterministic).
fn jittered_plan() -> SweepPlan {
    SweepPlan {
        plan_seed: 3,
        families: vec![
            FamilyPlan {
                family: Family::SparseWide,
                sizes: vec![8, 12],
            },
            FamilyPlan {
                family: Family::Column,
                sizes: vec![8],
            },
        ],
        seeds: vec![1, 2, 3],
        networks: vec![NetworkSpec::uniform_1_100us()],
        tie_breaks: vec![TieBreak::Random],
        reliability: vec![ReliabilitySpec::off()],
        faults: vec![FaultSpec::none()],
    }
}

/// A small plan exercising every fault-injecting network model: per-link
/// heterogeneity, jitter bursts, i.i.d. drop and i.i.d. duplication.
/// Reliability stays off — the measured degradation under raw delivery
/// is the point (the recovery side lives in `reliability_recovery.rs`
/// and `examples/fault_recovery.rs`).
fn fault_plan() -> SweepPlan {
    SweepPlan {
        plan_seed: 5,
        families: vec![FamilyPlan {
            family: Family::Column,
            sizes: vec![8, 12],
        }],
        seeds: vec![1, 2, 3],
        networks: vec![
            NetworkSpec::hetero_asym_1_500us(),
            NetworkSpec::heavy_tail_1us_10ms(),
            NetworkSpec::jitter_bursts(),
            NetworkSpec::drop_1pct(),
            NetworkSpec::dup_1pct(),
        ],
        tie_breaks: vec![TieBreak::Random],
        reliability: vec![ReliabilitySpec::off()],
        faults: vec![FaultSpec::none()],
    }
}

/// Same plan + same plan seed must produce a byte-identical JSON record
/// for *any* worker count: cell seeds derive from cell semantics, not
/// from scheduling, and the JSON excludes every wall-clock quantity.
/// The fault plan rides along so drop/duplication verdicts are pinned to
/// the same discipline.
#[test]
fn aggregate_json_is_identical_across_worker_counts() {
    for plan in [SweepPlan::smoke(), jittered_plan(), fault_plan()] {
        let reference = SweepEngine::new(1).run(&plan).to_json();
        for workers in [2, 4, 8] {
            let json = SweepEngine::new(workers).run(&plan).to_json();
            assert_eq!(
                reference, json,
                "worker count {workers} changed the aggregate JSON"
            );
        }
    }
}

/// Re-running the identical plan reproduces the identical record
/// (determinism in time, not just across thread counts).
#[test]
fn rerunning_the_same_plan_reproduces_the_record() {
    let plan = SweepPlan::smoke();
    let a = SweepEngine::new(4).run(&plan).to_json();
    let b = SweepEngine::new(4).run(&plan).to_json();
    assert_eq!(a, b);
}

/// A different plan seed re-seeds every cell and (with random jitter in
/// the plan) moves the measured counters.
#[test]
fn plan_seed_reaches_the_cells() {
    let mut plan = SweepPlan {
        plan_seed: 1,
        families: vec![FamilyPlan {
            family: Family::Column,
            sizes: vec![8],
        }],
        seeds: vec![1],
        networks: vec![NetworkSpec::uniform_1_100us()],
        tie_breaks: vec![TieBreak::Random],
        reliability: vec![ReliabilitySpec::off()],
        faults: vec![FaultSpec::none()],
    };
    let a = SweepEngine::new(2).run(&plan);
    plan.plan_seed = 2;
    let b = SweepEngine::new(2).run(&plan);
    // Simulated end time depends on the sampled latencies, which depend
    // on the per-cell seed and therefore on the plan seed.
    assert_ne!(
        a.cells[0].sim_time_us, b.cells[0].sim_time_us,
        "plan seed must influence the per-cell simulator seed"
    );
}

/// Aggregates cover every group of the cartesian plan, group rates are
/// consistent, and the column family completes while the zero-spare
/// family records its structural stalls.
#[test]
fn aggregates_are_consistent_and_scenario_outcomes_differ() {
    let plan = SweepPlan::smoke();
    let report = SweepEngine::new(4).run(&plan);
    assert_eq!(report.groups.len(), 4, "2 families x 2 sizes");
    assert_eq!(report.cells.len(), 8, "x 2 seeds");
    for g in &report.groups {
        assert_eq!(g.runs, 2);
        let total = g.completed_rate + g.stall_rate + g.timeout_rate;
        assert!((total - 1.0).abs() < 1e-9, "rates partition the runs");
        assert!(g.stat("messages").p50 <= g.stat("messages").p95);
        assert!(g.stat("elementary_moves").mean > 0.0);
        assert_eq!(
            g.timeout_rate, 0.0,
            "DES runs under a fault-free network always reach an outcome"
        );
    }
    let column: Vec<_> = report
        .groups
        .iter()
        .filter(|g| g.cell.family == Family::Column)
        .collect();
    assert!(column.iter().all(|g| g.completed_rate == 1.0));
    let minimal: Vec<_> = report
        .groups
        .iter()
        .filter(|g| g.cell.family == Family::Minimal)
        .collect();
    assert!(
        minimal.iter().all(|g| g.stall_rate == 1.0),
        "zero-spare instances stall without a helper block"
    );
}

/// The assumption-violation probes produce the degradation they exist to
/// measure: benign per-link regimes still complete the column workload,
/// while i.i.d. drop deadlocks elections (timeouts/stalls appear) — and
/// nothing panics or hangs along the way.
#[test]
fn fault_injecting_networks_degrade_outcomes_without_breaking_the_engine() {
    let report = SweepEngine::new(4).run(&fault_plan());
    for g in &report.groups {
        let total = g.completed_rate + g.stall_rate + g.timeout_rate;
        assert!((total - 1.0).abs() < 1e-9, "rates partition the runs");
    }
    let rate = |name: &str, pick: fn(&sb_bench::sweep::GroupSummary) -> f64| -> f64 {
        let groups: Vec<_> = report
            .groups
            .iter()
            .filter(|g| g.cell.network.name == name)
            .collect();
        assert!(!groups.is_empty(), "network {name} swept");
        groups.iter().map(|g| pick(g)).sum::<f64>() / groups.len() as f64
    };
    // Benign (finite-time) transports: the column family still completes.
    for benign in [
        "hetero_asym_1_500us",
        "heavy_tail_1us_10ms",
        "jitter_bursts",
    ] {
        assert_eq!(
            rate(benign, |g| g.completed_rate),
            1.0,
            "{benign} respects Assumption 3, the election must terminate"
        );
    }
    // 1% drop on N ∈ {8, 12} columns: most elections lose a message and
    // deadlock — a non-trivial failure rate is the *expected* data.
    let drop_failures = rate("drop_1pct", |g| g.stall_rate + g.timeout_rate);
    assert!(
        drop_failures > 0.0,
        "i.i.d. drop must produce stalls or timeouts somewhere"
    );
}

/// The JSON record carries the advertised schema version, the per-group
/// percentile fields and the identity axes.
#[test]
fn json_record_carries_schema_and_percentiles() {
    let report = SweepEngine::new(2).run(&SweepPlan::smoke());
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"smart-surface-sweep\""));
    assert!(json.contains("\"version\": 9"));
    assert!(!json.contains("\"motion\""), "v9 dropped the motion axis");
    assert!(json.contains("\"reliability\": \"off\""));
    assert!(json.contains("\"fault\": \"none\""));
    assert!(json.contains("\"rounds_started\""));
    assert!(json.contains("\"round_skips\""));
    assert!(json.contains("\"crashes_injected\""));
    assert!(json.contains("\"rejoins\""));
    assert!(json.contains("\"connectivity_rebuilds\""));
    assert!(json.contains("\"connectivity_fallback_probes\""));
    assert!(json.contains("\"connectivity_incremental_updates\""));
    assert!(json.contains("\"p50\""));
    assert!(json.contains("\"p95\""));
    assert!(json.contains("\"stall_rate\""));
    assert!(json.contains("\"network\": \"fixed_10us\""));
    assert!(!json.contains("\"latency\""), "v3 renamed the axis");
    assert!(json.contains("\"family\": \"column\""));
    assert!(json.contains("\"family\": \"minimal\""));
}

/// Schema v4: the record carries one `cells` entry per run — identity
/// coordinates, the exact simulator seed and the outcome — so any group
/// regression can be bisected to a single reproducible cell.
#[test]
fn json_record_carries_per_cell_records() {
    let plan = SweepPlan::smoke();
    let report = SweepEngine::new(2).run(&plan);
    let json = report.to_json();
    assert!(json.contains("\"cells\": ["));
    assert_eq!(
        json.matches("\"cell_seed\": ").count(),
        report.cells.len(),
        "one seeded record per cell"
    );
    assert_eq!(
        json.matches("\"outcome\": ").count(),
        report.cells.len(),
        "every cell records its outcome"
    );
    // The recorded seed is the exact seed run_cell derives, rendered as
    // zero-padded hex.
    let expected_seed = format!(
        "\"cell_seed\": \"{:016x}\"",
        plan.cells()[0].cell_seed(plan.plan_seed)
    );
    assert!(json.contains(&expected_seed), "bisectable seed recorded");
    // No wall-clock section: it would break worker-count byte-identity.
    assert!(!json.contains("\"desim_throughput\""));
}

/// Schema v9: every cell record carries every `Metrics::counters()`
/// entry, keyed by field name, so a counter added to the metrics table
/// reaches the BENCH records with no edit to the sweep.
#[test]
fn every_metrics_counter_appears_in_every_cell_record() {
    let report = SweepEngine::new(2).run(&SweepPlan::smoke());
    let json = report.to_json();
    let (_, cells) = json.split_once("\"cells\": [").expect("cells array");
    let records: Vec<&str> = cells.split("\n    {").skip(1).collect();
    assert_eq!(records.len(), report.cells.len(), "one record per cell");
    for record in records {
        for (name, _) in Metrics::default().counters() {
            assert!(
                record.contains(&format!("\"{name}\": ")),
                "cell record lacks {name}: {record}"
            );
        }
    }
}
