//! The parallel batch sweep engine.
//!
//! [`SweepEngine`] fans a cartesian [`SweepPlan`] — workload family ×
//! ensemble size × seed × network model × tie-break × reliability ×
//! fault — out across worker threads (via the vendored
//! `crossbeam::scope`), runs every cell on the deterministic
//! discrete-event runtime, and aggregates the per-cell counters into
//! per-group summaries (mean/p50/p95 plus completion, stall and timeout
//! rates).  The network axis covers both benign Assumption-3 regimes
//! (fixed, jittered, heterogeneous/asymmetric per-link, heavy-tailed) and
//! the explicit assumption-violation probes (i.i.d. drop and
//! duplication); the reliability axis measures the same probes with the
//! harness's ack/timeout/retransmit layer enabled, and the fault axis
//! crashes (and optionally rejoins) one module under round-structured
//! re-election.
//!
//! ## Determinism
//!
//! Every cell derives its simulator and tie-break seeds from a stable hash
//! of the cell's *semantic* coordinates (family name, size, workload seed,
//! network name, tie-break name) mixed with the plan seed —
//! never from the cell's position in the work queue or the thread that
//! happens to run it.  Workers pull cell indices from a shared cursor and
//! write results back into the cell's own slot, so the aggregate (and the
//! JSON rendering, which excludes wall-clock quantities) is **byte
//! identical for any worker count**.  The regression test
//! `crates/bench/tests/sweep_engine.rs` pins this property.
//!
//! ## JSON schema (version 9)
//!
//! [`SweepReport::to_json`] renders the record CI publishes as
//! `BENCH_planner.json` and `BENCH_fault_recovery.json`: a header
//! (`schema`, `version`, `plan_seed`, `seeds_per_cell`,
//! `percentile_method`), then two arrays.
//!
//! * `groups` — one record per parameter point: the identity fields
//!   (`family`, `n`, `network`, `tie_break`, `reliability`, `fault`),
//!   `runs`, the `completed_rate` / `stall_rate` / `timeout_rate`, then
//!   one `{mean, p50, p95}` object per name in [`GROUP_STATS`].
//! * `cells` — one record per run, so a group regression can be
//!   bisected to one reproducible cell: the identity fields plus
//!   `workload_seed`, the exact simulator `cell_seed` (hex), `outcome`,
//!   `sim_time_us`, `events`, then every [`Metrics::counters`] entry in
//!   table order, keyed by field name.  A counter added to the metrics
//!   table appears here with no edit to this module.
//!
//! Counters are outputs only: they never enter [`SweepCell::cell_seed`].

use sb_core::election::TieBreak;
use sb_core::workloads;
use sb_core::{
    FaultInjection, FaultSchedule, FaultVictim, Metrics, ReconfigurationDriver, ReliabilityConfig,
};
use sb_desim::network::{fnv1a64, splitmix64};
use sb_desim::{Duration as SimDuration, LatencyModel, NetworkModel};
use sb_grid::SurfaceConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration as WallDuration;

/// Version of the JSON schema emitted by [`SweepReport::to_json`]; the
/// layout is in the module docs.
pub const SWEEP_SCHEMA_VERSION: u32 = 9;

/// The per-cell values every group aggregates, each looked up by
/// [`CellMeasurement::value`] and rendered as `{mean, p50, p95}`.
pub const GROUP_STATS: [&str; 9] = [
    "elections",
    "messages",
    "elementary_moves",
    "distance_computations",
    "sim_time_us",
    "events_per_sim_sec",
    "retransmissions",
    "connectivity_fallback_probes",
    "round_skips",
];

/// The scenario families the sweep can draw workloads from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// Two-column blob next to the target column (the paper's Fig. 10
    /// shape, parameterised by size); completes reliably.
    Column,
    /// Two-block-thick ribbon zig-zagging east/west as it rises; forces
    /// rolls around convex/concave corners.
    Serpentine,
    /// Wide, sparse, randomly grown flat strip; prone to stalling once
    /// the strip thins into chains of connectivity cut vertices.
    SparseWide,
    /// Zero-spare column: the path needs *every* block, demonstrating the
    /// paper's observation that spare helper blocks are essential.
    Minimal,
    /// High-aspect-ratio strip with the path running horizontally.
    HighAspect,
}

impl Family {
    /// Every family, in the canonical (JSON) order.
    pub const ALL: [Family; 5] = [
        Family::Column,
        Family::Serpentine,
        Family::SparseWide,
        Family::Minimal,
        Family::HighAspect,
    ];

    /// Stable name used in the JSON record and the per-cell seed hash.
    pub fn name(self) -> &'static str {
        match self {
            Family::Column => "column",
            Family::Serpentine => "serpentine",
            Family::SparseWide => "sparse_wide",
            Family::Minimal => "minimal",
            Family::HighAspect => "high_aspect",
        }
    }

    /// Builds the family's instance at the given size and workload seed.
    pub fn build(self, blocks: usize, seed: u64) -> SurfaceConfig {
        match self {
            Family::Column => workloads::column_instance(blocks, seed),
            Family::Serpentine => workloads::serpentine_instance(blocks, seed),
            Family::SparseWide => workloads::sparse_wide_instance(blocks, seed),
            Family::Minimal => workloads::minimal_instance(blocks, seed),
            Family::HighAspect => workloads::high_aspect_instance(blocks, seed),
        }
    }
}

/// A network model together with the stable name it carries in the JSON
/// record and the per-cell seed hash.
#[derive(Clone, Copy, Debug)]
pub struct NetworkSpec {
    /// Stable identifier.
    pub name: &'static str,
    /// The model handed to the simulator.
    pub model: NetworkModel,
}

impl NetworkSpec {
    /// The default deterministic 10 µs per-message latency on every link.
    pub fn fixed_10us() -> Self {
        NetworkSpec {
            name: "fixed_10us",
            model: NetworkModel::Uniform(LatencyModel::Fixed(SimDuration::micros(10))),
        }
    }

    /// Uniform jitter in `[1, 100]` µs — reorders deliveries across links.
    pub fn uniform_1_100us() -> Self {
        NetworkSpec {
            name: "uniform_1_100us",
            model: NetworkModel::Uniform(LatencyModel::Uniform {
                min: SimDuration::micros(1),
                max: SimDuration::micros(100),
            }),
        }
    }

    /// Zero-delay delivery (degenerates to causal order under FIFO ties).
    pub fn instant() -> Self {
        NetworkSpec {
            name: "instant",
            model: NetworkModel::Uniform(LatencyModel::Instant),
        }
    }

    /// Heterogeneous, asymmetric per-link constants drawn log-uniformly
    /// from `[1 µs, 500 µs]` — each direction of each link has its own
    /// fixed delay.
    pub fn hetero_asym_1_500us() -> Self {
        NetworkSpec {
            name: "hetero_asym_1_500us",
            model: NetworkModel::HeterogeneousLinks {
                min: SimDuration::micros(1),
                max: SimDuration::micros(500),
                symmetric: false,
            },
        }
    }

    /// Heavy-tailed (log-uniform) per-message delays across four decades,
    /// `[1 µs, 10 ms]` — the harshest finite-time regime of Assumption 3.
    pub fn heavy_tail_1us_10ms() -> Self {
        NetworkSpec {
            name: "heavy_tail_1us_10ms",
            model: NetworkModel::HeavyTail {
                min: SimDuration::micros(1),
                max: SimDuration::millis(10),
            },
        }
    }

    /// Jitter bursts: 10 µs normally, with per-link staggered windows of
    /// eight consecutive 1 ms deliveries every 64 messages.
    pub fn jitter_bursts() -> Self {
        NetworkSpec {
            name: "jitter_bursts",
            model: NetworkModel::JitterBursts {
                base: SimDuration::micros(10),
                spike: SimDuration::millis(1),
                period: 64,
                burst_len: 8,
            },
        }
    }

    /// Assumption-violation probe: 1% i.i.d. message drop.  Dropped
    /// election messages deadlock the diffusing computation, which the
    /// sweep measures as timeouts.
    pub fn drop_1pct() -> Self {
        NetworkSpec {
            name: "drop_1pct",
            model: NetworkModel::Lossy {
                latency: LatencyModel::Fixed(SimDuration::micros(10)),
                drop_permille: 10,
            },
        }
    }

    /// Assumption-violation probe: 1% i.i.d. duplication with independent
    /// delays, so copies can overtake originals.
    pub fn dup_1pct() -> Self {
        NetworkSpec {
            name: "dup_1pct",
            model: NetworkModel::Duplicating {
                latency: LatencyModel::Uniform {
                    min: SimDuration::micros(1),
                    max: SimDuration::micros(100),
                },
                dup_permille: 10,
            },
        }
    }

    /// Harsher assumption-violation probe: 10% i.i.d. message drop —
    /// raw elections deadlock almost immediately; with reliability on,
    /// recovery costs a visible retransmission budget.
    pub fn drop_10pct() -> Self {
        NetworkSpec {
            name: "drop_10pct",
            model: NetworkModel::Lossy {
                latency: LatencyModel::Fixed(SimDuration::micros(10)),
                drop_permille: 100,
            },
        }
    }

    /// Combined regime: heavy-tailed (log-uniform) delays across four
    /// decades with 1% drop and 1% duplication on top — loss recovery,
    /// dedup and deep reordering all at once.
    pub fn heavy_tail_drop() -> Self {
        NetworkSpec {
            name: "heavy_tail_drop",
            model: NetworkModel::Faulty {
                min: SimDuration::micros(1),
                max: SimDuration::millis(10),
                drop_permille: 10,
                dup_permille: 10,
            },
        }
    }
}

/// A reliable-delivery configuration together with the stable name it
/// carries in the JSON record and (when enabled) the per-cell seed hash.
#[derive(Clone, Copy, Debug)]
pub struct ReliabilitySpec {
    /// Stable identifier.
    pub name: &'static str,
    /// The configuration handed to every block harness.
    pub config: ReliabilityConfig,
}

impl ReliabilitySpec {
    /// Reliability off: messages travel as raw envelopes, exactly as
    /// before the layer existed.  Cells under this spec keep their
    /// historical seeds (the spec name is *not* hashed), so every pinned
    /// pre-v5 measurement survives unchanged.
    pub fn off() -> Self {
        ReliabilitySpec {
            name: "off",
            config: ReliabilityConfig::off(),
        }
    }

    /// The default ack/timeout/retransmit configuration.
    pub fn on() -> Self {
        ReliabilitySpec {
            name: "on",
            config: ReliabilityConfig::on(),
        }
    }

    /// An aggressive ack/timeout/retransmit configuration tuned for the
    /// crash probes: a tight RTO so retry exhaustion (the failure
    /// detector feeding the round machinery) fires well inside the 20 ms
    /// round-skip deadline ([`sb_core::election::ROUND_SKIP_TIMEOUT_US`]),
    /// and a small retry budget so a dead peer is declared unreachable
    /// after ~(0.5 + 1 + 2 + 2 + 2) ms instead of the default layer's
    /// multi-round-trip budget.
    pub fn on_fast() -> Self {
        ReliabilitySpec {
            name: "on_fast",
            config: ReliabilityConfig {
                enabled: true,
                base_rto_us: 500,
                max_rto_us: 2_000,
                retry_limit: 4,
            },
        }
    }
}

/// A crash/rejoin scenario, run under the round-structured re-election
/// that recovers from it, and the stable name it carries in the JSON
/// record and (when active) the per-cell seed hash.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// Stable identifier.
    pub name: &'static str,
    /// The scheduled crash (and optional rejoin), `None` for fault-free
    /// cells.
    pub injection: Option<FaultInjection>,
}

impl FaultSpec {
    /// No fault, rounds off: byte-identical to the pre-v8 behaviour.
    /// Cells under this spec keep their historical seeds (the spec name
    /// is *not* hashed), so every pinned pre-v8 measurement survives.
    pub fn none() -> Self {
        FaultSpec {
            name: "none",
            injection: None,
        }
    }

    /// Leader death and handover: the Root crashes at 1 ms — mid-flood
    /// on every family at the probe sizes — and rejoins at 4 ms one
    /// round *past* its crash-time snapshot.  Round chronology is the
    /// Root's alone to advance, so no survivor outran it while it was
    /// dead and the re-flood reaches everyone as a fresh round.
    pub fn root_crash_rejoin() -> Self {
        FaultSpec {
            name: "root_crash_rejoin",
            injection: Some(FaultInjection {
                victim: FaultVictim::Root,
                schedule: FaultSchedule {
                    crash_at_us: 1_000,
                    rejoin_at_us: Some(4_000),
                },
            }),
        }
    }

    /// Relay death mid-round: a seeded non-Root block (possibly a cut
    /// vertex of the election tree) crashes at 800 µs and rejoins at
    /// 3.8 ms.
    pub fn relay_crash_rejoin() -> Self {
        FaultSpec {
            name: "relay_crash_rejoin",
            injection: Some(FaultInjection {
                victim: FaultVictim::SeededRelay,
                schedule: FaultSchedule {
                    crash_at_us: 800,
                    rejoin_at_us: Some(3_800),
                },
            }),
        }
    }

    /// Permanent relay death: the seeded non-Root block crashes at 1 ms
    /// and never returns.  Completion is not demanded (losing a path
    /// block can make the instance unsolvable); terminating with *some*
    /// outcome instead of hanging is the gate.
    pub fn relay_crash() -> Self {
        FaultSpec {
            name: "relay_crash",
            injection: Some(FaultInjection {
                victim: FaultVictim::SeededRelay,
                schedule: FaultSchedule {
                    crash_at_us: 1_000,
                    rejoin_at_us: None,
                },
            }),
        }
    }

    /// Whether every block's election core runs the round layer: a spec
    /// that injects a crash does, because without rounds a mid-election
    /// crash deadlocks by design.
    pub fn rounds(&self) -> bool {
        self.injection.is_some()
    }

    /// Whether the spec perturbs the run at all (and therefore whether
    /// its name participates in the cell-seed hash).
    pub fn is_active(&self) -> bool {
        self.injection.is_some()
    }
}

fn tie_break_name(t: TieBreak) -> &'static str {
    match t {
        TieBreak::FirstSeen => "first_seen",
        TieBreak::LowestId => "lowest_id",
        TieBreak::Random => "random",
    }
}

/// One family together with the ensemble sizes it is swept over.
#[derive(Clone, Debug)]
pub struct FamilyPlan {
    /// The scenario family.
    pub family: Family,
    /// Block counts `N` to sweep.
    pub sizes: Vec<usize>,
}

/// A cartesian sweep plan.
///
/// Cells are enumerated family-major with the seed axis innermost, so all
/// repetitions of one parameter point are adjacent and aggregate into one
/// group.
#[derive(Clone, Debug)]
pub struct SweepPlan {
    /// Root seed mixed into every per-cell seed.
    pub plan_seed: u64,
    /// Families and their size axes.
    pub families: Vec<FamilyPlan>,
    /// Workload seeds (repetitions per parameter point).
    pub seeds: Vec<u64>,
    /// Network models.
    pub networks: Vec<NetworkSpec>,
    /// Tie-break policies.
    pub tie_breaks: Vec<TieBreak>,
    /// Reliable-delivery configurations.
    pub reliability: Vec<ReliabilitySpec>,
    /// Crash/rejoin fault scenarios (use `vec![FaultSpec::none()]` for a
    /// fault-free plan).
    pub faults: Vec<FaultSpec>,
}

impl SweepPlan {
    /// The full scenario-diversity plan published by CI: five families,
    /// the column family up to `N = 256`, four benign network regimes
    /// (fixed, jittered, heterogeneous/asymmetric, heavy-tailed), three
    /// seeds per cell.  The fault-injection probes live in
    /// [`SweepPlan::fault_probes`] (small sizes — a 1% drop rate breaks
    /// nearly every large election, so big ensembles only measure the
    /// constant 1).
    pub fn standard() -> Self {
        SweepPlan {
            plan_seed: 1,
            families: vec![
                FamilyPlan {
                    family: Family::Column,
                    sizes: vec![8, 16, 32, 64, 128, 256],
                },
                FamilyPlan {
                    family: Family::Serpentine,
                    sizes: vec![8, 16, 32, 64],
                },
                FamilyPlan {
                    family: Family::SparseWide,
                    sizes: vec![8, 16, 32, 64],
                },
                FamilyPlan {
                    family: Family::Minimal,
                    sizes: vec![8, 16, 32, 64],
                },
                FamilyPlan {
                    family: Family::HighAspect,
                    sizes: vec![8, 16, 32, 64],
                },
            ],
            seeds: vec![1, 2, 3],
            networks: vec![
                NetworkSpec::fixed_10us(),
                NetworkSpec::uniform_1_100us(),
                NetworkSpec::hetero_asym_1_500us(),
                NetworkSpec::heavy_tail_1us_10ms(),
            ],
            tie_breaks: vec![TieBreak::Random],
            reliability: vec![ReliabilitySpec::off()],
            faults: vec![FaultSpec::none()],
        }
    }

    /// The assumption-violation plan: every family at small sizes under
    /// jitter bursts, i.i.d. drop at 1% and 10%, 1% i.i.d. duplication
    /// and the combined heavy-tail+drop+dup regime, each with reliability
    /// off and on.  With reliability off, stall and timeout rates under
    /// these transports are the measurement — a dropped election message
    /// deadlocks the diffusing computation (timeout).  With reliability
    /// on, every probe group is expected to recover
    /// (`completed_rate == 1.0`, gated by `examples/fault_recovery.rs`)
    /// and the retransmission counters price the recovery.
    pub fn fault_probes() -> Self {
        SweepPlan {
            plan_seed: 11,
            families: Family::ALL
                .iter()
                .map(|&family| FamilyPlan {
                    family,
                    sizes: vec![8, 16],
                })
                .collect(),
            seeds: vec![1, 2, 3],
            networks: vec![
                NetworkSpec::jitter_bursts(),
                NetworkSpec::drop_1pct(),
                NetworkSpec::dup_1pct(),
                NetworkSpec::drop_10pct(),
                NetworkSpec::heavy_tail_drop(),
            ],
            tie_breaks: vec![TieBreak::Random],
            reliability: vec![ReliabilitySpec::off(), ReliabilitySpec::on()],
            faults: vec![FaultSpec::none()],
        }
    }

    /// The crash/rejoin plan: every family at small sizes, benign and
    /// 10%-drop transports, reliability tuned for fast failure detection
    /// ([`ReliabilitySpec::on_fast`]), three crash scenarios — Root
    /// crash/rejoin (leader handover), relay crash/rejoin, and permanent
    /// relay crash — each under round-structured re-election.  Gated by
    /// `examples/fault_recovery.rs`: the rejoin scenarios must restore
    /// the benign completion rate, and no crash scenario may ever hang
    /// (timeout).  Shares `fault_probes`' plan seed so the two reports
    /// merge into one `BENCH_fault_recovery.json` record.
    pub fn fault_probes_crash() -> Self {
        SweepPlan {
            plan_seed: 11,
            families: Family::ALL
                .iter()
                .map(|&family| FamilyPlan {
                    family,
                    sizes: vec![8, 16],
                })
                .collect(),
            seeds: vec![1, 2, 3],
            networks: vec![NetworkSpec::fixed_10us(), NetworkSpec::drop_10pct()],
            tie_breaks: vec![TieBreak::Random],
            reliability: vec![ReliabilitySpec::on_fast()],
            faults: vec![
                FaultSpec::root_crash_rejoin(),
                FaultSpec::relay_crash_rejoin(),
                FaultSpec::relay_crash(),
            ],
        }
    }

    /// A small plan for tests and smoke runs (sub-second on one worker).
    pub fn smoke() -> Self {
        SweepPlan {
            plan_seed: 7,
            families: vec![
                FamilyPlan {
                    family: Family::Column,
                    sizes: vec![6, 8],
                },
                FamilyPlan {
                    family: Family::Minimal,
                    sizes: vec![6, 8],
                },
            ],
            seeds: vec![1, 2],
            networks: vec![NetworkSpec::fixed_10us()],
            tie_breaks: vec![TieBreak::LowestId],
            reliability: vec![ReliabilitySpec::off()],
            faults: vec![FaultSpec::none()],
        }
    }

    /// Enumerates every cell of the cartesian product, seed axis
    /// innermost (so the seed repetitions of one parameter point stay
    /// adjacent and aggregate into one group).
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for fp in &self.families {
            for &blocks in &fp.sizes {
                for &network in &self.networks {
                    for &tie_break in &self.tie_breaks {
                        for &reliability in &self.reliability {
                            for &fault in &self.faults {
                                for &workload_seed in &self.seeds {
                                    cells.push(SweepCell {
                                        family: fp.family,
                                        blocks,
                                        workload_seed,
                                        network,
                                        tie_break,
                                        reliability,
                                        fault,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One point of the cartesian product.
#[derive(Clone, Copy, Debug)]
pub struct SweepCell {
    /// Scenario family.
    pub family: Family,
    /// Ensemble size `N`.
    pub blocks: usize,
    /// Workload (instance-generation) seed.
    pub workload_seed: u64,
    /// Network model.
    pub network: NetworkSpec,
    /// Tie-break policy.
    pub tie_break: TieBreak,
    /// Reliable-delivery configuration.
    pub reliability: ReliabilitySpec,
    /// Crash/rejoin fault scenario (and round configuration).
    pub fault: FaultSpec,
}

impl SweepCell {
    /// Deterministic per-cell seed: a stable hash of the cell's semantic
    /// coordinates mixed with the plan seed.  Independent of enumeration
    /// order and of the worker that runs the cell.  The reliability name
    /// is mixed in only when the layer is enabled, and the fault name
    /// only when the spec injects a fault, so every reliability-off
    /// fault-free cell keeps the exact seed it had before those axes
    /// existed and the pinned historical measurements survive
    /// byte-for-byte.
    pub fn cell_seed(&self, plan_seed: u64) -> u64 {
        let mut h = fnv1a64(self.family.name().as_bytes(), 0xcbf2_9ce4_8422_2325);
        h = fnv1a64(&(self.blocks as u64).to_le_bytes(), h);
        h = fnv1a64(&self.workload_seed.to_le_bytes(), h);
        h = fnv1a64(self.network.name.as_bytes(), h);
        h = fnv1a64(tie_break_name(self.tie_break).as_bytes(), h);
        // Every cell runs the rule-based motion model.  Its name stays in
        // the hash so that every published cell seed stays valid.
        h = fnv1a64(b"rule_based", h);
        if self.reliability.config.enabled {
            h = fnv1a64(self.reliability.name.as_bytes(), h);
        }
        if self.fault.is_active() {
            h = fnv1a64(self.fault.name.as_bytes(), h);
        }
        splitmix64(h ^ splitmix64(plan_seed))
    }
}

/// Scalar counters measured for one cell (the full report's move log and
/// rendering are deliberately dropped so a large sweep streams through
/// bounded memory).
#[derive(Clone, Copy, Debug)]
pub struct CellMeasurement {
    /// The cell the measurement belongs to.
    pub cell: SweepCell,
    /// The run's counters (elections, messages, moves, distance
    /// computations, reliability, connectivity and recovery counters).
    pub metrics: Metrics,
    /// Final simulated time, microseconds.
    pub sim_time_us: u64,
    /// Events processed by the dispatcher.
    pub events: u64,
    /// Whether the reconfiguration completed.
    pub completed: bool,
    /// Whether the algorithm stalled (no candidate could move, or the
    /// iteration safety valve fired).
    pub stalled: bool,
    /// Whether the run ended with neither outcome: the event queue
    /// drained without the Root concluding.  Zero under every
    /// fault-free network; a message-dropping [`NetworkSpec`] deadlocks
    /// the election, and the resulting timeouts are the measurement.
    pub timed_out: bool,
    /// Wall-clock duration of the run (excluded from the JSON record,
    /// which must be deterministic).
    pub wall: WallDuration,
}

impl CellMeasurement {
    /// Events per *simulated* second — a deterministic throughput figure
    /// (wall-clock throughput is printed by the examples instead, so the
    /// JSON stays byte-stable across machines and worker counts).
    pub fn events_per_sim_sec(&self) -> f64 {
        self.events as f64 / (self.sim_time_us.max(1) as f64 / 1e6)
    }

    /// One named per-cell value: a [`Metrics`] counter by field name,
    /// `messages` (all five message kinds), `sim_time_us` or
    /// `events_per_sim_sec`.
    ///
    /// # Panics
    ///
    /// If `name` is none of these.
    pub fn value(&self, name: &str) -> f64 {
        match name {
            "messages" => self.metrics.total_messages() as f64,
            "sim_time_us" => self.sim_time_us as f64,
            "events_per_sim_sec" => self.events_per_sim_sec(),
            _ => self
                .metrics
                .counters()
                .into_iter()
                .find(|&(field, _)| field == name)
                .map(|(_, value)| value as f64)
                .unwrap_or_else(|| panic!("no per-cell value named {name:?}")),
        }
    }

    /// Stable outcome name for the JSON record.
    pub fn outcome_name(&self) -> &'static str {
        if self.completed {
            "completed"
        } else if self.stalled {
            "stalled"
        } else {
            "timeout"
        }
    }
}

/// Runs one cell on the discrete-event runtime.
pub fn run_cell(cell: &SweepCell, plan_seed: u64) -> CellMeasurement {
    let seed = cell.cell_seed(plan_seed);
    let config = cell.family.build(cell.blocks, cell.workload_seed);
    let mut driver = ReconfigurationDriver::new(config)
        .with_network(cell.network.model)
        .with_reliability(cell.reliability.config)
        .with_seed(seed);
    let mut algorithm = *driver.algorithm();
    algorithm.tie_break = cell.tie_break;
    // Separate stream for the tie-break RNG so it does not correlate with
    // the latency sampling.
    algorithm.seed = splitmix64(seed);
    algorithm.rounds = cell.fault.rounds();
    driver = driver
        .with_algorithm(algorithm)
        .with_faults(cell.fault.injection);
    let report = driver.run_des();
    CellMeasurement {
        cell: *cell,
        metrics: report.metrics,
        sim_time_us: report.sim_time_us.unwrap_or(0),
        events: report.events_processed.unwrap_or(0),
        completed: report.completed,
        stalled: report.stalled,
        timed_out: !report.completed && !report.stalled,
        wall: report.wall_time,
    }
}

/// Applies `f` to every item index across `workers` scoped threads,
/// preserving item order in the returned vector.
fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    crossbeam::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            });
        }
    })
    .expect("sweep workers must not panic");
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every slot was filled")
        })
        .collect()
}

/// Mean / median / 95th percentile of one metric across a group's cells
/// (nearest-rank percentiles over the per-seed values).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
}

impl Stats {
    fn from_values(values: &mut [f64]) -> Stats {
        assert!(!values.is_empty(), "a group has at least one cell");
        values.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        Stats {
            mean,
            p50: nearest_rank(values, 50.0),
            p95: nearest_rank(values, 95.0),
        }
    }
}

fn nearest_rank(sorted: &[f64], percentile: f64) -> f64 {
    let k = sorted.len();
    let rank = ((percentile / 100.0 * k as f64).ceil() as usize).clamp(1, k);
    sorted[rank - 1]
}

/// Aggregate over the seed repetitions of one parameter point.
#[derive(Clone, Debug)]
pub struct GroupSummary {
    /// The group's first cell; every identity axis but the workload
    /// seed is shared by the whole group.
    pub cell: SweepCell,
    /// Number of runs aggregated (the seed axis).
    pub runs: usize,
    /// Fraction of runs that completed.
    pub completed_rate: f64,
    /// Fraction of runs that stalled.
    pub stall_rate: f64,
    /// Fraction of runs with neither outcome.
    pub timeout_rate: f64,
    /// One entry per [`GROUP_STATS`] name, in that order.
    stats: [Stats; GROUP_STATS.len()],
}

impl GroupSummary {
    /// The group's statistics of one [`GROUP_STATS`] value.
    ///
    /// # Panics
    ///
    /// If `name` is not in [`GROUP_STATS`].
    pub fn stat(&self, name: &str) -> Stats {
        let i = GROUP_STATS
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("groups do not aggregate {name:?}"));
        self.stats[i]
    }
}

/// Outcome of one sweep: per-cell measurements plus per-group aggregates.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The plan's root seed.
    pub plan_seed: u64,
    /// Seed repetitions per parameter point.
    pub seeds_per_cell: usize,
    /// Per-group aggregates, in plan order.
    pub groups: Vec<GroupSummary>,
    /// Raw per-cell measurements, in plan order.
    pub cells: Vec<CellMeasurement>,
}

impl SweepReport {
    /// Total wall-clock CPU time spent inside cell runs (not part of the
    /// JSON record).
    pub fn total_cell_wall(&self) -> WallDuration {
        self.cells.iter().map(|c| c.wall).sum()
    }

    /// Total events processed across every cell.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// Renders the versioned, machine-readable JSON record (layout in
    /// the module docs).
    ///
    /// Only deterministic quantities are included (counters, simulated
    /// time, rates, per-cell seeds) — never wall-clock readings — so the
    /// rendering is byte-identical for a fixed plan regardless of worker
    /// count or host speed.
    pub fn to_json(&self) -> String {
        let groups: Vec<String> = self
            .groups
            .iter()
            .map(|g| {
                let stats: Vec<String> = GROUP_STATS
                    .iter()
                    .zip(&g.stats)
                    .map(|(name, s)| {
                        format!(
                            "\"{name}\": {{\"mean\": {:.1}, \"p50\": {:.1}, \"p95\": {:.1}}}",
                            s.mean, s.p50, s.p95
                        )
                    })
                    .collect();
                let mut lines = vec![
                    format!("{}, \"runs\": {}", identity(&g.cell, None), g.runs),
                    format!(
                        "\"completed_rate\": {:.3}, \"stall_rate\": {:.3}, \"timeout_rate\": {:.3}",
                        g.completed_rate, g.stall_rate, g.timeout_rate
                    ),
                ];
                lines.extend(stats.chunks(2).map(|line| line.join(", ")));
                record(&lines)
            })
            .collect();
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                let counters: Vec<String> = c
                    .metrics
                    .counters()
                    .iter()
                    .map(|(name, value)| format!("\"{name}\": {value}"))
                    .collect();
                let mut lines = vec![
                    identity(&c.cell, Some(c.cell.workload_seed)),
                    format!(
                        "\"cell_seed\": \"{:016x}\", \"outcome\": \"{}\", \"sim_time_us\": {}, \
                         \"events\": {}",
                        c.cell.cell_seed(self.plan_seed),
                        c.outcome_name(),
                        c.sim_time_us,
                        c.events
                    ),
                ];
                lines.extend(counters.chunks(6).map(|line| line.join(", ")));
                record(&lines)
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"smart-surface-sweep\",\n  \"version\": {},\n  \
             \"plan_seed\": {},\n  \"seeds_per_cell\": {},\n  \
             \"percentile_method\": \"nearest-rank\",\n  \
             \"groups\": [\n{}\n  ],\n  \"cells\": [\n{}\n  ]\n}}\n",
            SWEEP_SCHEMA_VERSION,
            self.plan_seed,
            self.seeds_per_cell,
            groups.join(",\n"),
            cells.join(",\n")
        )
    }
}

/// The identity fields groups and cells share; cells add their
/// `workload_seed` after `n`.
fn identity(cell: &SweepCell, workload_seed: Option<u64>) -> String {
    let seed = workload_seed.map_or(String::new(), |s| format!(", \"workload_seed\": {s}"));
    format!(
        "\"family\": \"{}\", \"n\": {}{seed}, \"network\": \"{}\", \"tie_break\": \"{}\", \
         \"reliability\": \"{}\", \"fault\": \"{}\"",
        cell.family.name(),
        cell.blocks,
        cell.network.name,
        tie_break_name(cell.tie_break),
        cell.reliability.name,
        cell.fault.name
    )
}

/// Renders one array element: a JSON object with one output line per
/// line of fields.
fn record(lines: &[String]) -> String {
    format!("    {{{}}}", lines.join(",\n     "))
}

/// The parallel sweep engine.
pub struct SweepEngine {
    workers: usize,
}

impl SweepEngine {
    /// An engine with a fixed worker count (clamped to at least one).
    pub fn new(workers: usize) -> Self {
        SweepEngine {
            workers: workers.max(1),
        }
    }

    /// An engine sized to the host's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SweepEngine::new(workers)
    }

    /// The worker count the engine fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every cell of the plan and aggregates the results.
    pub fn run(&self, plan: &SweepPlan) -> SweepReport {
        let cells = plan.cells();
        let plan_seed = plan.plan_seed;
        let measurements = parallel_map(&cells, self.workers, |cell| run_cell(cell, plan_seed));
        let seeds = plan.seeds.len().max(1);
        let groups = measurements.chunks(seeds).map(summarize_group).collect();
        SweepReport {
            plan_seed,
            seeds_per_cell: seeds,
            groups,
            cells: measurements,
        }
    }
}

fn summarize_group(chunk: &[CellMeasurement]) -> GroupSummary {
    let k = chunk.len() as f64;
    let rate = |pred: fn(&CellMeasurement) -> bool| -> f64 {
        chunk.iter().filter(|c| pred(c)).count() as f64 / k
    };
    GroupSummary {
        cell: chunk[0].cell,
        runs: chunk.len(),
        completed_rate: rate(|c| c.completed),
        stall_rate: rate(|c| c.stalled),
        timeout_rate: rate(|c| c.timed_out),
        stats: GROUP_STATS.map(|name| {
            Stats::from_values(&mut chunk.iter().map(|c| c.value(name)).collect::<Vec<f64>>())
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seed_depends_on_semantics_not_position() {
        let plan = SweepPlan::smoke();
        let cells = plan.cells();
        // Two distinct cells get distinct seeds…
        assert_ne!(
            cells[0].cell_seed(plan.plan_seed),
            cells[1].cell_seed(plan.plan_seed)
        );
        // …and the same cell hashes identically however it is obtained.
        let copy = cells[0];
        assert_eq!(
            copy.cell_seed(plan.plan_seed),
            cells[0].cell_seed(plan.plan_seed)
        );
        // A different plan seed moves every cell seed.
        assert_ne!(cells[0].cell_seed(1), cells[0].cell_seed(2));
    }

    #[test]
    fn plan_enumerates_the_full_cartesian_product() {
        let product = |plan: &SweepPlan| -> usize {
            plan.families.iter().map(|fp| fp.sizes.len()).sum::<usize>()
                * plan.seeds.len()
                * plan.networks.len()
                * plan.tie_breaks.len()
                * plan.reliability.len()
                * plan.faults.len()
        };
        for plan in [
            SweepPlan::smoke(),
            SweepPlan::fault_probes(),
            SweepPlan::fault_probes_crash(),
        ] {
            assert_eq!(plan.cells().len(), product(&plan));
        }
        // Three crash scenarios: the fault axis multiplies the cell count.
        assert_eq!(SweepPlan::fault_probes_crash().cells().len(), 180);
    }

    #[test]
    fn reliability_off_cells_keep_their_historical_seeds() {
        // The reliability-off spec must hash to the exact seed the cell
        // had before the axis existed, so every pinned pre-v5 sweep
        // measurement survives; the enabled spec must move the seed.
        let plan = SweepPlan::smoke();
        let cell = plan.cells()[0];
        let mut on = cell;
        on.reliability = ReliabilitySpec::on();
        assert_eq!(cell.reliability.name, "off");
        assert_ne!(
            cell.cell_seed(plan.plan_seed),
            on.cell_seed(plan.plan_seed),
            "enabling reliability must decorrelate the cell seed"
        );
    }

    #[test]
    fn standard_family_cells_report_zero_connectivity_fallbacks() {
        // The v6 observability counters, end to end: a full DES run on a
        // standard-plan cell must answer every Remark 1 probe — single
        // moves and carrying batches alike — from the O(1) block-cut-tree
        // path, and the measurement must surface that as data.
        let plan = SweepPlan::smoke();
        for cell in plan.cells().iter().take(2) {
            let m = run_cell(cell, plan.plan_seed).metrics;
            assert!(
                m.connectivity_rebuilds > 0,
                "{}: the run must have probed the oracle",
                cell.family.name()
            );
            assert_eq!(
                m.connectivity_fallback_probes,
                0,
                "{}: a probe left the O(1) block-cut-tree path",
                cell.family.name()
            );
            // v7: most epochs are absorbed by the amortised-O(1)
            // incremental path.  Rebuilds cost ~one per mover journey
            // (O(N) total) while epochs grow as N²/4, so the ratio only
            // becomes overwhelming at large N — the `2 + 1%`-of-epochs
            // ceiling is enforced at gate sizes by
            // `examples/connectivity_gate.rs`; here at smoke sizes a
            // strict majority is the size-appropriate bound.
            assert!(
                m.connectivity_incremental_updates > m.connectivity_rebuilds,
                "{}: rebuilds ({}) should be rare against incremental updates ({})",
                cell.family.name(),
                m.connectivity_rebuilds,
                m.connectivity_incremental_updates
            );
        }
    }

    #[test]
    fn fault_free_cells_keep_their_historical_seeds() {
        // The fault-none spec must hash to the exact seed the cell had
        // before the v8 axis existed; an active crash spec must move it.
        let plan = SweepPlan::smoke();
        let cell = plan.cells()[0];
        assert_eq!(cell.fault.name, "none");
        assert!(!cell.fault.is_active());
        let mut crashed = cell;
        crashed.fault = FaultSpec::root_crash_rejoin();
        assert_ne!(
            cell.cell_seed(plan.plan_seed),
            crashed.cell_seed(plan.plan_seed),
            "an active fault spec must decorrelate the cell seed"
        );
        // The three crash scenarios are mutually decorrelated too.
        let mut relay = cell;
        relay.fault = FaultSpec::relay_crash_rejoin();
        assert_ne!(
            crashed.cell_seed(plan.plan_seed),
            relay.cell_seed(plan.plan_seed)
        );
    }

    #[test]
    fn crash_probe_cell_measures_recovery_end_to_end() {
        // One representative cell of the crash plan, run for real: the
        // Root dies mid-election, rejoins, and the round machinery
        // carries the run to a clean conclusion with the recovery
        // counters as measured data.
        let plan = SweepPlan::fault_probes_crash();
        let cell = plan
            .cells()
            .into_iter()
            .find(|c| {
                c.family == Family::Column
                    && c.blocks == 8
                    && c.network.name == "fixed_10us"
                    && c.fault.name == "root_crash_rejoin"
            })
            .expect("the crash plan sweeps a column root-crash cell");
        let m = run_cell(&cell, plan.plan_seed);
        assert_eq!(m.metrics.crashes_injected, 1, "exactly one scheduled crash");
        assert_eq!(m.metrics.rejoins, 1, "the victim rejoined");
        assert!(m.metrics.rounds_started >= 1, "rounds were live");
        assert!(!m.timed_out, "crash recovery must not hang the run");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&sorted, 50.0), 2.0);
        assert_eq!(nearest_rank(&sorted, 95.0), 4.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, 8, |&i| i * 2);
        assert_eq!(doubled, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn standard_plan_covers_the_acceptance_surface() {
        let plan = SweepPlan::standard();
        assert!(plan.families.len() >= 4, "at least four workload families");
        let column = plan
            .families
            .iter()
            .find(|fp| fp.family == Family::Column)
            .expect("column family present");
        assert!(
            column.sizes.iter().any(|&n| n >= 256),
            "column family reaches N >= 256"
        );
    }
}
