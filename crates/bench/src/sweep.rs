//! The parallel batch sweep engine.
//!
//! [`SweepEngine`] fans a cartesian [`SweepPlan`] — workload family ×
//! ensemble size × seed × network model × tie-break × motion model ×
//! reliability — out across worker threads (via the vendored
//! `crossbeam::scope`), runs every cell on the deterministic
//! discrete-event runtime, and aggregates the per-cell counters into
//! per-group summaries (mean/p50/p95 plus completion, stall and timeout
//! rates).  The network axis covers both benign Assumption-3 regimes
//! (fixed, jittered, heterogeneous/asymmetric per-link, heavy-tailed) and
//! the explicit assumption-violation probes (i.i.d. drop and
//! duplication); the reliability axis measures the same probes with the
//! harness's ack/timeout/retransmit layer enabled, so both the damage
//! (stall and timeout rates) and the cost of repairing it
//! (retransmissions, delivery acks) are measured data rather than
//! folklore.
//!
//! ## Determinism
//!
//! Every cell derives its simulator and tie-break seeds from a stable hash
//! of the cell's *semantic* coordinates (family name, size, workload seed,
//! network name, tie-break name, motion name) mixed with the plan seed —
//! never from the cell's position in the work queue or the thread that
//! happens to run it.  Workers pull cell indices from a shared cursor and
//! write results back into the cell's own slot, so the aggregate (and the
//! JSON rendering, which excludes wall-clock quantities) is **byte
//! identical for any worker count**.  The regression test
//! `crates/bench/tests/sweep_engine.rs` pins this property.
//!
//! ## JSON schema (version 8)
//!
//! [`SweepReport::to_json`] renders the versioned machine-readable record
//! published by CI as `BENCH_planner.json`; the field-by-field schema is
//! documented in `ROADMAP.md` ("Engine notes").  v4 added the per-cell
//! `cells` array — identity coordinates, the exact per-cell simulator
//! seed and the outcome/counters of every run — so a regression found in
//! a group aggregate can be bisected to one reproducible cell without
//! re-running the plan.  v5 adds the reliability axis: a `reliability` identity
//! field on every group and cell plus the per-cell reliable-delivery
//! counters (`retransmissions`, `duplicates_suppressed`, `delivery_acks`,
//! `delivery_failures`).  v6 adds the connectivity-oracle observability
//! counters (`connectivity_rebuilds` and `connectivity_fallback_probes`
//! per cell, fallback stats per group) so the O(1) carrying-batch probe
//! guarantee is measured data; the counters are outputs only and do
//! **not** enter [`SweepCell::cell_seed`], so every v5 cell seed
//! survives unchanged.  v7 adds the per-cell
//! `connectivity_incremental_updates` counter (the epochs absorbed
//! without a rebuild, now that the oracle maintains its state in
//! amortised O(1)); like v6's counters it is output-only, so v5/v6 cell
//! seeds survive unchanged.  v8 adds the crash/rejoin fault axis
//! ([`FaultSpec`]: a scheduled module crash with optional rejoin plus
//! the round-structured re-election configuration that measures the
//! recovery) — a `fault` identity field on every group and cell, and
//! the per-cell recovery counters (`rounds_started`, `round_skips`,
//! `crashes_injected`, `rejoins`).  The fault name enters the cell-seed
//! hash only when the spec actually injects a fault or enables rounds,
//! so every fault-free cell keeps its pre-v8 seed byte-for-byte.

use sb_core::election::{RoundsConfig, TieBreak};
use sb_core::workloads;
use sb_core::{
    FaultInjection, FaultSchedule, FaultVictim, MotionModel, ReconfigurationDriver,
    ReliabilityConfig,
};
use sb_desim::network::{fnv1a64, splitmix64};
use sb_desim::{Duration as SimDuration, LatencyModel, NetworkModel};
use sb_grid::SurfaceConfig;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration as WallDuration;

/// Version of the JSON schema emitted by [`SweepReport::to_json`].
///
/// v3 renamed the `latency` identity field to `network` when the global
/// latency axis became the per-link [`NetworkModel`] axis; v4 added the
/// per-cell `cells` records (identity + cell seed + outcome + counters);
/// v5 added the reliability
/// axis (a `reliability` identity field everywhere plus the per-cell
/// retransmission/dedup/ack/failure counters); v6 added the
/// connectivity-oracle counters (per-cell rebuild/fallback, per-group
/// fallback stats) without touching the cell-seed hash; v7 added the
/// per-cell `connectivity_incremental_updates` counter, also outside
/// the cell-seed hash; v8 added the crash/rejoin fault axis (a `fault`
/// identity field everywhere plus the per-cell `rounds_started` /
/// `round_skips` / `crashes_injected` / `rejoins` recovery counters),
/// hashed into the cell seed only when the spec is active.
pub const SWEEP_SCHEMA_VERSION: u32 = 8;

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
    /// detector feeding the round machinery) fires well inside the
    /// round-skip deadline, and a small retry budget so a dead peer is
    /// declared unreachable after ~(0.5 + 1 + 2 + 2 + 2) ms instead of
    /// the default layer's multi-round-trip budget.
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

/// A crash/rejoin scenario together with the round-structured
/// re-election configuration that measures its recovery, and the stable
/// name both carry in the JSON record and (when active) the per-cell
/// seed hash.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// Stable identifier.
    pub name: &'static str,
    /// The scheduled crash (and optional rejoin), `None` for fault-free
    /// cells.
    pub injection: Option<FaultInjection>,
    /// Round configuration handed to every block's election core.
    pub rounds: RoundsConfig,
}

impl FaultSpec {
    /// No fault, rounds off: byte-identical to the pre-v8 behaviour.
    /// Cells under this spec keep their historical seeds (the spec name
    /// is *not* hashed), so every pinned pre-v8 measurement survives.
    pub fn none() -> Self {
        FaultSpec {
            name: "none",
            injection: None,
            rounds: RoundsConfig::off(),
        }
    }

    /// Round configuration shared by the crash probes: a 20 ms skip
    /// deadline sits above [`ReliabilitySpec::on_fast`]'s worst-case
    /// retry exhaustion (~7.5 ms), so the failure detector resolves dead
    /// peers before the watchdog has to abandon a round.
    fn probe_rounds() -> RoundsConfig {
        RoundsConfig {
            enabled: true,
            skip_timeout_us: 20_000,
            ..RoundsConfig::on()
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
            rounds: Self::probe_rounds(),
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
            rounds: Self::probe_rounds(),
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
            rounds: Self::probe_rounds(),
        }
    }

    /// Whether the spec perturbs the run at all (and therefore whether
    /// its name participates in the cell-seed hash).
    pub fn is_active(&self) -> bool {
        self.injection.is_some() || self.rounds.enabled
    }
}

fn tie_break_name(t: TieBreak) -> &'static str {
    match t {
        TieBreak::FirstSeen => "first_seen",
        TieBreak::LowestId => "lowest_id",
        TieBreak::Random => "random",
    }
}

fn motion_name(m: MotionModel) -> &'static str {
    match m {
        MotionModel::RuleBased => "rule_based",
        MotionModel::FreeMotion => "free_motion",
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
    /// Motion models.
    pub motions: Vec<MotionModel>,
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
            motions: vec![MotionModel::RuleBased],
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
            motions: vec![MotionModel::RuleBased],
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
            motions: vec![MotionModel::RuleBased],
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
            motions: vec![MotionModel::RuleBased],
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
                        for &motion in &self.motions {
                            for &reliability in &self.reliability {
                                for &fault in &self.faults {
                                    for &workload_seed in &self.seeds {
                                        cells.push(SweepCell {
                                            family: fp.family,
                                            blocks,
                                            workload_seed,
                                            network,
                                            tie_break,
                                            motion,
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
    /// Motion model.
    pub motion: MotionModel,
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
    /// only when the spec injects a fault or enables rounds, so every
    /// reliability-off fault-free cell keeps the exact seed it had
    /// before those axes existed and the pinned historical measurements
    /// survive byte-for-byte.
    pub fn cell_seed(&self, plan_seed: u64) -> u64 {
        let mut h = fnv1a64(self.family.name().as_bytes(), 0xcbf2_9ce4_8422_2325);
        h = fnv1a64(&(self.blocks as u64).to_le_bytes(), h);
        h = fnv1a64(&self.workload_seed.to_le_bytes(), h);
        h = fnv1a64(self.network.name.as_bytes(), h);
        h = fnv1a64(tie_break_name(self.tie_break).as_bytes(), h);
        h = fnv1a64(motion_name(self.motion).as_bytes(), h);
        if self.reliability.config.enabled {
            h = fnv1a64(self.reliability.name.as_bytes(), h);
        }
        if self.fault.is_active() {
            h = fnv1a64(self.fault.name.as_bytes(), h);
        }
        splitmix64(h ^ splitmix64(plan_seed))
    }
}

/// Scalar counters measured for one cell (the full report's move log,
/// frames and renderings are deliberately dropped so a large sweep streams
/// through bounded memory).
#[derive(Clone, Copy, Debug)]
pub struct CellMeasurement {
    /// The cell the measurement belongs to.
    pub cell: SweepCell,
    /// Elections run (iterations of Algorithm 1).
    pub elections: u64,
    /// Total messages exchanged.
    pub messages: u64,
    /// Elementary block moves executed.
    pub moves: u64,
    /// Distance computations (Remark 2).
    pub distance_computations: u64,
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
    /// Payload retransmissions by the reliable delivery layer (zero when
    /// reliability is off).
    pub retransmissions: u64,
    /// Received payload copies suppressed by the dedup window.
    pub duplicates_suppressed: u64,
    /// Transport-level delivery acks sent (the overhead of reliability;
    /// not part of `messages`).
    pub delivery_acks: u64,
    /// Messages abandoned after exhausting the retry budget.
    pub delivery_failures: u64,
    /// Full Tarjan passes run by the world's connectivity oracle.
    pub connectivity_rebuilds: u64,
    /// Remark 1 probes that left the O(1) block-cut-tree path for the
    /// O(N) scratch BFS — ~0 on the standard families, so any growth is
    /// a fast-path regression visible in `BENCH_planner.json`.
    pub connectivity_fallback_probes: u64,
    /// Occupancy epochs the oracle absorbed incrementally instead of
    /// rebuilding — the measured amortised-O(1) maintenance claim.
    pub connectivity_incremental_updates: u64,
    /// Election rounds entered (1 for an undisturbed rounds-on run, 0
    /// with rounds off).
    pub rounds_started: u64,
    /// Rounds abandoned by the skip watchdog.
    pub round_skips: u64,
    /// Module crashes injected by the cell's [`FaultSpec`].
    pub crashes_injected: u64,
    /// Crashed modules that rejoined.
    pub rejoins: u64,
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
        .with_motion_model(cell.motion)
        .with_reliability(cell.reliability.config)
        .with_seed(seed);
    let mut algorithm = *driver.algorithm();
    algorithm.tie_break = cell.tie_break;
    // Separate stream for the tie-break RNG so it does not correlate with
    // the latency sampling.
    algorithm.seed = splitmix64(seed);
    algorithm.rounds = cell.fault.rounds;
    driver = driver
        .with_algorithm(algorithm)
        .with_faults(cell.fault.injection);
    let report = driver.run_des();
    CellMeasurement {
        cell: *cell,
        elections: report.elections(),
        messages: report.total_messages(),
        moves: report.elementary_moves(),
        distance_computations: report.metrics.distance_computations,
        sim_time_us: report.sim_time_us.unwrap_or(0),
        events: report.events_processed.unwrap_or(0),
        completed: report.completed,
        stalled: report.stalled,
        timed_out: !report.completed && !report.stalled,
        retransmissions: report.metrics.retransmissions,
        duplicates_suppressed: report.metrics.duplicates_suppressed,
        delivery_acks: report.metrics.delivery_acks,
        delivery_failures: report.metrics.delivery_failures,
        connectivity_rebuilds: report.metrics.connectivity_rebuilds,
        connectivity_fallback_probes: report.metrics.connectivity_fallback_probes,
        connectivity_incremental_updates: report.metrics.connectivity_incremental_updates,
        rounds_started: report.metrics.rounds_started,
        round_skips: report.metrics.round_skips,
        crashes_injected: report.metrics.crashes_injected,
        rejoins: report.metrics.rejoins,
        wall: report.wall_time,
    }
}

/// Applies `f` to every item index across `workers` scoped threads,
/// preserving item order in the returned vector.  The building block of
/// [`SweepEngine::run`], exported for callers that fan other workloads
/// out.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
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
    /// Scenario family.
    pub family: Family,
    /// Ensemble size `N`.
    pub blocks: usize,
    /// Network model name.
    pub network: &'static str,
    /// Tie-break policy name.
    pub tie_break: &'static str,
    /// Motion model name.
    pub motion: &'static str,
    /// Reliable-delivery configuration name.
    pub reliability: &'static str,
    /// Crash/rejoin fault scenario name (`"none"` for fault-free).
    pub fault: &'static str,
    /// Number of runs aggregated (the seed axis).
    pub runs: usize,
    /// Fraction of runs that completed.
    pub completed_rate: f64,
    /// Fraction of runs that stalled.
    pub stall_rate: f64,
    /// Fraction of runs with neither outcome.
    pub timeout_rate: f64,
    /// Elections per run.
    pub elections: Stats,
    /// Messages per run.
    pub messages: Stats,
    /// Elementary moves per run.
    pub moves: Stats,
    /// Distance computations per run.
    pub distance_computations: Stats,
    /// Final simulated time per run (µs).
    pub sim_time_us: Stats,
    /// Events per simulated second.
    pub events_per_sim_sec: Stats,
    /// Reliable-delivery retransmissions per run (all-zero when the
    /// group's reliability is off).
    pub retransmissions: Stats,
    /// Connectivity-oracle BFS fallbacks per run (~0 on the standard
    /// families: every carrying batch reduces to an O(1) block-cut-tree
    /// probe, so growth here flags a fast-path regression).
    pub connectivity_fallback_probes: Stats,
    /// Rounds abandoned by the skip watchdog per run (all-zero with
    /// rounds off; the price of crash recovery otherwise).
    pub round_skips: Stats,
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

    /// Renders the versioned, machine-readable JSON record.
    ///
    /// Only deterministic quantities are included (counters, simulated
    /// time, rates, per-cell seeds) — never wall-clock readings — so the
    /// rendering is byte-identical for a fixed plan regardless of worker
    /// count or host speed.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"smart-surface-sweep\",\n");
        let _ = writeln!(out, "  \"version\": {},", SWEEP_SCHEMA_VERSION);
        let _ = writeln!(out, "  \"plan_seed\": {},", self.plan_seed);
        let _ = writeln!(out, "  \"seeds_per_cell\": {},", self.seeds_per_cell);
        out.push_str("  \"percentile_method\": \"nearest-rank\",\n");
        out.push_str("  \"groups\": [\n");
        for (i, g) in self.groups.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"family\": \"{}\", \"n\": {}, \"network\": \"{}\", \
                 \"tie_break\": \"{}\", \"motion\": \"{}\", \"reliability\": \"{}\", \
                 \"fault\": \"{}\", \"runs\": {},\n     \
                 \"completed_rate\": {:.3}, \"stall_rate\": {:.3}, \"timeout_rate\": {:.3},\n     \
                 \"elections\": {}, \"messages\": {},\n     \
                 \"moves\": {}, \"distance_computations\": {},\n     \
                 \"sim_time_us\": {}, \"events_per_sim_sec\": {},\n     \
                 \"retransmissions\": {}, \"connectivity_fallback_probes\": {}, \
                 \"round_skips\": {}}}",
                g.family.name(),
                g.blocks,
                g.network,
                g.tie_break,
                g.motion,
                g.reliability,
                g.fault,
                g.runs,
                g.completed_rate,
                g.stall_rate,
                g.timeout_rate,
                stats_json(&g.elections),
                stats_json(&g.messages),
                stats_json(&g.moves),
                stats_json(&g.distance_computations),
                stats_json(&g.sim_time_us),
                stats_json(&g.events_per_sim_sec),
                stats_json(&g.retransmissions),
                stats_json(&g.connectivity_fallback_probes),
                stats_json(&g.round_skips),
            );
            out.push_str(if i + 1 < self.groups.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        // Schema v4: one record per cell, so a regression in a group
        // aggregate can be bisected to a single reproducible run (the
        // `cell_seed` is the exact simulator seed `run_cell` used).
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"family\": \"{}\", \"n\": {}, \"workload_seed\": {}, \
                 \"network\": \"{}\", \"tie_break\": \"{}\", \"motion\": \"{}\", \
                 \"reliability\": \"{}\", \"fault\": \"{}\",\n     \
                 \"cell_seed\": \"{:016x}\", \"outcome\": \"{}\",\n     \
                 \"elections\": {}, \"messages\": {}, \"moves\": {}, \
                 \"distance_computations\": {}, \"sim_time_us\": {}, \"events\": {},\n     \
                 \"retransmissions\": {}, \"duplicates_suppressed\": {}, \
                 \"delivery_acks\": {}, \"delivery_failures\": {},\n     \
                 \"connectivity_rebuilds\": {}, \"connectivity_fallback_probes\": {}, \
                 \"connectivity_incremental_updates\": {},\n     \
                 \"rounds_started\": {}, \"round_skips\": {}, \
                 \"crashes_injected\": {}, \"rejoins\": {}}}",
                c.cell.family.name(),
                c.cell.blocks,
                c.cell.workload_seed,
                c.cell.network.name,
                tie_break_name(c.cell.tie_break),
                motion_name(c.cell.motion),
                c.cell.reliability.name,
                c.cell.fault.name,
                c.cell.cell_seed(self.plan_seed),
                c.outcome_name(),
                c.elections,
                c.messages,
                c.moves,
                c.distance_computations,
                c.sim_time_us,
                c.events,
                c.retransmissions,
                c.duplicates_suppressed,
                c.delivery_acks,
                c.delivery_failures,
                c.connectivity_rebuilds,
                c.connectivity_fallback_probes,
                c.connectivity_incremental_updates,
                c.rounds_started,
                c.round_skips,
                c.crashes_injected,
                c.rejoins,
            );
            out.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn stats_json(s: &Stats) -> String {
    format!(
        "{{\"mean\": {:.1}, \"p50\": {:.1}, \"p95\": {:.1}}}",
        s.mean, s.p50, s.p95
    )
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
    let first = &chunk[0];
    let k = chunk.len() as f64;
    let rate = |pred: fn(&CellMeasurement) -> bool| -> f64 {
        chunk.iter().filter(|c| pred(c)).count() as f64 / k
    };
    let stats = |select: fn(&CellMeasurement) -> f64| -> Stats {
        Stats::from_values(&mut chunk.iter().map(select).collect::<Vec<f64>>())
    };
    GroupSummary {
        family: first.cell.family,
        blocks: first.cell.blocks,
        network: first.cell.network.name,
        tie_break: tie_break_name(first.cell.tie_break),
        motion: motion_name(first.cell.motion),
        reliability: first.cell.reliability.name,
        fault: first.cell.fault.name,
        runs: chunk.len(),
        completed_rate: rate(|c| c.completed),
        stall_rate: rate(|c| c.stalled),
        timeout_rate: rate(|c| c.timed_out),
        elections: stats(|c| c.elections as f64),
        messages: stats(|c| c.messages as f64),
        moves: stats(|c| c.moves as f64),
        distance_computations: stats(|c| c.distance_computations as f64),
        sim_time_us: stats(|c| c.sim_time_us as f64),
        events_per_sim_sec: stats(CellMeasurement::events_per_sim_sec),
        retransmissions: stats(|c| c.retransmissions as f64),
        connectivity_fallback_probes: stats(|c| c.connectivity_fallback_probes as f64),
        round_skips: stats(|c| c.round_skips as f64),
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
        let plan = SweepPlan::smoke();
        let expected: usize = plan.families.iter().map(|fp| fp.sizes.len()).sum::<usize>()
            * plan.seeds.len()
            * plan.networks.len()
            * plan.tie_breaks.len()
            * plan.motions.len()
            * plan.reliability.len();
        assert_eq!(plan.cells().len(), expected);
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
            let m = run_cell(cell, plan.plan_seed);
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
        assert_eq!(m.crashes_injected, 1, "exactly one scheduled crash");
        assert_eq!(m.rejoins, 1, "the victim rejoined");
        assert!(m.rounds_started >= 1, "rounds were live");
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
