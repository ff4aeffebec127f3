//! The benchmark workloads and the inputs each draws from a seed.

use sb_core::driver::{ReconfigurationDriver, ReconfigurationReport};
use sb_core::election::{AlgorithmConfig, TieBreak};
use sb_core::reliability::ReliabilityConfig;
use sb_core::workloads;
use sb_desim::{Duration, LatencyModel, NetworkModel};
use sb_grid::SurfaceConfig;

/// One workload: a reconfiguration task at a fixed size on a fixed
/// network.  Why each exists is recorded in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Serpentine ribbon instead of the two-column blob.
    serpentine: bool,
    /// Ensemble size `N`.
    pub blocks: usize,
    /// Per-message drop probability in permille (0: loss-free).
    drop_permille: u16,
    /// Whether the reliable delivery layer runs (a lossy network needs it
    /// to complete).
    reliable: bool,
}

/// Sizes keep one reconfiguration between ~0.05 s and ~3 s of host time,
/// so every run times several complete reconfigurations.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "column",
        serpentine: false,
        blocks: 128,
        drop_permille: 0,
        reliable: false,
    },
    Workload {
        name: "serpentine",
        serpentine: true,
        blocks: 128,
        drop_permille: 0,
        reliable: false,
    },
    Workload {
        name: "reliable_lossy",
        serpentine: false,
        blocks: 64,
        drop_permille: 10,
        reliable: true,
    },
    Workload {
        name: "column_large",
        serpentine: false,
        blocks: 192,
        drop_permille: 0,
        reliable: false,
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The problem instance (deterministic: the geometry does not depend
    /// on the seed, so draws differ only in their protocol randomness).
    pub fn instance(&self) -> SurfaceConfig {
        if self.serpentine {
            workloads::serpentine_instance(self.blocks, 0)
        } else {
            workloads::column_instance(self.blocks, 0)
        }
    }

    /// Per-message latency drawn uniformly from 1–100 µs, so message
    /// orders (and hence trajectories) differ between draws.
    pub fn network(&self) -> NetworkModel {
        let latency = LatencyModel::Uniform {
            min: Duration::micros(1),
            max: Duration::micros(100),
        };
        if self.drop_permille == 0 {
            NetworkModel::Uniform(latency)
        } else {
            NetworkModel::Lossy {
                latency,
                drop_permille: self.drop_permille,
            }
        }
    }

    pub fn reliability(&self) -> ReliabilityConfig {
        if self.reliable {
            ReliabilityConfig::on()
        } else {
            ReliabilityConfig::off()
        }
    }

    /// The public driver of one reconfiguration of `config`: random
    /// tie-break and simulator seeds from the draw.
    pub fn driver_for(&self, config: SurfaceConfig, draw: Draw) -> ReconfigurationDriver {
        let driver = ReconfigurationDriver::new(config);
        let algorithm = AlgorithmConfig {
            tie_break: TieBreak::Random,
            seed: draw.tie_seed,
            ..*driver.algorithm()
        };
        driver
            .with_algorithm(algorithm)
            .with_network(self.network())
            .with_reliability(self.reliability())
            .with_seed(draw.sim_seed)
    }

    pub fn driver(&self, draw: Draw) -> ReconfigurationDriver {
        self.driver_for(self.instance(), draw)
    }

    /// Checks one finished reconfiguration: it completed with a full path,
    /// and its counters obey the protocol's accounting.
    pub fn check(&self, report: &ReconfigurationReport) -> Result<(), String> {
        let m = &report.metrics;
        if !(report.completed && report.path_complete && report.stopped) {
            return Err(format!(
                "did not complete (stalled: {}, path complete: {})",
                report.stalled, report.path_complete
            ));
        }
        if report.move_log.len() as u64 != m.elected_hops {
            return Err(format!(
                "{} move records for {} elected hops",
                report.move_log.len(),
                m.elected_hops
            ));
        }
        // Remark 2: every block evaluates Eqs. 8-10 once per election.
        if m.distance_computations != self.blocks as u64 * m.elections {
            return Err(format!(
                "{} distance evaluations for {} elections of {} blocks",
                m.distance_computations, m.elections, self.blocks
            ));
        }
        if m.delivery_failures != 0 || m.protocol_drops != 0 {
            return Err(format!(
                "{} delivery failures, {} protocol drops",
                m.delivery_failures, m.protocol_drops
            ));
        }
        Ok(())
    }
}

/// The randomness of one reconfiguration: the `index`-th draw of a run
/// seeded with `seed`.
#[derive(Clone, Copy, Debug)]
pub struct Draw {
    pub sim_seed: u64,
    pub tie_seed: u64,
}

impl Draw {
    pub fn new(seed: u64, index: u64) -> Self {
        let sim_seed = splitmix64(splitmix64(seed) ^ index);
        Draw {
            sim_seed,
            tie_seed: splitmix64(sim_seed),
        }
    }

    /// The untimed warm-up draw (never one of the timed ones).
    pub fn warm_up(seed: u64) -> Self {
        Draw::new(seed, u64::MAX)
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
