//! Connectivity-maintenance gate and the N = 10⁵ large-ensemble smoke.
//!
//! The gate runs complete column and serpentine reconfigurations and
//! fails unless the world's connectivity oracle answered every probe
//! without a BFS fallback and, on the marked cells, stayed under the
//! full-rebuild ceiling of `2 + epochs/100`.  The world's Eq. 9 memo must
//! also serve at least 90% of the Eq. 9 questions on the marked column
//! cells, and at least 75% on every serpentine cell.
//!
//! The smoke deploys the election through
//! `ReconfigurationDriver::des_simulation` at N = 10⁵ blocks (column
//! and serpentine) and dispatches a bounded first wave — the 10⁵
//! start-up events plus the first activation flood — asserting that
//! every requested step ran.  The paper reports
//! VisibleSim at "2 millions of nodes at a rate of 650k events/sec"
//! (Section V.E); the printed rate is the host-dependent counterpart.
//!
//! ```text
//! cargo run --release --example connectivity_gate
//! SB_THROUGHPUT_QUICK=1 cargo run --release --example connectivity_gate   # CI: gate cells up to column N = 256
//! ```

use sb_bench::Family;
use sb_core::election::{AlgorithmConfig, TieBreak};
use sb_core::ReconfigurationDriver;

/// Blocks in the large-ensemble smoke.
const SMOKE_BLOCKS: usize = 100_000;
/// Events dispatched per smoke run: the start-up events plus a bounded
/// slice of the first activation wave.
const SMOKE_EVENTS: u64 = 130_000;

/// Regression ceiling for connectivity fallback probes on a standard
/// election plan: the block-cut-tree oracle answers every probe the
/// column and serpentine reconfigurations emit — single supported moves
/// and hand-over carrying chains — without touching the O(N) BFS, so any
/// non-zero count means a probe shape fell off the fast path.
const FALLBACK_PROBE_CEILING: u64 = 0;

/// Floor, in percent, for the share of Eq. 9 questions the world's
/// per-block verdict memo serves on the marked column cells.  A complete run
/// asks `rule_checks − elected_hops` Eq. 9 questions (every hop adds one
/// enumeration); a block keeps its verdict until a hop moves a cell
/// within the catalogue's Eq. 9 radius of it, or lands where its ring
/// cannot certify it, so on column the share sits near 97%, and a drop
/// means hops started evicting verdicts they cannot change.
const MEMO_HIT_FLOOR_PERCENT: u64 = 90;

/// The same floor on every serpentine cell.  Most serpentine questions
/// probe cut-vertex sources; their verdicts are kept on the same terms,
/// and the share reads 83% at N = 48 and 96% at N = 128.
const SERPENTINE_MEMO_HIT_FLOOR_PERCENT: u64 = 75;

/// Runs full reconfigurations (not the bounded smoke slice) on the
/// election families and fails if the world's connectivity oracle either
/// reported a BFS fallback or — on the cells past the amortisation
/// crossover — performed more full Tarjan rebuilds than the
/// ceiling of `2 + 1%` of occupancy epochs, or the Eq. 9 memo served
/// less than [`MEMO_HIT_FLOOR_PERCENT`] of the Eq. 9 questions on a
/// marked column cell or [`SERPENTINE_MEMO_HIT_FLOOR_PERCENT`] on a
/// serpentine cell.
///
/// Ceiling cells: rebuilds cost ~one per mover journey (O(N) total —
/// the rule-check probe of a back-edge wall cell adjacent to the active
/// mover trail genuinely needs a fresh forest), while occupancy epochs
/// grow as ~N²/4, so the rebuild share falls as ~c/N.  Measured
/// crossover against the `2 + 1%` ceiling: column passes from N ≈ 190
/// (N=256: 127 rebuilds / 16382 epochs), serpentine — whose journeys
/// per block are ~5× the column's — from N ≈ 1100.  QUICK keeps the
/// enforced cell at column N=256 (~2 s); the full run adds column
/// N=512 and a past-crossover serpentine cell (minutes, not CI-sized).
/// At the paper-scale N = 10⁴ the same counters give rebuilds ≈ 0.5%
/// of the ceiling.
fn gate_connectivity_maintenance(quick: bool) {
    println!(
        "\nconnectivity maintenance gate (fallback ceiling: {FALLBACK_PROBE_CEILING} BFS \
         probes; rebuild ceiling: 2 + epochs/100 on marked cells; Eq. 9 memo hits: \
         >= {MEMO_HIT_FLOOR_PERCENT}% on marked column cells, \
         >= {SERPENTINE_MEMO_HIT_FLOOR_PERCENT}% on serpentine cells)"
    );
    // (family, blocks, marked): marked cells enforce the rebuild
    // ceiling, and marked column cells the column memo floor too.
    let mut cells: Vec<(Family, usize, bool)> = vec![
        (Family::Column, 64, false),
        (Family::Serpentine, 48, false),
        (Family::Column, 256, true),
    ];
    if !quick {
        cells.push((Family::Column, 512, true));
        cells.push((Family::Serpentine, 1280, true));
    }
    for (family, blocks, marked) in cells {
        let report = ReconfigurationDriver::new(family.build(blocks, 1))
            .with_seed(9)
            .run_des();
        assert!(
            report.completed,
            "{} N={blocks}: reconfiguration did not complete",
            family.name()
        );
        let epochs = report.move_log.len() as u64;
        let fallbacks = report.metrics.connectivity_fallback_probes;
        let rebuilds = report.metrics.connectivity_rebuilds;
        let incremental = report.metrics.connectivity_incremental_updates;
        let allowed = 2 + epochs / 100;
        let memo_hits = report.metrics.eq9_memo_hits;
        let questions = report.metrics.rule_checks - report.metrics.elected_hops;
        println!(
            "{:>10} {:>9} epochs={epochs} rebuilds={rebuilds}{} incremental={incremental} \
             fallback-probes={fallbacks} eq9-memo-hits={memo_hits}/{questions}",
            family.name(),
            blocks,
            if marked {
                format!(" (ceiling {allowed})")
            } else {
                String::new()
            },
        );
        if fallbacks > FALLBACK_PROBE_CEILING {
            panic!(
                "{} N={blocks}: {fallbacks} connectivity probes fell back to the BFS \
                 (ceiling: {FALLBACK_PROBE_CEILING})",
                family.name()
            );
        }
        // Every epoch the run produced must have been absorbed by the
        // amortised-O(1) single-move sync (the oracle never silently
        // skips maintenance and pays for it on the next probe).
        assert!(
            incremental + rebuilds >= epochs.saturating_sub(1),
            "{} N={blocks}: {incremental} incremental updates + {rebuilds} rebuilds \
             cannot cover {epochs} epochs",
            family.name()
        );
        if marked && rebuilds > allowed {
            panic!(
                "{} N={blocks}: {rebuilds} full rebuilds over {epochs} epochs \
                 (ceiling: {allowed} = 2 + 1%)",
                family.name()
            );
        }
        let memo_floor = match family {
            Family::Column if marked => Some(MEMO_HIT_FLOOR_PERCENT),
            Family::Serpentine => Some(SERPENTINE_MEMO_HIT_FLOOR_PERCENT),
            _ => None,
        };
        if let Some(floor) = memo_floor.filter(|&f| memo_hits * 100 < questions * f) {
            panic!(
                "{} N={blocks}: the Eq. 9 memo served {memo_hits} of {questions} questions \
                 (floor: {floor}%)",
                family.name()
            );
        }
    }
}

/// Runs the bounded first wave of the election at N = 10⁵ on the
/// production engine and fails unless every requested step was
/// dispatched (a drained queue or an early stop would cut it short).
fn large_ensemble_smoke() {
    println!("large-ensemble smoke: {SMOKE_BLOCKS} blocks, {SMOKE_EVENTS} events per run");
    let algorithm = AlgorithmConfig {
        tie_break: TieBreak::LowestId,
        ..AlgorithmConfig::default()
    };
    for family in [Family::Column, Family::Serpentine] {
        let driver = ReconfigurationDriver::new(family.build(SMOKE_BLOCKS, 1))
            .with_algorithm(algorithm)
            .with_seed(9);
        // sb-allow: wall-clock-in-sim — stdout-only rate of the smoke run
        let start = std::time::Instant::now();
        let mut sim = driver.des_simulation();
        let steps = sim.run_steps(SMOKE_EVENTS);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(
            steps,
            SMOKE_EVENTS,
            "{} N={SMOKE_BLOCKS}: only {steps} of {SMOKE_EVENTS} steps ran",
            family.name()
        );
        println!(
            "{:>10} {:>9} events={steps} ({:.0} events/s incl. registration)",
            family.name(),
            SMOKE_BLOCKS,
            steps as f64 / secs,
        );
    }
    println!("(The paper reports VisibleSim at ~650k events/sec with 2M nodes.)");
}

fn main() {
    // Quick mode keeps the enforced rebuild-ceiling cell at column
    // N = 256, so the CI job stays short.
    let quick = std::env::var("SB_THROUGHPUT_QUICK").is_ok();
    large_ensemble_smoke();
    gate_connectivity_maintenance(quick);
}
