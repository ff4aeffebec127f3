//! Post-hoc analysis of reconfiguration runs.
//!
//! The paper follows the reconfiguration visually (numbered blocks in
//! Figs. 10–11) and summarises it with a single number (55 moves).  This
//! module extracts richer summaries from a [`ReconfigurationReport`]: which
//! rules were used and how often, how far each block travelled, in which
//! order the path cells were filled, how simulated time was spent, and
//! the ASCII snapshot after every motion — the quantities the examples
//! print and the benches aggregate.

use crate::driver::ReconfigurationReport;
use crate::world::MoveRecord;
use sb_grid::{BlockId, Pos, SurfaceConfig};
use std::collections::BTreeMap;
use std::fmt;

/// How often each motion rule was applied.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleUsage {
    counts: BTreeMap<String, usize>,
}

impl RuleUsage {
    /// Tallies the rules of a report's move log, resolving the interned
    /// rule ids through the report's name table.
    pub fn from_report(report: &ReconfigurationReport) -> Self {
        let mut counts = BTreeMap::new();
        for record in &report.move_log {
            *counts
                .entry(report.rule_name(record).to_string())
                .or_insert(0) += 1;
        }
        RuleUsage { counts }
    }

    /// `(rule name, applications)` pairs, alphabetically.
    pub fn entries(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of applications of one rule.
    pub fn count(&self, rule: &str) -> usize {
        self.counts.get(rule).copied().unwrap_or(0)
    }

    /// Total number of rule applications (elected hops).
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Number of distinct rules used.
    pub fn distinct_rules(&self) -> usize {
        self.counts.len()
    }
}

impl fmt::Display for RuleUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (rule, count) in &self.counts {
            writeln!(f, "{rule:<24} {count}")?;
        }
        Ok(())
    }
}

/// Per-block displacement statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockTravel {
    distances: BTreeMap<BlockId, u32>,
}

impl BlockTravel {
    /// Sums, per block, the number of elementary moves it performed.
    pub fn from_moves(moves: &[MoveRecord]) -> Self {
        let mut distances = BTreeMap::new();
        for record in moves {
            for &(id, from, to) in &record.moves {
                *distances.entry(id).or_insert(0) += from.manhattan(to);
            }
        }
        BlockTravel { distances }
    }

    /// Cells travelled by one block (0 if it never moved).
    pub fn of(&self, id: BlockId) -> u32 {
        self.distances.get(&id).copied().unwrap_or(0)
    }

    /// Total cells travelled by all blocks (equals the elementary-move
    /// count, since every elementary move is one cell).
    pub fn total(&self) -> u32 {
        self.distances.values().sum()
    }

    /// Number of blocks that moved at least once.
    pub fn blocks_moved(&self) -> usize {
        self.distances.len()
    }

    /// The block that travelled the farthest, if any block moved.
    pub fn busiest(&self) -> Option<(BlockId, u32)> {
        self.distances
            .iter()
            .max_by_key(|(id, d)| (**d, std::cmp::Reverse(**id)))
            .map(|(id, d)| (*id, *d))
    }
}

/// The order in which the cells of the target path became (permanently)
/// occupied, derived from the move log.
pub fn path_fill_order(report: &ReconfigurationReport, path: &[Pos]) -> Vec<(Pos, u32)> {
    let mut filled: Vec<(Pos, u32)> = Vec::new();
    for record in &report.move_log {
        for &(_, _, to) in &record.moves {
            if path.contains(&to) && !filled.iter().any(|(p, _)| *p == to) {
                filled.push((to, record.iteration));
            }
        }
    }
    filled
}

/// The ASCII rendering after every motion of `move_log`, replayed over
/// `initial` (the snapshots of Figs. 10–11): one frame per record, the
/// last equal to the run's final rendering.
///
/// # Panics
///
/// If a record does not replay: `move_log` was not produced from
/// `initial`.
pub fn frames(initial: &SurfaceConfig, move_log: &[MoveRecord]) -> Vec<String> {
    let mut config = initial.clone();
    move_log
        .iter()
        .map(|record| {
            record
                .apply_to(config.grid_mut())
                .expect("the move log replays over its initial configuration");
            config.to_ascii()
        })
        .collect()
}

/// A one-struct summary of a run, convenient for table rows and examples.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Number of blocks.
    pub blocks: usize,
    /// Whether the reconfiguration completed.
    pub completed: bool,
    /// Elections run.
    pub elections: u64,
    /// Elementary block moves.
    pub moves: u64,
    /// Messages exchanged.
    pub messages: u64,
    /// Rule usage histogram.
    pub rules: RuleUsage,
    /// Per-block travel.
    pub travel: BlockTravel,
    /// Average messages per election.
    // sb-allow: float-in-state — derived summary statistic; reports only, never re-enters the sim
    pub messages_per_election: f64,
}

impl RunSummary {
    /// Builds the summary from a report.
    pub fn from_report(report: &ReconfigurationReport) -> Self {
        let rules = RuleUsage::from_report(report);
        let travel = BlockTravel::from_moves(&report.move_log);
        let elections = report.elections();
        RunSummary {
            blocks: report.blocks,
            completed: report.completed,
            elections,
            moves: report.elementary_moves(),
            messages: report.total_messages(),
            rules,
            travel,
            messages_per_election: if elections == 0 {
                0.0
            } else {
                // sb-allow: float-in-state — derived summary as above
                report.total_messages() as f64 / elections as f64
            },
        }
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} blocks, completed={}, {} elections, {} moves, {} messages ({:.1} per election)",
            self.blocks,
            self.completed,
            self.elections,
            self.moves,
            self.messages,
            self.messages_per_election
        )?;
        writeln!(f, "rules used ({} distinct):", self.rules.distinct_rules())?;
        write!(f, "{}", self.rules)?;
        writeln!(
            f,
            "blocks moved: {} (busiest: {:?})",
            self.travel.blocks_moved(),
            self.travel.busiest()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ReconfigurationDriver;
    use crate::workloads;

    fn completed_report() -> ReconfigurationReport {
        ReconfigurationDriver::new(workloads::column_instance(8, 0)).run_des()
    }

    #[test]
    fn rule_usage_totals_match_hops() {
        let report = completed_report();
        let usage = RuleUsage::from_report(&report);
        assert_eq!(usage.total() as u64, report.metrics.elected_hops);
        assert!(usage.distinct_rules() >= 1);
        assert_eq!(usage.count("a_rule_that_does_not_exist"), 0);
        // Every counted rule exists in the standard catalogue or is the
        // free-motion pseudo rule.
        let catalog = sb_motion::RuleCatalog::standard();
        for (rule, count) in usage.entries() {
            assert!(count > 0);
            assert!(catalog.find(rule).is_some(), "unknown rule {rule}");
        }
    }

    #[test]
    fn block_travel_matches_elementary_moves() {
        let report = completed_report();
        let travel = BlockTravel::from_moves(&report.move_log);
        assert_eq!(u64::from(travel.total()), report.elementary_moves());
        assert!(travel.blocks_moved() >= 1);
        let (busiest, cells) = travel.busiest().unwrap();
        assert!(cells >= 1);
        assert!(travel.of(busiest) == cells);
        assert_eq!(travel.of(BlockId(9999)), 0);
    }

    #[test]
    fn path_fill_order_is_monotone_in_iterations() {
        let cfg = workloads::column_instance(8, 0);
        let path = cfg.graph().canonical_path();
        let report = ReconfigurationDriver::new(cfg).run_des();
        let order = path_fill_order(&report, &path);
        assert!(!order.is_empty());
        assert!(order.windows(2).all(|w| w[0].1 <= w[1].1));
        // Every recorded fill is genuinely a path cell.
        assert!(order.iter().all(|(p, _)| path.contains(p)));
    }

    #[test]
    fn run_summary_displays_key_figures() {
        let report = completed_report();
        let summary = RunSummary::from_report(&report);
        assert_eq!(summary.blocks, 8);
        assert!(summary.completed);
        assert!(summary.messages_per_election > 0.0);
        let text = summary.to_string();
        assert!(text.contains("elections"));
        assert!(text.contains("rules used"));
    }

    #[test]
    fn free_motion_summary_uses_the_free_pseudo_rule() {
        let report = ReconfigurationDriver::new(workloads::column_instance(8, 0))
            .with_motion_model(crate::world::MotionModel::FreeMotion)
            .run_des();
        let usage = RuleUsage::from_report(&report);
        assert_eq!(usage.distinct_rules(), 1);
        assert!(usage.count("free") > 0);
    }
}
