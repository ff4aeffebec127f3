//! Motion planning queries over a rule catalogue.
//!
//! The distributed algorithm asks two questions about a block `B`, both
//! filtered by Remark 1 (no motion may disconnect the ensemble):
//!
//! 1. *Can `B` hop towards the output `O`?* — Eq. (9): `d_BO = +∞` when
//!    no such motion exists ([`MotionPlanner::any_motion_towards`]).
//! 2. *Which motions move `B` one hop towards `O`?* — the elected block's
//!    hop of Section V.C ([`MotionPlanner::motions_towards`]).
//!
//! In the physical system each block evaluates its own rules against its
//! locally sensed neighbourhood.  The planner performs exactly that local
//! evaluation (rule windows only look at cells within the rule's radius);
//! the simulation runtimes call it on behalf of a block, passing the
//! block's position.

use crate::catalog::RuleCatalog;
use crate::compiled::{CompiledRule, RuleId, MAX_MOVES_PER_RULE};
use sb_grid::{ConnectivityOracle, OccupancyGrid, Pos};
use std::fmt;

/// A concrete, applicable instantiation of a rule: the rule anchored at a
/// world position, with the world moves it would perform and the identity
/// of the *subject* move (the elementary move whose source is the block
/// the query was about).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedMotion {
    /// Interned id of the rule that generated this motion.  Resolve the
    /// display name through [`RuleCatalog::name_of`] when rendering; the
    /// motion itself stays `String`-free so enumeration allocates nothing
    /// per candidate beyond the move list.
    pub rule_id: RuleId,
    /// World position of the rule window's centre.
    pub anchor: Pos,
    /// All simultaneous world moves `(from, to)` of the rule.
    pub moves: Vec<(Pos, Pos)>,
    /// Source cell of the subject block.
    pub subject_from: Pos,
    /// Destination cell of the subject block.
    pub subject_to: Pos,
}

impl PlannedMotion {
    /// Number of blocks that move simultaneously.
    pub fn blocks_moved(&self) -> usize {
        self.moves.len()
    }

    /// Manhattan progress of the subject block towards `target`
    /// (positive = closer).
    pub fn progress_towards(&self, target: Pos) -> i64 {
        self.subject_from.manhattan(target) as i64 - self.subject_to.manhattan(target) as i64
    }
}

impl fmt::Display for PlannedMotion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule#{} @{}: {} -> {} ({} block(s))",
            self.rule_id,
            self.anchor,
            self.subject_from,
            self.subject_to,
            self.blocks_moved()
        )
    }
}

/// Planner over a rule catalogue.
///
/// The planner holds nothing but its catalogue.  Applicability checks run
/// against the catalogue's precompiled rule masks and the grid's
/// occupancy bitboard; the Remark 1 filter probes the caller's
/// [`ConnectivityOracle`], so one oracle (e.g. `sb-core`'s
/// `SurfaceWorld`'s) serves every query against the same world state.
/// World moves are materialised in a stack buffer: the Eq. (9) probe
/// [`MotionPlanner::any_motion_towards`] short-circuits at the first
/// admissible motion and performs **zero heap allocations after the
/// oracle's warm-up**.
#[derive(Clone, Debug)]
pub struct MotionPlanner {
    catalog: RuleCatalog,
}

impl MotionPlanner {
    /// Creates a planner over `catalog`.
    pub fn new(catalog: RuleCatalog) -> Self {
        MotionPlanner { catalog }
    }

    /// Creates a planner with the standard catalogue.
    pub fn standard() -> Self {
        MotionPlanner::new(RuleCatalog::standard())
    }

    /// The underlying catalogue.
    pub fn catalog(&self) -> &RuleCatalog {
        &self.catalog
    }

    /// All connectivity-preserving motions in which the block at `pos` is
    /// one of the moving blocks.  Duplicate motions (identical move sets
    /// produced by different rules) are reported once.
    ///
    /// Per candidate: compiled mask match, then deduplication, then the
    /// `oracle` probe — a duplicate has the identical move set, so its
    /// Remark 1 verdict is identical too and probing it again would only
    /// burn a probe.
    pub fn motions_involving(
        &self,
        grid: &OccupancyGrid,
        pos: Pos,
        oracle: &mut ConnectivityOracle,
    ) -> Vec<PlannedMotion> {
        let mut out: Vec<PlannedMotion> = Vec::new();
        if !grid.is_occupied(pos) {
            return out;
        }
        let mut buf = [(pos, pos); MAX_MOVES_PER_RULE];
        for compiled in self.catalog.compiled() {
            for (idx, mv) in compiled.moves.iter().enumerate() {
                let anchor = pos.offset(-mv.from.0, -mv.from.1);
                if !compiled.applies_at(grid, anchor) {
                    continue;
                }
                let moves = world_moves(compiled, anchor, &mut buf);
                let (subject_from, subject_to) = moves[idx];
                debug_assert_eq!(subject_from, pos);
                let duplicate = out
                    .iter()
                    .any(|p| p.subject_to == subject_to && same_move_set(&p.moves, moves));
                if duplicate || !oracle.preserves_connectivity(grid, moves) {
                    continue;
                }
                out.push(PlannedMotion {
                    rule_id: compiled.id,
                    anchor,
                    moves: moves.to_vec(),
                    subject_from,
                    subject_to,
                });
            }
        }
        out
    }

    /// The naive reference matcher: per-rule presence-window extraction,
    /// entry-wise Table II validation, and clone-the-grid connectivity —
    /// exactly the historical implementation the bitboard engine replaced.
    /// Retained so the two can be differentially tested (they must return
    /// identical motion lists) and benchmarked against each other.
    pub fn motions_involving_reference(
        &self,
        grid: &OccupancyGrid,
        pos: Pos,
    ) -> Vec<PlannedMotion> {
        let mut out: Vec<PlannedMotion> = Vec::new();
        if !grid.is_occupied(pos) {
            return out;
        }
        for (id, rule) in self.catalog.rules().iter().enumerate() {
            for (idx, em) in rule.moves().iter().enumerate() {
                let (ox, oy) = rule.offset_of(em.from);
                let anchor = pos.offset(-ox, -oy);
                if !rule.applies_at(grid, anchor) {
                    continue;
                }
                let moves = rule.world_moves(anchor);
                let (subject_from, subject_to) = moves[idx];
                debug_assert_eq!(subject_from, pos);
                let mut trial = grid.clone();
                if trial.apply_simultaneous_moves(&moves).is_err() || !trial.is_connected() {
                    continue;
                }
                let planned = PlannedMotion {
                    rule_id: id as RuleId,
                    anchor,
                    moves,
                    subject_from,
                    subject_to,
                };
                let duplicate = out.iter().any(|p| {
                    p.subject_to == planned.subject_to && same_move_set(&p.moves, &planned.moves)
                });
                if !duplicate {
                    out.push(planned);
                }
            }
        }
        out
    }

    /// The motions of [`MotionPlanner::motions_involving`] whose subject
    /// block ends strictly closer to `target` — the admissible "one hop
    /// towards O" moves of the elected block.
    pub fn motions_towards(
        &self,
        grid: &OccupancyGrid,
        pos: Pos,
        target: Pos,
        oracle: &mut ConnectivityOracle,
    ) -> Vec<PlannedMotion> {
        let mut motions: Vec<PlannedMotion> = self
            .motions_involving(grid, pos, oracle)
            .into_iter()
            .filter(|m| m.progress_towards(target) > 0)
            .collect();
        // Deterministic order: fewest blocks moved first, then by
        // destination, then by interned rule id (catalogue order), so the
        // driver's choice is reproducible.  Keys are `Copy` — no per-
        // comparison `String` clone.
        motions.sort_unstable_by_key(|m| (m.blocks_moved(), m.subject_to, m.rule_id));
        motions
    }

    /// Whether the block at `pos` can execute a connectivity-preserving
    /// motion that brings it strictly closer to `target` and whose world
    /// moves pass `admit` (the election uses it to exclude motions that
    /// would displace a locked path block) — the Eq. (9) feasibility
    /// test.
    ///
    /// Per candidate, in this order: the subject's destination must be
    /// closer (a geometric test run before any window lift), the compiled
    /// mask must match, the `oracle` must admit the batch, then `admit`
    /// must.  Stops at the first admissible motion; deduplication is
    /// skipped, as it cannot change emptiness.
    pub fn any_motion_towards(
        &self,
        grid: &OccupancyGrid,
        pos: Pos,
        target: Pos,
        mut admit: impl FnMut(&[(Pos, Pos)]) -> bool,
        oracle: &mut ConnectivityOracle,
    ) -> bool {
        if !grid.is_occupied(pos) {
            return false;
        }
        let from_d = pos.manhattan(target);
        let mut buf = [(pos, pos); MAX_MOVES_PER_RULE];
        for compiled in self.catalog.compiled() {
            for (idx, mv) in compiled.moves.iter().enumerate() {
                let subject_to = pos.offset(mv.to.0 - mv.from.0, mv.to.1 - mv.from.1);
                if subject_to.manhattan(target) >= from_d {
                    continue;
                }
                let anchor = pos.offset(-mv.from.0, -mv.from.1);
                if !compiled.applies_at(grid, anchor) {
                    continue;
                }
                let moves = world_moves(compiled, anchor, &mut buf);
                debug_assert_eq!(moves[idx].0, pos);
                if oracle.preserves_connectivity(grid, moves) && admit(moves) {
                    return true;
                }
            }
        }
        false
    }
}

/// The world moves of `compiled` anchored at `anchor`, written into the
/// front of `buf`.
fn world_moves<'a>(
    compiled: &CompiledRule,
    anchor: Pos,
    buf: &'a mut [(Pos, Pos); MAX_MOVES_PER_RULE],
) -> &'a [(Pos, Pos)] {
    for (slot, m) in buf.iter_mut().zip(compiled.moves.iter()) {
        *slot = compiled.world_move(m, anchor);
    }
    &buf[..compiled.moves.len()]
}

/// Move-set equality irrespective of declaration order, without
/// allocating: the batches here hold at most a handful of moves (two for
/// every shipped rule), so the quadratic scan beats sort-and-compare.
fn same_move_set(a: &[(Pos, Pos)], b: &[(Pos, Pos)]) -> bool {
    a.len() == b.len() && a.iter().all(|m| b.contains(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_grid::connectivity::{is_connected_after, ConnectivityScratch};
    use sb_grid::SurfaceConfig;

    /// A 2x3 rectangle of blocks on a 6x6 surface:
    ///
    /// ```text
    /// . . . . . .
    /// . . . . . .
    /// . . . . . .
    /// . . . . . .
    /// # # # . . .
    /// I # # . . .
    /// ```
    fn rectangle() -> SurfaceConfig {
        SurfaceConfig::from_ascii(
            "O . . . . .\n\
             . . . . . .\n\
             . . . . . .\n\
             . . . . . .\n\
             . # # # . .\n\
             . I # # . .",
        )
        .unwrap()
    }

    /// Remark 1 by scratch BFS, independent of the oracle.
    fn connected_after(grid: &OccupancyGrid, moves: &[(Pos, Pos)]) -> bool {
        is_connected_after(grid, moves, &mut ConnectivityScratch::new())
    }

    #[test]
    fn corner_block_can_slide_along_the_top() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        // The block at the north-east corner of the blob (3, 1) can slide
        // east (support south at (3,0) is absent -> actually the east
        // slide needs support at south of source and destination).  It can
        // however slide north? No support.  Check the reported motions are
        // all valid and keep connectivity.
        let motions =
            planner.motions_involving(cfg.grid(), Pos::new(3, 1), &mut ConnectivityOracle::new());
        for m in &motions {
            assert!(connected_after(cfg.grid(), &m.moves));
            assert_eq!(m.subject_from, Pos::new(3, 1));
        }
    }

    #[test]
    fn top_row_block_slides_east_with_support() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        // Block at (2,1): east sliding to (3,1)? destination occupied.
        // Block at (3,1) can slide east to (4,1) only if supports at (3,0)
        // and (4,0) — (4,0) is empty so the plain slide fails, but the
        // mirrored variant with support in the north does not apply
        // either.  The carry rule: block (3,1) moves east carried by
        // (2,1)?  Support south of (3,1) is (3,0): occupied.  So a carry
        // motion is available.
        let motions =
            planner.motions_involving(cfg.grid(), Pos::new(3, 1), &mut ConnectivityOracle::new());
        assert!(
            motions
                .iter()
                .any(|m| m.subject_to == Pos::new(4, 1) && m.blocks_moved() == 2),
            "expected an east carry for the corner block, got: {motions:?}"
        );
    }

    #[test]
    fn interior_block_only_moves_through_handover() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        // Block at (2,0) is surrounded west/east/north by other blocks:
        // the only way it can move into an occupied neighbouring cell is a
        // carrying motion where that cell is vacated simultaneously
        // (hand-over, code 5); a single-block slide into an occupied cell
        // must never be reported.
        let motions =
            planner.motions_involving(cfg.grid(), Pos::new(2, 0), &mut ConnectivityOracle::new());
        for m in &motions {
            assert!(m.subject_to.y >= 0, "moves must stay on the surface");
            if cfg.grid().is_occupied(m.subject_to) {
                assert!(
                    m.blocks_moved() > 1,
                    "occupied destination requires a hand-over: {m:?}"
                );
                assert!(
                    m.moves.iter().any(|&(from, _)| from == m.subject_to),
                    "the occupied destination must be vacated in the same motion"
                );
            }
        }
    }

    #[test]
    fn motions_towards_filters_by_progress() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        let mut oracle = ConnectivityOracle::new();
        let output = cfg.output(); // (0, 5)
        let pos = Pos::new(3, 1);
        for m in planner.motions_towards(cfg.grid(), pos, output, &mut oracle) {
            assert!(m.progress_towards(output) > 0);
        }
        // Towards the far north-east corner instead: progress must be
        // towards that corner.
        let corner = Pos::new(5, 5);
        for m in planner.motions_towards(cfg.grid(), pos, corner, &mut oracle) {
            assert!(m.subject_to.manhattan(corner) < pos.manhattan(corner));
        }
    }

    #[test]
    fn connectivity_filter_blocks_disconnecting_moves() {
        // A 2x2 square plus a tail block: moving the tail's neighbour
        // would disconnect the tail.
        let cfg = SurfaceConfig::from_ascii(
            "O . . . .\n\
             . . . . .\n\
             # # . . .\n\
             I # # # .",
        )
        .unwrap();
        let planner = MotionPlanner::standard();
        // Block at (2,0) is the articulation between the square and the
        // tail at (3,0).
        let pos = Pos::new(2, 0);
        let motions = planner.motions_involving(cfg.grid(), pos, &mut ConnectivityOracle::new());
        for m in &motions {
            assert!(connected_after(cfg.grid(), &m.moves));
        }
        // Some rule matches here but strands the tail: the filter must
        // have dropped it.
        let mut buf = [(pos, pos); MAX_MOVES_PER_RULE];
        let mut stranding = 0;
        for compiled in planner.catalog().compiled() {
            for mv in &compiled.moves {
                let anchor = pos.offset(-mv.from.0, -mv.from.1);
                if !compiled.applies_at(cfg.grid(), anchor) {
                    continue;
                }
                let moves = world_moves(compiled, anchor, &mut buf);
                if !connected_after(cfg.grid(), moves) {
                    stranding += 1;
                    assert!(!motions.iter().any(|m| same_move_set(&m.moves, moves)));
                }
            }
        }
        assert!(stranding > 0, "the geometry must offer a stranding motion");
    }

    #[test]
    fn empty_cell_has_no_motion() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        let mut oracle = ConnectivityOracle::new();
        let empty = Pos::new(5, 5);
        assert!(planner
            .motions_involving(cfg.grid(), empty, &mut oracle)
            .is_empty());
        assert!(!planner.any_motion_towards(
            cfg.grid(),
            empty,
            cfg.output(),
            |_| true,
            &mut oracle
        ));
    }

    #[test]
    fn can_move_towards_is_consistent_with_motions_towards() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        let mut oracle = ConnectivityOracle::new();
        for target in [cfg.output(), Pos::new(5, 5), Pos::new(5, 0)] {
            for pos in cfg.grid().bounds().iter() {
                assert_eq!(
                    planner.any_motion_towards(cfg.grid(), pos, target, |_| true, &mut oracle),
                    !planner
                        .motions_towards(cfg.grid(), pos, target, &mut oracle)
                        .is_empty(),
                    "at {pos} towards {target}"
                );
            }
        }
    }

    #[test]
    fn can_move_matches_motion_enumeration() {
        // A block can move iff some target draws it one hop closer: every
        // motion makes progress towards its own subject destination.
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        let mut oracle = ConnectivityOracle::new();
        let bounds = cfg.grid().bounds();
        for pos in bounds.iter() {
            let can_move = bounds
                .iter()
                .any(|t| planner.any_motion_towards(cfg.grid(), pos, t, |_| true, &mut oracle));
            assert_eq!(
                can_move,
                !planner
                    .motions_involving(cfg.grid(), pos, &mut oracle)
                    .is_empty(),
                "at {pos}"
            );
        }
    }

    #[test]
    fn bitboard_matcher_agrees_with_the_naive_reference() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        let mut oracle = ConnectivityOracle::new();
        for pos in cfg.grid().bounds().iter() {
            assert_eq!(
                planner.motions_involving(cfg.grid(), pos, &mut oracle),
                planner.motions_involving_reference(cfg.grid(), pos),
                "at {pos}"
            );
        }
    }

    #[test]
    fn admission_filter_excludes_motions() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        let mut oracle = ConnectivityOracle::new();
        let output = cfg.output();
        let pos = Pos::new(3, 1);
        assert!(planner.any_motion_towards(cfg.grid(), pos, output, |_| true, &mut oracle));
        assert!(!planner.any_motion_towards(cfg.grid(), pos, output, |_| false, &mut oracle));
        // Filtering out every motion touching the subject's own cell
        // excludes everything (the subject always moves).
        assert!(!planner.any_motion_towards(
            cfg.grid(),
            pos,
            output,
            |moves| !moves.iter().any(|&(from, _)| from == pos),
            &mut oracle
        ));
    }

    #[test]
    fn admission_filter_may_reenter_the_planner() {
        // The planner holds no state, so the admit closure can consult
        // it (with an oracle of its own) about a displaced helper block
        // while the outer query runs.
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        let mut inner = ConnectivityOracle::new();
        let output = cfg.output();
        let pos = Pos::new(3, 1);
        let ok = planner.any_motion_towards(
            cfg.grid(),
            pos,
            output,
            |moves| {
                moves.iter().all(|&(from, _)| {
                    from == pos
                        || !planner
                            .motions_involving(cfg.grid(), from, &mut inner)
                            .is_empty()
                })
            },
            &mut ConnectivityOracle::new(),
        );
        assert!(ok);
    }

    #[test]
    fn climbing_a_column_is_possible() {
        // A column of blocks with a climber on its east side: the climber
        // must be able to slide north using the column as support
        // (rotated sliding rule).
        let cfg = SurfaceConfig::from_ascii(
            "O . . .\n\
             . . . .\n\
             . . . .\n\
             . # . .\n\
             . # # .\n\
             . I # .",
        )
        .unwrap();
        let planner = MotionPlanner::standard();
        let climber = Pos::new(2, 1);
        let output = cfg.output();
        let motions =
            planner.motions_towards(cfg.grid(), climber, output, &mut ConnectivityOracle::new());
        assert!(
            motions.iter().any(|m| m.subject_to == Pos::new(2, 2)),
            "climber should slide north along the column, got {motions:?}"
        );
    }

    #[test]
    fn corner_crossing_requires_carrying() {
        // The climber sits east of the column top; the only way to keep
        // progressing is a carry (as block #5 does for block #9 in
        // Fig. 10).  With the sliding-only catalogue nothing applies.
        let cfg = SurfaceConfig::from_ascii(
            "O . . .\n\
             . . . .\n\
             . # . .\n\
             . # # .\n\
             . # # .\n\
             . I . .",
        )
        .unwrap();
        let climber = Pos::new(2, 2);
        let output = cfg.output();
        let mut oracle = ConnectivityOracle::new();
        let standard = MotionPlanner::standard();
        let sliding_only = MotionPlanner::new(RuleCatalog::sliding_only());
        let with_carry = standard.motions_towards(cfg.grid(), climber, output, &mut oracle);
        let without_carry = sliding_only.motions_towards(cfg.grid(), climber, output, &mut oracle);
        assert!(
            !with_carry.is_empty(),
            "carrying should enable progress at the corner"
        );
        assert!(
            without_carry.len() < with_carry.len(),
            "sliding-only should offer strictly fewer options"
        );
    }
}
