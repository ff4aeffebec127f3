//! Motion planning queries over a rule catalogue.
//!
//! The distributed algorithm needs two questions answered for a block `B`:
//!
//! 1. *Can `B` move at all?* — used by Eq. (9): `d_BO = +∞` if no move is
//!    possible for `B`.
//! 2. *Which motions move `B` one hop towards the output `O`?* — used when
//!    the elected block executes its hop (Section V.C).
//!
//! In the physical system each block evaluates its own rules against its
//! locally sensed neighbourhood.  The planner performs exactly that local
//! evaluation (rule windows only look at cells within the rule's radius);
//! the simulation runtimes call it on behalf of a block, passing the
//! block's position.

use crate::catalog::RuleCatalog;
use crate::compiled::RuleId;
use crate::rule::RuleError;
use sb_grid::connectivity;
use sb_grid::{BlockId, ConnectivityOracle, OccupancyGrid, Pos};
use std::cell::RefCell;
use std::fmt;

/// A Remark 1 admission probe over a candidate move batch (abstracts
/// whether the verdict comes from the planner's own oracle, a
/// caller-owned one, or nothing at all when connectivity is not
/// required).
type PreservesProbe<'a> = dyn FnMut(&[(Pos, Pos)]) -> bool + 'a;

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

    /// Whether executing this motion keeps the ensemble connected
    /// (Remark 1).
    pub fn preserves_connectivity(&self, grid: &OccupancyGrid) -> bool {
        connectivity::moves_preserve_connectivity(grid, &self.moves)
    }

    /// Executes the motion on the grid.
    pub fn apply(&self, grid: &mut OccupancyGrid) -> Result<Vec<BlockId>, RuleError> {
        Ok(grid.apply_simultaneous_moves(&self.moves)?)
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
/// Applicability checks run against the catalogue's precompiled rule
/// masks and the grid's occupancy bitboard; the Remark 1 admission filter
/// goes through a [`ConnectivityOracle`] (block-cut-tree state computed
/// per world state and patched incrementally across leaf relocations,
/// answering single-block probes **and** the catalogue's carrying
/// batches in O(1) — every carrying chain reduces to a net single move,
/// with the scratch BFS as the exactness backstop for every other shape
/// and the few single moves the tree cannot decide); and the boolean
/// feasibility queries
/// ([`MotionPlanner::can_move_towards`] and friends) additionally
/// short-circuit at the first admissible motion and reuse internal
/// scratch buffers, performing **zero heap allocations after warm-up**.
///
/// Callers that own a world-level oracle (e.g. `sb-core`'s
/// `SurfaceWorld`) pass it through the `*_with` variants so the
/// cut-vertex mask is shared with every other consumer of the same world
/// state; the plain variants fall back to a planner-internal oracle.
#[derive(Debug)]
pub struct MotionPlanner {
    catalog: RuleCatalog,
    /// Whether planned motions must preserve the connectivity of the whole
    /// ensemble (Remark 1).  On by default.
    require_connectivity: bool,
    /// World moves of the candidate currently being examined (reused
    /// across enumeration queries).
    moves_scratch: RefCell<Vec<(Pos, Pos)>>,
    /// Planner-owned connectivity oracle for callers without their own.
    oracle: RefCell<ConnectivityOracle>,
}

impl Clone for MotionPlanner {
    fn clone(&self) -> Self {
        MotionPlanner {
            catalog: self.catalog.clone(),
            require_connectivity: self.require_connectivity,
            moves_scratch: RefCell::new(Vec::new()),
            oracle: RefCell::new(ConnectivityOracle::new()),
        }
    }
}

impl MotionPlanner {
    /// Creates a planner with connectivity preservation enabled.
    pub fn new(catalog: RuleCatalog) -> Self {
        MotionPlanner {
            catalog,
            require_connectivity: true,
            moves_scratch: RefCell::new(Vec::new()),
            oracle: RefCell::new(ConnectivityOracle::new()),
        }
    }

    /// Creates a planner with the standard catalogue.
    pub fn standard() -> Self {
        MotionPlanner::new(RuleCatalog::standard())
    }

    /// Disables the global connectivity filter (used by the free-motion
    /// baseline of the 2013 paper, where blocks do not need support).
    pub fn without_connectivity_check(mut self) -> Self {
        self.require_connectivity = false;
        self
    }

    /// The underlying catalogue.
    pub fn catalog(&self) -> &RuleCatalog {
        &self.catalog
    }

    /// All applicable motions in which the block at `pos` is one of the
    /// moving blocks.  Duplicate motions (identical move sets produced by
    /// different rules) are reported once.
    ///
    /// Matching runs on the precompiled rule masks; connectivity (Remark 1)
    /// is answered by the planner's [`ConnectivityOracle`], so candidate
    /// motions that fail either filter cost no heap allocation.
    pub fn motions_involving(&self, grid: &OccupancyGrid, pos: Pos) -> Vec<PlannedMotion> {
        let oracle = &mut *self.oracle.borrow_mut();
        self.motions_involving_with(grid, pos, oracle)
    }

    /// [`MotionPlanner::motions_involving`] probing Remark 1 through a
    /// caller-owned oracle (shared cut-vertex mask).
    pub fn motions_involving_with(
        &self,
        grid: &OccupancyGrid,
        pos: Pos,
        oracle: &mut ConnectivityOracle,
    ) -> Vec<PlannedMotion> {
        let mut out: Vec<PlannedMotion> = Vec::new();
        if !grid.is_occupied(pos) {
            return out;
        }
        let mut moves_buf = self.moves_scratch.borrow_mut();
        for compiled in self.catalog.compiled() {
            for (idx, mv) in compiled.moves.iter().enumerate() {
                let anchor = pos.offset(-mv.from.0, -mv.from.1);
                if !compiled.applies_at(grid, anchor) {
                    continue;
                }
                moves_buf.clear();
                moves_buf.extend(
                    compiled
                        .moves
                        .iter()
                        .map(|m| compiled.world_move(m, anchor)),
                );
                let (subject_from, subject_to) = moves_buf[idx];
                debug_assert_eq!(subject_from, pos);
                // Deduplicate *before* the connectivity probe: a
                // duplicate has the identical move set, so its Remark 1
                // verdict is identical too — testing it again would only
                // burn a probe.
                let duplicate = out
                    .iter()
                    .any(|p| p.subject_to == subject_to && same_move_set(&p.moves, &moves_buf));
                if duplicate {
                    continue;
                }
                if self.require_connectivity && !oracle.preserves_connectivity(grid, &moves_buf) {
                    continue;
                }
                out.push(PlannedMotion {
                    rule_id: compiled.id,
                    anchor,
                    moves: moves_buf.clone(),
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
                if self.require_connectivity {
                    let mut trial = grid.clone();
                    let connected =
                        trial.apply_simultaneous_moves(&moves).is_ok() && trial.is_connected();
                    if !connected {
                        continue;
                    }
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
    ) -> Vec<PlannedMotion> {
        let oracle = &mut *self.oracle.borrow_mut();
        self.motions_towards_with(grid, pos, target, oracle)
    }

    /// [`MotionPlanner::motions_towards`] probing Remark 1 through a
    /// caller-owned oracle (shared cut-vertex mask).
    pub fn motions_towards_with(
        &self,
        grid: &OccupancyGrid,
        pos: Pos,
        target: Pos,
        oracle: &mut ConnectivityOracle,
    ) -> Vec<PlannedMotion> {
        let mut motions: Vec<PlannedMotion> = self
            .motions_involving_with(grid, pos, oracle)
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

    /// Whether the block at `pos` can execute any motion at all,
    /// short-circuiting at the first admissible one.
    pub fn can_move(&self, grid: &OccupancyGrid, pos: Pos) -> bool {
        self.any_motion_matching(grid, pos, |_| true, |_| true, &mut |moves| {
            self.oracle.borrow_mut().preserves_connectivity(grid, moves)
        })
    }

    /// Whether the block at `pos` can execute a motion that brings it
    /// strictly closer to `target` (the Eq. (9) feasibility test as used
    /// by the election).  Stops at the first admissible motion and
    /// allocates nothing after warm-up.
    pub fn can_move_towards(&self, grid: &OccupancyGrid, pos: Pos, target: Pos) -> bool {
        self.any_motion_towards(grid, pos, target, |_| true)
    }

    /// [`MotionPlanner::can_move_towards`] with an extra caller-supplied
    /// admission filter over the motion's world moves (the election uses
    /// it to exclude motions that would displace a locked path block).
    pub fn any_motion_towards(
        &self,
        grid: &OccupancyGrid,
        pos: Pos,
        target: Pos,
        admit: impl FnMut(&[(Pos, Pos)]) -> bool,
    ) -> bool {
        let from_d = pos.manhattan(target);
        self.any_motion_matching(
            grid,
            pos,
            |subject_to| subject_to.manhattan(target) < from_d,
            admit,
            &mut |moves| {
                // Borrowed per probe, never across `pre`/`admit`, so
                // re-entrant planner calls from those closures stay legal.
                self.oracle.borrow_mut().preserves_connectivity(grid, moves)
            },
        )
    }

    /// [`MotionPlanner::any_motion_towards`] probing Remark 1 through a
    /// caller-owned oracle (shared cut-vertex mask).
    pub fn any_motion_towards_with(
        &self,
        grid: &OccupancyGrid,
        pos: Pos,
        target: Pos,
        admit: impl FnMut(&[(Pos, Pos)]) -> bool,
        oracle: &mut ConnectivityOracle,
    ) -> bool {
        let from_d = pos.manhattan(target);
        self.any_motion_matching(
            grid,
            pos,
            |subject_to| subject_to.manhattan(target) < from_d,
            admit,
            &mut |moves| oracle.preserves_connectivity(grid, moves),
        )
    }

    /// Short-circuiting core of the feasibility probes: true when any
    /// rule instantiation moving the block at `pos` passes `pre` (a cheap
    /// geometric test on the subject's destination, run before any window
    /// lift), the compiled mask match, the `preserves` connectivity probe
    /// (skipped when the planner does not require connectivity), and
    /// `admit` over the full move batch.  Deduplication is skipped — it
    /// cannot change emptiness.
    fn any_motion_matching(
        &self,
        grid: &OccupancyGrid,
        pos: Pos,
        mut pre: impl FnMut(Pos) -> bool,
        mut admit: impl FnMut(&[(Pos, Pos)]) -> bool,
        preserves: &mut PreservesProbe<'_>,
    ) -> bool {
        if !grid.is_occupied(pos) {
            return false;
        }
        // World moves go into a stack buffer; no planner RefCell is held
        // while `pre` or `admit` runs (the internal-oracle `preserves`
        // closure scopes its borrow to the probe), so a closure that
        // calls back into this planner cannot hit a re-entrant borrow.
        let mut buf = [(pos, pos); crate::compiled::MAX_MOVES_PER_RULE];
        for compiled in self.catalog.compiled() {
            for (idx, mv) in compiled.moves.iter().enumerate() {
                let subject_to = pos.offset(mv.to.0 - mv.from.0, mv.to.1 - mv.from.1);
                if !pre(subject_to) {
                    continue;
                }
                let anchor = pos.offset(-mv.from.0, -mv.from.1);
                if !compiled.applies_at(grid, anchor) {
                    continue;
                }
                for (slot, m) in buf.iter_mut().zip(compiled.moves.iter()) {
                    *slot = compiled.world_move(m, anchor);
                }
                let moves = &buf[..compiled.moves.len()];
                debug_assert_eq!(moves[idx].0, pos);
                if self.require_connectivity && !preserves(moves) {
                    continue;
                }
                if admit(moves) {
                    return true;
                }
            }
        }
        false
    }
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

    #[test]
    fn corner_block_can_slide_along_the_top() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        // The block at the north-east corner of the blob (3, 1) can slide
        // east (support south at (3,0) is absent -> actually the east
        // slide needs support at south of source and destination).  It can
        // however slide north? No support.  Check the reported motions are
        // all valid and keep connectivity.
        let motions = planner.motions_involving(cfg.grid(), sb_grid::Pos::new(3, 1));
        for m in &motions {
            assert!(m.preserves_connectivity(cfg.grid()));
            assert_eq!(m.subject_from, sb_grid::Pos::new(3, 1));
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
        let motions = planner.motions_involving(cfg.grid(), sb_grid::Pos::new(3, 1));
        assert!(
            motions
                .iter()
                .any(|m| m.subject_to == sb_grid::Pos::new(4, 1) && m.blocks_moved() == 2),
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
        let motions = planner.motions_involving(cfg.grid(), sb_grid::Pos::new(2, 0));
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
        let output = cfg.output(); // (0, 5)
        let pos = sb_grid::Pos::new(3, 1);
        for m in planner.motions_towards(cfg.grid(), pos, output) {
            assert!(m.progress_towards(output) > 0);
        }
        // Towards the far north-east corner instead: progress must be
        // towards that corner.
        let corner = sb_grid::Pos::new(5, 5);
        for m in planner.motions_towards(cfg.grid(), pos, corner) {
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
        let motions = planner.motions_involving(cfg.grid(), sb_grid::Pos::new(2, 0));
        for m in &motions {
            assert!(m.preserves_connectivity(cfg.grid()));
        }
        // Without the connectivity check more motions may appear.
        let free_planner = MotionPlanner::standard().without_connectivity_check();
        let free_motions = free_planner.motions_involving(cfg.grid(), sb_grid::Pos::new(2, 0));
        assert!(free_motions.len() >= motions.len());
    }

    #[test]
    fn empty_cell_has_no_motion() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        assert!(planner
            .motions_involving(cfg.grid(), sb_grid::Pos::new(5, 5))
            .is_empty());
        assert!(!planner.can_move(cfg.grid(), sb_grid::Pos::new(5, 5)));
    }

    #[test]
    fn can_move_towards_is_consistent_with_motions_towards() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        let output = cfg.output();
        for (_, pos) in cfg.grid().blocks() {
            assert_eq!(
                planner.can_move_towards(cfg.grid(), pos, output),
                !planner.motions_towards(cfg.grid(), pos, output).is_empty()
            );
        }
    }

    #[test]
    fn bitboard_matcher_agrees_with_the_naive_reference() {
        for planner in [
            MotionPlanner::standard(),
            MotionPlanner::standard().without_connectivity_check(),
        ] {
            let cfg = rectangle();
            for pos in cfg.grid().bounds().iter() {
                assert_eq!(
                    planner.motions_involving(cfg.grid(), pos),
                    planner.motions_involving_reference(cfg.grid(), pos),
                    "at {pos}"
                );
            }
        }
    }

    #[test]
    fn can_move_matches_motion_enumeration() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        for pos in cfg.grid().bounds().iter() {
            assert_eq!(
                planner.can_move(cfg.grid(), pos),
                !planner.motions_involving(cfg.grid(), pos).is_empty(),
                "at {pos}"
            );
        }
    }

    #[test]
    fn admission_filter_excludes_motions() {
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        let output = cfg.output();
        let pos = sb_grid::Pos::new(3, 1);
        assert!(planner.any_motion_towards(cfg.grid(), pos, output, |_| true));
        assert!(!planner.any_motion_towards(cfg.grid(), pos, output, |_| false));
        // Filtering out every motion touching the subject's own cell
        // excludes everything (the subject always moves).
        assert!(
            !planner.any_motion_towards(cfg.grid(), pos, output, |moves| {
                !moves.iter().any(|&(from, _)| from == pos)
            })
        );
    }

    #[test]
    fn admission_filter_may_reenter_the_planner() {
        // The admit closure runs with no scratch borrow held, so it can
        // legally consult the same planner (e.g. about a displaced
        // helper block) without a RefCell panic.
        let cfg = rectangle();
        let planner = MotionPlanner::standard();
        let output = cfg.output();
        let pos = sb_grid::Pos::new(3, 1);
        let ok = planner.any_motion_towards(cfg.grid(), pos, output, |moves| {
            moves
                .iter()
                .all(|&(from, _)| from == pos || planner.can_move(cfg.grid(), from))
        });
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
        let climber = sb_grid::Pos::new(2, 1);
        let output = cfg.output();
        let motions = planner.motions_towards(cfg.grid(), climber, output);
        assert!(
            motions
                .iter()
                .any(|m| m.subject_to == sb_grid::Pos::new(2, 2)),
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
        let climber = sb_grid::Pos::new(2, 2);
        let output = cfg.output();
        let standard = MotionPlanner::standard();
        let sliding_only = MotionPlanner::new(RuleCatalog::sliding_only());
        let with_carry = standard.motions_towards(cfg.grid(), climber, output);
        let without_carry = sliding_only.motions_towards(cfg.grid(), climber, output);
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
