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
//!
//! ## One lift per question
//!
//! [`MotionPlanner::new`] compiles every `(rule, move)` pair of the
//! catalogue, in catalogue order, into a candidate record relative to the
//! *subject* cell (the block the question is about): the rule's
//! `required_occupied` / `required_free` masks and its move destinations
//! moved into the [`FRAME`]×[`FRAME`] window centred on the subject, and
//! the subject's unit step as one of four direction bits.  A question
//! lifts that frame off the bitboard once, with one on-surface mask, and
//! tests each candidate with three word ops (step towards the target,
//! mask match, destinations on the surface) instead of lifting a rule
//! window per candidate.  Candidates that pass reach the oracle and the
//! admission filter exactly as the per-rule
//! [`CompiledRule::applies_at`] scan would send them: the same batches,
//! in catalogue order.

use crate::catalog::RuleCatalog;
use crate::compiled::{CompiledRule, RuleId, MAX_MOVES_PER_RULE};
use sb_grid::{Bounds, ConnectivityOracle, OccupancyGrid, Pos};
use std::fmt;

/// Side of the occupancy frame a planner question lifts, centred on the
/// subject cell with [`OccupancyGrid::window_mask`]'s layout (bit
/// `row * FRAME + col`, row 0 northernmost, column 0 westernmost).
pub const FRAME: usize = 7;

/// Chebyshev radius of the frame around its centre.
const FRAME_HALF: i32 = 3;

/// The subject cell's bit in the frame.
const FRAME_CENTRE: u64 = 1 << (FRAME * FRAME / 2);

/// Direction bits of a subject step: east, west, north, south.
const EAST: u8 = 1;
const WEST: u8 = 2;
const NORTH: u8 = 4;
const SOUTH: u8 = 8;
const ANY_STEP: u8 = EAST | WEST | NORTH | SOUTH;

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

/// One `(rule, move)` pair of the catalogue, compiled relative to the
/// subject cell the move starts from.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    /// Frame bits the rule reads: `required_occupied | required_free`.
    care: u64,
    /// Frame bits that must be occupied: `required_occupied`.
    occupied: u64,
    /// Frame bits of every move destination; each must be on the surface.
    dests: u64,
    /// Direction bit of the subject's step.
    step: u8,
    /// Index of the rule in the catalogue's compiled list.
    rule: usize,
    /// Index of the subject move in the rule's move list.
    subject: usize,
}

impl Candidate {
    /// Compiles move `subject` of `compiled` (the catalogue's rule number
    /// `rule`); panics when the rule's window, anchored so that this move
    /// starts at the frame centre, does not fit the frame.
    fn compile(compiled: &CompiledRule, rule: usize, subject: usize) -> Self {
        let from = compiled.moves[subject].from;
        let size = i32::try_from(compiled.size).expect("rule windows are at most 8 wide");
        let half = size / 2;
        assert!(
            from.0.abs().max(from.1.abs()) + half <= FRAME_HALF,
            "rule #{} moves a block {from:?} off the centre of its {size}x{size} window, \
             which does not fit the planner's {FRAME}x{FRAME} subject frame",
            compiled.id
        );
        // Rule window bit (r, c) is the cell (c - half, half - r) from the
        // anchor, and the anchor sits at -from from the subject: window row
        // r lands on frame row `top + r`, window column 0 on frame column
        // `west`.
        let top = usize::try_from(FRAME_HALF - half + from.1).expect("the window fits");
        let west = usize::try_from(FRAME_HALF - half - from.0).expect("the window fits");
        let side = compiled.size;
        let rebase = |mask: u64| {
            (0..side).fold(0u64, |frame, r| {
                let row = mask >> (r * side) & ((1 << side) - 1);
                frame | row << ((top + r) * FRAME + west)
            })
        };
        let dests = compiled.moves.iter().fold(0u64, |frame, m| {
            frame | frame_bit(m.to.0 - from.0, m.to.1 - from.1)
        });
        let to = compiled.moves[subject].to;
        let step = match (to.0 - from.0, to.1 - from.1) {
            (1, 0) => EAST,
            (-1, 0) => WEST,
            (0, 1) => NORTH,
            (0, -1) => SOUTH,
            other => panic!("rule #{} steps its block by {other:?}", compiled.id),
        };
        Candidate {
            care: rebase(compiled.required_occupied | compiled.required_free),
            occupied: rebase(compiled.required_occupied),
            dests,
            step,
            rule,
            subject,
        }
    }

    /// Whether the rule applies with this move's block at the frame
    /// centre: the masks match `frame`, and no destination falls in
    /// `off_surface` (an off-surface cell reads as free in the frame).
    #[inline]
    fn matches(&self, frame: u64, off_surface: u64) -> bool {
        frame & self.care == self.occupied && self.dests & off_surface == 0
    }
}

/// The frame bit of the cell `(dx, dy)` from the centre, which must lie
/// inside the frame.
fn frame_bit(dx: i32, dy: i32) -> u64 {
    let row = usize::try_from(FRAME_HALF - dy).expect("cell north of the frame");
    let col = usize::try_from(FRAME_HALF + dx).expect("cell west of the frame");
    assert!(row < FRAME && col < FRAME, "cell outside the frame");
    1 << (row * FRAME + col)
}

/// The frame's first bit of each row.
const ROW_STARTS: u64 = {
    let mut bits = 0;
    let mut row = 0;
    while row < FRAME {
        bits |= 1 << (row * FRAME);
        row += 1;
    }
    bits
};

/// The frame bits of the cells off the surface, for the frame centred on
/// `pos`.
#[inline]
fn off_surface(bounds: Bounds, pos: Pos) -> u64 {
    // Bits `unit * lo .. unit * hi` of a word, `lo` and `hi` clamped to
    // the frame's side.
    let run = |lo: i64, hi: i64, unit: i64| -> u64 {
        let side = FRAME as i64;
        let (lo, hi) = (lo.clamp(0, side) * unit, hi.clamp(0, side) * unit);
        ((1u64 << hi) - 1) & !((1u64 << lo) - 1)
    };
    // Column c is x = pos.x - 3 + c; row r is y = pos.y + 3 - r.
    let west = i64::from(pos.x) - i64::from(FRAME_HALF);
    let north = i64::from(pos.y) + i64::from(FRAME_HALF);
    let cols = run(-west, i64::from(bounds.width) - west, 1);
    let rows = run(
        north - i64::from(bounds.height) + 1,
        north + 1,
        FRAME as i64,
    );
    // Repeat the on-surface column run on the first bit of every
    // on-surface row: the runs are 7 bits wide, so nothing carries.
    !(cols * (rows & ROW_STARTS))
}

/// The subject's step directions that end strictly closer to `target`.
#[inline]
fn towards(pos: Pos, target: Pos) -> u8 {
    let mut dirs = 0;
    if target.x > pos.x {
        dirs |= EAST;
    }
    if target.x < pos.x {
        dirs |= WEST;
    }
    if target.y > pos.y {
        dirs |= NORTH;
    }
    if target.y < pos.y {
        dirs |= SOUTH;
    }
    dirs
}

/// Planner over a rule catalogue.
///
/// The planner holds its catalogue and the catalogue's candidate table
/// (see the module docs); neither changes after construction.  The
/// Remark 1 filter probes the caller's [`ConnectivityOracle`], so one
/// oracle (e.g. `sb-core`'s `SurfaceWorld`'s) serves every query against
/// the same world state.  World moves are materialised in a stack
/// buffer: the Eq. (9) probe [`MotionPlanner::any_motion_towards`]
/// short-circuits at the first admissible motion and performs **zero
/// heap allocations after the oracle's warm-up**.
#[derive(Clone, Debug)]
pub struct MotionPlanner {
    catalog: RuleCatalog,
    candidates: Vec<Candidate>,
}

impl MotionPlanner {
    /// Creates a planner over `catalog`, compiling its candidate table.
    ///
    /// # Panics
    ///
    /// If a rule's window, anchored so that one of its moves starts at
    /// the window centre, does not fit the [`FRAME`]×[`FRAME`] subject
    /// frame: `max(|from.x|, |from.y|) + size / 2 > 3` for some move.
    /// This is the only limit on a world's catalogue: `SurfaceWorld::new`
    /// (in `sb-core`) builds its planner here and checks nothing more.
    pub fn new(catalog: RuleCatalog) -> Self {
        let candidates = catalog
            .compiled()
            .iter()
            .enumerate()
            .flat_map(|(rule, compiled)| {
                (0..compiled.moves.len()).map(move |m| Candidate::compile(compiled, rule, m))
            })
            .collect();
        MotionPlanner {
            catalog,
            candidates,
        }
    }

    /// Creates a planner with the standard catalogue.
    pub fn standard() -> Self {
        MotionPlanner::new(RuleCatalog::standard())
    }

    /// The underlying catalogue.
    pub fn catalog(&self) -> &RuleCatalog {
        &self.catalog
    }

    /// The candidates whose step lies in `steps` and that apply to the
    /// block at the centre of `frame` (lifted at `pos`), in catalogue
    /// order, each with its rule.
    fn applicable<'a>(
        &'a self,
        grid: &OccupancyGrid,
        pos: Pos,
        frame: u64,
        steps: u8,
    ) -> impl Iterator<Item = (&'a Candidate, &'a CompiledRule)> + 'a {
        let off = off_surface(grid.bounds(), pos);
        let compiled = self.catalog.compiled();
        self.candidates
            .iter()
            .filter(move |c| c.step & steps != 0 && c.matches(frame, off))
            .map(move |c| (c, &compiled[c.rule]))
    }

    /// All connectivity-preserving motions in which the block at `pos` is
    /// one of the moving blocks.  Duplicate motions (identical move sets
    /// produced by different rules) are reported once.
    ///
    /// One frame lift, then per candidate in catalogue order: mask match,
    /// then deduplication, then the `oracle` probe — a duplicate has the
    /// identical move set, so its Remark 1 verdict is identical too and
    /// probing it again would only burn a probe.
    pub fn motions_involving(
        &self,
        grid: &OccupancyGrid,
        pos: Pos,
        oracle: &mut ConnectivityOracle,
    ) -> Vec<PlannedMotion> {
        let mut out: Vec<PlannedMotion> = Vec::new();
        let frame = grid.window_mask(pos, FRAME);
        if frame & FRAME_CENTRE == 0 {
            return out;
        }
        let mut buf = [(pos, pos); MAX_MOVES_PER_RULE];
        for (candidate, compiled) in self.applicable(grid, pos, frame, ANY_STEP) {
            let anchor = anchor_of(compiled, candidate, pos);
            let moves = world_moves(compiled, anchor, &mut buf);
            let (subject_from, subject_to) = moves[candidate.subject];
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
    /// One [`FRAME`]×[`FRAME`] window lift per question, then per
    /// candidate in catalogue order: the subject's step must end closer
    /// to `target`, the masks must match, the `oracle` must admit the
    /// batch, then `admit` must.  The oracle and `admit` see the same
    /// batches, in the same order, as a scan of
    /// [`CompiledRule::applies_at`] over every `(rule, move)` would send
    /// them.  Stops at the first admissible motion; deduplication is
    /// skipped, as it cannot change emptiness.
    pub fn any_motion_towards(
        &self,
        grid: &OccupancyGrid,
        pos: Pos,
        target: Pos,
        mut admit: impl FnMut(&[(Pos, Pos)]) -> bool,
        oracle: &mut ConnectivityOracle,
    ) -> bool {
        let frame = grid.window_mask(pos, FRAME);
        if frame & FRAME_CENTRE == 0 {
            return false;
        }
        let mut buf = [(pos, pos); MAX_MOVES_PER_RULE];
        for (candidate, compiled) in self.applicable(grid, pos, frame, towards(pos, target)) {
            let moves = world_moves(compiled, anchor_of(compiled, candidate, pos), &mut buf);
            debug_assert_eq!(moves[candidate.subject].0, pos);
            if oracle.preserves_connectivity(grid, moves) && admit(moves) {
                return true;
            }
        }
        false
    }
}

/// The anchor at which `candidate`'s rule moves the block at `pos`.
#[inline]
fn anchor_of(compiled: &CompiledRule, candidate: &Candidate, pos: Pos) -> Pos {
    let from = compiled.moves[candidate.subject].from;
    pos.offset(-from.0, -from.1)
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

    #[test]
    #[should_panic(expected = "subject frame")]
    fn a_rule_wider_than_the_frame_is_rejected() {
        use crate::{ElementaryMove, MatrixCoord, MotionMatrix, MotionRule};
        // A 7×7 rule sliding the block north of its centre east: the window,
        // anchored with that block at the frame centre, reaches 1 + 3 = 4
        // cells north of it.
        let mut codes = [2u8; 49];
        codes[2 * 7 + 3] = 4;
        codes[2 * 7 + 4] = 3;
        let rule = MotionRule::new(
            "wide_east",
            MotionMatrix::from_codes(7, &codes).unwrap(),
            vec![ElementaryMove::new(
                MatrixCoord::new(3, 2),
                MatrixCoord::new(4, 2),
            )],
        )
        .unwrap();
        MotionPlanner::new(RuleCatalog::from_rules([rule]));
    }
}
