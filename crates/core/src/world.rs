//! The shared surface world.
//!
//! The world is the "physics" every runtime shares: the occupancy grid,
//! the motion-rule engine, the metric counters and the move log.  Block
//! codes never inspect it globally — they only call the narrow,
//! locally-scoped queries a physical block could answer with its own
//! sensors (its position, its lateral neighbours, its own admissible
//! motions) — plus the one world mutation a block can cause: executing a
//! motion it participates in.
//!
//! The getters the runtime harness and the election read on every
//! message (module/block mapping, position, neighbours, output, metrics)
//! carry `#[inline]`: a release build splits crates and modules into
//! separate codegen units, and their callers live in other modules.

use crate::messages::Distance;
use crate::metrics::Metrics;
use sb_grid::articulation::net_effect;
use sb_grid::graph::OrientedGraph;
use sb_grid::{
    ring_certificate, BlockId, ConnectivityOracle, GridError, OccupancyGrid, Pos, SurfaceConfig,
};
use sb_motion::{MotionPlanner, PlannedMotion, RuleCatalog, RuleId};
use std::fmt;

/// Which motion feasibility model the world enforces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MotionModel {
    /// The Smart Blocks model of this paper: a block only moves through a
    /// validated motion rule (support blocks, possible carrying), and no
    /// move may disconnect the ensemble (Remark 1).
    RuleBased,
    /// The model of the earlier work \[14\] (Tembo & El-Baz 2013): blocks
    /// move freely on the surface without support from other blocks, and
    /// the elected block travels directly towards the output instead of
    /// performing a single hop.  Communication does not require lateral
    /// contact either (in \[12\]–\[14\] the blocks sit on a smart surface
    /// that provides the communication substrate), so the election reaches
    /// every block regardless of the current geometry.  Used as the
    /// comparison baseline.
    FreeMotion,
}

/// Outcome recorded by the Root when Algorithm 1 stops.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// A block reached the output (and, depending on the termination
    /// policy, the path is complete).
    Completed,
    /// No candidate block could move towards the output anymore while the
    /// goal was not reached.
    Stalled,
}

/// The capability that produced a recorded motion.
///
/// The hot path stores the interned [`RuleId`] (two bytes, `Copy`)
/// instead of cloning the rule's display name per executed motion; the
/// name is resolved through the catalogue only when rendering
/// ([`SurfaceWorld::rule_name_of`],
/// [`crate::driver::ReconfigurationReport::rule_name`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveRule {
    /// An interned rule of the world's catalogue.
    Catalog(RuleId),
    /// The free-motion pseudo-rule of the \[14\] baseline (rendered as
    /// `"free"`).
    Free,
}

/// One executed motion (possibly moving several blocks simultaneously).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MoveRecord {
    /// Iteration (election) during which the motion was executed.
    pub iteration: u32,
    /// The capability that produced the motion.
    pub rule: MoveRule,
    /// The blocks that moved, with their source and destination cells.
    pub moves: Vec<(BlockId, Pos, Pos)>,
}

impl MoveRecord {
    /// Replays this motion on `grid`, as the world executed it: a
    /// catalogue rule's moves at once, a free-motion journey step by
    /// step.  Replaying a move log in order over the initial
    /// configuration reproduces every intermediate occupancy
    /// ([`crate::analysis::frames`]).
    pub fn apply_to(&self, grid: &mut OccupancyGrid) -> Result<(), GridError> {
        let moves: Vec<(Pos, Pos)> = self.moves.iter().map(|&(_, from, to)| (from, to)).collect();
        apply_motion(grid, self.rule, &moves)
    }
}

/// Applies one motion's `(from, to)` cells to `grid`: a catalogue rule's
/// moves simultaneously, a free-motion journey one step after the other.
fn apply_motion(
    grid: &mut OccupancyGrid,
    rule: MoveRule,
    moves: &[(Pos, Pos)],
) -> Result<(), GridError> {
    match rule {
        MoveRule::Catalog(_) => grid.apply_simultaneous_moves(moves).map(drop),
        MoveRule::Free => moves
            .iter()
            .try_for_each(|&(from, to)| grid.move_block(from, to).map(drop)),
    }
}

/// Result of asking the world to perform the elected block's hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopResult {
    /// Whether a motion was executed at all.
    pub moved: bool,
    /// Whether the elected block now occupies the output cell.
    pub reached_output: bool,
}

/// The shared world.
pub struct SurfaceWorld {
    config: SurfaceConfig,
    planner: MotionPlanner,
    motion_model: MotionModel,
    metrics: Metrics,
    move_log: Vec<MoveRecord>,
    /// Module index per block id (dense: slot `id.as_u32()`): block ids
    /// are small and dense, so a flat vector beats a hash map on the
    /// per-message lookup path and iterates deterministically.
    module_of: Vec<Option<usize>>,
    block_of: Vec<BlockId>,
    outcome: Option<Outcome>,
    /// Cut-vertex connectivity oracle serving every Remark 1 probe of the
    /// election (Eq. 9 feasibility and hop enumeration); it tracks grid
    /// epochs internally.
    oracle: ConnectivityOracle,
    /// Whether the occupancy holds a complete occupied shortest path,
    /// evaluated at construction and after every hop that changes the
    /// occupancy of `G` (the only cells a path can use), so the Root's
    /// ask after every election allocates nothing.
    path_complete: bool,
    /// Each block's last Eq. (9) verdict (slot `id.as_u32()`); see
    /// [`SurfaceWorld::distance_to_output`].  Sized at construction
    /// (empty under free motion), so the election never allocates here.
    eq9_memo: Vec<Option<Eq9Memo>>,
    /// The catalogue's [`eq9_radius`]: a hop empties the slots of the
    /// blocks this close to the cells it moves.
    eq9_radius: i32,
    /// Advanced by every hop that is not one relocation certified at
    /// both ends; a slot stored under an older generation is stale.
    eq9_generation: u64,
}

/// One block's memoised Eq. (9) verdict and the memo generation it was
/// stored in.
#[derive(Clone, Copy, Debug)]
struct Eq9Memo {
    generation: u64,
    verdict: bool,
}

/// Chebyshev radius around a block beyond which a hop cannot change the
/// block's Eq. (9) verdict: `max |move.from| + size / 2 + 1` over the
/// catalogue's rules.
///
/// A candidate rule is anchored within `|move.from|` of the block, so its
/// window, and every cell its probe moves, lies within `r − 1 =
/// |move.from| + size / 2`.  The locking policy and the surface bounds
/// are static, so the verdict is a function of the occupancy.  A hop
/// whose cells all lie farther than `r` from the block changes no cell
/// the question reads, and the 8-rings of its net vacated and filled
/// cells miss every cell a probe moves.  If the hop is one relocation
/// certified at both ends by [`ring_certificate`], every probe's
/// connectivity verdict is therefore unchanged (the "certified
/// relocations" section of [`sb_grid::articulation`]).  The shipped 3×3
/// catalogues give 3 when they carry (a carrying move starts one cell off
/// the centre) and 2 for `RuleCatalog::sliding_only`.
fn eq9_radius(catalog: &RuleCatalog) -> usize {
    catalog
        .compiled()
        .iter()
        .flat_map(|rule| {
            rule.moves.iter().map(move |m| {
                let from = m.from.0.unsigned_abs().max(m.from.1.unsigned_abs()) as usize;
                from + rule.size / 2 + 1
            })
        })
        .max()
        .unwrap_or(0)
}

impl SurfaceWorld {
    /// Creates a world around a problem instance with the given rule
    /// catalogue and motion model.
    pub fn new(config: SurfaceConfig, catalog: RuleCatalog, motion_model: MotionModel) -> Self {
        let path_complete = config.graph().occupied_shortest_path_exists(config.grid());
        let radius = eq9_radius(&catalog);
        let memo_slots = match motion_model {
            MotionModel::RuleBased => config
                .grid()
                .blocks()
                .map(|(id, _)| id.as_u32() as usize + 1)
                .max()
                .unwrap_or(0),
            MotionModel::FreeMotion => 0,
        };
        SurfaceWorld {
            config,
            planner: MotionPlanner::new(catalog),
            motion_model,
            metrics: Metrics::default(),
            move_log: Vec::new(),
            module_of: Vec::new(),
            block_of: Vec::new(),
            outcome: None,
            oracle: ConnectivityOracle::new(),
            path_complete,
            eq9_memo: vec![None; memo_slots],
            eq9_radius: i32::try_from(radius).expect("the planner bounds every rule's reach"),
            eq9_generation: 0,
        }
    }

    /// Creates a world with the standard catalogue and rule-based motion.
    pub fn standard(config: SurfaceConfig) -> Self {
        SurfaceWorld::new(config, RuleCatalog::standard(), MotionModel::RuleBased)
    }

    // ----- identity / mapping ------------------------------------------------

    /// Declares the module ↔ block mapping used by the runtimes: module
    /// index `i` runs the block code of `blocks[i]`.
    pub fn set_module_mapping(&mut self, blocks: Vec<BlockId>) {
        let slots = blocks
            .iter()
            .map(|b| b.as_u32() as usize + 1)
            .max()
            .unwrap_or(0);
        self.module_of = vec![None; slots];
        for (i, &b) in blocks.iter().enumerate() {
            self.module_of[b.as_u32() as usize] = Some(i);
        }
        self.block_of = blocks;
    }

    /// Module index hosting a block.
    #[inline]
    pub fn module_index_of(&self, block: BlockId) -> Option<usize> {
        self.module_of
            .get(block.as_u32() as usize)
            .copied()
            .flatten()
    }

    /// Block hosted by a module index.
    #[inline]
    pub fn block_of_module(&self, index: usize) -> Option<BlockId> {
        self.block_of.get(index).copied()
    }

    // ----- read-only geometry -------------------------------------------------

    /// The problem instance.
    pub fn config(&self) -> &SurfaceConfig {
        &self.config
    }

    /// The occupancy grid.
    #[inline]
    pub fn grid(&self) -> &OccupancyGrid {
        self.config.grid()
    }

    /// The input cell `I`.
    #[inline]
    pub fn input(&self) -> Pos {
        self.config.input()
    }

    /// The output cell `O`.
    #[inline]
    pub fn output(&self) -> Pos {
        self.config.output()
    }

    /// The Root: the block currently occupying the input cell.
    pub fn root_block(&self) -> Option<BlockId> {
        self.config.root()
    }

    /// The current position of a block.
    #[inline]
    pub fn position_of(&self, block: BlockId) -> Option<Pos> {
        self.grid().position_of(block)
    }

    /// The blocks `block` can exchange messages with.
    ///
    /// Under the rule-based model these are the laterally adjacent blocks
    /// (communication ports sit on the four sides of a block).  Under the
    /// free-motion baseline the communication substrate is the smart
    /// surface itself, so every other block is reachable.
    pub fn neighbors_of(&self, block: BlockId) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.neighbors_into(block, &mut out);
        out
    }

    /// Fills `out` with the blocks `block` can exchange messages with
    /// (see [`SurfaceWorld::neighbors_of`]), reusing the buffer's
    /// capacity — the allocation-free variant the election hot path uses.
    #[inline]
    pub fn neighbors_into(&self, block: BlockId, out: &mut Vec<BlockId>) {
        out.clear();
        match self.motion_model {
            MotionModel::RuleBased => {
                if let Some(pos) = self.position_of(block) {
                    // Same Direction::ALL probe order as
                    // `OccupancyGrid::occupied_neighbors`, without
                    // materialising the `(Direction, BlockId)` pairs.
                    for &d in sb_grid::Direction::ALL.iter() {
                        if let Some(id) = self.grid().block_at(pos.step(d)) {
                            out.push(id);
                        }
                    }
                }
            }
            MotionModel::FreeMotion => {
                out.extend(
                    self.grid()
                        .blocks()
                        .map(|(id, _)| id)
                        .filter(|&id| id != block),
                );
                out.sort();
            }
        }
    }

    /// The motion planner (exposed for analysis tools and benches).
    pub fn planner(&self) -> &MotionPlanner {
        &self.planner
    }

    // ----- election-side queries ---------------------------------------------

    /// Computes the distance `d_BO` of a block to the output, implementing
    /// Eqs. (8)–(10) of the paper:
    ///
    /// * `+∞` when the block is on the output's row or column *inside the
    ///   oriented graph `G`* (Eq. 8) — it has "already joined a position on
    ///   this row or column" of the path being built and "must continue to
    ///   be occupied by a block till the end of the distributed iterative
    ///   process".  The literal text of Eq. 8 freezes any block aligned
    ///   with `O`; restricting it to the rectangle bounded by `I` and `O`
    ///   matches the stated intent (blocks that joined the straight part
    ///   of the path) without also freezing helper blocks that merely pass
    ///   by `O`'s row outside the path, which would make some instances
    ///   unsolvable.
    /// * `+∞` when the block occupies the input cell `I` (the Root must
    ///   keep `I` occupied: positions of the path stay occupied, step b of
    ///   the proof of Lemma 1);
    /// * `+∞` when no admissible move towards `O` exists for the block
    ///   (Eq. 9);
    /// * the Manhattan distance `|O_i − B_i| + |O_j − B_j|` otherwise
    ///   (Eq. 10).
    ///
    /// Every call counts one distance computation (Remark 2) and every
    /// Eq. (9) question one rule check, however it is answered.  Under
    /// the rule-based model the Eq. (9) verdict is served from the
    /// block's memo slot when the slot was stored in the current memo
    /// generation; such a hit counts in `eq9_memo_hits`, lifts no window
    /// and asks neither the planner nor the oracle.  A miss asks the
    /// planner and stores its verdict.  The verdict is a function of the
    /// occupancy, and [`SurfaceWorld::hop_towards_output`], the world's
    /// only occupancy change, keeps every stored one true.  It empties
    /// the slot of every block within the catalogue's Eq. (9) radius `r`
    /// of the cells it moves (`r` is the largest
    /// `|move.from| + size / 2 + 1`, 3 for the standard rules).  It also
    /// starts a new generation unless its net effect is one relocation
    /// that [`ring_certificate`] certifies at both ends, which changes no
    /// verdict farther away.
    pub fn distance_to_output(&mut self, block: BlockId) -> Distance {
        self.metrics.distance_computations += 1;
        let pos = match self.position_of(block) {
            Some(p) => p,
            None => return Distance::INFINITE,
        };
        let output = self.output();
        let graph = self.config.graph();
        if (pos.x == output.x || pos.y == output.y) && graph.contains(pos) {
            return Distance::INFINITE;
        }
        if pos == self.input() {
            return Distance::INFINITE;
        }
        if !self.eq9_verdict(block, pos) {
            return Distance::INFINITE;
        }
        Distance::finite(pos.manhattan(output))
    }

    /// The Eq. (9) verdict for `block` at `pos`, through the block's memo
    /// entry (see [`SurfaceWorld::distance_to_output`]).
    fn eq9_verdict(&mut self, block: BlockId, pos: Pos) -> bool {
        let slot = block.as_u32() as usize;
        if slot >= self.eq9_memo.len() {
            return self.can_hop_towards_output(pos);
        }
        let generation = self.eq9_generation;
        if let Some(memo) = self.eq9_memo[slot].filter(|m| m.generation == generation) {
            self.metrics.rule_checks += 1;
            self.metrics.eq9_memo_hits += 1;
            return memo.verdict;
        }
        let verdict = self.can_hop_towards_output(pos);
        self.eq9_memo[slot] = Some(Eq9Memo {
            generation,
            verdict,
        });
        verdict
    }

    /// Whether the cell is *locked*: it belongs to the straight part of the
    /// path being built (aligned with the output inside the oriented graph
    /// `G`) or it is the input cell.  Step b of the proof of Lemma 1
    /// requires such positions to "remain occupied all along the
    /// distributed application"; the implementation enforces the stronger
    /// (and livelock-free) policy that the blocks occupying them do not
    /// move at all — not even as helpers of a carrying motion, which would
    /// otherwise let two blocks swap through a path cell forever without
    /// making progress.
    pub fn is_locked(&self, pos: Pos) -> bool {
        locked_cell(pos, self.input(), self.output(), &self.config.graph())
    }

    /// The admissible motions for the block at `pos` towards the output,
    /// already filtered by the locking policy and ordered by the driver's
    /// preference: motions whose subject enters a path cell first, then
    /// fewest blocks moved, then destinations closest to the output's
    /// column/row.
    fn admissible_motions_towards_output(&mut self, pos: Pos) -> Vec<PlannedMotion> {
        self.metrics.rule_checks += 1;
        let output = self.output();
        let mut motions: Vec<PlannedMotion> = self
            .planner
            .motions_towards(self.config.grid(), pos, output, &mut self.oracle)
            .into_iter()
            .filter(|m| m.moves.iter().all(|&(from, _)| !self.is_locked(from)))
            .collect();
        motions.sort_by_key(|m| {
            let enters_path = self.is_locked(m.subject_to);
            (
                !enters_path,
                m.blocks_moved(),
                m.subject_to.x.abs_diff(output.x) + m.subject_to.y.abs_diff(output.y),
                m.subject_to,
            )
        });
        motions
    }

    /// The admissible free-motion destinations for the block at `pos`
    /// towards the output: any free adjacent cell strictly closer to `O`
    /// (the \[14\] model needs neither support blocks nor connectivity).
    fn free_motion_destinations(&mut self, pos: Pos) -> Vec<Pos> {
        self.metrics.rule_checks += 1;
        let output = self.output();
        let mut dirs = pos.directions_towards(output);
        // Prefer the direction that aligns the block with the output
        // first (smallest cross-axis distance), so the path fills from its
        // input end upwards instead of blocks overshooting and walling off
        // the cells below them.
        dirs.sort_by_key(|d| {
            let next = pos.step(*d);
            (
                next.x.abs_diff(output.x).min(next.y.abs_diff(output.y)),
                next,
            )
        });
        dirs.into_iter()
            .map(|d| pos.step(d))
            .filter(|&next| self.config.grid().is_free(next))
            .collect()
    }

    /// The Eq. (9) feasibility probe behind [`SurfaceWorld::distance_to_output`].
    ///
    /// Under the rule-based model this asks the planner's Eq. (9) probe,
    /// which stops at the first admissible motion — no `PlannedMotion`
    /// materialised, no sorting, no heap allocation after warm-up —
    /// rather than enumerating every admissible motion only to test the
    /// list for emptiness.  The locking policy is passed
    /// down as the admission filter, so the answer is exactly
    /// `!admissible_motions_towards_output(pos).is_empty()`.
    fn can_hop_towards_output(&mut self, pos: Pos) -> bool {
        match self.motion_model {
            MotionModel::RuleBased => {
                self.metrics.rule_checks += 1;
                let input = self.config.input();
                let output = self.config.output();
                let graph = self.config.graph();
                self.planner.any_motion_towards(
                    self.config.grid(),
                    pos,
                    output,
                    |moves| {
                        moves
                            .iter()
                            .all(|&(from, _)| !locked_cell(from, input, output, &graph))
                    },
                    &mut self.oracle,
                )
            }
            MotionModel::FreeMotion => !self.free_motion_destinations(pos).is_empty(),
        }
    }

    // ----- motion execution ---------------------------------------------------

    /// Executes the elected block's motion towards the output and records
    /// metrics and the move log.
    ///
    /// * Under the rule-based model this is a single one-cell hop (possibly
    ///   a carrying motion displacing a helper block as well), chosen
    ///   deterministically among the admissible motions.
    /// * Under the free-motion baseline the elected block travels directly
    ///   towards the output, cell by cell, until it reaches a cell of the
    ///   path (aligned with `O` inside the oriented graph) or can no longer
    ///   progress — the behaviour of the elected block in \[14\].  Every
    ///   traversed cell counts as one elementary move.
    pub fn hop_towards_output(&mut self, block: BlockId, iteration: u32) -> HopResult {
        let pos = match self.position_of(block) {
            Some(p) => p,
            None => {
                return HopResult {
                    moved: false,
                    reached_output: false,
                }
            }
        };
        let executed: Option<(MoveRule, Vec<(Pos, Pos)>)> = match self.motion_model {
            MotionModel::RuleBased => self
                .admissible_motions_towards_output(pos)
                .first()
                .map(|m: &PlannedMotion| (MoveRule::Catalog(m.rule_id), m.moves.clone())),
            MotionModel::FreeMotion => {
                // Walk towards the output until aligned (locked cell) or
                // blocked; `apply_motion` applies each step as its own
                // elementary move, in order.
                let mut steps = Vec::new();
                let mut cur = pos;
                while let Some(next) = self.free_motion_destinations(cur).first().copied() {
                    steps.push((cur, next));
                    cur = next;
                    if self.is_locked(cur) || cur == self.output() {
                        break;
                    }
                }
                if steps.is_empty() {
                    None
                } else {
                    Some((MoveRule::Free, steps))
                }
            }
        };

        let (rule, moves) = match executed {
            Some(x) => x,
            None => {
                return HopResult {
                    moved: false,
                    reached_output: false,
                }
            }
        };

        let records: Vec<(BlockId, Pos, Pos)> = moves
            .iter()
            .map(|&(from, to)| {
                let id = self.config.grid().block_at(from).unwrap_or(block);
                (id, from, to)
            })
            .collect();
        // Free motion keeps no Eq. (9) memo: its hops only advance the
        // generation.
        let certified = rule != MoveRule::Free && certified_relocation(self.config.grid(), &moves);
        apply_motion(self.config.grid_mut(), rule, &moves)
            .expect("planned motion must be executable");
        self.forget_eq9_verdicts(&moves, certified);
        // The mutations above advanced the grid's epoch, which the oracle
        // keys on.
        self.recheck_path(&moves);
        self.metrics.elementary_moves += moves.len() as u64;
        self.metrics.elected_hops += 1;
        self.move_log.push(MoveRecord {
            iteration,
            rule,
            moves: records,
        });
        let new_pos = self.position_of(block).expect("block still on surface");
        HopResult {
            moved: true,
            reached_output: new_pos == self.output(),
        }
    }

    /// Keeps the Eq. (9) memo true after a hop applied `moves` (see
    /// [`SurfaceWorld::distance_to_output`]): starts a new generation
    /// unless the hop was one relocation certified at both ends, and
    /// otherwise empties the slot of every block within [`eq9_radius`]
    /// of the moved cells' bounding box.
    fn forget_eq9_verdicts(&mut self, moves: &[(Pos, Pos)], certified: bool) {
        if !certified {
            self.eq9_generation += 1;
            return;
        }
        let (mut lo, mut hi) = (moves[0].0, moves[0].0);
        for p in moves.iter().flat_map(|&(from, to)| [from, to]) {
            lo = Pos::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Pos::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let r = self.eq9_radius;
        for y in lo.y - r..=hi.y + r {
            for x in lo.x - r..=hi.x + r {
                if let Some(id) = self.config.grid().block_at(Pos::new(x, y)) {
                    self.eq9_memo[id.as_u32() as usize] = None;
                }
            }
        }
    }

    /// Re-evaluates `path_complete` after `moves` were applied.  A
    /// complete path runs inside `G`, so only a motion that vacates or
    /// fills a cell of `G` can change whether one exists.
    fn recheck_path(&mut self, moves: &[(Pos, Pos)]) {
        let graph = self.config.graph();
        if moves
            .iter()
            .any(|&(from, to)| graph.contains(from) || graph.contains(to))
        {
            self.path_complete = graph.occupied_shortest_path_exists(self.config.grid());
        }
    }

    // ----- global observations (driver / Root side) ---------------------------

    /// Whether the output cell is occupied.
    pub fn output_occupied(&self) -> bool {
        self.grid().is_occupied(self.output())
    }

    /// Whether a complete shortest path of blocks connects `I` to `O`
    /// inside `G`.
    pub fn path_complete(&self) -> bool {
        self.path_complete
    }

    /// The occupied shortest path, if complete.
    pub fn completed_path(&self) -> Option<Vec<Pos>> {
        self.config
            .graph()
            .occupied_shortest_path(self.config.grid())
    }

    /// Records the final outcome (set by the Root's block code).
    pub fn set_outcome(&mut self, outcome: Outcome) {
        self.outcome = Some(outcome);
    }

    /// The recorded outcome, if the algorithm finished.
    #[inline]
    pub fn outcome(&self) -> Option<Outcome> {
        self.outcome
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A copy of the accumulated metrics with the connectivity oracle's
    /// lifetime counters folded in — the rebuild and incremental-update
    /// counts and the number of Remark 1 probes that had to leave the
    /// O(1) block-cut-tree path for the scratch BFS.  The oracle keeps
    /// its own counters, so reporting snapshots them on demand.
    pub fn metrics_with_connectivity(&self) -> Metrics {
        let mut metrics = self.metrics;
        metrics.connectivity_rebuilds = self.oracle.rebuilds();
        metrics.connectivity_fallback_probes = self.oracle.fallback_probes();
        metrics.connectivity_incremental_updates = self.oracle.incremental_updates();
        metrics
    }

    /// Mutable access to the metrics (used by the runtimes to count
    /// messages).
    #[inline]
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The executed motions in order.
    pub fn move_log(&self) -> &[MoveRecord] {
        &self.move_log
    }

    /// Consumes the world and returns its move log.
    pub fn into_move_log(self) -> Vec<MoveRecord> {
        self.move_log
    }

    /// The display name of a recorded motion's rule, resolved through the
    /// world's catalogue (records store the interned [`RuleId`] only).
    pub fn rule_name_of(&self, record: &MoveRecord) -> &str {
        match record.rule {
            MoveRule::Catalog(id) => self.planner.catalog().name_of(id),
            MoveRule::Free => "free",
        }
    }

    /// ASCII rendering of the current occupancy.
    pub fn ascii(&self) -> String {
        self.config.to_ascii()
    }

    /// ASCII rendering with block identifiers.
    pub fn ascii_with_ids(&self) -> String {
        sb_grid::render::render_with_ids(self.grid(), self.input(), self.output())
    }
}

/// The locking policy of [`SurfaceWorld::is_locked`] as a free function,
/// so the planner's admission closure can use it without borrowing the
/// whole world.
fn locked_cell(pos: Pos, input: Pos, output: Pos, graph: &OrientedGraph) -> bool {
    if pos == input {
        return true;
    }
    (pos.x == output.x || pos.y == output.y) && graph.contains(pos)
}

/// Whether the net effect of the simultaneous `moves` on `grid` is one
/// relocation `f → t` with [`ring_certificate`] holding for `f` on the
/// board before it and for `t` on the board after it: a relocation that
/// merges and splits nothing.
fn certified_relocation(grid: &OccupancyGrid, moves: &[(Pos, Pos)]) -> bool {
    let (mut vacated, mut filled) = net_effect(moves);
    match (vacated.next(), filled.next(), vacated.next(), filled.next()) {
        (Some(f), Some(t), None, None) => {
            ring_certificate(&|p: Pos| grid.is_occupied(p), f)
                && ring_certificate(&|p: Pos| p == t || (p != f && grid.is_occupied(p)), t)
        }
        _ => false,
    }
}

impl fmt::Debug for SurfaceWorld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SurfaceWorld({} blocks, I={}, O={}, {:?})",
            self.grid().block_count(),
            self.input(),
            self.output(),
            self.motion_model
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> SurfaceWorld {
        // Output at the top of column 1, Root at I=(1,0).
        let cfg = SurfaceConfig::from_ascii(
            ". O . .\n\
             . . . .\n\
             . . . .\n\
             . # # .\n\
             . I # .",
        )
        .unwrap();
        SurfaceWorld::standard(cfg)
    }

    #[test]
    fn mapping_round_trips() {
        let mut w = small_world();
        let blocks = w.grid().block_ids_sorted();
        w.set_module_mapping(blocks.clone());
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(w.module_index_of(*b), Some(i));
            assert_eq!(w.block_of_module(i), Some(*b));
        }
        assert_eq!(w.block_of_module(99), None);
        assert_eq!(w.module_index_of(BlockId(99)), None);
    }

    #[test]
    fn neighbors_reflect_lateral_adjacency() {
        let w = small_world();
        let root = w.root_block().unwrap();
        let neighbors = w.neighbors_of(root);
        // The Root at (1,0) touches the blocks at (2,0) and (1,1).
        assert_eq!(neighbors.len(), 2);
    }

    #[test]
    fn distance_excludes_aligned_blocks_and_the_root() {
        let mut w = small_world();
        let output = w.output();
        // The Root is in the output's column AND at I: infinite.
        let root = w.root_block().unwrap();
        assert!(w.distance_to_output(root).is_infinite());
        // The block at (1,1) is in the output's column: infinite (Eq. 8).
        let aligned = w.grid().block_at(Pos::new(1, 1)).unwrap();
        assert!(w.distance_to_output(aligned).is_infinite());
        // The block at (2,1) is not aligned and can move: finite Manhattan
        // distance (Eq. 10).
        let free = w.grid().block_at(Pos::new(2, 1)).unwrap();
        let d = w.distance_to_output(free);
        assert_eq!(d, Distance::finite(Pos::new(2, 1).manhattan(output)));
        // Metrics counted the three computations.
        assert_eq!(w.metrics().distance_computations, 3);
    }

    #[test]
    fn hop_moves_towards_output_and_logs() {
        let mut w = small_world();
        let mover = w.grid().block_at(Pos::new(2, 1)).unwrap();
        let before = w.position_of(mover).unwrap();
        let result = w.hop_towards_output(mover, 1);
        assert!(result.moved);
        assert!(!result.reached_output);
        let after = w.position_of(mover).unwrap();
        assert_eq!(
            before.manhattan(w.output()) - 1,
            after.manhattan(w.output())
        );
        assert_eq!(w.move_log().len(), 1);
        // The record interns the rule id; the display name resolves
        // through the catalogue and names a real rule.
        let record = &w.move_log()[0];
        assert!(matches!(record.rule, MoveRule::Catalog(_)));
        let name = w.rule_name_of(record).to_string();
        assert!(w.planner().catalog().find(&name).is_some());
        assert!(w.metrics().elementary_moves >= 1);
        assert_eq!(w.metrics().elected_hops, 1);
        assert!(w.grid().is_connected());
        assert!(w.ascii_with_ids().contains('|'));
    }

    #[test]
    fn free_motion_model_ignores_support() {
        let cfg = SurfaceConfig::from_ascii(
            ". O . .\n\
             . . . .\n\
             . . . .\n\
             . # # .\n\
             . I # .",
        )
        .unwrap();
        let mut w = SurfaceWorld::new(cfg, RuleCatalog::standard(), MotionModel::FreeMotion);
        let mover = w.grid().block_at(Pos::new(2, 1)).unwrap();
        // Under free motion the elected block travels directly towards the
        // output (no support blocks needed) until it joins the output's
        // column.
        let r = w.hop_towards_output(mover, 1);
        assert!(r.moved);
        let end = w.position_of(mover).unwrap();
        assert_eq!(end.x, w.output().x, "the journey ends on the path column");
        assert_eq!(w.move_log()[0].rule, MoveRule::Free);
        assert_eq!(w.rule_name_of(&w.move_log()[0]), "free");
        assert_eq!(
            w.move_log()[0].moves.len() as u32,
            Pos::new(2, 1).manhattan(end),
            "one elementary move per traversed cell"
        );
        // Under the free-motion model every block can be messaged.
        assert_eq!(w.neighbors_of(mover).len(), w.grid().block_count() - 1);
    }

    #[test]
    fn path_completion_detection() {
        let cfg = SurfaceConfig::from_ascii(
            "o . .\n\
             # . .\n\
             # # .\n\
             I # .",
        )
        .unwrap();
        let w = SurfaceWorld::standard(cfg);
        assert!(w.output_occupied());
        assert!(w.path_complete());
        let path = w.completed_path().unwrap();
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn feasibility_fast_path_agrees_with_motion_enumeration() {
        let mut w = small_world();
        for pos in w.grid().bounds().iter() {
            let fast = w.can_hop_towards_output(pos);
            let full = !w.admissible_motions_towards_output(pos).is_empty();
            assert_eq!(fast, full, "at {pos}");
        }
    }

    #[test]
    fn path_cache_invalidates_on_moves() {
        // The path column (x = 0) is complete except for the output cell;
        // the block at (1,3) can slide west onto it.
        let cfg = SurfaceConfig::from_ascii(
            "O # .\n\
             # # .\n\
             # . .\n\
             I . .",
        )
        .unwrap();
        let mut w = SurfaceWorld::standard(cfg);
        assert!(!w.path_complete());
        let finisher = w.grid().block_at(Pos::new(1, 3)).unwrap();
        let result = w.hop_towards_output(finisher, 1);
        assert!(result.moved);
        assert!(result.reached_output);
        // A stale answer would still be `false` here.
        assert!(w.path_complete());
    }

    #[test]
    fn eq9_memo_serves_a_repeated_question_and_counts_it() {
        let mut w = small_world();
        let free = w.grid().block_at(Pos::new(2, 1)).unwrap();
        let first = w.distance_to_output(free);
        assert_eq!(w.metrics().eq9_memo_hits, 0);
        assert_eq!(w.distance_to_output(free), first);
        // The repeat is served from the memo but still counts as one
        // distance computation and one rule check.
        assert_eq!(w.metrics().eq9_memo_hits, 1);
        assert_eq!(w.metrics().distance_computations, 2);
        assert_eq!(w.metrics().rule_checks, 2);
        // A hop changes the mover's position: its next question misses.
        w.hop_towards_output(free, 1);
        w.distance_to_output(free);
        assert_eq!(w.metrics().eq9_memo_hits, 1);
    }

    #[test]
    fn vacating_a_path_cell_to_outside_g_is_rechecked() {
        // G is the column x = 1 and the path up it is complete.  No
        // elected hop can take a block out of G: every hop moves its
        // blocks along the subject's step towards O, and a block pushed
        // over G's far edge would come from a locked cell.  So this test
        // applies such a move by hand and runs the re-check a hop runs.
        let cfg = SurfaceConfig::from_ascii(
            "# o .\n\
             . # .\n\
             # # .\n\
             . I .",
        )
        .unwrap();
        let mut w = SurfaceWorld::standard(cfg);
        assert!(w.path_complete());
        let moves = [(Pos::new(1, 2), Pos::new(0, 2))];
        assert!(w.config.graph().contains(moves[0].0) && !w.config.graph().contains(moves[0].1));
        w.config
            .grid_mut()
            .apply_simultaneous_moves(&moves)
            .unwrap();
        w.recheck_path(&moves);
        let fresh = SurfaceWorld::standard(w.config().clone());
        assert!(!fresh.path_complete());
        assert_eq!(w.path_complete(), fresh.path_complete());
    }

    /// The memo hits of asking `block`'s distance once more.
    fn hits_after_asking(w: &mut SurfaceWorld, block: BlockId) -> u64 {
        w.distance_to_output(block);
        w.metrics().eq9_memo_hits
    }

    #[test]
    fn eq9_memo_key_spans_the_catalogue_radius_only() {
        // The block at (3, 0) stores its verdict.  A mover on top of the
        // row then slides east, one certified hop at a time, so the
        // nearest cell each hop moves is 2, 3 and then 4 cells from it.
        // Only a hop within the radius (2 for sliding_only, 3 for
        // standard) evicts the verdict.
        let ribbon = ". . . . . . . . . . O\n\
                      . . . . . . . . . . .\n\
                      . . . . . . . . . . .\n\
                      . . . . . . . . . . .\n\
                      . . . . . # . . . . .\n\
                      I # # # # # # # # # .";
        let subject = Pos::new(3, 0);
        for (catalog, kept) in [
            (RuleCatalog::sliding_only(), [false, true, true]),
            (RuleCatalog::standard(), [false, false, true]),
        ] {
            let cfg = SurfaceConfig::from_ascii(ribbon).unwrap();
            let mut w = SurfaceWorld::new(cfg, catalog, MotionModel::RuleBased);
            let block = w.grid().block_at(subject).unwrap();
            let mover = w.grid().block_at(Pos::new(5, 1)).unwrap();
            assert_eq!(hits_after_asking(&mut w, block), 0);
            let mut hits = hits_after_asking(&mut w, block);
            assert_eq!(hits, 1);
            for (x, kept) in (5..).zip(kept) {
                let (from, to) = (Pos::new(x, 1), Pos::new(x + 1, 1));
                assert!(w.hop_towards_output(mover, 1).moved);
                assert_eq!(w.move_log().last().unwrap().moves, [(mover, from, to)]);
                let nearest = subject.chebyshev(from);
                let now = hits_after_asking(&mut w, block);
                let r = w.eq9_radius;
                assert_eq!(now, hits + u64::from(kept), "r = {r}, hop at {nearest}");
                hits = now;
            }
            assert_eq!(w.eq9_generation, 0, "every hop was certified");
        }
    }

    #[test]
    fn an_uncertified_hop_starts_a_new_memo_generation() {
        // The block at (2, 1) holds up the bar above it: it is a cut
        // vertex, so it cannot slide east and its distance is infinite.
        // The mover at (9, 1), seven cells away, then slides into the
        // gap under the bar's far end.  That landing closes a loop, which
        // its ring cannot certify, and the loop makes (2, 1) free to go.
        let cfg = SurfaceConfig::from_ascii(
            ". . . . . . . . . . . . . O\n\
             . . . . . . . . . . . . . .\n\
             . . . . . . . . . . . . . .\n\
             . . # # # # # # # # # . . .\n\
             . . # . . . . . . . # . . .\n\
             . . # . . . . . . # . . . .\n\
             I # # # # # # # # # # # # .",
        )
        .unwrap();
        let mut w = SurfaceWorld::standard(cfg);
        let block = w.grid().block_at(Pos::new(2, 1)).unwrap();
        let mover = w.grid().block_at(Pos::new(9, 1)).unwrap();
        assert!(w.distance_to_output(block).is_infinite());
        assert_eq!(hits_after_asking(&mut w, block), 1);
        assert!(w.hop_towards_output(mover, 1).moved);
        let record = &w.move_log()[0].moves;
        assert_eq!(record, &[(mover, Pos::new(9, 1), Pos::new(10, 1))]);
        assert_eq!(w.eq9_generation, 1, "the landing closed a loop");
        let mut fresh = SurfaceWorld::standard(w.config().clone());
        let expected = fresh.distance_to_output(block);
        assert!(!expected.is_infinite());
        assert_eq!(w.distance_to_output(block), expected);
        assert_eq!(w.metrics().eq9_memo_hits, 1);
    }

    #[test]
    fn eq9_radius_follows_the_catalogue() {
        // Carrying moves start one cell off the window centre: 1 + 1 + 1.
        for catalog in [
            RuleCatalog::standard(),
            RuleCatalog::paper_rules_only(),
            RuleCatalog::carrying_only(),
        ] {
            assert_eq!(eq9_radius(&catalog), 3);
        }
        // Sliding moves start at the centre: 0 + 1 + 1.
        assert_eq!(eq9_radius(&RuleCatalog::sliding_only()), 2);
        assert_eq!(eq9_radius(&RuleCatalog::new()), 0);
    }

    #[test]
    fn a_catalogue_wider_than_the_subject_frame_keeps_its_memo_exact() {
        use sb_motion::{ElementaryMove, MatrixCoord, MotionMatrix, MotionRule};
        // A 5×5 rule sliding the block north-west of its centre east: the
        // planner's window reaches 1 + 2 = 3 cells from the subject, but
        // the Eq. 9 radius is 1 + 2 + 1 = 4: a 9×9 neighbourhood, wider
        // than the planner's 7×7 frame.  Each round asks every block's
        // distance, checks it against a world built fresh from the same
        // board, and hops the nearest finite block, as an election would.
        let mut codes = [2u8; 25];
        codes[5 + 1] = 4;
        codes[5 + 2] = 3;
        let rule = MotionRule::new(
            "wide_east",
            MotionMatrix::from_codes(5, &codes).unwrap(),
            vec![ElementaryMove::new(
                MatrixCoord::new(1, 1),
                MatrixCoord::new(2, 1),
            )],
        )
        .unwrap();
        let catalog = RuleCatalog::from_rules([rule]);
        assert_eq!(eq9_radius(&catalog), 4);
        let cfg = SurfaceConfig::from_ascii(
            ". . . . . . . . . . . . . . . . O\n\
             . . . . . . . . . . . . . . . . .\n\
             . # # # . . . . . . . . . . . . .\n\
             . # # # . # . . . . . . . . . . .\n\
             I # # # # # # # # # # # # # # . .\n\
             . . . # . . . . . # . . . . . . .\n\
             . . . . . . . . . . . . . . . . .\n\
             . . . . . . . . . . . . . . . . .",
        )
        .unwrap();
        let world = |cfg: &SurfaceConfig| {
            SurfaceWorld::new(cfg.clone(), catalog.clone(), MotionModel::RuleBased)
        };
        let mut w = world(&cfg);
        let blocks: Vec<BlockId> = w.grid().blocks().map(|(id, _)| id).collect();
        let mut hops = 0;
        for iteration in 1..=200 {
            let mut fresh = world(w.config());
            let mut best = None;
            for &block in &blocks {
                let d = w.distance_to_output(block);
                assert_eq!(d, fresh.distance_to_output(block), "hop {hops}, {block:?}");
                if !d.is_infinite() && best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, block));
                }
            }
            let Some((_, mover)) = best else { break };
            assert!(w.hop_towards_output(mover, iteration).moved);
            hops += 1;
        }
        // The movers slide east along the bar until every block is
        // stuck, many of them between verdicts kept across hops.
        assert!(hops >= 40, "{hops} hops");
        assert!(w.metrics().eq9_memo_hits >= 100);
    }

    #[test]
    fn outcome_set_and_read() {
        let mut w = small_world();
        assert_eq!(w.outcome(), None);
        w.set_outcome(Outcome::Completed);
        assert_eq!(w.outcome(), Some(Outcome::Completed));
    }
}
