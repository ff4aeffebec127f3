//! Incremental cut-vertex connectivity oracle for motion probes.
//!
//! Remark 1 admits a motion only if the ensemble stays connected, and the
//! election probes that admission filter once per candidate rule of every
//! perimeter block — the hottest query of the whole system.  The scratch
//! BFS of [`crate::connectivity::is_connected_after`] answers each probe
//! in O(N); this module answers the dominant case in O(1) by computing a
//! property of the *world state* once instead of once per probe:
//!
//! > a single block's move from `s` to `d` preserves connectivity iff
//! > `s` is **not** an articulation point of the current adjacency graph
//! > and `d` touches at least one block other than the one leaving `s`.
//!
//! One iterative Tarjan low-link DFS over the occupancy bitboard yields
//! the articulation (cut-vertex) set as a bitboard mask; every subsequent
//! single-block probe against the same world state is a couple of bit
//! tests plus a four-neighbour scan.  A source that *is* a cut vertex is
//! still O(1): the move may rejoin the pieces it separates (e.g. an
//! L-corner block sliding diagonally around its own corner), and the DFS
//! tree's preorder intervals decide exactly whether the destination
//! touches every piece (`ConnectivityOracle::cut_source_move_connects`).
//!
//! ## The batch (carrying) probe contract
//!
//! Multi-block batches are decided by the same block-cut-tree machinery
//! via a **net-effect reduction**: the post-move board is
//! `(occupancy \ sources) ∪ destinations`, so a cell both vacated and
//! refilled by the batch (the hand-over cells of every catalogue carrying
//! chain) cancels out of the overlay.  What remains is the batch's *net*
//! vacated/filled set:
//!
//! * net-empty batches answer from the memoised component count;
//! * a single net relocation — **every** catalogue carrying rule reduces to
//!   one, because their moves chain head-to-tail (Eqs. 4–5: the rear
//!   block refills the cell the front block leaves) — routes through the
//!   same O(1) single-move verdict as a plain move.
//!
//! Every other net effect (no catalogue rule produces one), probes of an
//! already disconnected ensemble, and the rare single move the forest
//! cannot place (`ConnectivityOracle::cut_source_move_connects`) fall
//! back to the scratch BFS, so the oracle is **bit-for-bit equivalent** to
//! [`crate::connectivity::is_connected_after`] on every geometrically
//! valid batch.
//!
//! ## Invalidation and incremental updates
//!
//! The oracle is keyed by [`OccupancyGrid::epoch`], the grid's globally
//! unique occupancy version: the first probe after any mutation refreshes
//! the structure, later probes reuse it.  There is no subscription or
//! manual invalidation — holding one oracle and probing many different
//! grids is safe (each refresh is tagged with the grid's own epoch).
//!
//! State is maintained in **two layers** so a reconfiguration's worth of
//! epochs costs O(1) each, amortised:
//!
//! * The **light layer** — occupancy snapshot, component count, and the
//!   *pendant mover* — resynchronises on every epoch.  A net single-cell
//!   relocation `f → t` is absorbed when `f` is provably removable, by
//!   any of three O(1) witnesses: `f` is the pendant mover (the cell
//!   landed by the previous epoch; while the same block keeps hopping,
//!   `occupancy \ {mover}` is a set invariant, so its connectedness
//!   carries over by induction), the **ring certificate** (all of `f`'s
//!   occupied cardinal neighbours lie in one maximal occupied arc of its
//!   8-cell ring, so every path through `f` reroutes around it — sound,
//!   locally checkable, and complete for the corner/surface departures
//!   reconfigurations actually produce), or a fresh forest's cut bit.
//!   Deltas with no O(1) witness rebuild, and so does every delta that
//!   is not a single relocation (an unchanged occupancy aside).
//! * The **forest layer** — Tarjan arrays, preorder stamps, cut mask —
//!   is kept usable across general single-move epochs by a bounded,
//!   chronological **edit log** instead of being rebuilt.  Each absorbed
//!   epoch appends up to two ring-certified single-cell entries: a
//!   `Ghost` (vacated on the live board, still present in the forest)
//!   and a `Missing` (landed on the live board, absent from the forest);
//!   the forest plus the log thus describe a *historical* board
//!   `B_old = live ∪ ghosts ∖ missings`.  The soundness frame is the
//!   **chronological-apply invariant**: every pending entry's ring
//!   certificate must stay valid on the board obtained by applying the
//!   entries older than it — appends never disturb older entries (the
//!   new cell is younger than everything pending), a mover stepping back
//!   onto its own freshest `Missing` is absorbed by popping the tail,
//!   and base mutations (leaf grafts) are admitted only when they sit
//!   diagonal to every pending ring, because a diagonal addition merely
//!   merges occupied arcs and can never break a certificate.  Where the
//!   certificates hold, removing a certified cell merges and splits
//!   nothing, so cut bits and preorder intervals in `B_old` answer
//!   verdicts about the live board exactly.
//!
//!   A probe consults the forest only after two hazard checks
//!   (`ConnectivityOracle::ensure_forest_for`): **garbage stamps** — a
//!   pending `Missing` on or laterally adjacent to a scanned anchor
//!   would be read as forest structure it does not have
//!   (`ConnectivityOracle::missing_blind`) — and **broken
//!   certificates** — hypothetically removing a probe's vacated cell
//!   from a pending entry's ring can break the occupied arc its
//!   certificate rerouted through, re-checked per entry over the ring
//!   occupancy *at that entry's apply time*
//!   (`ConnectivityOracle::certs_survive`).  Either hazard, an
//!   un-certifiable delta, or an edit log at capacity (`MAX_EDITS`)
//!   rebuilds; measured on the catalogue reconfigurations this costs
//!   about one rebuild per mover journey (the rule-check probe of a
//!   back-edge wall cell right beside the active trail), against
//!   ~N²/4 occupancy epochs total.
//!
//! The forest additionally patches **leaf relocations** eagerly: a
//! non-root tree leaf vacated and a cell landing with exactly one
//! occupied neighbour.  Leaf removal never influenced any ancestor's
//! low-link, so only the support's cut bit is recomputed (O(1)); a landed
//! leaf `t` on support `r` is grafted as `parent[t] = r`, `disc[t] =
//! low[t] = high[t] = disc[r]` — sharing the support's preorder stamp
//! keeps every interval test exact, because `t`'s piece is `r`'s piece
//! under any removal that is not `r` itself, and under `s = r` the stamp
//! forms `t`'s own degenerate split interval.  At most one such aliased
//! leaf may hang per support and aliased leaves never serve as supports
//! (both guards force a rebuild), so stamp collisions stay unambiguous.  O(N)
//! forest surgery — re-rooting, interior splice-outs — is deliberately
//! *not* attempted: the edit log absorbs those deltas as overlay entries
//! and lets the rare hazard-triggered rebuild pay once instead.
//!
//! All buffers are retained across rebuilds, so after one warm-up rebuild
//! per grid size the oracle performs **no heap allocation** (asserted by
//! `crates/motion/tests/alloc_free.rs`).

use crate::connectivity::{self, ConnectivityScratch};
use crate::grid::OccupancyGrid;
use crate::pos::Pos;

const UNVISITED: u32 = u32::MAX;
/// Sentinel parent index for DFS roots.
const NO_PARENT: u32 = u32::MAX;
/// Upper bound on the pending edit log (`ConnectivityOracle::edits`);
/// hazard checks scan the log linearly, so it stays small, and hitting
/// the cap simply forces the next synchronisation to rebuild.
const MAX_EDITS: usize = 32;

/// One entry of the oracle's pending edit log: how the forest occupancy
/// differs from the live board at one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EditKind {
    /// Tombstone: vacated on the live board, still in the forest.
    Ghost,
    /// Dual tombstone: landed on the live board, absent from the forest
    /// (its Tarjan stamps are garbage and must never be read).
    Missing,
}

/// Cut-vertex connectivity oracle (see the module docs).
///
/// Create once per planner or world and pass to every probe; the oracle
/// tracks grid epochs internally and rebuilds its cut-vertex mask lazily.
#[derive(Clone, Debug, Default)]
pub struct ConnectivityOracle {
    /// Epoch of the grid the *light* state below (`board`, `components`,
    /// `sat`, `sat_removable`) was synchronised to.
    built_epoch: Option<u64>,
    /// Whether the Tarjan arrays and `cut` mask describe the same
    /// occupancy as `board`.  Light synchronisation keeps `board` current
    /// on every epoch but lets the forest go stale when a delta is not
    /// leaf-patchable; the forest is then rebuilt lazily, on the first
    /// probe that actually needs preorder stamps.
    forest_synced: bool,
    /// The pendant mover: the cell most recently landed by a net
    /// single-cell relocation.  While the same block keeps hopping, the
    /// set `occupancy \ {sat}` is invariant, so its connectivity — the
    /// only global fact a hop verdict needs — carries over epochs
    /// unchanged (`sat_removable`).
    sat: Option<Pos>,
    /// Whether `occupancy \ {sat}` is connected (meaningful only while
    /// `sat` is `Some` and the ensemble itself is connected).
    sat_removable: bool,
    /// Cut-vertex bitboard, word layout identical to the occupancy board
    /// (bit set ⇔ the cell holds a block whose removal splits the rest).
    cut: Vec<u64>,
    /// Number of 4-connected components of the occupied cells.
    components: u32,
    /// Tarjan state, indexed by cell index (`y * width + x`).
    disc: Vec<u32>,
    low: Vec<u32>,
    parent: Vec<u32>,
    /// Largest `disc` inside each vertex's DFS subtree: preorder stamps a
    /// subtree with the contiguous interval `[disc[v], high[v]]`, so
    /// "does `q` live under child `c`?" is two comparisons — the key to
    /// answering cut-vertex moves in O(1)
    /// (`ConnectivityOracle::cut_source_move_connects`).
    high: Vec<u32>,
    /// Explicit DFS stack: `y << 33 | x << 3 | next_direction`.
    stack: Vec<u64>,
    /// Occupancy snapshot of the *live* board (word layout identical to
    /// the grid's): diffed against the live board on an epoch change to
    /// patch leaf relocations without a full rebuild.  The forest may
    /// describe a slightly different occupancy — see `edits`.
    board: Vec<u64>,
    /// The pending **edit log**: ring-certified single-cell differences
    /// between the occupancy the forest describes and the live board, in
    /// chronological order.  A `Ghost` entry is a tombstone — the cell
    /// was vacated from the live board but keeps its Tarjan stamps; a
    /// `Missing` entry is the dual — the cell landed on the live board
    /// without entering the forest.  Each entry held the ring certificate
    /// over the live board when it was logged, so applying the log in
    /// order transforms the forest occupancy into the live one without
    /// ever merging or splitting a component; cut status and piece
    /// structure therefore agree between the two occupancies everywhere
    /// outside the edits' 8-rings (the *poisoned* halo).  Probes anchored
    /// inside the halo rebuild, the leaf patch declines poisoned cells
    /// (a removal there could delete an arc cell a certificate depends
    /// on), and the log is bounded by `MAX_EDITS` and cleared on rebuild.
    edits: Vec<(Pos, EditKind)>,
    /// `(width, height)` of the snapshot's surface — a dimension change
    /// makes the word layout incomparable and forces a rebuild.
    board_dims: (u32, u32),
    /// Scratch for the BFS fallback.
    bfs: ConnectivityScratch,
    /// Lifetime counters (observability for benches and tests).
    rebuilds: u64,
    incremental_updates: u64,
    fast_probes: u64,
    fallback_probes: u64,
}

impl ConnectivityOracle {
    /// Creates an oracle with empty buffers.
    pub fn new() -> Self {
        ConnectivityOracle::default()
    }

    /// Whether the ensemble stays connected after hypothetically applying
    /// the batch of simultaneous `moves` — the same contract as
    /// [`connectivity::is_connected_after`] (the batch must already be
    /// geometrically valid), with identical answers.
    ///
    /// The batch is first reduced to its *net* vacated/filled cells
    /// (overlay semantics cancel a cell both vacated and refilled, which
    /// covers every catalogue carrying chain); net-empty and net-single
    /// batches are answered in O(1) from the memoised block-cut-tree
    /// state, everything else falls back to the scratch BFS (see the
    /// module docs for the exact contract).
    pub fn preserves_connectivity(&mut self, grid: &OccupancyGrid, moves: &[(Pos, Pos)]) -> bool {
        if grid.block_count() <= 1 {
            return true;
        }
        self.ensure_light(grid);
        // Net-effect reduction.  The post-move board is
        // `(occupancy \ sources) ∪ destinations`, so only cells vacated
        // and never refilled (respectively filled and never vacated)
        // change occupancy; a batch is connectivity-preserving iff its
        // net relocation is.  Catalogue batches hold at most a handful
        // of moves — anything wider skips straight to the BFS.
        const MAX_NET: usize = 8;
        if moves.len() <= MAX_NET {
            let mut vacated = moves
                .iter()
                .map(|&(s, _)| s)
                .filter(|&s| moves.iter().all(|&(_, d)| d != s));
            let mut filled = moves
                .iter()
                .map(|&(_, d)| d)
                .filter(|&d| moves.iter().all(|&(s, _)| s != d));
            let verdict = match (vacated.next(), filled.next()) {
                // The net-empty batch leaves the board as it stands.
                (None, None) => Some(self.components <= 1),
                // One net cell out, one in: exactly the single-move
                // shape, whether or not the two are adjacent.  The
                // forest-free fast path (pendant mover or local bypass
                // certificate) decides the dominant case; only a miss
                // consults — and if necessary lazily rebuilds — the DFS
                // forest.
                (Some(f), Some(t))
                    if self.components == 1
                        && vacated.next().is_none()
                        && filled.next().is_none() =>
                {
                    if let Some(connected) = self.single_move_fast(grid, f, t) {
                        Some(connected)
                    } else {
                        self.ensure_forest_for(grid, f, t);
                        self.single_move_verdict(grid, f, t)
                    }
                }
                _ => None,
            };
            if let Some(connected) = verdict {
                self.fast_probes += 1;
                return connected;
            }
        }
        self.fallback_probes += 1;
        connectivity::is_connected_after(grid, moves, &mut self.bfs)
    }

    /// Whether the block at `pos` is an articulation point of the current
    /// configuration (false for empty or off-surface cells), from the
    /// memoised mask.
    pub fn is_cut_vertex(&mut self, grid: &OccupancyGrid, pos: Pos) -> bool {
        // Nothing lands: passing `pos` again repeats its stamp check.
        self.ensure_forest_for(grid, pos, pos);
        grid.bounds().contains(pos) && self.cut_bit(grid, pos)
    }

    /// Number of 4-connected components of the occupied cells.
    pub fn component_count(&mut self, grid: &OccupancyGrid) -> u32 {
        self.ensure_light(grid);
        self.components
    }

    /// The cut-vertex bitboard for `grid` (same word layout as
    /// [`OccupancyGrid::occupancy_words`]), rebuilt if stale.
    pub fn cut_mask(&mut self, grid: &OccupancyGrid) -> &[u64] {
        self.ensure_forest(grid);
        if !self.edits.is_empty() {
            // Pending edits keep the mask exact only outside their halos;
            // the mask contract is live-exact everywhere, so flush them.
            self.rebuild(grid);
        }
        &self.cut[..grid.occupancy_words().len()]
    }

    /// How many times the full Tarjan pass ran (once per probed world
    /// state whose delta could not be absorbed incrementally).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Epoch changes absorbed by an O(1) incremental patch (leaf
    /// relocations and occupancy-identical clones) instead of a rebuild.
    pub fn incremental_updates(&self) -> u64 {
        self.incremental_updates
    }

    /// Probes answered in O(1) from the mask.
    pub fn fast_probes(&self) -> u64 {
        self.fast_probes
    }

    /// Probes that fell back to the scratch BFS.
    pub fn fallback_probes(&self) -> u64 {
        self.fallback_probes
    }

    #[inline]
    fn cut_bit(&self, grid: &OccupancyGrid, pos: Pos) -> bool {
        let (w, b) = grid.word_bit(pos);
        self.cut[w] >> b & 1 != 0
    }

    /// O(1) verdict for a net single-cell relocation `from → to` on a
    /// connected ensemble (`from` occupied, `to` free, `from != to`).
    /// `None` only on the defensive inconsistency paths of
    /// [`ConnectivityOracle::cut_source_move_connects`].
    fn single_move_verdict(&self, grid: &OccupancyGrid, from: Pos, to: Pos) -> Option<bool> {
        if !self.cut_bit(grid, from) {
            // Removing a non-cut block keeps the rest in one piece; the
            // mover stays attached iff its destination touches any block
            // it is not itself vacating.
            return Some(
                to.neighbors4()
                    .iter()
                    .any(|&q| q != from && grid.is_occupied(q)),
            );
        }
        // Cut-vertex source: removing `from` splits the rest into known
        // pieces (the split DFS subtrees plus the remainder), and the
        // move keeps everything connected iff the destination touches
        // all of them.
        self.cut_source_move_connects(grid, from, to)
    }

    /// Exact verdict for a single-block move whose source `s` **is** a cut
    /// vertex of the (connected) ensemble, in O(1).
    ///
    /// Removing `s` splits the remaining blocks into known pieces: one per
    /// *split child* of `s` in the DFS tree (a tree child `c` with
    /// `low[c] >= disc[s]`; for a DFS root every tree child), plus — for a
    /// non-root `s` — the remainder reached through `s`'s parent.  The
    /// ensemble stays connected iff the mover's destination `d` is
    /// laterally adjacent to *every* piece; membership of a neighbour `q`
    /// in a split subtree is two comparisons against the subtree's
    /// contiguous preorder interval `[disc[c], high[c]]`.
    ///
    /// Returns `None`, and the probe falls back to the BFS, when the live
    /// cells around `s` show fewer than two pieces.  Every fallback of
    /// the recorded sweeps comes from here (all in `high_aspect` cells):
    /// the cut bit of `s` is read on the edited forest, one of its split
    /// children is a pending `Ghost` — still in the forest, no longer on
    /// the live board — and the scan, which walks live cells only, finds
    /// the remaining piece alone.
    fn cut_source_move_connects(&self, grid: &OccupancyGrid, s: Pos, d: Pos) -> Option<bool> {
        let bounds = grid.bounds();
        let width = bounds.width as usize;
        let index = |p: Pos| p.y as usize * width + p.x as usize;
        let s_idx = index(s);
        let s_is_root = self.parent[s_idx] == NO_PARENT;
        // Collect the split children of `s` (at most its four lateral
        // neighbours).
        let mut split: [(u32, u32); 4] = [(0, 0); 4];
        let mut split_count = 0usize;
        for c in s.neighbors4() {
            if !grid.is_occupied(c) {
                continue;
            }
            let c_idx = index(c);
            if self.parent[c_idx] == s_idx as u32
                && (s_is_root || self.low[c_idx] >= self.disc[s_idx])
            {
                split[split_count] = (self.disc[c_idx], self.high[c_idx]);
                split_count += 1;
            }
        }
        // Components of the ensemble minus `s`: each split subtree, plus
        // the remainder on the parent side of a non-root `s`.
        let pieces = split_count + usize::from(!s_is_root);
        if pieces < 2 {
            // A true cut vertex always splits into >= 2 pieces; anything
            // else means the state is inconsistent with the mask.
            return None;
        }
        // `d` must touch every piece (slot `split_count` = remainder).
        let mut covered = [false; 5];
        let mut distinct = 0usize;
        for q in d.neighbors4() {
            if q == s || !grid.is_occupied(q) {
                continue;
            }
            let dq = self.disc[index(q)];
            let mut piece = split_count;
            for (i, &(lo, hi)) in split[..split_count].iter().enumerate() {
                if (lo..=hi).contains(&dq) {
                    piece = i;
                    break;
                }
            }
            if piece == split_count && s_is_root {
                // Every vertex but the root lives under one of its tree
                // children; not finding one is an inconsistency.
                return None;
            }
            if !covered[piece] {
                covered[piece] = true;
                distinct += 1;
            }
        }
        Some(distinct == pieces)
    }

    /// Synchronises the light state (`board`, `components`, `sat`,
    /// `sat_removable`) to the grid's current epoch.  O(1) for every
    /// single relocation whose admissibility the local certificates can
    /// prove; anything else rebuilds in full.
    #[inline]
    fn ensure_light(&mut self, grid: &OccupancyGrid) {
        let epoch = grid.epoch();
        if self.built_epoch == Some(epoch) {
            return;
        }
        if self.built_epoch.is_some() && self.try_incremental(grid) {
            self.built_epoch = Some(epoch);
            self.incremental_updates += 1;
        } else {
            self.rebuild(grid);
        }
    }

    /// Synchronises the DFS forest (Tarjan arrays and cut mask) to the
    /// grid's current epoch, rebuilding it if light updates let it lapse.
    #[inline]
    fn ensure_forest(&mut self, grid: &OccupancyGrid) {
        self.ensure_light(grid);
        if !self.forest_synced {
            self.rebuild(grid);
        }
    }

    /// Synchronises the forest for a probe that hypothetically *removes*
    /// the `vacated` cell and *adds* the `landed` cell: like
    /// [`ConnectivityOracle::ensure_forest`], but additionally rebuilds
    /// when a pending edit could falsify the verdict — outside those
    /// situations the edited forest answers exactly.
    ///
    /// Two hazards exist.  **Garbage stamps**: a pending `Missing` cell
    /// is live but absent from the forest, so the split-piece scan of a
    /// vacated anchor and the junction scan of a landed anchor must not
    /// find one among the cells whose stamps they read (the anchor and
    /// its lateral neighbours).  **Broken certificates**: removing a
    /// cell on a pending entry's ring can break the occupied arc its
    /// certificate rerouted through, which is re-checked per entry by
    /// [`ConnectivityOracle::certs_survive`]; an *addition* never breaks
    /// an arc, so the landed anchor needs no certificate check.  Ghost
    /// stamps are never read — piece scans walk live cells only.
    #[inline]
    fn ensure_forest_for(&mut self, grid: &OccupancyGrid, vacated: Pos, landed: Pos) {
        self.ensure_light(grid);
        if !self.forest_synced
            || self.missing_blind(vacated)
            || self.missing_blind(landed)
            || !self.certs_survive(&|q| grid.is_occupied(q), vacated)
        {
            self.rebuild(grid);
        }
    }

    /// Whether `p` lies on or laterally adjacent to a pending entry —
    /// the forest's adjacency at `p` then differs from the live board's
    /// (a lateral ghost is a forest edge the live board lacks, a lateral
    /// `Missing` a live edge the forest lacks), so shape reasoning at
    /// `p` is off limits.  O(len(edits)), and the log is short by
    /// construction.
    #[inline]
    fn lateral_pending(&self, p: Pos) -> bool {
        self.edits
            .iter()
            .any(|&(e, _)| (e.x - p.x).abs() + (e.y - p.y).abs() <= 1)
    }

    /// Whether a pending `Missing` entry sits on or laterally adjacent
    /// to `p` — the cells whose stamps a scan anchored at `p` would
    /// read (a `Missing` cell is live but absent from the forest, its
    /// stamps garbage).
    #[inline]
    fn missing_blind(&self, p: Pos) -> bool {
        self.edits
            .iter()
            .any(|&(e, k)| k == EditKind::Missing && (e.x - p.x).abs() + (e.y - p.y).abs() <= 1)
    }

    /// Whether every pending entry's ring certificate survives removing
    /// the `removed` cell.  Each entry `e` whose ring holds the removed
    /// cell is re-certified over its ring occupancy *at apply time*:
    /// `occ` rewound through the entries younger than `e` (a cell a
    /// younger `Ghost` tombstones was still occupied when `e` applies, a
    /// younger `Missing` had not landed yet), minus the removed cell.
    /// When this holds, peeling the log stays merge-free and split-free
    /// on the board the verdict reasons about, so pieces and cut bits
    /// keep corresponding exactly even inside the log's halos.
    fn certs_survive(&self, occ: &dyn Fn(Pos) -> bool, removed: Pos) -> bool {
        (0..self.edits.len()).all(|i| {
            let (e, _) = self.edits[i];
            if removed == e || (e.x - removed.x).abs() > 1 || (e.y - removed.y).abs() > 1 {
                // Entries whose ring the removal misses keep their
                // certificate; a removed cell *equal* to an entry (a
                // pending `Missing` vacating) is the stamp checks' job.
                return true;
            }
            let younger = &self.edits[i + 1..];
            let at_apply = |q: Pos| -> bool {
                if q == removed {
                    return false;
                }
                match younger.iter().find(|&&(y, _)| y == q) {
                    Some(&(_, k)) => k == EditKind::Ghost,
                    None => occ(q),
                }
            };
            ring_certificate(&at_apply, e)
        })
    }

    /// Attempts to absorb the occupancy delta against the board snapshot
    /// without re-running the DFS.  Succeeds when the diff is empty (an
    /// occupancy-identical grid under a new epoch) or a single relocation
    /// the light layer can certify.
    fn try_incremental(&mut self, grid: &OccupancyGrid) -> bool {
        let bounds = grid.bounds();
        let words = grid.occupancy_words();
        if self.board_dims != (bounds.width, bounds.height) || self.board.len() != words.len() {
            return false;
        }
        let words_per_row = grid.words_per_row();
        let (mut vacated, mut landed) = (None, None);
        for (w, (&now, &then)) in words.iter().zip(self.board.iter()).enumerate() {
            let mut diff = now ^ then;
            while diff != 0 {
                let bit = diff.trailing_zeros();
                diff &= diff - 1;
                let pos = Pos::new(
                    ((w % words_per_row) * 64) as i32 + bit as i32,
                    (w / words_per_row) as i32,
                );
                let side = if now >> bit & 1 != 0 {
                    &mut landed
                } else {
                    &mut vacated
                };
                if side.replace(pos).is_some() {
                    return false;
                }
            }
        }
        match (vacated, landed) {
            (None, None) => true,
            (Some(f), Some(t)) => self.light_single_sync(grid, f, t),
            _ => false,
        }
    }

    /// O(1) light absorption of a net single relocation `f → t`.
    ///
    /// Admissible when the pre-state is connected, `f` is provably
    /// removable — it is the pendant mover, the ring certificate proves a
    /// local bypass, or a still-synced forest holds its cut bit clear —
    /// and `t` lands adjacent to the remaining ensemble.  On success the
    /// ensemble is still connected, `t` is the new pendant mover, and the
    /// forest either absorbed the delta (leaf patch, or ghost tombstone
    /// for a ring-certified interior vacate) or goes stale (to be rebuilt
    /// lazily).  Returns `false` to request a rebuild.
    fn light_single_sync(&mut self, grid: &OccupancyGrid, f: Pos, t: Pos) -> bool {
        if self.components != 1 {
            return false;
        }
        let bounds = grid.bounds();
        let board = &self.board;
        let old_occupied = |p: Pos| -> bool {
            bounds.contains(p) && {
                let (w, b) = grid.word_bit(p);
                board[w] >> b & 1 != 0
            }
        };
        let removable = (self.sat == Some(f) && self.sat_removable)
            || ring_certificate(&old_occupied, f)
            || (self.forest_synced
                && old_occupied(f)
                && !self.missing_blind(f)
                && self.certs_survive(&old_occupied, f)
                && !self.cut_bit(grid, f));
        if !removable {
            return false;
        }
        let attached = t.neighbors4().iter().any(|&q| q != f && old_occupied(q));
        if !attached {
            return false;
        }
        if self.forest_synced {
            if !self.patch_leaf_delta(grid, f, t) && !self.edit_absorb(grid, f, t) {
                self.forest_synced = false;
                self.mirror(grid, f, false);
                self.mirror(grid, t, true);
            }
        } else {
            self.mirror(grid, f, false);
            self.mirror(grid, t, true);
        }
        self.sat = Some(t);
        self.sat_removable = true;
        true
    }

    /// Absorbs a single relocation `f → t` that the leaf patch declined,
    /// by logging ring-certified **edits** instead of performing forest
    /// surgery: the vacated `f` becomes a `Ghost` tombstone (or cancels
    /// its own pending `Missing` entry, when the mover leaves a cell the
    /// forest never knew), and the landing `t` is either grafted as an
    /// aliased leaf or logged as `Missing`.  Every logged entry held the
    /// ring certificate over the live board at logging time, which makes
    /// the log a chronological sequence of merge-free, split-free
    /// single-cell deltas between the forest occupancy and the live one;
    /// the forest keeps answering exactly outside the log's poisoned
    /// halo (struct docs).  Returns `false` to let the forest go stale
    /// instead.
    fn edit_absorb(&mut self, grid: &OccupancyGrid, f: Pos, t: Pos) -> bool {
        let bounds = grid.bounds();

        // Vacate side.  Popping is only sound for the *newest* entry (no
        // later certificate can depend on it); `f` matching an older
        // entry would cancel mid-log, so it rebuilds instead.
        let pop_missing = self.edits.last() == Some(&(f, EditKind::Missing));
        if !pop_missing {
            if self.edits.iter().any(|&(e, _)| e == f) {
                return false;
            }
            // The reroute witness over the live pre-state: every path
            // through `f` bends around its occupied arc, so removing `f`
            // when this entry is applied merges and splits nothing.
            // Pending ghosts are not on the live board and thus cannot
            // serve as arc cells — correctly so, since they are peeled
            // before this newer entry.
            let board = &self.board;
            let old_occupied = |p: Pos| -> bool {
                bounds.contains(p) && {
                    let (w, b) = grid.word_bit(p);
                    board[w] >> b & 1 != 0
                }
            };
            if !ring_certificate(&old_occupied, f) {
                return false;
            }
        }

        // Landing side, fully decided before any mutation, and judged
        // against the log as it will stand *after* the vacate: a popped
        // `Missing` no longer poisons its own next landing (otherwise a
        // single `Missing` would cascade down the mover's whole trail),
        // while a freshly pushed tombstone at `f` does poison it.
        // Re-landing on a tombstoned cell is *not* a cancellation — the
        // pair rides the log as remove + certified re-add — but the
        // graft path must be skipped (the forest already holds the
        // cell's genuine stamps, which a pending entry may still rely
        // on).
        let kept = &self.edits[..self.edits.len() - usize::from(pop_missing)];
        // Grafting writes `t` into the forest base, which every pending
        // entry's certificate applies on top of: `t` landing *laterally*
        // on a pending ring adds an occupied cardinal its certificate
        // never saw (and a lateral ghost denies `t` forest-leaf shape),
        // so only the `Missing` path may take it.  Diagonal contact
        // merely merges ring arcs and keeps every certificate intact.
        // The tombstone about to be pushed at `f` counts; a popped
        // `Missing` at `f` does not (otherwise one `Missing` would
        // cascade down the mover's whole trail).
        let lateral_kept = |p: Pos| {
            kept.iter()
                .any(|&(e, _)| (e.x - p.x).abs() + (e.y - p.y).abs() <= 1)
                || (!pop_missing && (f.x - p.x).abs() + (f.y - p.y).abs() <= 1)
        };
        let reland = match kept.iter().rev().find(|&&(e, _)| e == t) {
            Some(&(_, EditKind::Ghost)) => true,
            // A pending `Missing` at a free cell is inconsistent.
            Some(&(_, EditKind::Missing)) => return false,
            None => false,
        };
        let graft = if reland || lateral_kept(t) {
            None
        } else {
            self.graft_support(grid, t)
        };
        let pushes = usize::from(!pop_missing) + usize::from(graft.is_none());
        if self.edits.len() + pushes > MAX_EDITS {
            return false;
        }
        if graft.is_none() {
            // `t` enters the live board only: certify the insertion by
            // the same ring reasoning — all its occupied cardinals
            // already sit on one occupied arc, so attaching `t` creates
            // no connectivity its ring did not already have.
            if !ring_certificate(&|p: Pos| grid.is_occupied(p), t) {
                return false;
            }
        }

        // Apply.  Logged edits leave the forest untouched; only the live
        // mirror and (for a graft) the aliased-leaf stamps move.
        if pop_missing {
            self.edits.pop();
        } else {
            self.edits.push((f, EditKind::Ghost));
        }
        self.mirror(grid, f, false);
        if let Some(r) = graft {
            self.graft(grid, t, r);
        } else {
            self.edits.push((t, EditKind::Missing));
        }
        self.mirror(grid, t, true);
        true
    }

    /// Sets or clears one cell's bit in the board snapshot.
    #[inline]
    fn mirror(&mut self, grid: &OccupancyGrid, p: Pos, occupied: bool) {
        let (w, b) = grid.word_bit(p);
        if occupied {
            self.board[w] |= 1u64 << b;
        } else {
            self.board[w] &= !(1u64 << b);
        }
    }

    /// Forest-free O(1) verdict for a net single relocation on a
    /// connected ensemble: the pendant-mover invariant or the ring
    /// certificate proves `occupancy \ {f}` connected, after which the
    /// move preserves connectivity iff `t` touches a block other than the
    /// mover.  `None` when neither applies (the forest decides).
    fn single_move_fast(&self, grid: &OccupancyGrid, f: Pos, t: Pos) -> Option<bool> {
        let removable = (self.sat == Some(f) && self.sat_removable)
            || ring_certificate(&|p: Pos| grid.is_occupied(p), f);
        removable.then(|| {
            t.neighbors4()
                .iter()
                .any(|&q| q != f && grid.is_occupied(q))
        })
    }

    /// O(1) structural patch for a leaf relocation: `f` vacated and `t`
    /// landed, relative to the snapshot in `self.board`.
    ///
    /// The patch applies exactly when the vacated cell was a **non-root
    /// tree leaf** (its one old neighbour is its DFS parent — such a leaf
    /// never influenced any ancestor's low-link, so only its support's
    /// cut bit needs recomputing) and the landed cell is a **leaf in the
    /// new state** whose single neighbour is a genuine support
    /// ([`ConnectivityOracle::graft_support`]), under which it is
    /// grafted ([`ConnectivityOracle::graft`]).  Any other shape returns
    /// `false` and the caller rebuilds.  Component count is invariant
    /// under both halves.
    fn patch_leaf_delta(&mut self, grid: &OccupancyGrid, f: Pos, t: Pos) -> bool {
        let bounds = grid.bounds();
        let width = bounds.width as usize;
        let index = |p: Pos| p.y as usize * width + p.x as usize;
        let old_occupied = |p: Pos| -> bool {
            bounds.contains(p) && {
                let (w, b) = grid.word_bit(p);
                self.board[w] >> b & 1 != 0
            }
        };

        // Feasibility of the vacate half: `f` must hang as a non-root
        // tree leaf on its unique old neighbour `q`.
        if self.lateral_pending(f) || !self.certs_survive(&old_occupied, f) {
            // A lateral pending entry means `f`'s forest adjacency
            // differs from its live one (the leaf-shape scan below would
            // lie), and excising a cell on a pending ring may only
            // proceed if every certificate survives it.
            return false;
        }
        let f_parent = self.parent[index(f)];
        let Some(q) = sole_neighbour(&old_occupied, f) else {
            return false;
        };
        if f_parent == NO_PARENT || f_parent != index(q) as u32 {
            // A root, or the single neighbour is `f`'s *child*: not a
            // leaf.
            return false;
        }
        if self.lateral_pending(q) {
            // `q`'s cut bit is recomputed from its live tree children,
            // which only matches the forest board when no pending entry
            // sits on `q`'s lateral ring.
            return false;
        }
        // Feasibility of the landing half.
        if self.lateral_pending(t) {
            // A lateral ghost denies `t` forest-leaf shape, and a lateral
            // landing would add an occupied cardinal a pending ring
            // certificate never saw; diagonal contact only merges ring
            // arcs and is safe.
            return false;
        }
        let Some(r) = self.graft_support(grid, t) else {
            return false;
        };

        // Apply: graft `t` first so the vacate half's cut recomputation
        // sees live tree data for it.
        self.graft(grid, t, r);
        let (w, b) = grid.word_bit(f);
        self.cut[w] &= !(1u64 << b);
        self.recompute_cut_bit(grid, q);
        self.mirror(grid, f, false);
        self.mirror(grid, t, true);
        true
    }

    /// The support a landing `t` may be grafted under: `t`'s only
    /// occupied neighbour `r` on the live board, provided `r` is genuine
    /// (not itself an aliased leaf) and carries no aliased leaf yet —
    /// one aliased leaf per support keeps interval classification
    /// unambiguous.
    fn graft_support(&self, grid: &OccupancyGrid, t: Pos) -> Option<Pos> {
        let width = grid.bounds().width as usize;
        let index = |p: Pos| p.y as usize * width + p.x as usize;
        sole_neighbour(&|p: Pos| grid.is_occupied(p), t).filter(|&r| {
            let r_idx = index(r);
            let r_parent = self.parent[r_idx];
            if r_parent != NO_PARENT && self.disc[r_idx] == self.disc[r_parent as usize] {
                return false;
            }
            r.neighbors4().iter().all(|&c| {
                c == t || !grid.is_occupied(c) || {
                    let c_idx = index(c);
                    self.parent[c_idx] != r_idx as u32 || self.disc[c_idx] != self.disc[r_idx]
                }
            })
        })
    }

    /// Grafts the landed leaf `t` under its support `r` as an aliased
    /// leaf: `parent[t] = r` and `disc[t] = low[t] = high[t] = disc[r]`,
    /// which keeps every preorder interval test exact (module docs).
    fn graft(&mut self, grid: &OccupancyGrid, t: Pos, r: Pos) {
        let width = grid.bounds().width as usize;
        let (t_idx, r_idx) = (
            t.y as usize * width + t.x as usize,
            r.y as usize * width + r.x as usize,
        );
        let stamp = self.disc[r_idx];
        self.disc[t_idx] = stamp;
        self.low[t_idx] = stamp;
        self.high[t_idx] = stamp;
        self.parent[t_idx] = r_idx as u32;
        let (w, b) = grid.word_bit(t);
        self.cut[w] &= !(1u64 << b);
        if grid.block_count() >= 3 {
            // Any third block makes `r` a cut vertex: the new state minus
            // `r` strands the grafted leaf.
            let (w, b) = grid.word_bit(r);
            self.cut[w] |= 1u64 << b;
        }
    }

    /// Recomputes one cell's articulation bit from its tree children
    /// (O(1)): a non-root `q` is cut iff some child's subtree cannot
    /// reach above `q`; a root is cut iff it kept at least two children.
    fn recompute_cut_bit(&mut self, grid: &OccupancyGrid, q: Pos) {
        let width = grid.bounds().width as usize;
        let index = |p: Pos| p.y as usize * width + p.x as usize;
        let q_idx = index(q);
        let cut = if self.parent[q_idx] == NO_PARENT {
            let mut children = 0u32;
            for c in q.neighbors4() {
                if grid.is_occupied(c) && self.parent[index(c)] == q_idx as u32 {
                    children += 1;
                }
            }
            children > 1
        } else {
            q.neighbors4().iter().any(|&c| {
                grid.is_occupied(c) && {
                    let c_idx = index(c);
                    self.parent[c_idx] == q_idx as u32 && self.low[c_idx] >= self.disc[q_idx]
                }
            })
        };
        let (w, b) = grid.word_bit(q);
        if cut {
            self.cut[w] |= 1u64 << b;
        } else {
            self.cut[w] &= !(1u64 << b);
        }
    }

    /// One iterative Tarjan low-link DFS over the occupancy bitboard:
    /// fills `cut` and `components` for the grid's current epoch.
    fn rebuild(&mut self, grid: &OccupancyGrid) {
        let bounds = grid.bounds();
        // Stack entries pack `y` (31 bits), `x` (30 bits) and the next
        // direction (3 bits) into a u64 — wide enough for any `Bounds`
        // whose area fits the u32 cell indices of `disc`/`parent`; fail
        // loudly instead of silently mis-judging Remark 1 beyond that.
        assert!(
            bounds.width < (1 << 30)
                && bounds.height < (1 << 31)
                && (bounds.area() as u64) < u64::from(u32::MAX),
            "connectivity oracle supports surfaces whose area fits 32-bit cell indices"
        );
        let area = bounds.area();
        let words = grid.occupancy_words();
        if self.disc.len() < area {
            self.disc.resize(area, UNVISITED);
            self.low.resize(area, 0);
            self.high.resize(area, 0);
            self.parent.resize(area, NO_PARENT);
        }
        self.disc[..area].fill(UNVISITED);
        if self.cut.len() < words.len() {
            self.cut.resize(words.len(), 0);
        }
        self.cut[..words.len()].fill(0);
        self.edits.clear();
        if self.edits.capacity() < MAX_EDITS {
            self.edits.reserve(MAX_EDITS);
        }
        self.stack.clear();
        self.stack.reserve(grid.block_count());
        self.components = 0;

        let words_per_row = grid.words_per_row();
        let mut timer = 0u32;
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let y = (w / words_per_row) as u32;
                let x = ((w % words_per_row) * 64) as u32 + b;
                if self.disc[y as usize * bounds.width as usize + x as usize] != UNVISITED {
                    continue;
                }
                self.components += 1;
                self.dfs_component(grid, x, y, &mut timer);
            }
        }
        // Snapshot the occupancy this build describes, for the
        // incremental diff of the next epoch change (allocation-free once
        // the capacity is warm).
        self.board.clear();
        self.board.extend_from_slice(words);
        self.board_dims = (bounds.width, bounds.height);
        self.built_epoch = Some(grid.epoch());
        self.forest_synced = true;
        // The pendant invariant re-arms on the next certified relocation.
        self.sat = None;
        self.sat_removable = false;
        self.rebuilds += 1;
    }

    /// Explores one component from `(root_x, root_y)`, marking every cut
    /// vertex it contains.
    fn dfs_component(&mut self, grid: &OccupancyGrid, root_x: u32, root_y: u32, timer: &mut u32) {
        let bounds = grid.bounds();
        let (width, height) = (bounds.width, bounds.height);
        let words_per_row = grid.words_per_row();
        let words = grid.occupancy_words();
        let occupied = |x: u32, y: u32| -> bool {
            words[y as usize * words_per_row + (x as usize >> 6)] >> (x & 63) & 1 != 0
        };
        let index = |x: u32, y: u32| -> usize { y as usize * width as usize + x as usize };
        let pack = |x: u32, y: u32| -> u64 { (y as u64) << 33 | (x as u64) << 3 };

        let root_idx = index(root_x, root_y);
        self.disc[root_idx] = *timer;
        self.low[root_idx] = *timer;
        self.high[root_idx] = *timer;
        self.parent[root_idx] = NO_PARENT;
        *timer += 1;
        let mut root_children = 0u32;
        self.stack.push(pack(root_x, root_y));

        while let Some(&entry) = self.stack.last() {
            let dir = (entry & 0b111) as u32;
            let x = (entry >> 3 & 0x3FFF_FFFF) as u32;
            let y = (entry >> 33) as u32;
            let u_idx = index(x, y);
            if dir < 4 {
                *self.stack.last_mut().expect("non-empty") = entry + 1;
                // Neighbour in direction `dir`: west, east, south, north.
                let (nx, ny) = match dir {
                    0 if x > 0 => (x - 1, y),
                    1 if x + 1 < width => (x + 1, y),
                    2 if y > 0 => (x, y - 1),
                    3 if y + 1 < height => (x, y + 1),
                    _ => continue,
                };
                if !occupied(nx, ny) {
                    continue;
                }
                let v_idx = index(nx, ny);
                if self.disc[v_idx] == UNVISITED {
                    // Tree edge: descend.
                    self.parent[v_idx] = u_idx as u32;
                    if u_idx == root_idx {
                        root_children += 1;
                    }
                    self.disc[v_idx] = *timer;
                    self.low[v_idx] = *timer;
                    self.high[v_idx] = *timer;
                    *timer += 1;
                    self.stack.push(pack(nx, ny));
                } else if self.parent[u_idx] != v_idx as u32 {
                    // Back edge (grid graphs have no parallel edges, so
                    // skipping the one parent cell is exact).
                    self.low[u_idx] = self.low[u_idx].min(self.disc[v_idx]);
                }
            } else {
                // All neighbours of `u` explored: propagate the low-link
                // to the parent and apply the articulation criterion.
                self.stack.pop();
                if let Some(&p_entry) = self.stack.last() {
                    let px = (p_entry >> 3 & 0x3FFF_FFFF) as u32;
                    let py = (p_entry >> 33) as u32;
                    let p_idx = index(px, py);
                    self.low[p_idx] = self.low[p_idx].min(self.low[u_idx]);
                    self.high[p_idx] = self.high[p_idx].max(self.high[u_idx]);
                    if p_idx != root_idx && self.low[u_idx] >= self.disc[p_idx] {
                        let (w, b) = grid.word_bit(Pos::new(px as i32, py as i32));
                        self.cut[w] |= 1u64 << b;
                    }
                }
            }
        }
        if root_children > 1 {
            let (w, b) = grid.word_bit(Pos::new(root_x as i32, root_y as i32));
            self.cut[w] |= 1u64 << b;
        }
    }
}

/// The only occupied lateral neighbour of `p`, or `None` when it has none
/// or several.
fn sole_neighbour(occupied: &impl Fn(Pos) -> bool, p: Pos) -> Option<Pos> {
    let mut occupied_neighbours = p.neighbors4().into_iter().filter(|&n| occupied(n));
    let first = occupied_neighbours.next()?;
    occupied_neighbours.next().is_none().then_some(first)
}

/// The **ring certificate**: proves `occupancy \ {f}` keeps the component
/// structure of `occupancy`, using only the eight cells surrounding `f`.
///
/// The eight surrounding cells form a cycle in the grid graph (each is
/// laterally adjacent to exactly its two circular neighbours), and every
/// path through `f` enters and leaves through two of the four cardinal
/// cells.  If all occupied cardinal neighbours of `f` lie in one arc of
/// consecutive *occupied* ring cells, any such path reroutes around `f`
/// inside the ring, so removing `f` merges or splits nothing — in
/// particular a connected ensemble stays connected.  The check is sound
/// but not complete (a far-away bypass is invisible to it); a `false`
/// only means "the ring alone cannot tell".
fn ring_certificate(occupied: &impl Fn(Pos) -> bool, f: Pos) -> bool {
    // Circular order; cardinal neighbours at even indices.
    const RING: [(i32, i32); 8] = [
        (1, 0),
        (1, 1),
        (0, 1),
        (-1, 1),
        (-1, 0),
        (-1, -1),
        (0, -1),
        (1, -1),
    ];
    let mut occ = [false; 8];
    let mut cardinals = 0u32;
    for (i, &(dx, dy)) in RING.iter().enumerate() {
        occ[i] = occupied(Pos::new(f.x + dx, f.y + dy));
        if i % 2 == 0 && occ[i] {
            cardinals += 1;
        }
    }
    if cardinals <= 1 {
        // A pendant cell certifies trivially; an isolated one cannot
        // certify (the ensemble minus `f` is the ensemble minus one
        // component, which only the caller's invariants can judge).
        return cardinals == 1;
    }
    let Some(start) = occ.iter().position(|&o| !o) else {
        // The full ring is one occupied arc.
        return true;
    };
    // Walk once around from a free cell, numbering maximal occupied runs;
    // the certificate holds iff every occupied cardinal shares one run.
    let mut run = 0u32;
    let mut seen: Option<u32> = None;
    let mut prev = false;
    for step in 1..=8usize {
        let i = (start + step) % 8;
        if occ[i] {
            if !prev {
                run += 1;
            }
            if i % 2 == 0 {
                match seen {
                    None => seen = Some(run),
                    Some(r) if r == run => {}
                    Some(_) => return false,
                }
            }
        }
        prev = occ[i];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::Bounds;
    use crate::connectivity::{articulation_points, is_connected_after, ConnectivityScratch};
    use crate::grid::BlockId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn grid_from(positions: &[(i32, i32)]) -> OccupancyGrid {
        let mut g = OccupancyGrid::new(Bounds::new(10, 10));
        for (i, &(x, y)) in positions.iter().enumerate() {
            g.place(BlockId(i as u32 + 1), Pos::new(x, y)).unwrap();
        }
        g
    }

    fn random_blob(rng: &mut SmallRng, blocks: usize) -> OccupancyGrid {
        let mut g = OccupancyGrid::new(Bounds::new(9, 9));
        g.place(BlockId(1), Pos::new(4, 4)).unwrap();
        let mut next_id = 2u32;
        while g.block_count() < blocks {
            let candidates: Vec<Pos> = g
                .blocks()
                .flat_map(|(_, p)| p.neighbors4())
                .filter(|&p| g.is_free(p))
                .collect();
            let p = candidates[rng.gen_range(0..candidates.len())];
            if g.place(BlockId(next_id), p).is_ok() {
                next_id += 1;
            }
        }
        g
    }

    #[test]
    fn mask_agrees_with_tarjan_block_listing() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut oracle = ConnectivityOracle::new();
        for _ in 0..40 {
            let g = random_blob(&mut rng, 14);
            let expected = articulation_points(&g);
            for (id, p) in g.blocks() {
                assert_eq!(
                    oracle.is_cut_vertex(&g, p),
                    expected.contains(&id),
                    "block {id} at {p}"
                );
            }
            // Empty and off-surface cells are never cut vertices.
            assert!(!oracle.is_cut_vertex(&g, Pos::new(-1, -1)));
            assert_eq!(oracle.component_count(&g), 1);
        }
    }

    #[test]
    fn line_interior_is_cut_endpoints_are_not() {
        let g = grid_from(&[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let mut oracle = ConnectivityOracle::new();
        assert!(!oracle.is_cut_vertex(&g, Pos::new(0, 0)));
        assert!(oracle.is_cut_vertex(&g, Pos::new(1, 0)));
        assert!(oracle.is_cut_vertex(&g, Pos::new(2, 0)));
        assert!(!oracle.is_cut_vertex(&g, Pos::new(3, 0)));
        assert_eq!(oracle.rebuilds(), 1, "one state, one Tarjan pass");
    }

    #[test]
    fn cut_vertex_move_that_reconnects_is_accepted() {
        // (0,0) is a cut vertex of the L, yet moving it to (1,1) keeps
        // the ensemble connected (the destination touches both arms): the
        // O(1) piece-coverage check must accept it, agreeing with the
        // BFS.
        let g = grid_from(&[(0, 0), (1, 0), (0, 1)]);
        let mut oracle = ConnectivityOracle::new();
        assert!(oracle.is_cut_vertex(&g, Pos::new(0, 0)));
        let moves = [(Pos::new(0, 0), Pos::new(1, 1))];
        assert!(oracle.preserves_connectivity(&g, &moves));
        assert!(is_connected_after(
            &g,
            &moves,
            &mut ConnectivityScratch::new()
        ));
        assert_eq!(oracle.fallback_probes(), 0, "cut sources stay O(1)");
        // Moving it away instead strands one arm.
        assert!(!oracle.preserves_connectivity(&g, &[(Pos::new(0, 0), Pos::new(0, 2))]));
    }

    #[test]
    fn probes_agree_with_bfs_on_random_single_moves() {
        let mut rng = SmallRng::seed_from_u64(23);
        let mut oracle = ConnectivityOracle::new();
        let mut scratch = ConnectivityScratch::new();
        let mut checked = 0usize;
        for _ in 0..60 {
            let g = random_blob(&mut rng, 12);
            let blocks: Vec<Pos> = g.blocks().map(|(_, p)| p).collect();
            for &from in &blocks {
                for to in from.neighbors4() {
                    if !g.is_free(to) {
                        continue;
                    }
                    let moves = [(from, to)];
                    assert_eq!(
                        oracle.preserves_connectivity(&g, &moves),
                        is_connected_after(&g, &moves, &mut scratch),
                        "move {from} -> {to}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "workload too small: {checked}");
        assert!(oracle.fast_probes() > 0, "fast path never taken");
    }

    #[test]
    fn epoch_invalidation_tracks_mutations() {
        let mut g = grid_from(&[(0, 0), (1, 0), (2, 0)]);
        let mut oracle = ConnectivityOracle::new();
        assert!(oracle.is_cut_vertex(&g, Pos::new(1, 0)));
        // Close the triangle: (1,0) stops being an articulation point.
        g.place(BlockId(9), Pos::new(1, 1)).unwrap();
        g.place(BlockId(10), Pos::new(0, 1)).unwrap();
        g.place(BlockId(11), Pos::new(2, 1)).unwrap();
        assert!(!oracle.is_cut_vertex(&g, Pos::new(1, 0)));
        assert_eq!(oracle.rebuilds(), 2);
    }

    #[test]
    fn disconnected_states_fall_back_to_the_exact_answer() {
        let g = grid_from(&[(0, 0), (2, 0)]);
        let mut oracle = ConnectivityOracle::new();
        assert_eq!(oracle.component_count(&g), 2);
        // Moving (2,0) west to (1,0) joins the components.
        assert!(oracle.preserves_connectivity(&g, &[(Pos::new(2, 0), Pos::new(1, 0))]));
        // Moving it east keeps them apart.
        assert!(!oracle.preserves_connectivity(&g, &[(Pos::new(2, 0), Pos::new(3, 0))]));
        // The empty batch reports the current (dis)connectivity.
        assert!(!oracle.preserves_connectivity(&g, &[]));
    }

    #[test]
    fn carrying_chains_are_answered_without_the_bfs() {
        // A hand-over chain on a supported pair reduces to a single net
        // relocation: exact answers, no BFS.
        let g = grid_from(&[(0, 1), (1, 1), (1, 0), (2, 0)]);
        let mut oracle = ConnectivityOracle::new();
        let carry = [
            (Pos::new(1, 1), Pos::new(2, 1)),
            (Pos::new(0, 1), Pos::new(1, 1)),
        ];
        let expected = is_connected_after(&g, &carry, &mut ConnectivityScratch::new());
        assert_eq!(oracle.preserves_connectivity(&g, &carry), expected);
        assert_eq!(oracle.fallback_probes(), 0, "hand-over chains stay O(1)");
        // A chain that abandons the support instead must be rejected —
        // still without the BFS.
        let stranding = [
            (Pos::new(1, 1), Pos::new(1, 2)),
            (Pos::new(0, 1), Pos::new(0, 2)),
        ];
        assert_eq!(
            oracle.preserves_connectivity(&g, &stranding),
            is_connected_after(&g, &stranding, &mut ConnectivityScratch::new()),
        );
    }

    #[test]
    fn pair_vacates_agree_with_bfs_on_random_batches() {
        // Genuine two-cell vacates (no hand-over cancellation): no
        // catalogue rule produces one, so the oracle hands them to the
        // BFS, and its answer must agree bit-for-bit.
        let mut rng = SmallRng::seed_from_u64(31);
        let mut oracle = ConnectivityOracle::new();
        let mut scratch = ConnectivityScratch::new();
        let mut checked = 0usize;
        for _ in 0..40 {
            let g = random_blob(&mut rng, 14);
            let blocks: Vec<Pos> = g.blocks().map(|(_, p)| p).collect();
            for &a in &blocks {
                for b in a.neighbors4() {
                    if !g.is_occupied(b) {
                        continue;
                    }
                    let frees: Vec<Pos> = blocks
                        .iter()
                        .flat_map(|p| p.neighbors4())
                        .filter(|&p| g.is_free(p) && p != a && p != b)
                        .collect();
                    for (i, &d1) in frees.iter().enumerate() {
                        // A few destination pairs per vacated pair keep
                        // the quadratic enumeration in check.
                        for &d2 in frees[i + 1..].iter().take(3) {
                            let moves = [(a, d1), (b, d2)];
                            assert_eq!(
                                oracle.preserves_connectivity(&g, &moves),
                                is_connected_after(&g, &moves, &mut scratch),
                                "pair vacate {a},{b} -> {d1},{d2}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 500, "workload too small: {checked}");
    }

    #[test]
    fn incremental_patch_absorbs_leaf_relocations() {
        // A leaf hopping along a line: every epoch is a leaf relocation,
        // so after the first build no rebuild may happen — and the
        // patched structure must keep agreeing with the from-scratch
        // Tarjan listing and the BFS.
        let mut g = grid_from(&[(0, 0), (1, 0), (2, 0), (3, 0), (3, 1)]);
        let mut oracle = ConnectivityOracle::new();
        assert!(oracle.preserves_connectivity(&g, &[(Pos::new(3, 1), Pos::new(2, 1))]));
        assert_eq!(oracle.rebuilds(), 1);

        let hops = [
            (Pos::new(3, 1), Pos::new(2, 1)),
            (Pos::new(2, 1), Pos::new(1, 1)),
            (Pos::new(1, 1), Pos::new(0, 1)),
            (Pos::new(0, 1), Pos::new(1, 1)),
        ];
        for (from, to) in hops {
            g.move_block(from, to).unwrap();
            let expected = articulation_points(&g);
            for (id, p) in g.blocks() {
                assert_eq!(
                    oracle.is_cut_vertex(&g, p),
                    expected.contains(&id),
                    "after {from} -> {to}: block {id} at {p}"
                );
            }
            assert_eq!(oracle.component_count(&g), 1);
            let mut scratch = ConnectivityScratch::new();
            for (_, s) in g.blocks() {
                for d in s.neighbors4() {
                    if g.is_free(d) {
                        let moves = [(s, d)];
                        assert_eq!(
                            oracle.preserves_connectivity(&g, &moves),
                            is_connected_after(&g, &moves, &mut scratch),
                            "after {from} -> {to}: move {s} -> {d}"
                        );
                    }
                }
            }
        }
        assert_eq!(oracle.rebuilds(), 1, "leaf hops must patch, not rebuild");
        assert_eq!(oracle.incremental_updates(), hops.len() as u64);
    }

    #[test]
    fn incremental_patches_agree_with_full_rebuilds_on_random_walks() {
        // Random single-block moves on random blobs: whenever the oracle
        // chooses the incremental path its mask, component count and
        // probe answers must be indistinguishable from a fresh build's.
        let mut rng = SmallRng::seed_from_u64(47);
        let mut patched = 0u64;
        for round in 0..30 {
            let mut g = random_blob(&mut rng, 12);
            let mut oracle = ConnectivityOracle::new();
            let mut scratch = ConnectivityScratch::new();
            for step in 0..24 {
                let movers: Vec<(Pos, Pos)> = g
                    .blocks()
                    .flat_map(|(_, s)| s.neighbors4().map(|d| (s, d)))
                    .filter(|&(s, d)| {
                        g.is_free(d) && is_connected_after(&g, &[(s, d)], &mut scratch)
                    })
                    .collect();
                if movers.is_empty() {
                    break;
                }
                let (s, d) = movers[rng.gen_range(0..movers.len())];
                g.move_block(s, d).unwrap();
                let expected = articulation_points(&g);
                for (id, p) in g.blocks() {
                    assert_eq!(
                        oracle.is_cut_vertex(&g, p),
                        expected.contains(&id),
                        "round {round} step {step}: block {id} at {p}"
                    );
                }
                for (_, from) in g.blocks() {
                    for to in from.neighbors4() {
                        if g.is_free(to) {
                            let moves = [(from, to)];
                            assert_eq!(
                                oracle.preserves_connectivity(&g, &moves),
                                is_connected_after(&g, &moves, &mut scratch),
                                "round {round} step {step}: move {from} -> {to}"
                            );
                        }
                    }
                }
            }
            patched += oracle.incremental_updates();
        }
        assert!(patched > 0, "the walks never exercised the patch path");
    }

    #[test]
    fn corner_departures_and_hops_never_rebuild() {
        // The reconfiguration peel pattern: movers depart the corner of a
        // two-wide slab (an interior, degree-2 vacate the old leaf patch
        // could never express) and hop along a free column before
        // parking. The ring certificate plus the pendant-mover invariant
        // must absorb every epoch after the initial build.
        let mut g = OccupancyGrid::new(Bounds::new(8, 8));
        let mut id = 1u32;
        for y in 0..6 {
            for x in 0..2 {
                g.place(BlockId(id), Pos::new(x, y)).unwrap();
                id += 1;
            }
        }
        let mut oracle = ConnectivityOracle::new();
        let mut scratch = ConnectivityScratch::new();
        let mut epochs = 0u64;
        for journey in 0..3i32 {
            // Journey j departs the slab corner (1, 5 - j), hops down the
            // x = 2 column hugging the slab and parks at (2, j) on top of
            // the previously parked movers.
            let mut from = Pos::new(1, 5 - journey);
            for y in (journey..=(4 - journey)).rev() {
                let to = Pos::new(2, y);
                let moves = [(from, to)];
                assert_eq!(
                    oracle.preserves_connectivity(&g, &moves),
                    is_connected_after(&g, &moves, &mut scratch),
                    "journey {journey}: {from} -> {to}"
                );
                g.move_block(from, to).unwrap();
                from = to;
                epochs += 1;
            }
        }
        // One last sync for the final epoch, then audit the counters.
        assert_eq!(oracle.component_count(&g), 1);
        assert_eq!(
            oracle.rebuilds(),
            1,
            "corner departures and hops must all patch"
        );
        assert_eq!(oracle.incremental_updates(), epochs);
        assert_eq!(oracle.fallback_probes(), 0);
    }
}
