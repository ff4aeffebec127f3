//! Occupancy of the surface: which block sits on which cell.
//!
//! The cell and block lookups every protocol message reaches
//! ([`OccupancyGrid::block_at`], [`OccupancyGrid::position_of`]) carry
//! `#[inline]`: a release build splits crates and modules into separate
//! codegen units, and their per-message callers live in other crates.

use crate::bounds::Bounds;
use crate::pos::Pos;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of globally unique occupancy versions: every grid mutation
/// stamps the grid with a fresh value drawn from this process-wide
/// counter, so two grids carrying the same [`OccupancyGrid::epoch`] are
/// guaranteed to hold identical occupancy (either untouched clones of one
/// another or the same grid).  Derived caches (the connectivity oracle,
/// the memoised distance fields) key on the epoch instead of subscribing
/// to invalidation callbacks.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Identifier of a block.  The paper numbers blocks (Figs. 10–11) to follow
/// their progression; identifiers are stable across moves.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The underlying integer.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u32> for BlockId {
    fn from(v: u32) -> Self {
        BlockId(v)
    }
}

/// Largest accepted block identifier.  Positions are kept in a dense
/// array indexed by id, so ids must stay within a sane range; the cap is
/// far above any realistic block count while bounding the index at a few
/// megabytes.
pub const MAX_BLOCK_ID: u32 = (1 << 20) - 1;

/// Errors returned by occupancy mutations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GridError {
    /// The position is outside the surface bounds.
    OutOfBounds(Pos),
    /// The block identifier exceeds [`MAX_BLOCK_ID`].
    IdTooLarge(BlockId),
    /// The destination cell already holds a block.
    CellOccupied(Pos, BlockId),
    /// The source cell holds no block.
    CellEmpty(Pos),
    /// The block identifier is already placed somewhere.
    DuplicateBlock(BlockId),
    /// The block identifier is unknown.
    UnknownBlock(BlockId),
    /// A batch of simultaneous moves targets the same destination twice.
    ConflictingMoves(Pos),
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::OutOfBounds(p) => write!(f, "position {p} is outside the surface"),
            GridError::IdTooLarge(id) => {
                write!(f, "block id {id} exceeds the maximum of {MAX_BLOCK_ID}")
            }
            GridError::CellOccupied(p, id) => write!(f, "cell {p} is already occupied by {id}"),
            GridError::CellEmpty(p) => write!(f, "cell {p} is empty"),
            GridError::DuplicateBlock(id) => write!(f, "block {id} is already on the surface"),
            GridError::UnknownBlock(id) => write!(f, "block {id} is not on the surface"),
            GridError::ConflictingMoves(p) => {
                write!(f, "two simultaneous moves target the same cell {p}")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// The occupancy grid: a dense cell array, a row-major `u64` occupancy
/// bitboard, and a dense block-id → position index.
///
/// This is the ground truth the simulators maintain.  Individual blocks
/// never read it directly — they only perceive their immediate
/// neighbourhood through the sensing API of the runtimes — but the motion
/// engine uses it to extract Presence Matrices and to check global
/// invariants (connectivity, Remark 1).
///
/// ## Bitboard layout
///
/// `words` holds one bit per cell, row-major from the *south* row upwards
/// (the same orientation as `cells`): row `y` occupies the
/// `words_per_row = ceil(W / 64)` words starting at `y * words_per_row`,
/// and within a word bit `x % 64` (LSB = westernmost) is cell `(x, y)`.
/// Bits beyond the surface width in the last word of a row are always
/// zero, so whole-word operations never see phantom blocks.  The motion
/// engine lifts rule windows straight off this board
/// ([`OccupancyGrid::window_mask`]) instead of probing cells one by one.
#[derive(Clone)]
pub struct OccupancyGrid {
    bounds: Bounds,
    words_per_row: usize,
    cells: Vec<Option<BlockId>>,
    words: Vec<u64>,
    /// Position of block `#i` at index `i` (dense; `None` = not placed).
    positions: Vec<Option<Pos>>,
    occupied: usize,
    /// Globally unique version of the occupancy content (see
    /// [`OccupancyGrid::epoch`]).
    epoch: u64,
}

impl PartialEq for OccupancyGrid {
    fn eq(&self, other: &Self) -> bool {
        // `cells` fully determines `words`, `positions` and `occupied`;
        // comparing it (plus the extent) is the logical equality, immune
        // to differences in the dense index's trailing capacity.
        self.bounds == other.bounds && self.cells == other.cells
    }
}

impl Eq for OccupancyGrid {}

impl OccupancyGrid {
    /// Creates an empty grid with the given extent.
    pub fn new(bounds: Bounds) -> Self {
        let words_per_row = (bounds.width as usize).div_ceil(64);
        OccupancyGrid {
            bounds,
            words_per_row,
            cells: vec![None; bounds.area()],
            words: vec![0; words_per_row * bounds.height as usize],
            positions: Vec::new(),
            occupied: 0,
            epoch: fresh_epoch(),
        }
    }

    /// The occupancy version: a process-globally unique stamp renewed by
    /// every mutation.  Two grids reporting the same epoch are guaranteed
    /// to hold bit-identical occupancy (a clone shares its source's epoch
    /// until either is mutated), so caches derived from the occupancy —
    /// the cut-vertex oracle, the memoised distance fields — compare
    /// epochs instead of being invalidated by hand.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `(word index, bit index)` of a contained position in the bitboard
    /// layout — the single home of the addressing formula, shared with
    /// the connectivity probes.
    #[inline]
    pub(crate) fn word_bit(&self, pos: Pos) -> (usize, u32) {
        debug_assert!(self.bounds.contains(pos));
        let word = pos.y as usize * self.words_per_row + (pos.x as usize >> 6);
        (word, (pos.x as u32) & 63)
    }

    #[inline]
    fn set_bit(&mut self, pos: Pos) {
        let (w, b) = self.word_bit(pos);
        self.words[w] |= 1u64 << b;
    }

    #[inline]
    fn clear_bit(&mut self, pos: Pos) {
        let (w, b) = self.word_bit(pos);
        self.words[w] &= !(1u64 << b);
    }

    #[inline]
    fn test_bit(&self, pos: Pos) -> bool {
        let (w, b) = self.word_bit(pos);
        self.words[w] >> b & 1 != 0
    }

    fn position_slot(&mut self, id: BlockId) -> &mut Option<Pos> {
        let idx = id.0 as usize;
        if idx >= self.positions.len() {
            self.positions.resize(idx + 1, None);
        }
        &mut self.positions[idx]
    }

    /// The surface extent.
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// Number of blocks currently on the surface.
    pub fn block_count(&self) -> usize {
        self.occupied
    }

    /// The block occupying `pos`, if any.  Positions outside the surface
    /// are reported as empty.
    #[inline]
    pub fn block_at(&self, pos: Pos) -> Option<BlockId> {
        if !self.bounds.contains(pos) {
            return None;
        }
        self.cells[self.bounds.index_of(pos)]
    }

    /// Whether `pos` is on the surface and holds a block.
    pub fn is_occupied(&self, pos: Pos) -> bool {
        self.bounds.contains(pos) && self.test_bit(pos)
    }

    /// Whether `pos` is on the surface and free.
    pub fn is_free(&self, pos: Pos) -> bool {
        self.bounds.contains(pos) && !self.test_bit(pos)
    }

    /// The position of a block.
    #[inline]
    pub fn position_of(&self, id: BlockId) -> Option<Pos> {
        self.positions.get(id.0 as usize).copied().flatten()
    }

    /// Iterates over `(BlockId, Pos)` pairs in ascending id order.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, Pos)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .filter_map(|(i, pos)| pos.map(|p| (BlockId(i as u32), p)))
    }

    /// Iterates over block identifiers sorted by id (deterministic order).
    pub fn block_ids_sorted(&self) -> Vec<BlockId> {
        self.blocks().map(|(id, _)| id).collect()
    }

    /// The raw occupancy bitboard (see the type-level layout notes).
    pub fn occupancy_words(&self) -> &[u64] {
        &self.words
    }

    /// Number of `u64` words per bitboard row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Lifts the `size × size` occupancy window centred on `center` into a
    /// single `u64`, bit `row * size + col` set when the cell is occupied.
    /// Row 0 is the *northernmost* row and column 0 the westernmost,
    /// matching [`OccupancyGrid::presence_window`] and the paper's matrix
    /// notation; cells outside the surface read as empty.  `size` must be
    /// odd and at most 8 (64 bits).
    #[inline]
    pub fn window_mask(&self, center: Pos, size: usize) -> u64 {
        debug_assert!(size % 2 == 1 && size <= 8);
        let half = (size / 2) as i32;
        let mut out = 0u64;
        for row in 0..size {
            let y = center.y + half - row as i32;
            let bits = self.row_bits(y, center.x - half, size as u32);
            out |= bits << (row * size);
        }
        out
    }

    /// The `n` occupancy bits of row `y` starting at column `x0` (bit 0 =
    /// `x0`), zero-filled outside the surface.  `n <= 57` so the result
    /// always fits even when `x0` straddles a word boundary.
    #[inline]
    fn row_bits(&self, y: i32, x0: i32, n: u32) -> u64 {
        if y < 0 || y >= self.bounds.height as i32 {
            return 0;
        }
        let width = self.bounds.width as i32;
        let lo = x0.max(0);
        let hi = (x0 + n as i32).min(width);
        if lo >= hi {
            return 0;
        }
        let row_base = y as usize * self.words_per_row;
        let mut out = 0u64;
        let mut x = lo;
        while x < hi {
            let bit = (x as usize) & 63;
            let take = ((64 - bit) as i32).min(hi - x) as u32;
            let chunk_mask = if take == 64 { !0 } else { (1u64 << take) - 1 };
            let chunk = (self.words[row_base + ((x as usize) >> 6)] >> bit) & chunk_mask;
            out |= chunk << (x - x0);
            x += take as i32;
        }
        out
    }

    /// Places a new block on a free cell.
    pub fn place(&mut self, id: BlockId, pos: Pos) -> Result<(), GridError> {
        if !self.bounds.contains(pos) {
            return Err(GridError::OutOfBounds(pos));
        }
        if id.0 > MAX_BLOCK_ID {
            return Err(GridError::IdTooLarge(id));
        }
        if self.position_of(id).is_some() {
            return Err(GridError::DuplicateBlock(id));
        }
        if let Some(existing) = self.block_at(pos) {
            return Err(GridError::CellOccupied(pos, existing));
        }
        let idx = self.bounds.index_of(pos);
        self.cells[idx] = Some(id);
        self.set_bit(pos);
        *self.position_slot(id) = Some(pos);
        self.occupied += 1;
        self.epoch = fresh_epoch();
        Ok(())
    }

    /// Removes the block occupying `pos` and returns its identifier.
    pub fn remove_at(&mut self, pos: Pos) -> Result<BlockId, GridError> {
        if !self.bounds.contains(pos) {
            return Err(GridError::OutOfBounds(pos));
        }
        let idx = self.bounds.index_of(pos);
        match self.cells[idx].take() {
            Some(id) => {
                self.clear_bit(pos);
                self.positions[id.0 as usize] = None;
                self.occupied -= 1;
                self.epoch = fresh_epoch();
                Ok(id)
            }
            None => Err(GridError::CellEmpty(pos)),
        }
    }

    /// Moves the block at `from` to the free cell `to`.  This is an
    /// *elementary motion* in the paper's vocabulary; rule-level validity
    /// (support blocks, free cells in the north, …) is checked by
    /// `sb-motion`, not here.
    pub fn move_block(&mut self, from: Pos, to: Pos) -> Result<BlockId, GridError> {
        if !self.bounds.contains(from) {
            return Err(GridError::OutOfBounds(from));
        }
        if !self.bounds.contains(to) {
            return Err(GridError::OutOfBounds(to));
        }
        let id = self.block_at(from).ok_or(GridError::CellEmpty(from))?;
        if let Some(existing) = self.block_at(to) {
            return Err(GridError::CellOccupied(to, existing));
        }
        let from_idx = self.bounds.index_of(from);
        let to_idx = self.bounds.index_of(to);
        self.cells[from_idx] = None;
        self.cells[to_idx] = Some(id);
        self.clear_bit(from);
        self.set_bit(to);
        self.positions[id.0 as usize] = Some(to);
        self.epoch = fresh_epoch();
        Ok(id)
    }

    /// Applies a set of *simultaneous* elementary moves, as required by the
    /// carrying rules of Section IV where several adjacent blocks move at
    /// the same time (a destination may coincide with another move's
    /// source: code 5 of Table I, "a new block occupies immediately a cell
    /// abandoned by a previous block").
    ///
    /// All sources are vacated first, then all destinations are filled, so
    /// chains like `A -> B, B -> C` are legal in a single batch.  The batch
    /// is validated before any mutation; on error the grid is unchanged.
    pub fn apply_simultaneous_moves(
        &mut self,
        moves: &[(Pos, Pos)],
    ) -> Result<Vec<BlockId>, GridError> {
        self.validate_simultaneous_moves(moves)?;
        // Execution: vacate all sources, then fill all destinations.
        let mut moved = Vec::with_capacity(moves.len());
        let mut staged: Vec<(BlockId, Pos)> = Vec::with_capacity(moves.len());
        for &(from, to) in moves {
            let idx = self.bounds.index_of(from);
            let id = self.cells[idx].take().expect("validated above");
            self.clear_bit(from);
            staged.push((id, to));
        }
        for (id, to) in staged {
            let idx = self.bounds.index_of(to);
            debug_assert!(self.cells[idx].is_none(), "conflict validated above");
            self.cells[idx] = Some(id);
            self.set_bit(to);
            self.positions[id.0 as usize] = Some(to);
            moved.push(id);
        }
        self.epoch = fresh_epoch();
        Ok(moved)
    }

    /// Validates a batch of simultaneous moves without mutating anything:
    /// every cell on the surface, every source occupied, no duplicated
    /// source or destination, and every destination free or vacated by
    /// another move of the same batch.
    pub fn validate_simultaneous_moves(&self, moves: &[(Pos, Pos)]) -> Result<(), GridError> {
        for (i, &(from, to)) in moves.iter().enumerate() {
            if !self.bounds.contains(from) {
                return Err(GridError::OutOfBounds(from));
            }
            if !self.bounds.contains(to) {
                return Err(GridError::OutOfBounds(to));
            }
            if !self.test_bit(from) {
                return Err(GridError::CellEmpty(from));
            }
            for &(prev_from, prev_to) in &moves[..i] {
                if prev_to == to {
                    return Err(GridError::ConflictingMoves(to));
                }
                if prev_from == from {
                    return Err(GridError::ConflictingMoves(from));
                }
            }
        }
        // A destination must be free, or be the source of another move in
        // the same batch (it will be vacated simultaneously).
        for &(_, to) in moves {
            if self.test_bit(to) && !moves.iter().any(|&(from, _)| from == to) {
                return Err(GridError::CellOccupied(to, self.block_at(to).unwrap()));
            }
        }
        Ok(())
    }

    /// Occupied lateral neighbours of `pos`, as `(Direction index order)`.
    pub fn occupied_neighbors(&self, pos: Pos) -> Vec<(crate::Direction, BlockId)> {
        crate::Direction::ALL
            .iter()
            .filter_map(|&d| self.block_at(pos.step(d)).map(|id| (d, id)))
            .collect()
    }

    /// Extracts the `size × size` presence window centred on `center`
    /// (`size` must be odd).  Row 0 of the result is the *northernmost*
    /// row, matching the matrix notation of the paper (Eqs. 1–5), and
    /// column 0 is the westernmost column.  Cells outside the surface
    /// count as empty.
    pub fn presence_window(&self, center: Pos, size: usize) -> Vec<Vec<bool>> {
        assert!(size % 2 == 1, "presence window size must be odd");
        let half = (size / 2) as i32;
        let mut rows = Vec::with_capacity(size);
        for row in 0..size as i32 {
            let dy = half - row; // row 0 = north
            let mut cells = Vec::with_capacity(size);
            for col in 0..size as i32 {
                let dx = col - half;
                cells.push(self.is_occupied(center.offset(dx, dy)));
            }
            rows.push(cells);
        }
        rows
    }

    /// Whether the set of blocks is connected under 4-adjacency.
    /// An empty grid and a single block are considered connected.
    pub fn is_connected(&self) -> bool {
        crate::connectivity::is_connected(self)
    }

    /// Positions of all blocks, sorted (deterministic order for hashing /
    /// comparison in tests).
    pub fn occupied_positions_sorted(&self) -> Vec<Pos> {
        let mut v: Vec<Pos> = self.positions.iter().filter_map(|p| *p).collect();
        v.sort();
        v
    }
}

impl fmt::Debug for OccupancyGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OccupancyGrid({}x{}, {} blocks)",
            self.bounds.width,
            self.bounds.height,
            self.block_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid3x3_with_l_shape() -> OccupancyGrid {
        // Blocks at (0,0), (1,0), (1,1)
        let mut g = OccupancyGrid::new(Bounds::new(3, 3));
        g.place(BlockId(1), Pos::new(0, 0)).unwrap();
        g.place(BlockId(2), Pos::new(1, 0)).unwrap();
        g.place(BlockId(3), Pos::new(1, 1)).unwrap();
        g
    }

    #[test]
    fn place_and_query() {
        let g = grid3x3_with_l_shape();
        assert_eq!(g.block_count(), 3);
        assert_eq!(g.block_at(Pos::new(0, 0)), Some(BlockId(1)));
        assert_eq!(g.position_of(BlockId(3)), Some(Pos::new(1, 1)));
        assert!(g.is_free(Pos::new(2, 2)));
        assert!(!g.is_free(Pos::new(5, 5))); // outside is not "free"
        assert!(!g.is_occupied(Pos::new(5, 5)));
    }

    #[test]
    fn place_errors() {
        let mut g = grid3x3_with_l_shape();
        assert_eq!(
            g.place(BlockId(9), Pos::new(0, 0)),
            Err(GridError::CellOccupied(Pos::new(0, 0), BlockId(1)))
        );
        assert_eq!(
            g.place(BlockId(1), Pos::new(2, 2)),
            Err(GridError::DuplicateBlock(BlockId(1)))
        );
        assert_eq!(
            g.place(BlockId(9), Pos::new(7, 0)),
            Err(GridError::OutOfBounds(Pos::new(7, 0)))
        );
        // Ids above the dense-index cap are rejected instead of
        // triggering a gigantic `positions` resize.
        assert_eq!(
            g.place(BlockId(u32::MAX), Pos::new(2, 2)),
            Err(GridError::IdTooLarge(BlockId(u32::MAX)))
        );
        assert!(g.is_free(Pos::new(2, 2)));
    }

    #[test]
    fn move_block_updates_both_indices() {
        let mut g = grid3x3_with_l_shape();
        let id = g.move_block(Pos::new(1, 1), Pos::new(2, 1)).unwrap();
        assert_eq!(id, BlockId(3));
        assert_eq!(g.block_at(Pos::new(1, 1)), None);
        assert_eq!(g.block_at(Pos::new(2, 1)), Some(BlockId(3)));
        assert_eq!(g.position_of(BlockId(3)), Some(Pos::new(2, 1)));
    }

    #[test]
    fn move_block_errors() {
        let mut g = grid3x3_with_l_shape();
        assert_eq!(
            g.move_block(Pos::new(2, 2), Pos::new(2, 1)),
            Err(GridError::CellEmpty(Pos::new(2, 2)))
        );
        assert_eq!(
            g.move_block(Pos::new(0, 0), Pos::new(1, 0)),
            Err(GridError::CellOccupied(Pos::new(1, 0), BlockId(2)))
        );
    }

    #[test]
    fn remove_at_frees_the_cell() {
        let mut g = grid3x3_with_l_shape();
        assert_eq!(g.remove_at(Pos::new(1, 0)), Ok(BlockId(2)));
        assert_eq!(g.block_count(), 2);
        assert!(g.is_free(Pos::new(1, 0)));
        assert_eq!(
            g.remove_at(Pos::new(1, 0)),
            Err(GridError::CellEmpty(Pos::new(1, 0)))
        );
    }

    #[test]
    fn simultaneous_chain_moves_carrying() {
        // The "east carrying" situation: block A at (0,1) and block B at
        // (1,1) both move one cell east in the same step; B's destination
        // (2,1) is free, A's destination (1,1) is B's source.
        let mut g = OccupancyGrid::new(Bounds::new(4, 3));
        g.place(BlockId(1), Pos::new(0, 1)).unwrap();
        g.place(BlockId(2), Pos::new(1, 1)).unwrap();
        g.place(BlockId(3), Pos::new(1, 0)).unwrap(); // support
        let moves = [
            (Pos::new(1, 1), Pos::new(2, 1)),
            (Pos::new(0, 1), Pos::new(1, 1)),
        ];
        let moved = g.apply_simultaneous_moves(&moves).unwrap();
        assert_eq!(moved, vec![BlockId(2), BlockId(1)]);
        assert_eq!(g.block_at(Pos::new(2, 1)), Some(BlockId(2)));
        assert_eq!(g.block_at(Pos::new(1, 1)), Some(BlockId(1)));
        assert!(g.is_free(Pos::new(0, 1)));
    }

    #[test]
    fn simultaneous_moves_reject_conflicts() {
        let mut g = OccupancyGrid::new(Bounds::new(4, 3));
        g.place(BlockId(1), Pos::new(0, 0)).unwrap();
        g.place(BlockId(2), Pos::new(2, 0)).unwrap();
        let before = g.clone();
        // Both blocks target (1,0).
        let err = g
            .apply_simultaneous_moves(&[
                (Pos::new(0, 0), Pos::new(1, 0)),
                (Pos::new(2, 0), Pos::new(1, 0)),
            ])
            .unwrap_err();
        assert_eq!(err, GridError::ConflictingMoves(Pos::new(1, 0)));
        assert_eq!(g, before, "failed batch must not mutate the grid");
    }

    #[test]
    fn simultaneous_moves_reject_occupied_destination() {
        let mut g = grid3x3_with_l_shape();
        let before = g.clone();
        let err = g
            .apply_simultaneous_moves(&[(Pos::new(0, 0), Pos::new(1, 0))])
            .unwrap_err();
        assert!(matches!(err, GridError::CellOccupied(_, _)));
        assert_eq!(g, before);
    }

    #[test]
    fn presence_window_matches_matrix_orientation() {
        // Reproduce the Presence Matrix of Eq. (2):
        //   0 0 0
        //   1 1 0
        //   1 1 1
        // centred on the moving block.  Put the centre at (1,1):
        // north row empty, centre row has blocks at west+centre,
        // south row fully occupied.
        let mut g = OccupancyGrid::new(Bounds::new(3, 3));
        g.place(BlockId(1), Pos::new(0, 1)).unwrap();
        g.place(BlockId(2), Pos::new(1, 1)).unwrap();
        g.place(BlockId(3), Pos::new(0, 0)).unwrap();
        g.place(BlockId(4), Pos::new(1, 0)).unwrap();
        g.place(BlockId(5), Pos::new(2, 0)).unwrap();
        let w = g.presence_window(Pos::new(1, 1), 3);
        assert_eq!(
            w,
            vec![
                vec![false, false, false],
                vec![true, true, false],
                vec![true, true, true],
            ]
        );
    }

    #[test]
    fn presence_window_outside_cells_are_empty() {
        let mut g = OccupancyGrid::new(Bounds::new(2, 2));
        g.place(BlockId(1), Pos::new(0, 0)).unwrap();
        let w = g.presence_window(Pos::new(0, 0), 3);
        // Everything west / south of (0,0) is off-surface hence empty.
        assert_eq!(w[2], vec![false, false, false]);
        assert!(!w[1][0]);
        assert!(w[1][1]);
    }

    #[test]
    fn occupied_neighbors_reports_directions() {
        let g = grid3x3_with_l_shape();
        let n = g.occupied_neighbors(Pos::new(1, 0));
        // Block #2 at (1,0): north neighbour #3, west neighbour #1.
        assert!(n.contains(&(crate::Direction::North, BlockId(3))));
        assert!(n.contains(&(crate::Direction::West, BlockId(1))));
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn window_mask_matches_presence_window() {
        let mut g = OccupancyGrid::new(Bounds::new(7, 5));
        for (i, &(x, y)) in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (6, 4), (0, 4)]
            .iter()
            .enumerate()
        {
            g.place(BlockId(i as u32 + 1), Pos::new(x, y)).unwrap();
        }
        for center in [
            Pos::new(1, 1),
            Pos::new(0, 0),
            Pos::new(6, 4),
            Pos::new(3, 2),
            Pos::new(-1, -1),
            Pos::new(7, 5),
        ] {
            for size in [3usize, 5, 7] {
                let mask = g.window_mask(center, size);
                let window = g.presence_window(center, size);
                for (row, window_row) in window.iter().enumerate() {
                    for (col, &cell) in window_row.iter().enumerate() {
                        let bit = mask >> (row * size + col) & 1 != 0;
                        assert_eq!(
                            bit, cell,
                            "center {center}, size {size}, cell ({col},{row})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bitboard_stays_consistent_with_cells() {
        let mut g = grid3x3_with_l_shape();
        g.move_block(Pos::new(1, 1), Pos::new(2, 1)).unwrap();
        g.remove_at(Pos::new(0, 0)).unwrap();
        g.place(BlockId(9), Pos::new(0, 2)).unwrap();
        for p in g.bounds().iter() {
            assert_eq!(g.is_occupied(p), g.block_at(p).is_some(), "at {p}");
        }
    }

    #[test]
    fn epoch_changes_on_every_mutation_and_only_then() {
        let mut g = grid3x3_with_l_shape();
        let e0 = g.epoch();
        assert_eq!(g.epoch(), e0, "reads do not advance the epoch");
        // An untouched clone shares the version (identical content).
        let clone = g.clone();
        assert_eq!(clone.epoch(), e0);
        g.move_block(Pos::new(1, 1), Pos::new(2, 1)).unwrap();
        let e1 = g.epoch();
        assert_ne!(e1, e0);
        assert_eq!(clone.epoch(), e0, "the clone keeps its own version");
        // Failed mutations leave the epoch untouched.
        assert!(g.move_block(Pos::new(2, 2), Pos::new(2, 1)).is_err());
        assert_eq!(g.epoch(), e1);
        // Epochs are globally unique: a fresh grid never aliases an
        // existing one.
        let other = OccupancyGrid::new(Bounds::new(3, 3));
        assert_ne!(other.epoch(), g.epoch());
        assert_ne!(other.epoch(), e0);
    }

    #[test]
    fn block_ids_sorted_is_deterministic() {
        let g = grid3x3_with_l_shape();
        assert_eq!(
            g.block_ids_sorted(),
            vec![BlockId(1), BlockId(2), BlockId(3)]
        );
    }
}
