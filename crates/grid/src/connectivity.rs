//! Connectivity analysis of the block ensemble.
//!
//! Remark 1 of the paper prohibits block motions that disconnect one or
//! several blocks: a separated block cannot move anymore (it has no
//! support) and cannot participate in the distributed application.  The
//! motion engine therefore needs to answer, cheaply and repeatedly, "is
//! the ensemble still connected after this move?" and "which blocks are
//! articulation points?".

use crate::grid::{BlockId, OccupancyGrid};
use crate::pos::Pos;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Whether the set of occupied cells forms a single 4-connected component.
/// The empty set and singletons are connected by convention.
pub fn is_connected(grid: &OccupancyGrid) -> bool {
    let n = grid.block_count();
    if n <= 1 {
        return true;
    }
    let start = grid.blocks().map(|(_, p)| p).min().expect("non-empty grid");
    reachable_from(grid, start, None).len() == n
}

/// The occupied positions reachable from `start` through occupied cells,
/// optionally pretending that `skip` is empty (used to test articulation).
/// The ordered set keeps every consumer's iteration deterministic.
pub fn reachable_from(grid: &OccupancyGrid, start: Pos, skip: Option<Pos>) -> BTreeSet<Pos> {
    let mut seen = BTreeSet::new();
    if Some(start) == skip || !grid.is_occupied(start) {
        return seen;
    }
    let mut queue = VecDeque::new();
    queue.push_back(start);
    seen.insert(start);
    while let Some(p) = queue.pop_front() {
        for n in p.neighbors4() {
            if Some(n) == skip || seen.contains(&n) || !grid.is_occupied(n) {
                continue;
            }
            seen.insert(n);
            queue.push_back(n);
        }
    }
    seen
}

/// Whether removing the block at `pos` (e.g. because it is about to move
/// away) would split the remaining blocks into several components.
pub fn is_articulation(grid: &OccupancyGrid, pos: Pos) -> bool {
    if !grid.is_occupied(pos) {
        return false;
    }
    let remaining = grid.block_count() - 1;
    if remaining <= 1 {
        return false;
    }
    let start = grid
        .blocks()
        .map(|(_, p)| p)
        .filter(|&p| p != pos)
        .min()
        .expect("at least two remaining blocks");
    reachable_from(grid, start, Some(pos)).len() != remaining
}

/// All articulation blocks of the current configuration, computed with a
/// linear-time lowlink (Hopcroft–Tarjan) traversal over the adjacency
/// graph of occupied cells.
pub fn articulation_points(grid: &OccupancyGrid) -> Vec<BlockId> {
    let positions: Vec<Pos> = {
        let mut v: Vec<Pos> = grid.blocks().map(|(_, p)| p).collect();
        v.sort();
        v
    };
    if positions.len() < 3 {
        return Vec::new();
    }
    let index_of: BTreeMap<Pos, usize> =
        positions.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let n = positions.len();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut parent = vec![usize::MAX; n];
    let mut is_art = vec![false; n];
    let mut timer = 0usize;

    // Iterative DFS to avoid recursion-depth limits on large surfaces.
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        let mut root_children = 0usize;
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let neighbors: Vec<usize> = positions[u]
                .neighbors4()
                .iter()
                .filter_map(|p| index_of.get(p).copied())
                .collect();
            if *next < neighbors.len() {
                let v = neighbors[*next];
                *next += 1;
                if disc[v] == usize::MAX {
                    parent[v] = u;
                    if u == root {
                        root_children += 1;
                    }
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, 0));
                } else if v != parent[u] {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p] = low[p].min(low[u]);
                    if parent[u] == p && p != root && low[u] >= disc[p] {
                        is_art[p] = true;
                    }
                }
            }
        }
        if root_children > 1 {
            is_art[root] = true;
        }
    }

    let mut out: Vec<BlockId> = positions
        .iter()
        .enumerate()
        .filter(|(i, _)| is_art[*i])
        .map(|(_, &p)| grid.block_at(p).expect("occupied"))
        .collect();
    out.sort();
    out
}

/// Reusable buffers for the zero-allocation connectivity probes.  Created
/// once (e.g. per oracle) and resized lazily to the grid; after that
/// warm-up, [`is_connected_after`] performs no heap allocation.
#[derive(Clone, Debug, Default)]
pub struct ConnectivityScratch {
    /// Visited bitset over cell indices.
    visited: Vec<u64>,
    /// BFS frontier of packed `y << 32 | x` coordinates.
    queue: Vec<u64>,
    /// Post-move occupancy bitboard: a copy of the grid's words cached by
    /// occupancy epoch, with the probe's source bits cleared and
    /// destination bits set for the duration of one BFS and restored
    /// afterwards.  Thousands of probes against one world state (one
    /// election's distance computations) share a single O(area) copy
    /// instead of paying one each.
    board: Vec<u64>,
    /// The [`OccupancyGrid::epoch`] the cached `board` mirrors.
    board_epoch: Option<u64>,
}

impl ConnectivityScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        ConnectivityScratch::default()
    }

    fn reset_for(&mut self, area: usize) {
        let words = area.div_ceil(64);
        if self.visited.len() < words {
            self.visited.resize(words, 0);
        }
        self.visited[..words].fill(0);
        self.queue.clear();
        // `reserve(area)` guarantees capacity >= len (0) + area, so BFS
        // pushes never reallocate even when the scratch was warmed on a
        // smaller grid.
        self.queue.reserve(area);
    }

    /// Makes `board` mirror the grid's occupancy words, reusing the
    /// cached copy when the occupancy epoch is unchanged.
    fn refresh_board(&mut self, grid: &OccupancyGrid) {
        if self.board_epoch != Some(grid.epoch()) {
            self.board.clear();
            self.board.extend_from_slice(grid.occupancy_words());
            self.board_epoch = Some(grid.epoch());
        }
    }
}

/// Whether the ensemble is connected *after* hypothetically applying the
/// given batch of simultaneous moves, computed directly on the occupancy
/// bitboard without cloning or mutating the grid: the post-move occupancy
/// of a cell is its current bit, overridden by the batch's source
/// (vacated) and destination (filled) sets.
///
/// The batch must already be geometrically valid (sources occupied,
/// destinations on the surface and free or vacated by the batch) — rule
/// matching guarantees that for planned motions; check
/// [`OccupancyGrid::validate_simultaneous_moves`] first otherwise.
pub fn is_connected_after(
    grid: &OccupancyGrid,
    moves: &[(Pos, Pos)],
    scratch: &mut ConnectivityScratch,
) -> bool {
    let n = grid.block_count();
    if n <= 1 {
        return true;
    }
    let bounds = grid.bounds();
    let (width, height) = (bounds.width, bounds.height);
    let words_per_row = grid.words_per_row();
    // Queue entries pack coordinates into 32-bit lanes of a u64 (wide
    // enough for the 10⁵-row scaling surfaces); a silent overflow would
    // corrupt the BFS and mis-judge Remark 1, and `Bounds` stores u32
    // dimensions, so the packing is total by construction.
    scratch.reset_for(bounds.area());
    scratch.refresh_board(grid);
    let ConnectivityScratch {
        visited,
        queue,
        board,
        ..
    } = scratch;
    // Overlay the batch on the epoch-cached board: clear every source
    // bit, then set every destination bit (in that order — in a hand-over
    // chain a cell is one move's source *and* another's destination, and
    // the batch semantics refill it).  The BFS then probes plain words
    // instead of re-scanning the override sets per cell; the touched
    // words are restored from the grid before returning so the cached
    // copy stays faithful for the next probe.
    for &(from, _) in moves {
        let (w, b) = grid.word_bit(from);
        board[w] &= !(1u64 << b);
    }
    for &(_, to) in moves {
        let (w, b) = grid.word_bit(to);
        board[w] |= 1u64 << b;
    }
    // Start from a cell guaranteed occupied after the batch, then BFS
    // with packed `y << 32 | x` queue entries: neighbour stepping and
    // occupancy probes need no division anywhere.
    let start = match moves.first() {
        Some(&(_, to)) => to,
        None => match grid.blocks().next() {
            Some((_, p)) => p,
            None => return true,
        },
    };
    let connected = {
        let board = &*board;
        let occupied = |x: u32, y: u32| -> bool {
            board[y as usize * words_per_row + (x as usize >> 6)] >> (x & 63) & 1 != 0
        };
        debug_assert!(occupied(start.x as u32, start.y as u32));
        let start_idx = start.y as usize * width as usize + start.x as usize;
        visited[start_idx >> 6] |= 1 << (start_idx & 63);
        queue.push((start.y as u64) << 32 | start.x as u64);
        let mut reached = 1usize;
        let mut head = 0usize;
        while head < queue.len() && reached < n {
            let packed = queue[head];
            head += 1;
            // sb-allow: truncating-cast — intentional unpack of the 32-bit coordinate lanes built above
            let (x, y) = ((packed & 0xFFFF_FFFF) as u32, (packed >> 32) as u32);
            let mut visit = |nx: u32, ny: u32| {
                let idx = ny as usize * width as usize + nx as usize;
                let (w, b) = (idx >> 6, idx & 63);
                if occupied(nx, ny) && visited[w] >> b & 1 == 0 {
                    visited[w] |= 1 << b;
                    reached += 1;
                    queue.push((ny as u64) << 32 | nx as u64);
                }
            };
            if x > 0 {
                visit(x - 1, y);
            }
            if x + 1 < width {
                visit(x + 1, y);
            }
            if y > 0 {
                visit(x, y - 1);
            }
            if y + 1 < height {
                visit(x, y + 1);
            }
        }
        reached == n
    };
    // Restore the overlay so the cached board mirrors the grid again.
    let words = grid.occupancy_words();
    for &(from, to) in moves {
        let (w, _) = grid.word_bit(from);
        board[w] = words[w];
        let (w, _) = grid.word_bit(to);
        board[w] = words[w];
    }
    connected
}

#[cfg(test)]
mod board_cache_tests {
    use super::*;
    use crate::bounds::Bounds;
    use crate::grid::BlockId;

    /// Places the same L-shaped blob on a small and a very large surface;
    /// every probe must agree, including the disconnecting ones, and the
    /// epoch-cached board (with its per-probe overlay + restore) must
    /// keep answering correctly across repeated probes of one scratch.
    #[test]
    fn cached_board_probes_agree_across_surface_sizes_and_repeats() {
        let blob = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)];
        let small_bounds = Bounds::new(8, 8);
        let large_bounds = Bounds::new(8, 4096);
        let build = |bounds: Bounds| {
            let mut g = OccupancyGrid::new(bounds);
            for (i, &(x, y)) in blob.iter().enumerate() {
                g.place(BlockId(i as u32 + 1), Pos::new(x, y)).unwrap();
            }
            g
        };
        let small = build(small_bounds);
        let large = build(large_bounds);
        let probes: Vec<Vec<(Pos, Pos)>> = vec![
            vec![],
            // Bridge block walks away: disconnects.
            vec![(Pos::new(2, 0), Pos::new(3, 0))],
            // End block slides along the blob: stays connected.
            vec![(Pos::new(0, 0), Pos::new(0, 1))],
            // Hand-over chain through a shared cell.
            vec![
                (Pos::new(0, 0), Pos::new(1, 1)),
                (Pos::new(2, 2), Pos::new(1, 2)),
            ],
        ];
        let mut scratch = ConnectivityScratch::new();
        for moves in &probes {
            let a = is_connected_after(&small, moves, &mut scratch);
            let b = is_connected_after(&large, moves, &mut scratch);
            assert_eq!(a, b, "paths disagree on {moves:?}");
        }
        // Repeated probes on the stamped path keep resetting correctly.
        for _ in 0..3 {
            assert!(!is_connected_after(
                &large,
                &[(Pos::new(2, 0), Pos::new(3, 0))],
                &mut scratch
            ));
            assert!(is_connected_after(&large, &[], &mut scratch));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::Bounds;

    fn grid_from(positions: &[(i32, i32)]) -> OccupancyGrid {
        let mut g = OccupancyGrid::new(Bounds::new(10, 10));
        for (i, &(x, y)) in positions.iter().enumerate() {
            g.place(BlockId(i as u32 + 1), Pos::new(x, y)).unwrap();
        }
        g
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        let g = OccupancyGrid::new(Bounds::new(4, 4));
        assert!(is_connected(&g));
        let g = grid_from(&[(2, 2)]);
        assert!(is_connected(&g));
    }

    #[test]
    fn l_shape_is_connected() {
        let g = grid_from(&[(0, 0), (1, 0), (1, 1), (1, 2)]);
        assert!(is_connected(&g));
    }

    #[test]
    fn diagonal_contact_is_not_connectivity() {
        // Blocks touching only at corners are NOT connected under the
        // 4-adjacency used by the lateral magnet contacts.
        let g = grid_from(&[(0, 0), (1, 1)]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn articulation_of_a_straight_line() {
        // In a line of 4 blocks the two interior blocks are articulation
        // points, the endpoints are not.
        let g = grid_from(&[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let arts = articulation_points(&g);
        assert_eq!(arts, vec![BlockId(2), BlockId(3)]);
        assert!(!is_articulation(&g, Pos::new(0, 0)));
        assert!(is_articulation(&g, Pos::new(1, 0)));
        assert!(is_articulation(&g, Pos::new(2, 0)));
        assert!(!is_articulation(&g, Pos::new(3, 0)));
    }

    #[test]
    fn square_has_no_articulation() {
        let g = grid_from(&[(0, 0), (1, 0), (0, 1), (1, 1)]);
        assert!(articulation_points(&g).is_empty());
        for (_, p) in g.blocks() {
            assert!(!is_articulation(&g, p));
        }
    }

    #[test]
    fn articulation_matches_naive_check_on_random_shapes() {
        // Cross-validate Tarjan against the naive remove-and-BFS check.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..30 {
            // Grow a random connected blob of 12 blocks.
            let mut g = OccupancyGrid::new(Bounds::new(8, 8));
            g.place(BlockId(1), Pos::new(4, 4)).unwrap();
            let mut next_id = 2u32;
            while g.block_count() < 12 {
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
            assert!(is_connected(&g));
            let tarjan: Vec<BlockId> = articulation_points(&g);
            let naive: Vec<BlockId> = g
                .block_ids_sorted()
                .into_iter()
                .filter(|&id| is_articulation(&g, g.position_of(id).unwrap()))
                .collect();
            assert_eq!(tarjan, naive);
        }
    }

    #[test]
    fn is_connected_after_detects_split() {
        // Moving the middle block of a line away splits the shape.
        let g = grid_from(&[(0, 0), (1, 0), (2, 0)]);
        let mut scratch = ConnectivityScratch::new();
        assert!(!is_connected_after(
            &g,
            &[(Pos::new(1, 0), Pos::new(1, 1))],
            &mut scratch
        ));
        // Moving an endpoint around the corner keeps it connected.
        assert!(is_connected_after(
            &g,
            &[(Pos::new(2, 0), Pos::new(1, 1))],
            &mut scratch
        ));
    }

    #[test]
    fn connectivity_after_moves_agrees_with_journalled_trial() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let mut scratch = ConnectivityScratch::new();
        for _ in 0..40 {
            // Random connected blob.
            let mut g = OccupancyGrid::new(Bounds::new(8, 8));
            g.place(BlockId(1), Pos::new(4, 4)).unwrap();
            let mut next_id = 2u32;
            while g.block_count() < 10 {
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
            // Try a random single move of a random block to a free cell.
            let blocks: Vec<Pos> = g.blocks().map(|(_, p)| p).collect();
            let from = blocks[rng.gen_range(0..blocks.len())];
            let to = from.neighbors4()[rng.gen_range(0..4usize)];
            if !g.is_free(to) {
                continue;
            }
            let moves = [(from, to)];
            let fast = is_connected_after(&g, &moves, &mut scratch);
            let mut trial = g.clone();
            trial.apply_simultaneous_moves(&moves).unwrap();
            assert_eq!(fast, trial.is_connected(), "moves {moves:?}");
        }
    }

    #[test]
    fn reachable_from_skip_excludes_cell() {
        let g = grid_from(&[(0, 0), (1, 0), (2, 0)]);
        let r = reachable_from(&g, Pos::new(0, 0), Some(Pos::new(1, 0)));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Pos::new(0, 0)));
    }
}
