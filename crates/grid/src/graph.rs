//! The oriented graph `G = (Br, L)` of Section III.
//!
//! `Br` is the set of grid nodes contained in the rectangle bounded by the
//! input `I` and the output `O`; `L` is the set of links between elements
//! of `Br` oriented from `I` towards `O`.  Every shortest path between `I`
//! and `O` is contained in `G`.
//!
//! [`OrientedGraph::new`] and [`OrientedGraph::contains`] run in every
//! Eq. 8 check of the election and carry `#[inline]`: a release build
//! splits crates and modules into separate codegen units, and that
//! per-message caller lives in another crate.

use crate::bounds::Bounds;
use crate::grid::OccupancyGrid;
use crate::pos::Pos;
use std::collections::{BTreeMap, VecDeque};

/// Summary of the shortest path between `I` and `O`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShortestPathInfo {
    /// Number of hops (edges) along a shortest path: the Manhattan
    /// distance between `I` and `O`.
    pub hops: u32,
    /// Number of cells (nodes) along a shortest path: `hops + 1`.  Lemma 1
    /// states that a path of length `N - 1` (hops) needs `N` blocks, i.e.
    /// one block per cell.
    pub cells: u32,
    /// Number of distinct shortest paths inside `G` (binomial
    /// coefficient `C(dx + dy, dx)`), saturating at `u64::MAX`.
    pub count: u64,
}

/// Sentinel distance for cells outside `Br` or unreachable along the
/// oriented links, used by the flat distance fields.
pub const UNREACHABLE: u32 = u32::MAX;

/// The oriented graph `G = (Br, L)`.
#[derive(Clone, Copy, Debug)]
pub struct OrientedGraph {
    bounds: Bounds,
    input: Pos,
    output: Pos,
    min: Pos,
    max: Pos,
}

impl OrientedGraph {
    /// Builds `G` for the given input and output cells.  The positions
    /// must lie on the surface.
    #[inline]
    pub fn new(bounds: Bounds, input: Pos, output: Pos) -> Self {
        assert!(bounds.contains(input), "input {input} outside surface");
        assert!(bounds.contains(output), "output {output} outside surface");
        OrientedGraph {
            bounds,
            input,
            output,
            min: Pos::new(input.x.min(output.x), input.y.min(output.y)),
            max: Pos::new(input.x.max(output.x), input.y.max(output.y)),
        }
    }

    /// The surface extent the graph was built for.
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// The input cell `I`.
    pub fn input(&self) -> Pos {
        self.input
    }

    /// The output cell `O`.
    pub fn output(&self) -> Pos {
        self.output
    }

    /// Whether `pos` belongs to `Br` (the bounding rectangle of `I`, `O`).
    #[inline]
    pub fn contains(&self, pos: Pos) -> bool {
        pos.x >= self.min.x && pos.x <= self.max.x && pos.y >= self.min.y && pos.y <= self.max.y
    }

    /// All nodes of `Br`, row-major.
    pub fn nodes(&self) -> Vec<Pos> {
        let mut v = Vec::new();
        for y in self.min.y..=self.max.y {
            for x in self.min.x..=self.max.x {
                v.push(Pos::new(x, y));
            }
        }
        v
    }

    /// The successors of `pos` in `G`: the neighbouring nodes of `Br` that
    /// are strictly closer to `O` (links are oriented from `I` to `O`).
    pub fn successors(&self, pos: Pos) -> Vec<Pos> {
        if !self.contains(pos) {
            return Vec::new();
        }
        pos.directions_towards(self.output)
            .into_iter()
            .map(|d| pos.step(d))
            .filter(|p| self.contains(*p))
            .collect()
    }

    /// The predecessors of `pos` in `G` (nodes of which `pos` is a
    /// successor).
    pub fn predecessors(&self, pos: Pos) -> Vec<Pos> {
        if !self.contains(pos) {
            return Vec::new();
        }
        pos.neighbors4()
            .into_iter()
            .filter(|&p| self.contains(p) && self.successors(p).contains(&pos))
            .collect()
    }

    /// Shortest-path summary between `I` and `O`.
    pub fn shortest_path_info(&self) -> ShortestPathInfo {
        let dx = self.input.x.abs_diff(self.output.x) as u64;
        let dy = self.input.y.abs_diff(self.output.y) as u64;
        ShortestPathInfo {
            hops: (dx + dy) as u32,
            cells: (dx + dy) as u32 + 1,
            count: binomial(dx + dy, dx.min(dy)),
        }
    }

    /// One canonical shortest path from `I` to `O`: first along the
    /// column of `I` (vertical leg), then along the row of `O`
    /// (horizontal leg).  This is the "as straight as possible" shape the
    /// election criterion of Eq. (8) drives the system towards.
    pub fn canonical_path(&self) -> Vec<Pos> {
        let mut path = vec![self.input];
        let mut cur = self.input;
        while cur.y != self.output.y {
            cur = cur.step(cur.direction_to(Pos::new(cur.x, self.output.y)).unwrap());
            path.push(cur);
        }
        while cur.x != self.output.x {
            cur = cur.step(cur.direction_to(Pos::new(self.output.x, cur.y)).unwrap());
            path.push(cur);
        }
        path
    }

    /// BFS distance from `I` to every cell of `Br` travelling only through
    /// *occupied* cells along oriented links, one `u32` per surface cell
    /// keyed by [`Bounds::index_of`] ([`UNREACHABLE`] when no such path
    /// exists).  The output cell's entry is finite exactly when a complete
    /// occupied shortest path exists.
    pub fn occupied_distance_field(&self, grid: &OccupancyGrid) -> Vec<u32> {
        let mut field = vec![UNREACHABLE; self.bounds.area()];
        if !grid.is_occupied(self.input) {
            return field;
        }
        field[self.bounds.index_of(self.input)] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(self.input);
        while let Some(p) = queue.pop_front() {
            let d = field[self.bounds.index_of(p)];
            for s in self.successors(p) {
                if !grid.is_occupied(s) {
                    continue;
                }
                let idx = self.bounds.index_of(s);
                if field[idx] == UNREACHABLE {
                    field[idx] = d + 1;
                    queue.push_back(s);
                }
            }
        }
        field
    }

    /// Whether the occupied cells of `grid` contain a complete path of
    /// blocks from `I` to `O` that stays inside `G` and only follows
    /// oriented links (i.e. a monotone, shortest path entirely made of
    /// blocks).  This is the success criterion of the reconfiguration.
    pub fn occupied_shortest_path_exists(&self, grid: &OccupancyGrid) -> bool {
        self.occupied_distance_field(grid)[self.bounds.index_of(self.output)] != UNREACHABLE
    }

    /// Returns one complete occupied shortest path from `I` to `O`, if any.
    pub fn occupied_shortest_path(&self, grid: &OccupancyGrid) -> Option<Vec<Pos>> {
        if !grid.is_occupied(self.input) || !grid.is_occupied(self.output) {
            return None;
        }
        // BFS through occupied cells following oriented links.
        let mut prev: BTreeMap<Pos, Pos> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(self.input);
        prev.insert(self.input, self.input);
        while let Some(p) = queue.pop_front() {
            if p == self.output {
                let mut path = vec![p];
                let mut cur = p;
                while cur != self.input {
                    cur = prev[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for s in self.successors(p) {
                if grid.is_occupied(s) && !prev.contains_key(&s) {
                    prev.insert(s, p);
                    queue.push_back(s);
                }
            }
        }
        None
    }
}

fn binomial(n: u64, k: u64) -> u64 {
    let k = k.min(n - k.min(n));
    let mut result: u64 = 1;
    for i in 0..k {
        result = result
            .saturating_mul(n - i)
            .checked_div(i + 1)
            .unwrap_or(u64::MAX);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::BlockId;

    fn graph_10x7() -> OrientedGraph {
        // Fig. 2-like setting: output at top-left, input at bottom-right.
        OrientedGraph::new(Bounds::new(10, 7), Pos::new(8, 1), Pos::new(2, 5))
    }

    #[test]
    fn contains_is_the_bounding_rectangle() {
        let g = graph_10x7();
        assert!(g.contains(Pos::new(2, 1)));
        assert!(g.contains(Pos::new(8, 5)));
        assert!(g.contains(Pos::new(5, 3)));
        assert!(!g.contains(Pos::new(1, 3)));
        assert!(!g.contains(Pos::new(9, 3)));
        assert!(!g.contains(Pos::new(5, 0)));
        assert!(!g.contains(Pos::new(5, 6)));
    }

    #[test]
    fn successors_point_towards_output() {
        let g = graph_10x7();
        // Output is north-west of the input: successors go west and north.
        let succ = g.successors(Pos::new(5, 3));
        assert_eq!(succ.len(), 2);
        assert!(succ.contains(&Pos::new(4, 3)));
        assert!(succ.contains(&Pos::new(5, 4)));
        // At the output there is no successor.
        assert!(g.successors(g.output()).is_empty());
        // Outside Br there is no successor.
        assert!(g.successors(Pos::new(0, 0)).is_empty());
    }

    #[test]
    fn predecessors_inverse_of_successors() {
        let g = graph_10x7();
        for p in g.nodes() {
            for s in g.successors(p) {
                assert!(g.predecessors(s).contains(&p));
            }
        }
    }

    #[test]
    fn shortest_path_info_counts() {
        let g = graph_10x7();
        let info = g.shortest_path_info();
        assert_eq!(info.hops, 10);
        assert_eq!(info.cells, 11);
        // C(10, 4) = 210 monotone lattice paths.
        assert_eq!(info.count, 210);
        // Aligned input/output: single path.
        let aligned = OrientedGraph::new(Bounds::new(5, 12), Pos::new(1, 0), Pos::new(1, 11));
        assert_eq!(aligned.shortest_path_info().count, 1);
        assert_eq!(aligned.shortest_path_info().hops, 11);
    }

    #[test]
    fn canonical_path_is_a_shortest_path() {
        let g = graph_10x7();
        let p = g.canonical_path();
        let info = g.shortest_path_info();
        assert_eq!(p.len() as u32, info.cells);
        assert_eq!(p[0], g.input());
        assert_eq!(*p.last().unwrap(), g.output());
        for w in p.windows(2) {
            assert!(w[0].is_adjacent4(w[1]));
            assert!(w[1].manhattan(g.output()) < w[0].manhattan(g.output()));
        }
    }

    #[test]
    fn occupied_distance_field_marks_the_output_iff_path_complete() {
        let bounds = Bounds::new(6, 6);
        let g = OrientedGraph::new(bounds, Pos::new(0, 0), Pos::new(0, 4));
        let mut grid = OccupancyGrid::new(bounds);
        for (i, y) in (0..3).enumerate() {
            grid.place(BlockId(i as u32 + 1), Pos::new(0, y)).unwrap();
        }
        let field = g.occupied_distance_field(&grid);
        assert_eq!(field[bounds.index_of(Pos::new(0, 2))], 2);
        assert_eq!(field[bounds.index_of(Pos::new(0, 4))], UNREACHABLE);
        assert!(!g.occupied_shortest_path_exists(&grid));
        grid.place(BlockId(10), Pos::new(0, 3)).unwrap();
        grid.place(BlockId(11), Pos::new(0, 4)).unwrap();
        let field = g.occupied_distance_field(&grid);
        assert_eq!(field[bounds.index_of(Pos::new(0, 4))], 4);
        assert!(g.occupied_shortest_path_exists(&grid));
    }

    #[test]
    fn occupied_shortest_path_detection() {
        let bounds = Bounds::new(6, 6);
        let g = OrientedGraph::new(bounds, Pos::new(0, 0), Pos::new(0, 4));
        let mut grid = OccupancyGrid::new(bounds);
        // Partial column: no path yet.
        for (i, y) in (0..3).enumerate() {
            grid.place(BlockId(i as u32 + 1), Pos::new(0, y)).unwrap();
        }
        assert!(!g.occupied_shortest_path_exists(&grid));
        // Complete the column.
        grid.place(BlockId(10), Pos::new(0, 3)).unwrap();
        grid.place(BlockId(11), Pos::new(0, 4)).unwrap();
        let path = g.occupied_shortest_path(&grid).unwrap();
        assert_eq!(path.len(), 5);
        assert_eq!(path[0], Pos::new(0, 0));
        assert_eq!(path[4], Pos::new(0, 4));
    }

    #[test]
    fn occupied_path_must_be_monotone() {
        // A connected chain of blocks that detours outside G's orientation
        // does not count as a shortest path.
        let bounds = Bounds::new(6, 6);
        let g = OrientedGraph::new(bounds, Pos::new(0, 0), Pos::new(2, 0));
        let mut grid = OccupancyGrid::new(bounds);
        // Detour through y=1: occupied cells (0,0),(0,1),(1,1),(2,1),(2,0)
        for (i, &(x, y)) in [(0, 0), (0, 1), (1, 1), (2, 1), (2, 0)].iter().enumerate() {
            grid.place(BlockId(i as u32 + 1), Pos::new(x, y)).unwrap();
        }
        assert!(!g.occupied_shortest_path_exists(&grid));
        // Filling (1,0) creates the direct path.
        grid.place(BlockId(9), Pos::new(1, 0)).unwrap();
        assert!(g.occupied_shortest_path_exists(&grid));
    }

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(6, 2), 15);
        assert_eq!(binomial(11, 5), 462);
    }
}
