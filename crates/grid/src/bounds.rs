//! Surface extent.
//!
//! [`Bounds::contains`] and [`Bounds::index_of`] run on every cell lookup
//! of every protocol message and carry `#[inline]`: a release build
//! splits crates and modules into separate codegen units, and their
//! callers live in other modules and crates.

use crate::pos::Pos;

/// The rectangular extent of the modular surface: `W × H` cells with
/// positions `0 <= x < W` and `0 <= y < H` (Section III of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Bounds {
    /// Maximum width `W` of the surface.
    pub width: u32,
    /// Maximum height `H` of the surface.
    pub height: u32,
}

impl Bounds {
    /// Creates a new extent.  Panics when either dimension is zero — an
    /// empty surface cannot hold the input and output cells.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "surface must be at least 1x1");
        Bounds { width, height }
    }

    /// Number of cells on the surface.
    pub fn area(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Whether the position falls on the surface.
    #[inline]
    pub fn contains(&self, pos: Pos) -> bool {
        pos.x >= 0 && pos.y >= 0 && (pos.x as u32) < self.width && (pos.y as u32) < self.height
    }

    /// Row-major linear index of a contained position.
    ///
    /// Panics when the position is outside the bounds.
    #[inline]
    pub fn index_of(&self, pos: Pos) -> usize {
        assert!(self.contains(pos), "{pos} outside {self:?}");
        pos.y as usize * self.width as usize + pos.x as usize
    }

    /// Inverse of [`Bounds::index_of`].
    pub fn pos_of(&self, index: usize) -> Pos {
        let w = self.width as usize;
        Pos::new((index % w) as i32, (index / w) as i32)
    }

    /// Iterates over every cell of the surface in row-major order
    /// (bottom row first).
    pub fn iter(&self) -> impl Iterator<Item = Pos> + '_ {
        let w = self.width as i32;
        let h = self.height as i32;
        (0..h).flat_map(move |y| (0..w).map(move |x| Pos::new(x, y)))
    }

    /// The maximum length of a shortest path on the surface, `W + H - 1`
    /// cells, reached when `I` and `O` sit in opposite corners
    /// (Section III).
    pub fn max_shortest_path_len(&self) -> u32 {
        self.width + self.height - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_respects_borders() {
        let b = Bounds::new(4, 3);
        assert!(b.contains(Pos::new(0, 0)));
        assert!(b.contains(Pos::new(3, 2)));
        assert!(!b.contains(Pos::new(4, 0)));
        assert!(!b.contains(Pos::new(0, 3)));
        assert!(!b.contains(Pos::new(-1, 0)));
        assert!(!b.contains(Pos::new(0, -1)));
    }

    #[test]
    fn index_round_trips() {
        let b = Bounds::new(5, 4);
        for p in b.iter() {
            assert_eq!(b.pos_of(b.index_of(p)), p);
        }
    }

    #[test]
    fn iter_visits_every_cell_once() {
        let b = Bounds::new(6, 7);
        let cells: Vec<Pos> = b.iter().collect();
        assert_eq!(cells.len(), b.area());
        let mut sorted = cells.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), cells.len());
    }

    #[test]
    fn max_shortest_path_matches_paper() {
        // Section III: the maximum length of a shortest path is W + H - 1.
        assert_eq!(Bounds::new(10, 7).max_shortest_path_len(), 16);
        assert_eq!(Bounds::new(1, 1).max_shortest_path_len(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        Bounds::new(0, 3);
    }

    #[test]
    #[should_panic]
    fn index_of_outside_panics() {
        Bounds::new(2, 2).index_of(Pos::new(5, 5));
    }
}
