//! A full problem instance: surface bounds, block placement, input and
//! output cells.
//!
//! The accessors an Eq. 8–10 distance reads on every activation
//! ([`SurfaceConfig::grid`], [`SurfaceConfig::input`],
//! [`SurfaceConfig::output`], [`SurfaceConfig::graph`]) carry
//! `#[inline]`: a release build splits crates and modules into separate
//! codegen units, and the election that calls them per message lives in
//! another crate.

use crate::bounds::Bounds;
use crate::graph::OrientedGraph;
use crate::grid::{BlockId, GridError, OccupancyGrid};
use crate::pos::Pos;
use std::fmt;

/// Errors raised while building or parsing a [`SurfaceConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The ASCII description is empty or ragged.
    MalformedAscii(String),
    /// An unknown character appeared in the ASCII description.
    UnknownToken(char),
    /// The description misses an input (`I`/`i`) cell.
    MissingInput,
    /// The description misses an output (`O`/`o`) cell.
    MissingOutput,
    /// The description contains several input or output cells.
    DuplicateMarker(char),
    /// Placement failed (duplicate block, overlap, out of bounds).
    Grid(GridError),
    /// The configuration violates Assumption 2 of the paper (see
    /// [`SurfaceConfig::check_assumptions`]).
    AssumptionViolated(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MalformedAscii(msg) => write!(f, "malformed ASCII surface: {msg}"),
            ConfigError::UnknownToken(c) => write!(f, "unknown token {c:?} in ASCII surface"),
            ConfigError::MissingInput => write!(f, "no input cell (I) in the description"),
            ConfigError::MissingOutput => write!(f, "no output cell (O) in the description"),
            ConfigError::DuplicateMarker(c) => write!(f, "marker {c:?} appears more than once"),
            ConfigError::Grid(e) => write!(f, "placement error: {e}"),
            ConfigError::AssumptionViolated(msg) => write!(f, "assumption violated: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<GridError> for ConfigError {
    fn from(e: GridError) -> Self {
        ConfigError::Grid(e)
    }
}

/// A problem instance of the trajectory-optimisation problem: a surface,
/// a set of blocks (one of which, the Root, occupies the input cell `I`)
/// and the output cell `O` towards which the conveyor path must be built.
#[derive(Clone, Debug)]
pub struct SurfaceConfig {
    grid: OccupancyGrid,
    input: Pos,
    output: Pos,
}

impl SurfaceConfig {
    /// Creates an instance with an empty surface.  Blocks are added with
    /// [`SurfaceConfig::place_block`].
    pub fn new(bounds: Bounds, input: Pos, output: Pos) -> Self {
        assert!(bounds.contains(input), "input outside surface");
        assert!(bounds.contains(output), "output outside surface");
        assert_ne!(input, output, "input and output must differ");
        SurfaceConfig {
            grid: OccupancyGrid::new(bounds),
            input,
            output,
        }
    }

    /// Creates an instance and places blocks at the given positions, with
    /// identifiers `1..=n` in the order given.
    pub fn with_blocks(
        bounds: Bounds,
        input: Pos,
        output: Pos,
        blocks: &[Pos],
    ) -> Result<Self, ConfigError> {
        let mut cfg = SurfaceConfig::new(bounds, input, output);
        for (i, &p) in blocks.iter().enumerate() {
            cfg.place_block(BlockId(i as u32 + 1), p)?;
        }
        Ok(cfg)
    }

    /// The surface extent.
    pub fn bounds(&self) -> Bounds {
        self.grid.bounds()
    }

    /// The input cell `I`.
    #[inline]
    pub fn input(&self) -> Pos {
        self.input
    }

    /// The output cell `O`.
    #[inline]
    pub fn output(&self) -> Pos {
        self.output
    }

    /// The occupancy grid.
    #[inline]
    pub fn grid(&self) -> &OccupancyGrid {
        &self.grid
    }

    /// Mutable access to the occupancy grid (used by the simulators when a
    /// motion rule is executed).
    pub fn grid_mut(&mut self) -> &mut OccupancyGrid {
        &mut self.grid
    }

    /// Places a block.
    pub fn place_block(&mut self, id: BlockId, pos: Pos) -> Result<(), ConfigError> {
        self.grid.place(id, pos)?;
        Ok(())
    }

    /// The block occupying the input cell — the *Root* of the distributed
    /// election (Assumption 2), if present.
    pub fn root(&self) -> Option<BlockId> {
        self.grid.block_at(self.input)
    }

    /// The oriented graph `G = (Br, L)` of the instance.
    #[inline]
    pub fn graph(&self) -> OrientedGraph {
        OrientedGraph::new(self.bounds(), self.input, self.output)
    }

    /// Number of blocks on the surface.
    pub fn block_count(&self) -> usize {
        self.grid.block_count()
    }

    /// Checks Assumption 2 of the paper:
    ///
    /// * a block (the Root) occupies the input cell `I`;
    /// * the set of blocks is connected;
    /// * the blocks do not all lie on a single line or column (two
    ///   dimensional topology), excluding the degenerate situations where
    ///   all blocks but the Root occupy the same line or column between
    ///   `I` and `O`.
    ///
    /// Returns `Ok(())` or a description of the violation.
    pub fn check_assumptions(&self) -> Result<(), ConfigError> {
        if self.root().is_none() {
            return Err(ConfigError::AssumptionViolated(
                "no block occupies the input cell I (no Root)".to_string(),
            ));
        }
        if !self.grid.is_connected() {
            return Err(ConfigError::AssumptionViolated(
                "the initial set of blocks is not connected".to_string(),
            ));
        }
        if self.block_count() >= 3 {
            let positions = self.grid.occupied_positions_sorted();
            let all_same_col = positions.windows(2).all(|w| w[0].x == w[1].x);
            let all_same_row = positions.windows(2).all(|w| w[0].y == w[1].y);
            if all_same_col || all_same_row {
                return Err(ConfigError::AssumptionViolated(
                    "all blocks lie on a single line or column (not a 2-D topology)".to_string(),
                ));
            }
            // Excluded situation: all blocks *but the Root* on the same
            // line or column between I and O.
            let non_root: Vec<Pos> = positions
                .iter()
                .copied()
                .filter(|&p| p != self.input)
                .collect();
            if non_root.len() >= 2 {
                let same_col =
                    non_root.windows(2).all(|w| w[0].x == w[1].x) && non_root[0].x == self.output.x;
                let same_row =
                    non_root.windows(2).all(|w| w[0].y == w[1].y) && non_root[0].y == self.output.y;
                if same_col || same_row {
                    return Err(ConfigError::AssumptionViolated(
                        "all blocks but the Root occupy the output's line or column".to_string(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Parses an ASCII description of the surface.
    ///
    /// Rows are separated by newlines and listed from the *top* of the
    /// surface (highest `y`) down to the bottom, matching how the figures
    /// of the paper are drawn.  Cells within a row may be separated by
    /// spaces.  Tokens:
    ///
    /// * `.` — empty cell
    /// * `#` — cell occupied by a block
    /// * `I` — the input cell, occupied by the Root block
    /// * `i` — the input cell, empty
    /// * `O` — the output cell, empty
    /// * `o` — the output cell, occupied by a block
    ///
    /// Blocks receive identifiers `1..=n` in reading order (top-left to
    /// bottom-right); the Root therefore has a position-dependent id.
    pub fn from_ascii(text: &str) -> Result<Self, ConfigError> {
        let rows: Vec<Vec<char>> = text
            .lines()
            .map(|l| l.split_whitespace().flat_map(|tok| tok.chars()).collect())
            .filter(|r: &Vec<char>| !r.is_empty())
            .collect();
        if rows.is_empty() {
            return Err(ConfigError::MalformedAscii("no rows".to_string()));
        }
        let width = rows[0].len();
        if rows.iter().any(|r| r.len() != width) {
            return Err(ConfigError::MalformedAscii(
                "rows have different lengths".to_string(),
            ));
        }
        let height = rows.len();
        let bounds = Bounds::new(width as u32, height as u32);

        let mut input = None;
        let mut output = None;
        let mut blocks = Vec::new();
        for (row_idx, row) in rows.iter().enumerate() {
            let y = (height - 1 - row_idx) as i32;
            for (col_idx, &c) in row.iter().enumerate() {
                let pos = Pos::new(col_idx as i32, y);
                match c {
                    '.' => {}
                    '#' => blocks.push(pos),
                    'I' | 'i' => {
                        if input.is_some() {
                            return Err(ConfigError::DuplicateMarker('I'));
                        }
                        input = Some(pos);
                        if c == 'I' {
                            blocks.push(pos);
                        }
                    }
                    'O' | 'o' => {
                        if output.is_some() {
                            return Err(ConfigError::DuplicateMarker('O'));
                        }
                        output = Some(pos);
                        if c == 'o' {
                            blocks.push(pos);
                        }
                    }
                    other => return Err(ConfigError::UnknownToken(other)),
                }
            }
        }
        let input = input.ok_or(ConfigError::MissingInput)?;
        let output = output.ok_or(ConfigError::MissingOutput)?;
        SurfaceConfig::with_blocks(bounds, input, output, &blocks)
    }

    /// Renders the instance back to the ASCII format accepted by
    /// [`SurfaceConfig::from_ascii`] (cells separated by a single space).
    pub fn to_ascii(&self) -> String {
        crate::render::render_ascii(&self.grid, self.input, self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "O . . .\n\
                         . . . .\n\
                         # # . .\n\
                         I # . .";

    #[test]
    fn parse_small_instance() {
        let cfg = SurfaceConfig::from_ascii(SMALL).unwrap();
        assert_eq!(cfg.bounds(), Bounds::new(4, 4));
        assert_eq!(cfg.input(), Pos::new(0, 0));
        assert_eq!(cfg.output(), Pos::new(0, 3));
        assert_eq!(cfg.block_count(), 4);
        assert!(cfg.root().is_some());
        assert!(cfg.check_assumptions().is_ok());
    }

    #[test]
    fn ascii_round_trip() {
        let cfg = SurfaceConfig::from_ascii(SMALL).unwrap();
        let text = cfg.to_ascii();
        let cfg2 = SurfaceConfig::from_ascii(&text).unwrap();
        assert_eq!(cfg2.input(), cfg.input());
        assert_eq!(cfg2.output(), cfg.output());
        assert_eq!(
            cfg2.grid().occupied_positions_sorted(),
            cfg.grid().occupied_positions_sorted()
        );
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            SurfaceConfig::from_ascii(""),
            Err(ConfigError::MalformedAscii(_))
        ));
        assert!(matches!(
            SurfaceConfig::from_ascii(". . .\n. ."),
            Err(ConfigError::MalformedAscii(_))
        ));
        assert!(matches!(
            SurfaceConfig::from_ascii("X I O"),
            Err(ConfigError::UnknownToken('X'))
        ));
        assert!(matches!(
            SurfaceConfig::from_ascii("# # O"),
            Err(ConfigError::MissingInput)
        ));
        assert!(matches!(
            SurfaceConfig::from_ascii("# # I"),
            Err(ConfigError::MissingOutput)
        ));
        assert!(matches!(
            SurfaceConfig::from_ascii("I I O"),
            Err(ConfigError::DuplicateMarker('I'))
        ));
    }

    #[test]
    fn empty_input_marker() {
        let cfg = SurfaceConfig::from_ascii("O . .\n. . .\ni # #").unwrap();
        assert_eq!(cfg.root(), None);
        assert!(matches!(
            cfg.check_assumptions(),
            Err(ConfigError::AssumptionViolated(_))
        ));
    }

    #[test]
    fn occupied_output_marker() {
        let cfg = SurfaceConfig::from_ascii("o . .\n# . .\nI . .").unwrap();
        assert!(cfg.grid().is_occupied(cfg.output()));
    }

    #[test]
    fn disconnected_configuration_violates_assumptions() {
        let cfg = SurfaceConfig::from_ascii("O . . #\n. . . #\nI # . .").unwrap();
        assert!(matches!(
            cfg.check_assumptions(),
            Err(ConfigError::AssumptionViolated(_))
        ));
    }

    #[test]
    fn single_line_configuration_violates_assumptions() {
        let cfg = SurfaceConfig::from_ascii("O . . .\n. . . .\n. . . .\nI # # #").unwrap();
        assert!(matches!(
            cfg.check_assumptions(),
            Err(ConfigError::AssumptionViolated(_))
        ));
    }

    #[test]
    fn non_root_blocks_on_output_column_violates_assumptions() {
        // Root at I=(0,0); all other blocks in the output's column x=1.
        let cfg = SurfaceConfig::from_ascii(". O . .\n. # . .\n. # . .\nI # . .").unwrap();
        assert!(matches!(
            cfg.check_assumptions(),
            Err(ConfigError::AssumptionViolated(_))
        ));
    }

    #[test]
    fn l_shaped_configuration_passes_assumptions() {
        let cfg = SurfaceConfig::from_ascii("O . . .\n. . . .\n# # # .\nI # . .").unwrap();
        assert!(cfg.check_assumptions().is_ok());
    }

    #[test]
    fn with_blocks_rejects_overlap() {
        let err = SurfaceConfig::with_blocks(
            Bounds::new(4, 4),
            Pos::new(0, 0),
            Pos::new(3, 3),
            &[Pos::new(1, 1), Pos::new(1, 1)],
        )
        .unwrap_err();
        assert!(matches!(err, ConfigError::Grid(_)));
    }

    #[test]
    fn graph_uses_instance_endpoints() {
        let cfg = SurfaceConfig::from_ascii(SMALL).unwrap();
        let g = cfg.graph();
        assert_eq!(g.input(), cfg.input());
        assert_eq!(g.output(), cfg.output());
        assert_eq!(g.shortest_path_info().hops, 3);
    }
}
