//! # sb-grid — the discrete model of the Smart Blocks modular surface
//!
//! This crate implements Section III of *"A Distributed Algorithm for a
//! Reconfigurable Modular Surface"* (El Baz, Piranda, Bourgeois, IPDPSW
//! 2014): a two-dimensional grid where every node is the centre of a cell
//! that may be occupied by a block, an input cell `I` and an output cell
//! `O`, and the oriented graph `G = (Br, L)` spanned by the rectangle
//! bounded by `I` and `O`.
//!
//! It is the geometric substrate shared by the motion-rule engine
//! (`sb-motion`), the distributed algorithm (`sb-core`) and the simulators.
//!
//! ## Overview
//!
//! * [`Pos`], [`Direction`] — lattice coordinates and the four lateral
//!   directions along which blocks can sense, communicate and move.
//! * [`Bounds`] — the `W × H` extent of the surface.
//! * [`OccupancyGrid`] — which cell holds which block.
//! * [`SurfaceConfig`] — a full problem instance: bounds, block placement,
//!   input `I` and output `O`; parseable from / renderable to ASCII art.
//! * [`connectivity`] — connectivity and articulation-point analysis used to
//!   enforce Remark 1 of the paper (no move may disconnect the ensemble).
//! * [`articulation`] — the incremental cut-vertex oracle answering
//!   single-block Remark 1 probes in O(1) per world state.
//! * [`graph`] — the oriented graph `G` containing every shortest path
//!   between `I` and `O`, plus BFS distances and path utilities.
//! * [`gen`] — seeded random generation of connected configurations used by
//!   the test-suite and the benchmark workloads.
//!
//! ## Example
//!
//! ```
//! use sb_grid::{SurfaceConfig, Pos};
//!
//! // Note: rows are listed from the top of the surface downwards.
//! let text = ["O . . .", ". . . .", ". # # .", ". I # ."].join("\n");
//! let cfg = SurfaceConfig::from_ascii(&text).unwrap();
//! assert_eq!(cfg.output(), Pos::new(0, 3));
//! assert_eq!(cfg.input(), Pos::new(1, 0));
//! assert_eq!(cfg.grid().block_count(), 4); // I is occupied by the Root
//! assert!(cfg.grid().is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod articulation;
pub mod bounds;
pub mod config;
pub mod connectivity;
pub mod direction;
pub mod gen;
pub mod graph;
pub mod grid;
pub mod path;
pub mod pos;
pub mod render;

pub use articulation::{ring_certificate, ConnectivityOracle};
pub use bounds::Bounds;
pub use config::{ConfigError, SurfaceConfig};
pub use direction::Direction;
pub use graph::{OrientedGraph, ShortestPathInfo};
pub use grid::{BlockId, GridError, OccupancyGrid, MAX_BLOCK_ID};
pub use path::Path;
pub use pos::Pos;
