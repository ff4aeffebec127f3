//! # sb-motion — the block-motion rule engine
//!
//! Implementation of Section IV of *"A Distributed Algorithm for a
//! Reconfigurable Modular Surface"* (IPDPSW 2014).
//!
//! Block motion on the Smart Blocks surface is constrained by the
//! electro-permanent-magnet actuators: a block can only move while in
//! contact with adjacent support blocks.  The paper encodes the admissible
//! motions as **Motion Matrices** whose entries are event codes (Table I),
//! validated against **Presence Matrices** (the occupancy of the local
//! neighbourhood) through a truth table (Table II, the `⊗` operator).
//!
//! This crate provides:
//!
//! * [`EventCode`] — the six event codes of Table I.
//! * [`MotionMatrix`] / [`PresenceMatrix`] — odd-square local matrices with
//!   the paper's orientation (row 0 is the northernmost row).
//! * the [`validate`](MotionMatrix::validates) operator `MM ⊗ MP` of
//!   Table II / Eq. (3).
//! * [`MotionRule`] — a named Motion Matrix plus the list of simultaneous
//!   elementary moves it triggers (the `<motions>` list of the XML file of
//!   Fig. 7).
//! * [`Transform`] — the dihedral-group symmetries used by the paper to
//!   derive new rules from a base rule ("block motions can be derived via
//!   symmetry or rotation", Fig. 4).
//! * [`RuleCatalog`] — the standard rule set (east sliding + east carrying
//!   and their full symmetry orbits, plus corner-assist variants),
//!   precompiled to bitmask form ([`CompiledRule`]).
//! * [`MotionPlanner`] — the two queries the distributed algorithm asks,
//!   both filtered by Remark 1 through a caller-owned
//!   [`sb_grid::ConnectivityOracle`]: *can this block hop towards `O`?*
//!   (Eq. 9) and *which motions move it one hop?* (Section V.C).
//!
//! ## Example: the "east sliding" rule of Eqs. (1)–(3)
//!
//! ```
//! use sb_motion::{MotionMatrix, PresenceMatrix, rules};
//!
//! let mm = MotionMatrix::from_codes(3, &[
//!     2, 0, 0,
//!     2, 4, 3,
//!     2, 1, 1,
//! ]).unwrap();
//! let mp = PresenceMatrix::from_bits(3, &[
//!     0, 0, 0,
//!     1, 1, 0,
//!     1, 1, 1,
//! ]).unwrap();
//! assert!(mm.validates(&mp));            // Eq. (3): all entries true
//! assert_eq!(mm, *rules::east_sliding().matrix());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod compiled;
pub mod event;
pub mod matrix;
pub mod planner;
pub mod rule;
pub mod rules;
pub mod transform;

pub use catalog::RuleCatalog;
pub use compiled::{CompiledRule, RuleId};
pub use event::EventCode;
pub use matrix::{MatrixCoord, MatrixError, MotionMatrix, PresenceMatrix};
pub use planner::{MotionPlanner, PlannedMotion};
pub use rule::{ElementaryMove, MotionRule, RuleError};
pub use transform::Transform;
