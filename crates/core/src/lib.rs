//! # sb-core — the distributed reconfiguration algorithm
//!
//! This crate implements Section V of *"A Distributed Algorithm for a
//! Reconfigurable Modular Surface"* (El Baz, Piranda, Bourgeois, IPDPSW
//! 2014): the distributed iterative algorithm that builds a shortest path
//! of blocks between the input `I` and the output `O` of the modular
//! conveyor.
//!
//! ## The algorithm (Algorithm 1 of the paper)
//!
//! ```text
//! k = 0
//! distributed election of block Bk
//! while P(Bk) != O:
//!     k = k + 1
//!     distributed election of block Bk
//!     Bk performs one hop towards O
//! ```
//!
//! Each election is a Dijkstra–Scholten diffusing computation rooted at the
//! block occupying `I` (the *Root*): `Activate` messages flood the block
//! ensemble, every block computes its distance to `O`
//! (infinite when the block is aligned with `O`'s row or column, Eq. 8, or
//! when it has no admissible move towards `O`, Eq. 9), `Ack` messages fold
//! the minimum back towards the Root, the Root routes a `Select` message
//! down the father/son tree to the winner, and the winner acknowledges and
//! performs a single one-cell hop towards `O` subject to the motion rules
//! of Section IV.
//!
//! ## Crate layout
//!
//! * [`messages`] — the `Activate` / `Ack` / `Select` / `SelectAck`
//!   messages and the distance lattice.
//! * [`world`] — the shared surface world: occupancy, motion planning,
//!   metrics, move log.
//! * [`election`] — the runtime-agnostic per-block state machine
//!   ([`election::ElectionCore`]).
//! * [`runtime`] — the unified harness ([`runtime::BlockHarness`] over
//!   the [`runtime::Transport`] trait) running the state machine on the
//!   discrete-event simulator (`sb-desim`) and on the threaded actor
//!   runtime (`sb-actor`).
//! * [`driver`] — [`driver::ReconfigurationDriver`], the high-level entry
//!   point that assembles a simulation from a [`sb_grid::SurfaceConfig`]
//!   and produces a [`driver::ReconfigurationReport`].
//! * [`baseline`] — the free-motion baseline of the earlier work \[14\]
//!   (blocks move without support constraints) and a centralized
//!   global-knowledge bound, both used by the comparison benches.
//! * [`metrics`] — counters reproducing the quantities of Remarks 2–4
//!   (distance computations, messages, block hops).
//!
//! ## Quick start
//!
//! ```
//! use sb_core::prelude::*;
//!
//! // The worked example of the paper (Figs. 10-11): twelve blocks,
//! // input and output in the same column, shortest path of length 11.
//! let config = sb_core::workloads::fig10_instance();
//! let report = ReconfigurationDriver::new(config).run_des();
//! assert!(report.completed);
//! assert!(report.path_complete);
//! assert_eq!(report.shortest_path_cells, 11); // path of 11 cells, 12 blocks
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod driver;
pub mod election;
pub mod messages;
pub mod metrics;
pub mod reliability;
pub mod runtime;
pub mod workloads;
pub mod world;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::driver::{ReconfigurationDriver, ReconfigurationReport};
    pub use crate::election::{AlgorithmConfig, Termination, TieBreak};
    pub use crate::messages::{Distance, Msg};
    pub use crate::metrics::Metrics;
    pub use crate::reliability::{Envelope, ReliabilityConfig};
    pub use crate::runtime::{FaultInjection, FaultSchedule, FaultVictim};
    pub use crate::world::{MotionModel, MoveRule, SurfaceWorld};
}

pub use prelude::*;
