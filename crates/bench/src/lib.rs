//! Shared helpers for the benchmark harness.
//!
//! The actual benchmark targets live in `benches/`; this library holds the
//! parallel [`sweep::SweepEngine`] plus the workload construction helpers
//! shared between the benches and the report examples at the workspace
//! root:
//!
//! - [`sweep`] — the cartesian sweep plan/engine with semantic per-cell
//!   seeding and the versioned `BENCH_planner.json` schema, byte-identical
//!   across worker counts;
//! - [`workloads`] — shared scenario construction for benches and
//!   examples.
//!
//! Nothing here times the simulator end to end: wall time of complete
//! reconfigurations, split per layer, is measured by the standalone
//! `perfbench` package at the repository root.
//!
//! Everything the sweep writes is part of the byte-identity surface, so
//! this crate is linted by `sb-analyze` like the sim-state crates are.

#![forbid(unsafe_code)]

pub mod sweep;
pub mod workloads;

pub use sweep::{Family, FamilyPlan, NetworkSpec, SweepEngine, SweepPlan, SweepReport};
pub use workloads::*;
