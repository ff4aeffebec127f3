//! # sb-desim — a discrete-event simulator for ensembles of programmable
//! blocks
//!
//! The evaluation of the paper runs inside **VisibleSim** \[18\], the
//! authors' C++ simulator: "VisibleSim mixes a discrete-event core
//! simulator with discrete-time functionalities […] we reported
//! simulations with 2 millions of nodes at a rate of 650k events/sec on a
//! simple laptop" (Section V.E).  VisibleSim is not reusable here, so this
//! crate implements the same architectural idea from scratch:
//!
//! * a **discrete-event core**: pending events keyed by `(time, seq)`,
//!   start-up callbacks and message deliveries in a binary heap and
//!   timers in a deque kept sorted by the same key, so that the
//!   retransmission timers of a reliable run never deepen the delivery
//!   heap; the dispatcher pops the earlier head, and one global `seq`
//!   keeps equal-time events in FIFO order across both (see [`sim`] for
//!   the layout);
//! * per-module **block codes** ([`BlockCode`]): the user program executed
//!   by every block, reacting to message and timer events (a block that
//!   needs VisibleSim's discrete-time ticks re-arms a timer with
//!   [`Context::set_timer`]);
//! * an explicit, user-defined **world** shared by the modules (for the
//!   Smart Blocks: the occupancy grid and the motion engine), accessed
//!   through the event [`Context`];
//! * configurable **per-link network models** ([`NetworkModel`]: fixed or
//!   jittered latency, heterogeneous/asymmetric links, heavy tails,
//!   jitter bursts, and i.i.d. drop/duplication fault probes), driven by
//!   seeded per-link RNG streams so that every run is reproducible;
//! * **statistics** (events processed, messages sent, wall-clock
//!   throughput) used to reproduce the events/second figure of the paper;
//! * block **colours**, mirroring the debugging facility the authors
//!   describe (changing block colours).
//!
//! The simulator is deliberately independent from the Smart Blocks domain:
//! `M` (message type) and `W` (world type) are generic parameters, and the
//! unit tests drive it with toy protocols.
//!
//! ## Example
//!
//! ```
//! use sb_desim::{BlockCode, Context, ModuleId, SimTime, Simulator};
//!
//! // A module that counts the pings it receives and replies with a pong.
//! struct Ping { peer: Option<ModuleId>, got: u32 }
//!
//! impl BlockCode<&'static str, ()> for Ping {
//!     fn on_start(&mut self, ctx: &mut Context<'_, &'static str, ()>) {
//!         if let Some(peer) = self.peer {
//!             ctx.send(peer, "ping");
//!         }
//!     }
//!     fn on_message(&mut self, from: ModuleId, msg: &'static str,
//!                   ctx: &mut Context<'_, &'static str, ()>) {
//!         self.got += 1;
//!         if msg == "ping" { ctx.send(from, "pong"); }
//!     }
//! }
//!
//! let mut sim = Simulator::new(());
//! let a = sim.add(Ping { peer: None, got: 0 });
//! let b = sim.add(Ping { peer: Some(a), got: 0 });
//! assert_ne!(a, b);
//! sim.run_until_idle();
//! assert!(sim.stats().events_processed >= 2);
//! assert!(sim.now() > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod latency;
pub mod module;
pub mod network;
pub mod sim;
pub mod stats;
pub mod time;

pub use event::EventKind;
pub use fault::{FaultPlan, FaultWindow};
pub use latency::LatencyModel;
pub use module::{BlockCode, Color, ModuleId};
pub use network::NetworkModel;
pub use sim::{Context, Simulator};
pub use stats::SimStats;
pub use time::{Duration, SimTime};
