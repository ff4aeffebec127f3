//! The unified runtime harness: one election-to-runtime translation,
//! pluggable transports, opt-in reliable delivery.
//!
//! Historically the election state machine was adapted to each runtime by
//! a dedicated block-code type (`DesBlockCode` for `sb-desim`,
//! `ActorBlockCode` for `sb-actor`) and the two copies drifted: the actor
//! adapter silently lost the Root/elected/stopped colouring the simulator
//! adapter performed.  There is now exactly **one** adapter:
//!
//! * [`Transport`] — the capability surface a runtime must offer (send to
//!   a module index, arm a timer, request a stop, set the visual state,
//!   run a closure against the shared world), implemented by thin shims
//!   over [`sb_desim::Context`] and [`sb_actor::ActorContext`];
//! * [`BlockHarness`] — owns the [`ElectionCore`], a reusable
//!   [`ActionSink`] and the per-link [`crate::reliability`] state, and
//!   performs the election-to-runtime translation (message-kind metrics,
//!   module-index lookup, Root RED / elected BLUE / stopped GREEN
//!   colouring, stop propagation) once, generically over `T: Transport`.
//!
//! Every message travels as an [`Envelope`].  With reliability disabled
//! (the default) the envelope is [`Envelope::Raw`] and the behaviour —
//! event schedule, RNG consumption, allocations — is byte-identical to
//! the historical unwrapped dispatch.  With a
//! [`ReliabilityConfig::on`]-style config, payloads are sequenced,
//! acknowledged, deduplicated and retransmitted from timers, so
//! elections survive the `Lossy`/`Duplicating`/`Faulty` network probes
//! (see the [`crate::reliability`] module docs for the protocol).
//!
//! The harness implements both `sb_desim::BlockCode` and
//! `sb_actor::Actor`, so the driver's two deployments,
//! [`crate::ReconfigurationDriver::des_simulation`] and
//! [`crate::ReconfigurationDriver::actor_system`], register the *same*
//! type; any future runtime only needs a `Transport` shim.
//!
//! ## Crash/rejoin fault model and the round-skip watchdog
//!
//! Faults are injected at the harness level so the *same* lifecycle runs
//! on both runtimes: a [`FaultSchedule`] arms two control timers at
//! start-up.  When the crash timer fires the harness goes **dead** — it
//! snapshots `(round, iteration)` (the analogue of the paper's
//! persistent block memory, Fig. 8), ignores every delivery and every
//! non-control timer, and sends nothing.  When the optional rejoin timer
//! fires the harness revives with a fresh election state
//! ([`ElectionCore::rejoin_at`]): a Root re-announces by re-flooding at
//! `snapshot.round + 1` (its own round may have been the one that died
//! with it), a non-Root resumes at `snapshot.round` and waits for a
//! `RoundSync` or the next round's activation flood to pull it forward.
//! Link-level reliability sequencing survives
//! the crash (it lives in the same persistent memory), so a rejoined
//! module's payloads are not mistaken for replays by its peers.  On the
//! DES the [`sb_desim::FaultPlan`] additionally drops in-flight
//! `Message` events addressed to a dead module inside the kernel, so
//! dead time is visible in [`sb_desim::SimStats`].
//!
//! Control timers occupy a reserved tag namespace (bit 63 set —
//! reliability tags are `(peer << 32) | seq` and never reach it):
//! [`TAG_CRASH`], [`TAG_REJOIN`] and [`TAG_ROUND_SKIP`].  The round-skip
//! watchdog keeps **one** outstanding deadline while the block
//! participates in an election: on expiry it compares
//! [`ElectionCore::progress`] against the value snapshotted when the
//! deadline was armed — progress means the election is alive (re-arm),
//! stagnation means the round stalled.  Only the *Root* reacts to a
//! stalled deadline by advancing the round
//! ([`ElectionCore::skip_round`]); a quiet non-Root lets its watchdog
//! lapse until the next delivered message re-arms it.  Round chronology
//! is single-writer by design: blocks that skip on private deadlines
//! drift permanently ahead of the Root and turn every re-flood stale.
//! With rounds enabled, retry-budget exhaustion no longer stalls the
//! run: the reliability layer gives the message up (still counted in
//! `delivery_failures`) and re-election recovers; with rounds disabled
//! the historical stall-and-stop behaviour is bit-for-bit unchanged.

use crate::election::{Action, ActionSink, ElectionCore};
use crate::messages::Msg;
use crate::reliability::{
    split_tag, timer_tag, Deliver, Envelope, ReliabilityConfig, ReliabilityState, TimerVerdict,
};
use crate::world::{Outcome, SurfaceWorld};
use sb_actor::{Actor, ActorContext, ActorId};
use sb_desim::{BlockCode, Context, Duration as SimDuration, ModuleId};

pub use sb_desim::Color;

/// Marks the control-timer tag namespace (crash, rejoin, round skip).
/// Reliability retransmission tags are `(peer << 32) | seq` with `peer`
/// a module index, so bit 63 is never set on them.
pub(crate) const CONTROL_BIT: u64 = 1 << 63;

/// Timer tag of the round-skip watchdog deadline.
pub const TAG_ROUND_SKIP: u64 = CONTROL_BIT | 1;

/// Timer tag of a scheduled module crash.
pub const TAG_CRASH: u64 = CONTROL_BIT | 2;

/// Timer tag of a scheduled module rejoin.
pub const TAG_REJOIN: u64 = CONTROL_BIT | 3;

/// When (in runtime time — simulated on the DES, wall-clock on the actor
/// runtime) a module crashes, and optionally when it rejoins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Microseconds after start-up at which the module dies.
    pub crash_at_us: u64,
    /// Microseconds after start-up at which it revives (`None` = the
    /// crash is permanent).
    pub rejoin_at_us: Option<u64>,
}

/// Which module a [`FaultInjection`] kills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultVictim {
    /// The Root block (leader death / handover scenario).
    Root,
    /// A deterministically seeded non-Root block (relay death); the pick
    /// is a splitmix64 function of the simulation seed so a sweep cell
    /// is byte-identical across worker counts.
    SeededRelay,
}

/// A single-victim crash/rejoin scenario, resolved against a concrete
/// world at build time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultInjection {
    /// The module to kill.
    pub victim: FaultVictim,
    /// Its crash/rejoin schedule.
    pub schedule: FaultSchedule,
}

impl FaultInjection {
    /// Resolves the victim to a module index given the module order and
    /// the Root's position in it; `None` for a relay victim when the Root
    /// is the only module.
    pub(crate) fn victim_index(
        &self,
        module_count: usize,
        root_index: usize,
        sim_seed: u64,
    ) -> Option<usize> {
        match self.victim {
            FaultVictim::Root => Some(root_index),
            FaultVictim::SeededRelay => {
                if module_count < 2 {
                    return None;
                }
                let pick = sb_desim::network::splitmix64(sim_seed ^ 0xFA01_7BA5) as usize;
                let slot = pick % (module_count - 1);
                // Skip over the Root: the relay is the slot-th non-Root.
                Some(if slot >= root_index { slot + 1 } else { slot })
            }
        }
    }
}

/// The capability surface a runtime hands to the [`BlockHarness`] while
/// it processes one event.
///
/// Implementations are thin, stateless shims over the runtime's native
/// context; all protocol logic lives in the harness.
pub trait Transport {
    /// Sends `envelope` to the module at index `target` (the world's
    /// module ↔ block mapping translates identifiers).
    fn send(&mut self, target: usize, envelope: Envelope);

    /// Arms a one-shot timer that re-enters the harness through its
    /// timer path after `delay_us` microseconds (simulated time on the
    /// DES, wall-clock on the actor runtime), carrying `tag`.
    fn set_timer(&mut self, delay_us: u64, tag: u64);

    /// Asks the whole runtime to stop dispatching.
    fn request_stop(&mut self);

    /// Sets the executing block's visual state (debugging aid mirroring
    /// VisibleSim's `setColor`).
    fn set_visual_state(&mut self, color: Color);

    /// Runs a closure with (exclusive) access to the shared world and
    /// returns its result.
    fn with_world<R>(&mut self, f: impl FnOnce(&mut SurfaceWorld) -> R) -> R;
}

/// The per-block program, runtime-agnostic: election state machine +
/// reusable action sink + reliable-delivery state + the one dispatch
/// loop.
pub struct BlockHarness {
    core: ElectionCore,
    sink: ActionSink,
    reliability: ReliabilityState,
    /// Scheduled crash/rejoin, armed as control timers at start-up.
    fault: Option<FaultSchedule>,
    /// Whether the module is currently crashed (ignores everything but
    /// its rejoin timer).
    dead: bool,
    /// Whether a round-skip watchdog deadline is outstanding (at most
    /// one at a time).
    watchdog_armed: bool,
    /// The core's progress counter when the outstanding deadline was
    /// armed; unchanged on expiry means the round stalled.
    progress_at_arm: u64,
    /// `(round, iteration)` snapshotted at crash time — the persistent
    /// block memory a rejoin restores from.
    crash_snapshot: (u32, u32),
}

impl BlockHarness {
    /// Wraps an election state machine with reliability disabled (the
    /// historical behaviour).
    pub fn new(core: ElectionCore) -> Self {
        BlockHarness::with_reliability(core, ReliabilityConfig::off())
    }

    /// Wraps an election state machine with the given reliable-delivery
    /// configuration.
    pub fn with_reliability(core: ElectionCore, reliability: ReliabilityConfig) -> Self {
        BlockHarness {
            core,
            sink: ActionSink::new(),
            reliability: ReliabilityState::new(reliability),
            fault: None,
            dead: false,
            watchdog_armed: false,
            progress_at_arm: 0,
            crash_snapshot: (0, 1),
        }
    }

    /// Schedules a crash (and optional rejoin) for this module; the
    /// timers are armed when the harness starts.
    pub fn with_fault(mut self, fault: FaultSchedule) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The wrapped state machine.
    pub fn core(&self) -> &ElectionCore {
        &self.core
    }

    /// Returns the wrapped state machine to its pre-start state while
    /// keeping every warmed buffer (the action sink and the core's
    /// scratch), so a driver can re-run elections without reallocating.
    /// Link sequencing state is dropped too: a reset harness starts a
    /// fresh reliability session.
    pub fn reset(&mut self) {
        self.core.reset_state();
        self.sink.clear();
        self.reliability.reset();
        self.dead = false;
        self.watchdog_armed = false;
        self.progress_at_arm = 0;
        self.crash_snapshot = (0, 1);
    }

    /// Start-up: colour the Root, arm the scheduled fault timers and the
    /// round-skip watchdog (rounds enabled only), and run the core's
    /// start handler.
    pub fn start<T: Transport>(&mut self, transport: &mut T) {
        if self.core.is_root() {
            transport.set_visual_state(Color::RED);
        }
        if let Some(fault) = self.fault {
            transport.set_timer(fault.crash_at_us, TAG_CRASH);
            if let Some(rejoin_at_us) = fault.rejoin_at_us {
                transport.set_timer(rejoin_at_us, TAG_REJOIN);
            }
        }
        if self.core.rounds().enabled {
            self.arm_watchdog(transport);
        }
        let BlockHarness { core, sink, .. } = self;
        transport.with_world(|world| core.on_start(world, sink));
        self.dispatch(transport);
    }

    /// Arms (or re-arms) the single outstanding round-skip deadline,
    /// snapshotting the progress counter it will be compared against.
    fn arm_watchdog<T: Transport>(&mut self, transport: &mut T) {
        self.watchdog_armed = true;
        self.progress_at_arm = self.core.progress();
        transport.set_timer(self.core.rounds().skip_timeout_us, TAG_ROUND_SKIP);
    }

    /// Delivers one envelope from the module at index `from` and executes
    /// the requested effects.
    ///
    /// [`Envelope::Raw`] payloads go straight to the election core.
    /// [`Envelope::Data`] is acknowledged unconditionally (the ack is
    /// what stops the sender's retransmissions, so even a duplicate must
    /// re-ack — its original ack may have been lost), then delivered or
    /// suppressed by the link's receive window.
    pub fn deliver<T: Transport>(&mut self, from: usize, envelope: Envelope, transport: &mut T) {
        if self.dead {
            // A crashed module hears nothing — not even to ack: silence is
            // what lets its peers' failure detectors (retry exhaustion)
            // conclude it is gone.
            return;
        }
        match envelope {
            Envelope::Raw(msg) => self.deliver_msg(from, msg, transport),
            Envelope::Data { seq, msg } => {
                transport.with_world(|world| world.metrics_mut().delivery_acks += 1);
                transport.send(from, Envelope::DeliveryAck { seq });
                match self.reliability.on_data(from, seq) {
                    Deliver::Fresh => self.deliver_msg(from, msg, transport),
                    Deliver::Duplicate => {
                        transport.with_world(|world| world.metrics_mut().duplicates_suppressed += 1)
                    }
                }
            }
            Envelope::DeliveryAck { seq } => {
                self.reliability.on_delivery_ack(from, seq);
            }
        }
    }

    /// Hands one protocol message to the election core and dispatches the
    /// resulting actions.
    fn deliver_msg<T: Transport>(&mut self, from: usize, msg: Msg, transport: &mut T) {
        if matches!(msg, Msg::Select { elected, .. } if elected == self.core.id()) {
            transport.set_visual_state(Color::BLUE);
        }
        let BlockHarness { core, sink, .. } = self;
        transport.with_world(|world| {
            let from_block = world
                .block_of_module(from)
                .expect("sender block is registered");
            core.on_message(from_block, msg, world, sink);
        });
        self.dispatch(transport);
        if self.core.rounds().enabled && !self.watchdog_armed {
            // A lapsed non-Root watchdog (quiet deadline, see
            // `on_watchdog_timer`) revives on the next delivered message.
            self.arm_watchdog(transport);
        }
    }

    /// Timer path.  Control tags (bit 63) drive the fault lifecycle and
    /// the round-skip watchdog; every other tag names an in-flight
    /// reliability sequence and drives its retransmission.  Timers for
    /// already-acknowledged sequences are stale and ignored (they are
    /// never cancelled — cheap, and safe on both runtimes).  A message
    /// that exhausts its retry budget is counted as a `delivery_failure`;
    /// with rounds disabled it converts the run into a clean `Stalled`
    /// outcome plus a stop request (never a silent hang), with rounds
    /// enabled it is the failure-detector verdict — the peer is presumed
    /// crashed and the election folds on without it
    /// ([`ElectionCore::on_peer_unreachable`]).
    pub fn timer<T: Transport>(&mut self, tag: u64, transport: &mut T) {
        match tag {
            TAG_CRASH => return self.on_crash_timer(transport),
            TAG_REJOIN => return self.on_rejoin_timer(transport),
            TAG_ROUND_SKIP => return self.on_watchdog_timer(transport),
            _ => {}
        }
        if self.dead || !self.reliability.enabled() {
            return;
        }
        let (peer, seq) = split_tag(tag);
        match self.reliability.on_timer(peer, seq) {
            TimerVerdict::Stale => {}
            TimerVerdict::Retransmit { msg, delay_us } => {
                transport.with_world(|world| world.metrics_mut().retransmissions += 1);
                transport.send(peer, Envelope::Data { seq, msg });
                transport.set_timer(delay_us, tag);
            }
            TimerVerdict::Exhausted => {
                if self.core.rounds().enabled {
                    let BlockHarness { core, sink, .. } = self;
                    transport.with_world(|world| {
                        world.metrics_mut().delivery_failures += 1;
                        if let Some(peer_block) = world.block_of_module(peer) {
                            core.on_peer_unreachable(peer_block, world, sink);
                        }
                    });
                    self.dispatch(transport);
                } else {
                    transport.with_world(|world| {
                        world.metrics_mut().delivery_failures += 1;
                        if world.outcome().is_none() {
                            world.set_outcome(Outcome::Stalled);
                        }
                    });
                    transport.request_stop();
                }
            }
        }
    }

    /// The scheduled crash fires: go dead, remembering `(round,
    /// iteration)` — the persistent block memory a rejoin restores from.
    fn on_crash_timer<T: Transport>(&mut self, transport: &mut T) {
        if self.dead {
            return;
        }
        self.dead = true;
        self.watchdog_armed = false;
        self.crash_snapshot = (self.core.round(), self.core.iteration().max(1));
        transport.with_world(|world| world.metrics_mut().crashes_injected += 1);
        transport.set_visual_state(Color::GREY);
    }

    /// The scheduled rejoin fires: revive with fresh election state at
    /// the snapshotted iteration.  A Root resumes one round *past* its
    /// snapshot (its own round may have been the one that died with it);
    /// a non-Root resumes at the snapshot and lets `RoundSync` or the
    /// next activation flood pull it forward.  In-flight reliability
    /// sends are abandoned but link sequencing survives the crash, so
    /// peers' anti-replay windows stay valid.
    fn on_rejoin_timer<T: Transport>(&mut self, transport: &mut T) {
        if !self.dead {
            return;
        }
        self.dead = false;
        let (round, iteration) = self.crash_snapshot;
        let rejoin_round = if self.core.is_root() {
            round.saturating_add(1)
        } else {
            round
        };
        self.reliability.abandon_inflight();
        transport.with_world(|world| world.metrics_mut().rejoins += 1);
        if self.core.is_root() {
            transport.set_visual_state(Color::RED);
        }
        let BlockHarness { core, sink, .. } = self;
        transport.with_world(|world| core.rejoin_at(rejoin_round, iteration, world, sink));
        self.dispatch(transport);
        if self.core.rounds().enabled {
            self.arm_watchdog(transport);
        }
    }

    /// The round-skip deadline fires: if the election made no progress
    /// since the deadline was armed, the *Root* abandons the round
    /// ([`ElectionCore::skip_round`]) — round chronology is the Root's
    /// alone to advance.  Were every block to skip on its own deadline,
    /// quiet survivors would run permanently ahead of the Root and each
    /// re-flood would arrive one round stale, answered by a `RoundSync`
    /// that the next unilateral skip immediately invalidates — a
    /// lockstep that never converges.  A quiet non-Root instead lets its
    /// watchdog lapse (the next delivered message re-arms it); liveness
    /// at that block comes from the Root's skip or from its dead peer's
    /// retry exhaustion, never from a private round counter.
    fn on_watchdog_timer<T: Transport>(&mut self, transport: &mut T) {
        if !self.core.rounds().enabled {
            return;
        }
        self.watchdog_armed = false;
        if self.dead {
            return;
        }
        if transport.with_world(|world| world.outcome().is_some()) {
            return;
        }
        if self.core.progress() == self.progress_at_arm {
            if !self.core.is_root() {
                return;
            }
            let BlockHarness { core, sink, .. } = self;
            transport.with_world(|world| core.skip_round(world, sink));
            self.dispatch(transport);
            if transport.with_world(|world| world.outcome().is_some()) {
                // The max-rounds valve concluded the run: stop re-arming.
                return;
            }
        }
        self.arm_watchdog(transport);
    }

    /// The single election-to-runtime dispatch loop: drains the sink,
    /// counting sent messages per kind in the world's metrics, resolving
    /// destination blocks to module indices, and translating a stop into
    /// the GREEN "finished" colour plus a runtime stop request.  With
    /// reliability enabled, outgoing payloads are sequenced and get a
    /// retransmission timer; otherwise they travel raw.
    fn dispatch<T: Transport>(&mut self, transport: &mut T) {
        for action in self.sink.drain() {
            match action {
                Action::Send { to, msg } => {
                    let kind = msg.kind();
                    let target = transport.with_world(|world| {
                        world.metrics_mut().record_message(kind);
                        world
                            .module_index_of(to)
                            .expect("destination block is registered")
                    });
                    if self.reliability.enabled() {
                        let me = self.core.id().as_u32();
                        let (seq, delay_us) = self.reliability.register_send(target, &msg, me);
                        transport.send(target, Envelope::Data { seq, msg });
                        transport.set_timer(delay_us, timer_tag(target, seq));
                    } else {
                        transport.send(target, Envelope::Raw(msg));
                    }
                }
                Action::Stop => {
                    transport.set_visual_state(Color::GREEN);
                    transport.request_stop();
                }
            }
        }
    }
}

/// [`Transport`] shim over the discrete-event simulator's context.
struct DesTransport<'a, 'k>(&'a mut Context<'k, Envelope, SurfaceWorld>);

impl Transport for DesTransport<'_, '_> {
    fn send(&mut self, target: usize, envelope: Envelope) {
        self.0.send(ModuleId(target), envelope);
    }

    fn set_timer(&mut self, delay_us: u64, tag: u64) {
        self.0.set_timer(SimDuration::micros(delay_us), tag);
    }

    fn request_stop(&mut self) {
        self.0.request_stop();
    }

    fn set_visual_state(&mut self, color: Color) {
        self.0.set_color(color);
    }

    fn with_world<R>(&mut self, f: impl FnOnce(&mut SurfaceWorld) -> R) -> R {
        f(self.0.world_mut())
    }
}

impl BlockCode<Envelope, SurfaceWorld> for BlockHarness {
    fn on_start(&mut self, ctx: &mut Context<'_, Envelope, SurfaceWorld>) {
        self.start(&mut DesTransport(ctx));
    }

    fn on_message(
        &mut self,
        from: ModuleId,
        msg: Envelope,
        ctx: &mut Context<'_, Envelope, SurfaceWorld>,
    ) {
        self.deliver(from.index(), msg, &mut DesTransport(ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Envelope, SurfaceWorld>) {
        self.timer(tag, &mut DesTransport(ctx));
    }
}

/// [`Transport`] shim over the threaded actor runtime's context.
struct ActorTransport<'a, 'k>(&'a mut ActorContext<'k, Envelope, SurfaceWorld>);

impl Transport for ActorTransport<'_, '_> {
    fn send(&mut self, target: usize, envelope: Envelope) {
        self.0.send(ActorId(target), envelope);
    }

    fn set_timer(&mut self, delay_us: u64, tag: u64) {
        // The returned TimerId is dropped on purpose: the harness never
        // cancels timers, it lets stale ones fire and ignores them.
        let _ = self
            .0
            .set_timer(std::time::Duration::from_micros(delay_us), tag);
    }

    fn request_stop(&mut self) {
        self.0.request_stop();
    }

    fn set_visual_state(&mut self, color: Color) {
        self.0.set_visual((color.r, color.g, color.b));
    }

    fn with_world<R>(&mut self, f: impl FnOnce(&mut SurfaceWorld) -> R) -> R {
        self.0.with_world(f)
    }
}

impl Actor<Envelope, SurfaceWorld> for BlockHarness {
    fn on_start(&mut self, ctx: &mut ActorContext<'_, Envelope, SurfaceWorld>) {
        self.start(&mut ActorTransport(ctx));
    }

    fn on_message(
        &mut self,
        from: ActorId,
        msg: Envelope,
        ctx: &mut ActorContext<'_, Envelope, SurfaceWorld>,
    ) {
        self.deliver(from.index(), msg, &mut ActorTransport(ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut ActorContext<'_, Envelope, SurfaceWorld>) {
        self.timer(tag, &mut ActorTransport(ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ReconfigurationDriver;
    use crate::election::{AlgorithmConfig, TieBreak};
    use crate::world::Outcome;
    use sb_desim::{LatencyModel, ModuleId, NetworkModel};
    use sb_grid::SurfaceConfig;

    fn small_config() -> SurfaceConfig {
        // Five blocks, shortest path of four cells along column 1: one
        // spare block stays off the path as a helper.
        SurfaceConfig::from_ascii(
            ". O . .\n\
             . . # .\n\
             . # # .\n\
             . I # .",
        )
        .unwrap()
    }

    /// The driver deploying [`small_config`] with `algorithm` and `seed`.
    fn driver(algorithm: AlgorithmConfig, seed: u64) -> ReconfigurationDriver {
        ReconfigurationDriver::new(small_config())
            .with_algorithm(algorithm)
            .with_seed(seed)
    }

    #[test]
    fn des_simulation_builds_and_completes_on_a_small_instance() {
        let mut sim = driver(AlgorithmConfig::default(), 7).des_simulation();
        assert_eq!(sim.module_count(), 5);
        sim.run_until_idle();
        let world = sim.world();
        assert_eq!(world.outcome(), Some(Outcome::Completed));
        assert!(world.path_complete());
    }

    #[test]
    fn actor_system_builds_and_completes_on_a_small_instance() {
        let system = driver(AlgorithmConfig::default(), 0).actor_system();
        assert_eq!(system.actor_count(), 5);
        let report = system.run(std::time::Duration::from_secs(30));
        assert!(report.stopped, "algorithm must terminate, not time out");
        assert_eq!(report.world.outcome(), Some(Outcome::Completed));
        assert!(report.world.path_complete());
    }

    /// The satellite fix of PR 4 this pins down: the actor runtime used
    /// to ignore the Root RED / elected BLUE / stopped GREEN colouring
    /// the simulator performed.  With both runtimes routed through the
    /// one harness, the final visual states must agree module-for-module
    /// (the deterministic LowestId tie-break makes the elected sequence —
    /// and therefore the BLUE set — runtime-independent).
    #[test]
    fn visual_states_agree_between_runtimes() {
        let algorithm = AlgorithmConfig {
            tie_break: TieBreak::LowestId,
            ..AlgorithmConfig::default()
        };

        let mut sim = driver(algorithm, 7).des_simulation();
        sim.run_until_idle();
        let des_colors: Vec<(u8, u8, u8)> = (0..sim.module_count())
            .map(|i| {
                let c = sim.color_of(ModuleId(i));
                (c.r, c.g, c.b)
            })
            .collect();

        let system = driver(algorithm, 0).actor_system();
        let report = system.run(std::time::Duration::from_secs(60));
        assert!(report.stopped);

        assert_eq!(des_colors, report.visuals, "visual-state parity");
        // The palette is meaningful, not accidental: the Root module
        // finished GREEN (it was RED until it stopped the run), at least
        // one block was elected BLUE, and nobody is still RED.
        let green = (Color::GREEN.r, Color::GREEN.g, Color::GREEN.b);
        let blue = (Color::BLUE.r, Color::BLUE.g, Color::BLUE.b);
        let red = (Color::RED.r, Color::RED.g, Color::RED.b);
        assert_eq!(des_colors.iter().filter(|&&c| c == green).count(), 1);
        assert!(des_colors.contains(&blue), "an elected block turned BLUE");
        assert!(!des_colors.contains(&red), "the Root recoloured on stop");
    }

    /// Reliability on, healthy network: the run completes with the same
    /// final surface as the raw dispatch, pays acks but (with the RTO far
    /// above the fixed latency) zero retransmissions, and never drops.
    #[test]
    fn reliability_on_a_healthy_network_completes_without_retransmissions() {
        let run = |reliability: ReliabilityConfig| {
            let mut sim = driver(AlgorithmConfig::default(), 7)
                .with_reliability(reliability)
                .des_simulation();
            sim.run_until_idle();
            (
                sim.world().outcome(),
                sim.world().ascii(),
                *sim.world().metrics(),
            )
        };
        let (raw_outcome, raw_ascii, raw_metrics) = run(ReliabilityConfig::off());
        let (rel_outcome, rel_ascii, rel_metrics) = run(ReliabilityConfig::on());
        assert_eq!(raw_outcome, Some(Outcome::Completed));
        assert_eq!(rel_outcome, Some(Outcome::Completed));
        assert_eq!(raw_ascii, rel_ascii, "same final surface either way");
        assert_eq!(raw_metrics.retransmissions, 0);
        assert_eq!(rel_metrics.retransmissions, 0, "RTO ≫ fixed latency");
        assert_eq!(rel_metrics.delivery_failures, 0);
        assert_eq!(raw_metrics.delivery_acks, 0);
        assert_eq!(
            rel_metrics.delivery_acks,
            rel_metrics.total_messages(),
            "every sequenced payload is acked exactly once on a clean link"
        );
    }

    /// Tentpole acceptance at unit scale: a lossy network deadlocks the
    /// raw protocol (drained queue, no outcome) but completes with
    /// reliability on, the recovery visible as a non-zero retransmission
    /// count.
    #[test]
    fn reliability_recovers_an_election_from_heavy_loss() {
        let lossy = NetworkModel::Lossy {
            latency: LatencyModel::Fixed(SimDuration::micros(10)),
            drop_permille: 200,
        };
        let mut raw = driver(AlgorithmConfig::default(), 3)
            .with_network(lossy)
            .des_simulation();
        raw.run_until_idle();
        assert_eq!(
            raw.world().outcome(),
            None,
            "20% loss deadlocks the raw protocol on this seed"
        );

        let mut reliable = driver(AlgorithmConfig::default(), 3)
            .with_network(lossy)
            .with_reliability(ReliabilityConfig::on())
            .des_simulation();
        reliable.run_until_idle();
        assert_eq!(reliable.world().outcome(), Some(Outcome::Completed));
        assert!(reliable.world().path_complete());
        assert!(
            reliable.world().metrics().retransmissions > 0,
            "recovery is visible in the metrics"
        );
        assert_eq!(reliable.world().metrics().delivery_failures, 0);
    }

    /// Satellite: the `Duplicating` overtake case.  The duplicate takes
    /// an independently sampled delay, so it can arrive *before* the
    /// original; the receive window must suppress whichever copy is
    /// second, regardless of order.  At the harness level the two orders
    /// are indistinguishable — both are two deliveries of the same
    /// sequence number — which is exactly the point; this pins it
    /// end-to-end through `deliver`.
    #[test]
    fn duplicate_suppression_is_order_independent() {
        use std::collections::VecDeque;

        struct NullTransport<'a> {
            world: &'a mut SurfaceWorld,
            sent: &'a mut VecDeque<(usize, Envelope)>,
        }
        impl Transport for NullTransport<'_> {
            fn send(&mut self, target: usize, envelope: Envelope) {
                self.sent.push_back((target, envelope));
            }
            fn set_timer(&mut self, _delay_us: u64, _tag: u64) {}
            fn request_stop(&mut self) {}
            fn set_visual_state(&mut self, _color: Color) {}
            fn with_world<R>(&mut self, f: impl FnOnce(&mut SurfaceWorld) -> R) -> R {
                f(self.world)
            }
        }

        // Either delivery order of {original, duplicate}: the payload
        // reaches the election core exactly once and the second copy
        // bumps `duplicates_suppressed`.  An Ack into a non-engaged core
        // is itself idempotently dropped, so the world metrics isolate
        // the transport layer's behaviour.
        let mut world = SurfaceWorld::standard(small_config());
        let order = world.grid().block_ids_sorted();
        world.set_module_mapping(order.clone());
        let me = order[0];
        let peer_index = 1usize;
        let data = |msg: &Msg| Envelope::Data {
            seq: 1,
            msg: msg.clone(),
        };
        let msg = Msg::Ack {
            round: 0,
            iteration: 1,
            son: order[peer_index],
            shortest_distance: crate::messages::Distance::finite(3),
            id_shortest: order[peer_index],
            ties: 1,
        };
        for label in ["original-first", "duplicate-first"] {
            let mut harness = BlockHarness::with_reliability(
                ElectionCore::new(me, false, AlgorithmConfig::default()),
                ReliabilityConfig::on(),
            );
            let mut sent = VecDeque::new();
            let before = world.metrics().duplicates_suppressed;
            // Two identical copies arrive; which one "is" the original is
            // unknowable at the receiver, so both orders are this order.
            harness.deliver(
                peer_index,
                data(&msg),
                &mut NullTransport {
                    world: &mut world,
                    sent: &mut sent,
                },
            );
            harness.deliver(
                peer_index,
                data(&msg),
                &mut NullTransport {
                    world: &mut world,
                    sent: &mut sent,
                },
            );
            assert_eq!(
                world.metrics().duplicates_suppressed,
                before + 1,
                "{label}: exactly one copy suppressed"
            );
            // Both copies were acked (the duplicate re-acks in case the
            // first ack was lost).
            let acks = sent
                .iter()
                .filter(|(to, e)| {
                    *to == peer_index && matches!(e, Envelope::DeliveryAck { seq: 1 })
                })
                .count();
            assert_eq!(acks, 2, "{label}: every Data copy is acked");
        }
    }

    /// End-to-end overtake coverage: a 100%-duplicating network with
    /// independent per-copy delays (so copies overtake originals all the
    /// time) completes with reliability on, and the suppression count
    /// shows the window absorbed the copies.
    #[test]
    fn duplicating_network_with_overtakes_completes_under_reliability() {
        let duplicating = NetworkModel::Duplicating {
            latency: LatencyModel::Uniform {
                min: SimDuration::micros(1),
                max: SimDuration::micros(100),
            },
            dup_permille: 1000,
        };
        let mut sim = driver(AlgorithmConfig::default(), 5)
            .with_network(duplicating)
            .with_reliability(ReliabilityConfig::on())
            .des_simulation();
        sim.run_until_idle();
        assert_eq!(sim.world().outcome(), Some(Outcome::Completed));
        assert!(sim.world().path_complete());
        assert!(
            sim.world().metrics().duplicates_suppressed > 0,
            "the window visibly absorbed duplicated copies"
        );
        assert_eq!(sim.world().metrics().delivery_failures, 0);
    }

    /// Retry-budget exhaustion is a clean, counted outcome: on a link
    /// that drops everything, the sender runs out of retries, records a
    /// `delivery_failure`, stalls the world and stops the run — the
    /// simulation terminates by itself.
    #[test]
    fn retry_exhaustion_stalls_cleanly_instead_of_hanging() {
        let black_hole = NetworkModel::Lossy {
            latency: LatencyModel::Fixed(SimDuration::micros(10)),
            drop_permille: 1000,
        };
        let mut sim = driver(AlgorithmConfig::default(), 1)
            .with_network(black_hole)
            .with_reliability(ReliabilityConfig::on())
            .des_simulation();
        sim.run_until_idle();
        assert!(sim.is_stopped(), "the exhaustion path stops the run");
        assert_eq!(sim.world().outcome(), Some(Outcome::Stalled));
        assert!(sim.world().metrics().delivery_failures > 0);
        assert_eq!(
            sim.world().metrics().duplicates_suppressed,
            0,
            "nothing was ever delivered, let alone twice"
        );
    }

    /// Rounds + reliability tuned so retry exhaustion (the failure
    /// detector) resolves well inside one skip deadline.
    fn recovery_algorithm() -> AlgorithmConfig {
        AlgorithmConfig {
            tie_break: TieBreak::LowestId,
            rounds: crate::election::RoundsConfig::on(),
            ..AlgorithmConfig::default()
        }
    }

    fn fast_reliability() -> ReliabilityConfig {
        ReliabilityConfig {
            enabled: true,
            base_rto_us: 500,
            max_rto_us: 2_000,
            retry_limit: 4,
        }
    }

    /// Tentpole acceptance at unit scale: the Root dies mid-run and
    /// rejoins; with rounds + reliability the election re-runs and the
    /// reconfiguration still completes — measured, not hoped for, via the
    /// crash/rejoin/round counters.
    #[test]
    fn root_crash_and_rejoin_still_completes_with_rounds_on() {
        let faults = FaultInjection {
            victim: FaultVictim::Root,
            schedule: FaultSchedule {
                crash_at_us: 100,
                rejoin_at_us: Some(2_000),
            },
        };
        let mut sim = driver(recovery_algorithm(), 7)
            .with_reliability(fast_reliability())
            .with_faults(Some(faults))
            .des_simulation();
        sim.run_until_idle();
        assert!(sim.is_stopped(), "the run terminates by itself");
        assert_eq!(sim.world().outcome(), Some(Outcome::Completed));
        assert!(sim.world().path_complete());
        let metrics = *sim.world().metrics();
        assert_eq!(metrics.crashes_injected, 1);
        assert_eq!(metrics.rejoins, 1);
        assert!(
            metrics.rounds_started >= 2,
            "the rejoined Root re-elected in a fresh round: {metrics}"
        );
    }

    /// A permanent relay death cannot always preserve completion, but it
    /// must never hang: the run concludes (and stops) via synthesised
    /// declines, round skips, or at worst the max-rounds valve.
    #[test]
    fn permanent_relay_crash_terminates_cleanly() {
        let faults = FaultInjection {
            victim: FaultVictim::SeededRelay,
            schedule: FaultSchedule {
                crash_at_us: 100,
                rejoin_at_us: None,
            },
        };
        let mut sim = driver(recovery_algorithm(), 7)
            .with_reliability(fast_reliability())
            .with_faults(Some(faults))
            .des_simulation();
        sim.run_until_idle();
        assert!(sim.is_stopped(), "no silent hang");
        assert!(sim.world().outcome().is_some(), "a clean conclusion");
        assert_eq!(sim.world().metrics().crashes_injected, 1);
        assert_eq!(sim.world().metrics().rejoins, 0);
    }

    /// Without rounds, the same root crash leaves the ensemble deadlocked
    /// (reliability alone stalls it at best) — the contrast that motivates
    /// the round layer.
    #[test]
    fn root_crash_without_rounds_does_not_complete() {
        let faults = FaultInjection {
            victim: FaultVictim::Root,
            schedule: FaultSchedule {
                crash_at_us: 100,
                rejoin_at_us: Some(2_000),
            },
        };
        let algorithm = AlgorithmConfig {
            tie_break: TieBreak::LowestId,
            ..AlgorithmConfig::default()
        };
        let mut sim = driver(algorithm, 7)
            .with_reliability(fast_reliability())
            .with_faults(Some(faults))
            .des_simulation();
        sim.run_until_idle();
        assert_ne!(
            sim.world().outcome(),
            Some(Outcome::Completed),
            "a crashed Root without rounds must not finish the build"
        );
    }

    /// The kernel-level fault plan makes dead time observable: in-flight
    /// messages addressed to the dead window are dropped and counted.
    #[test]
    fn dead_window_drops_are_counted_in_sim_stats() {
        let faults = FaultInjection {
            victim: FaultVictim::Root,
            schedule: FaultSchedule {
                crash_at_us: 100,
                rejoin_at_us: Some(2_000),
            },
        };
        let mut sim = driver(recovery_algorithm(), 7)
            .with_reliability(fast_reliability())
            .with_faults(Some(faults))
            .des_simulation();
        let stats = sim.run_until_idle();
        assert!(
            stats.messages_dropped_dead > 0,
            "acks in flight to the crashed Root died with it: {stats}"
        );
    }
}
