//! The discrete-event core: event queue, dispatcher and the block-code
//! execution context.
//!
//! ## Layout
//!
//! * Pending events live in one `BinaryHeap<Event<M>>` keyed by
//!   `(time, seq)`; [`Event`]'s reversed `Ord` makes the max-heap pop the
//!   earliest event first, FIFO among equal timestamps.  A complete
//!   reconfiguration keeps only about N events pending while it
//!   dispatches O(N³) of them, so the O(log n) heap stays shallow.
//! * Start-up callbacks are ordinary [`EventKind::Start`] events:
//!   [`Simulator::add`] schedules one at the current simulated time, so
//!   every start fires before any same-time message scheduled later.
//! * Modules live in a **dense arena** `Vec<C>` where `C` is the concrete
//!   block-code type: the hot loop monomorphizes (no `Box<dyn>` pointer
//!   chase, no virtual dispatch) whenever the caller names `C`.  With the
//!   `C` parameter left at its `Box<dyn BlockCode<M, W>>` default,
//!   [`Simulator::add_module`] type-erases each module instead, so one
//!   simulation can mix block-code types.

use crate::event::{Event, EventKind};
use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::module::{BlockCode, Color, ModuleId};
use crate::network::{NetworkModel, NetworkState};
use crate::stats::SimStats;
use crate::time::{Duration, SimTime};
use crate::trace::{TraceBuffer, TraceEntry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;
use std::time::Instant;

/// Mutable simulator state shared between the dispatcher and the block
/// codes (through [`Context`]).  Kept separate from the module storage so
/// that a module can be borrowed mutably while it manipulates the kernel.
struct Kernel<M, W> {
    world: W,
    queue: BinaryHeap<Event<M>>,
    now: SimTime,
    seq: u64,
    network: NetworkState,
    rng: SmallRng,
    colors: Vec<Color>,
    stats: SimStats,
    trace: TraceBuffer,
    stop_requested: bool,
    /// Scheduled per-module dead windows; `None` (the default) costs the
    /// hot dispatch path a single branch.
    faults: Option<FaultPlan>,
}

impl<M, W> Kernel<M, W> {
    fn schedule(&mut self, time: SimTime, kind: EventKind<M>) {
        let event = Event {
            time,
            seq: self.seq,
            kind,
        };
        self.seq += 1;
        self.queue.push(event);
        self.stats.max_queue_len = self.stats.max_queue_len.max(self.queue.len());
    }
}

/// The execution context handed to a block code while it processes an
/// event.  It is the only way a block interacts with the rest of the
/// system: sending messages, arming timers, reading and mutating the
/// shared world, changing its colour, writing trace text or requesting
/// the whole simulation to stop.
pub struct Context<'a, M, W> {
    kernel: &'a mut Kernel<M, W>,
    me: ModuleId,
}

impl<'a, M, W> Context<'a, M, W> {
    /// The module currently executing.
    pub fn self_id(&self) -> ModuleId {
        self.me
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Shared world, read-only.
    pub fn world(&self) -> &W {
        &self.kernel.world
    }

    /// Shared world, mutable.  In the Smart Blocks layer this is how the
    /// elected block asks the "physics" to execute a motion rule.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.kernel.world
    }

    /// Sends a message with an explicit delivery delay (bypassing the
    /// network model).
    pub fn send_with_delay(&mut self, to: ModuleId, payload: M, delay: Duration) {
        let time = self.kernel.now + delay;
        let from = self.me;
        self.kernel.stats.messages_sent += 1;
        self.kernel
            .schedule(time, EventKind::Message { from, to, payload });
    }

    /// Arms a timer that will call [`BlockCode::on_timer`] with `tag`
    /// after `delay`.
    pub fn set_timer(&mut self, delay: Duration, tag: u64) {
        let time = self.kernel.now + delay;
        let module = self.me;
        self.kernel.stats.timers_set += 1;
        self.kernel.schedule(time, EventKind::Timer { module, tag });
    }

    /// Changes the module's colour (debugging aid).
    pub fn set_color(&mut self, color: Color) {
        self.kernel.colors[self.me.index()] = color;
    }

    /// Appends a trace record (no-op unless tracing was enabled on the
    /// simulator).
    pub fn trace(&mut self, message: impl Into<String>) {
        if self.kernel.trace.is_enabled() {
            let entry = TraceEntry {
                time: self.kernel.now,
                module: Some(self.me),
                message: message.into(),
            };
            self.kernel.trace.push(entry);
        }
    }

    /// Uniform random integer in `0..n` from the simulator's seeded RNG
    /// (used e.g. for the Root's random tie-breaking among equidistant
    /// blocks).
    pub fn rand_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "rand_below(0)");
        self.kernel.rng.gen_range(0..n)
    }

    /// Asks the simulator to stop dispatching after the current event.
    pub fn request_stop(&mut self) {
        self.kernel.stop_requested = true;
    }
}

impl<'a, M: Clone, W> Context<'a, M, W> {
    /// Sends a message to another module through the simulator's network
    /// model: the delivery delay comes from the per-link stream, and a
    /// fault-injecting model may drop the message or schedule an
    /// independent duplicate (hence the `Clone` bound).
    pub fn send(&mut self, to: ModuleId, payload: M) {
        self.kernel.stats.messages_sent += 1;
        let from = self.me;
        // Fast path: a uniform network needs no per-link state — one
        // sample from the kernel RNG (the historical hot path), no link
        // map lookup and no lazily grown per-link RNG streams.  The
        // latency model is copied out (it is small) rather than the whole
        // network enum.
        if let &NetworkModel::Uniform(latency) = self.kernel.network.model_ref() {
            let delay = latency.sample(&mut self.kernel.rng);
            let time = self.kernel.now + delay;
            self.kernel
                .schedule(time, EventKind::Message { from, to, payload });
            return;
        }
        let route = self.kernel.network.route(from.index(), to.index());
        match route.delivery {
            Some(delay) => {
                if let Some(extra) = route.duplicate {
                    self.kernel.stats.messages_duplicated += 1;
                    let time = self.kernel.now + extra;
                    self.kernel.schedule(
                        time,
                        EventKind::Message {
                            from,
                            to,
                            payload: payload.clone(),
                        },
                    );
                }
                let time = self.kernel.now + delay;
                self.kernel
                    .schedule(time, EventKind::Message { from, to, payload });
            }
            None => self.kernel.stats.messages_dropped += 1,
        }
    }
}

/// The discrete-event simulator.
///
/// `M` is the message type, `W` the user-defined shared world, and `C`
/// the concrete block-code type stored in the dense module arena.  `C`
/// defaults to the type-erased `Box<dyn BlockCode<M, W>>`, which keeps
/// the historical heterogeneous API ([`Simulator::add_module`]) intact;
/// naming a concrete `C` and registering through [`Simulator::add`]
/// monomorphizes the dispatch loop (no heap indirection, no virtual
/// calls) — the mode the Smart Blocks election runs in.
pub struct Simulator<M, W, C = Box<dyn BlockCode<M, W>>> {
    modules: Vec<C>,
    kernel: Kernel<M, W>,
}

impl<M, W, C: BlockCode<M, W>> Simulator<M, W, C> {
    /// Creates a simulator around the given world, with the default
    /// network model and a fixed RNG seed (runs are reproducible unless a
    /// different seed is supplied).
    pub fn new(world: W) -> Self {
        Simulator {
            modules: Vec::new(),
            kernel: Kernel {
                world,
                queue: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
                network: NetworkState::new(NetworkModel::default(), network_seed(0xD15C0)),
                rng: SmallRng::seed_from_u64(0xD15C0),
                colors: Vec::new(),
                stats: SimStats::default(),
                trace: TraceBuffer::disabled(),
                stop_requested: false,
                faults: None,
            },
        }
    }

    /// Sets a uniform message latency model on every link (builder
    /// style); shorthand for `with_network(NetworkModel::Uniform(..))`.
    pub fn with_latency(self, latency: LatencyModel) -> Self {
        self.with_network(NetworkModel::Uniform(latency))
    }

    /// Sets the per-link network model (builder style).
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.kernel.network.set_model(network);
        self
    }

    /// Sets the RNG seed (builder style).  Re-seeds both the kernel RNG
    /// (timers, [`Context::rand_below`]) and the network's per-link
    /// streams (on a decorrelated derived seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.kernel.rng = SmallRng::seed_from_u64(seed);
        self.kernel.network.reseed(network_seed(seed));
        self
    }

    /// Enables the trace buffer with the given capacity (builder style).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.kernel.trace = TraceBuffer::with_capacity(capacity);
        self
    }

    /// Installs a crash-window plan (builder style): `Message` events to
    /// a dead module and non-control `Timer` events on one are dropped at
    /// dispatch time and counted in the run statistics (see
    /// [`FaultPlan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.kernel.faults = Some(plan);
        self
    }

    /// Registers a module in the arena and schedules its start-up
    /// callback at the current simulated time.
    pub fn add(&mut self, code: C) -> ModuleId {
        let id = ModuleId(self.modules.len());
        self.modules.push(code);
        self.kernel.colors.push(Color::GREY);
        let now = self.kernel.now;
        self.kernel.schedule(now, EventKind::Start { module: id });
        id
    }

    /// Number of registered modules.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        self.kernel.stats
    }

    /// The configured network model.
    pub fn network(&self) -> NetworkModel {
        self.kernel.network.model()
    }

    /// The shared world.
    pub fn world(&self) -> &W {
        &self.kernel.world
    }

    /// The shared world, mutable (e.g. to inspect or perturb it between
    /// runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.kernel.world
    }

    /// Consumes the simulator and returns the world.
    pub fn into_world(self) -> W {
        self.kernel.world
    }

    /// Current colour of a module.
    pub fn color_of(&self, id: ModuleId) -> Color {
        self.kernel.colors[id.index()]
    }

    /// The trace buffer.
    pub fn trace(&self) -> &TraceBuffer {
        &self.kernel.trace
    }

    /// Whether no event (start-up callbacks included) is pending.
    pub fn is_idle(&self) -> bool {
        self.kernel.queue.is_empty()
    }

    /// Number of events still queued (events left behind by a stop
    /// request, or scheduled past a `run_until` deadline), including
    /// undispatched start-up callbacks.
    pub fn pending_events(&self) -> usize {
        self.kernel.queue.len()
    }

    /// Whether a block code requested the simulation to stop.
    pub fn is_stopped(&self) -> bool {
        self.kernel.stop_requested
    }

    /// Clears a previous stop request so the run can resume.
    pub fn clear_stop(&mut self) {
        self.kernel.stop_requested = false;
    }

    /// Read access to a module's block code (e.g. to extract results
    /// after the run).  Returns `None` for out-of-range identifiers.
    pub fn module(&self, id: ModuleId) -> Option<&C> {
        self.modules.get(id.index())
    }

    /// Processes the next event.  Returns `false` when the queue is empty
    /// (nothing was processed).
    pub fn step(&mut self) -> bool {
        let event = match self.kernel.queue.pop() {
            Some(e) => e,
            None => return false,
        };
        debug_assert!(event.time >= self.kernel.now, "time must not run backwards");
        self.kernel.now = event.time;
        self.kernel.stats.events_processed += 1;
        self.kernel.stats.sim_time_end = event.time;
        let target = event.kind.target();
        // Fault windows: deliveries to a dead module die with it.  In-flight
        // messages are dropped at their delivery instant, pending timers
        // unless their tag is control-exempt (the module's own
        // crash/rejoin/watchdog machinery must run while it is dead).
        if let Some(plan) = &self.kernel.faults {
            match &event.kind {
                EventKind::Message { to, .. } if plan.dead_at(to.index(), event.time) => {
                    self.kernel.stats.messages_dropped_dead += 1;
                    return true;
                }
                EventKind::Timer { module, tag }
                    if !plan.exempt(*tag) && plan.dead_at(module.index(), event.time) =>
                {
                    self.kernel.stats.timers_dropped_dead += 1;
                    return true;
                }
                _ => {}
            }
        }
        // Messages addressed to unknown modules are dropped silently; this
        // cannot happen through the public API but keeps the kernel total.
        let Some(code) = self.modules.get_mut(target.index()) else {
            return true;
        };
        // Arena and kernel are disjoint fields, so the module borrows
        // mutably while the context borrows the kernel — no take/put-back
        // option dance on the hot path.
        let mut ctx = Context {
            kernel: &mut self.kernel,
            me: target,
        };
        match event.kind {
            EventKind::Start { .. } => code.on_start(&mut ctx),
            EventKind::Message { from, payload, .. } => code.on_message(from, payload, &mut ctx),
            EventKind::Timer { tag, .. } => code.on_timer(tag, &mut ctx),
        }
        true
    }

    /// Runs until the queue drains or a block code requests a stop.
    /// Returns the cumulative statistics.
    pub fn run_until_idle(&mut self) -> SimStats {
        // sb-allow: wall-clock-in-sim — feeds only SimStats::wall_elapsed (host-side stdout reporting; excluded from sweep JSON)
        let start = Instant::now();
        while !self.kernel.stop_requested && self.step() {}
        self.kernel.stats.wall_elapsed += start.elapsed();
        self.kernel.stats
    }

    /// Runs until the queue drains, a stop is requested, or simulated time
    /// would exceed `deadline` (events after the deadline stay queued).
    pub fn run_until(&mut self, deadline: SimTime) -> SimStats {
        // sb-allow: wall-clock-in-sim — feeds only SimStats::wall_elapsed (host-side stdout reporting; excluded from sweep JSON)
        let start = Instant::now();
        while !self.kernel.stop_requested {
            match self.kernel.queue.peek() {
                Some(event) if event.time <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.kernel.stats.wall_elapsed += start.elapsed();
        self.kernel.stats
    }

    /// Runs for `span` of simulated time from the current instant.
    pub fn run_for(&mut self, span: Duration) -> SimStats {
        let deadline = self.kernel.now + span;
        self.run_until(deadline)
    }

    /// Processes at most `n` events (used by drivers that interleave
    /// simulation with external checks).
    pub fn run_steps(&mut self, n: u64) -> u64 {
        // sb-allow: wall-clock-in-sim — feeds only SimStats::wall_elapsed (host-side stdout reporting; excluded from sweep JSON)
        let start = Instant::now();
        let mut done = 0;
        while done < n && !self.kernel.stop_requested && self.step() {
            done += 1;
        }
        self.kernel.stats.wall_elapsed += start.elapsed();
        done
    }
}

impl<M, W> Simulator<M, W> {
    /// Registers a module behind the type-erased `Box<dyn BlockCode>`
    /// arena (the heterogeneous escape hatch: modules of different
    /// concrete types in one simulation) and schedules its start-up
    /// callback at the current simulated time.
    pub fn add_module(&mut self, code: impl BlockCode<M, W> + 'static) -> ModuleId {
        self.add(Box::new(code))
    }
}

/// Derives the network-stream seed from the simulator seed, decorrelated
/// so the kernel RNG and the per-link streams never share a stream.
fn network_seed(seed: u64) -> u64 {
    seed ^ 0x6E65_7477_6F72_6B00 // "network\0"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy protocol: a token is passed around a ring `rounds` times, then
    /// the last holder requests a stop.
    struct RingNode {
        next: ModuleId,
        is_initiator: bool,
        remaining: u32,
        received: u32,
    }

    impl BlockCode<u32, Vec<ModuleId>> for RingNode {
        fn on_start(&mut self, ctx: &mut Context<'_, u32, Vec<ModuleId>>) {
            let me = ctx.self_id();
            ctx.world_mut().push(me);
            if self.is_initiator {
                let next = self.next;
                let remaining = self.remaining;
                ctx.send(next, remaining);
            }
        }
        fn on_message(
            &mut self,
            _from: ModuleId,
            hops: u32,
            ctx: &mut Context<'_, u32, Vec<ModuleId>>,
        ) {
            self.received += 1;
            ctx.set_color(Color::GREEN);
            ctx.trace(format!("token with {hops} hops left"));
            if hops == 0 {
                ctx.request_stop();
            } else {
                let next = self.next;
                ctx.send(next, hops - 1);
            }
        }
    }

    fn build_ring(n: usize, rounds: u32) -> Simulator<u32, Vec<ModuleId>, RingNode> {
        let mut sim = Simulator::new(Vec::new()).with_trace_capacity(64);
        for i in 0..n {
            sim.add(RingNode {
                next: ModuleId((i + 1) % n),
                is_initiator: i == 0,
                remaining: rounds,
                received: 0,
            });
        }
        sim
    }

    #[test]
    fn ring_token_circulates_and_stops() {
        let mut sim = build_ring(5, 12);
        let stats = sim.run_until_idle();
        // 5 start events + 13 message deliveries (hops 12..=0).
        assert_eq!(stats.events_processed, 5 + 13);
        assert_eq!(stats.messages_sent, 13);
        assert!(sim.is_stopped());
        // Post-stop invariant: the stop was requested while processing the
        // final token delivery (hops == 0), which sends nothing further —
        // and only one token is ever in flight in this ring — so the queue
        // must be exactly empty when the dispatcher halts.
        assert_eq!(
            sim.pending_events(),
            0,
            "the stop fired on the last in-flight event"
        );
        // The world recorded every module's start.
        assert_eq!(sim.world().len(), 5);
        // Colours of visited modules were changed.
        assert_eq!(sim.color_of(ModuleId(1)), Color::GREEN);
        // The trace captured the token hops.
        assert!(sim
            .trace()
            .entries()
            .iter()
            .any(|e| e.message.contains("hops left")));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed| {
            let mut sim = build_ring(4, 20);
            sim = sim.with_seed(seed).with_latency(LatencyModel::Uniform {
                min: Duration::micros(1),
                max: Duration::micros(100),
            });
            sim.run_until_idle();
            let deliveries: Vec<SimTime> = sim.trace().entries().iter().map(|e| e.time).collect();
            (sim.now(), sim.stats().events_processed, deliveries)
        };
        assert_eq!(run(11), run(11));
        // A different seed changes the sampled delay sequence (almost
        // surely).  Compare the full delivery schedule rather than just
        // the end time: distinct sequences can coincidentally sum to the
        // same total (seeds 11 and 12 actually do).
        assert_ne!(run(11).2, run(12).2);
    }

    #[test]
    fn starts_fire_in_registration_order_before_later_events() {
        // A start is an ordinary event keyed at registration: modules
        // added at the same instant start in registration order, and a
        // zero-delay message sent from a start waits behind every start
        // registered before it was sent.
        struct Logger(u32);
        impl BlockCode<u32, Vec<u32>> for Logger {
            fn on_start(&mut self, ctx: &mut Context<'_, u32, Vec<u32>>) {
                ctx.world_mut().push(self.0);
                if self.0 == 0 {
                    ctx.send_with_delay(ModuleId(2), 100, Duration::ZERO);
                }
            }
            fn on_message(&mut self, _: ModuleId, msg: u32, ctx: &mut Context<'_, u32, Vec<u32>>) {
                ctx.world_mut().push(msg);
            }
        }
        let mut sim = Simulator::new(Vec::new());
        for i in 0..3 {
            sim.add(Logger(i));
        }
        assert_eq!(sim.pending_events(), 3);
        let stats = sim.run_until_idle();
        assert_eq!(sim.world().as_slice(), &[0, 1, 2, 100]);
        assert_eq!(stats.events_processed, 4);
        assert_eq!(stats.max_queue_len, 3);
    }

    #[test]
    fn events_at_equal_time_fire_in_fifo_order() {
        struct Recorder;
        impl BlockCode<u32, Vec<u32>> for Recorder {
            fn on_message(
                &mut self,
                _from: ModuleId,
                msg: u32,
                ctx: &mut Context<'_, u32, Vec<u32>>,
            ) {
                ctx.world_mut().push(msg);
            }
        }
        struct Sender {
            target: ModuleId,
        }
        impl BlockCode<u32, Vec<u32>> for Sender {
            fn on_start(&mut self, ctx: &mut Context<'_, u32, Vec<u32>>) {
                for i in 0..10 {
                    // Same delivery time for every message.
                    ctx.send_with_delay(self.target, i, Duration::micros(50));
                }
            }
            fn on_message(&mut self, _: ModuleId, _: u32, _: &mut Context<'_, u32, Vec<u32>>) {}
        }
        let mut sim: Simulator<u32, Vec<u32>> = Simulator::new(Vec::new());
        let recorder = sim.add_module(Recorder);
        sim.add_module(Sender { target: recorder });
        let stats = sim.run_until_idle();
        assert_eq!(sim.world().as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        // The high-water mark is the ten simultaneous in-flight messages:
        // both start events have been dispatched before any is sent.
        assert_eq!(stats.max_queue_len, 10);
    }

    #[test]
    fn timers_fire_at_the_requested_time() {
        struct TimerCode;
        impl BlockCode<(), Vec<(u64, u64)>> for TimerCode {
            fn on_start(&mut self, ctx: &mut Context<'_, (), Vec<(u64, u64)>>) {
                ctx.set_timer(Duration::micros(500), 7);
                ctx.set_timer(Duration::micros(100), 3);
            }
            fn on_message(&mut self, _: ModuleId, _: (), _: &mut Context<'_, (), Vec<(u64, u64)>>) {
            }
            fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, (), Vec<(u64, u64)>>) {
                let now = ctx.now().as_micros();
                ctx.world_mut().push((tag, now));
            }
        }
        let mut sim = Simulator::new(Vec::new());
        sim.add_module(TimerCode);
        let stats = sim.run_until_idle();
        assert_eq!(sim.world().as_slice(), &[(3, 100), (7, 500)]);
        assert_eq!(stats.timers_set, 2);
        assert_eq!(sim.now(), SimTime(500));
    }

    #[test]
    fn run_until_respects_the_deadline() {
        let mut sim = build_ring(3, 1000);
        sim.run_until(SimTime(55));
        assert!(sim.now() <= SimTime(55));
        assert!(!sim.is_idle(), "later events must remain queued");
        let before = sim.stats().events_processed;
        sim.run_until_idle();
        assert!(sim.stats().events_processed > before);
    }

    #[test]
    fn run_steps_counts_processed_events() {
        let mut sim = build_ring(3, 1000);
        let done = sim.run_steps(10);
        assert_eq!(done, 10);
        assert_eq!(sim.stats().events_processed, 10);
    }

    #[test]
    fn instant_latency_keeps_time_at_zero() {
        let mut sim = build_ring(4, 8);
        sim = sim.with_latency(LatencyModel::Instant);
        sim.run_until_idle();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn lossy_network_drops_messages_and_counts_them() {
        // A fully lossy network kills the ring token on its first hop: the
        // queue drains with the protocol unfinished — exactly how a
        // violated Assumption 3 surfaces (no outcome, no crash).
        let mut sim = build_ring(5, 12);
        sim = sim.with_network(NetworkModel::Lossy {
            latency: LatencyModel::Fixed(Duration::micros(10)),
            drop_permille: 1000,
        });
        let stats = sim.run_until_idle();
        assert!(!sim.is_stopped(), "the stopper never received the token");
        assert_eq!(stats.messages_dropped, 1, "the initiator's send was eaten");
        assert_eq!(stats.events_processed, 5, "only the start events ran");
    }

    #[test]
    fn duplicating_network_delivers_extra_copies() {
        // Recorder counts deliveries; with permille 1000 every send is
        // delivered twice.
        struct Recorder;
        impl BlockCode<u32, u64> for Recorder {
            fn on_message(&mut self, _: ModuleId, _: u32, ctx: &mut Context<'_, u32, u64>) {
                *ctx.world_mut() += 1;
            }
        }
        struct Sender {
            target: ModuleId,
        }
        impl BlockCode<u32, u64> for Sender {
            fn on_start(&mut self, ctx: &mut Context<'_, u32, u64>) {
                for i in 0..10 {
                    ctx.send(self.target, i);
                }
            }
            fn on_message(&mut self, _: ModuleId, _: u32, _: &mut Context<'_, u32, u64>) {}
        }
        let mut sim: Simulator<u32, u64> = Simulator::new(0);
        let recorder = sim.add_module(Recorder);
        sim.add_module(Sender { target: recorder });
        sim = sim.with_network(NetworkModel::Duplicating {
            latency: LatencyModel::Fixed(Duration::micros(10)),
            dup_permille: 1000,
        });
        let stats = sim.run_until_idle();
        assert_eq!(stats.messages_sent, 10);
        assert_eq!(stats.messages_duplicated, 10);
        assert_eq!(*sim.world(), 20, "every message arrived twice");
    }

    #[test]
    fn empty_simulator_is_idle() {
        let mut sim: Simulator<(), ()> = Simulator::new(());
        assert!(sim.is_idle());
        assert!(!sim.step());
        let stats = sim.run_until_idle();
        assert_eq!(stats.events_processed, 0);
    }

    #[test]
    fn arena_module_access_is_typed() {
        // The monomorphic arena hands back the concrete type: no
        // downcasting needed to read results after a run.
        let mut sim = build_ring(3, 5);
        sim.run_until_idle();
        let received: u32 = (0..sim.module_count())
            .map(|i| sim.module(ModuleId(i)).expect("registered").received)
            .sum();
        assert_eq!(received, 6, "hops 5..=0 delivered around the ring");
    }
}
