//! The discrete-event core: event queue, dispatcher and the block-code
//! execution context.
//!
//! ## Layout
//!
//! * Pending events live in two `BinaryHeap<Event<M>>`s keyed by
//!   `(time, seq)`: `deliveries` holds start-up callbacks and messages,
//!   `timers` holds timer firings.  [`Event`]'s reversed `Ord` makes each
//!   max-heap pop its earliest event first, and the dispatcher takes the
//!   earlier of the two heads by the same `Ord`.  `seq` is one global
//!   counter, so the merged pop order is exactly that of a single heap:
//!   ascending `(time, seq)`, FIFO among equal timestamps whatever their
//!   kind.
//! * Why two heaps: a reliable run arms one retransmission timer per
//!   send, about a millisecond ahead, and nearly all of them fire stale.
//!   In one heap those timers make every delivery sift through dozens of
//!   pending entries (≈ 44 on `reliable_lossy` against ≈ 3 on column);
//!   split off, the delivery heap stays as shallow as on a run without
//!   timers, and each timer costs its own push and pop only.
//! * Start-up callbacks are ordinary [`EventKind::Start`] events:
//!   [`Simulator::add`] schedules one at the current simulated time, so
//!   every start fires before any same-time message scheduled later.
//! * Modules live in a **dense arena** `Vec<C>` where `C` is the concrete
//!   block-code type: the hot loop monomorphizes (no `Box<dyn>` pointer
//!   chase, no virtual dispatch).

use crate::event::{Event, EventKind};
use crate::fault::FaultPlan;
use crate::module::{BlockCode, Color, ModuleId};
use crate::network::{NetworkModel, NetworkState};
use crate::stats::SimStats;
use crate::time::{Duration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;
use std::time::Instant;

/// Mutable simulator state shared between the dispatcher and the block
/// codes (through [`Context`]).  Kept separate from the module storage so
/// that a module can be borrowed mutably while it manipulates the kernel.
struct Kernel<M, W> {
    world: W,
    /// Pending [`EventKind::Start`] and [`EventKind::Message`] events.
    deliveries: BinaryHeap<Event<M>>,
    /// Pending [`EventKind::Timer`] events.
    timers: BinaryHeap<Event<M>>,
    now: SimTime,
    seq: u64,
    network: NetworkState,
    rng: SmallRng,
    colors: Vec<Color>,
    stats: SimStats,
    stop_requested: bool,
    /// Scheduled per-module dead windows; `None` (the default) costs the
    /// hot dispatch path a single branch.
    faults: Option<FaultPlan>,
}

impl<M, W> Kernel<M, W> {
    fn schedule(&mut self, time: SimTime, kind: EventKind<M>) {
        let heap = match kind {
            EventKind::Timer { .. } => &mut self.timers,
            EventKind::Start { .. } | EventKind::Message { .. } => &mut self.deliveries,
        };
        heap.push(Event {
            time,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
        self.stats.max_queue_len = self.stats.max_queue_len.max(self.pending());
    }

    fn pending(&self) -> usize {
        self.deliveries.len() + self.timers.len()
    }

    /// The heap whose head fires next: the earlier head by `(time, seq)`
    /// (the greater by [`Event`]'s reversed `Ord`).  A run without timers
    /// pays one emptiness check.
    fn next_heap(&mut self) -> &mut BinaryHeap<Event<M>> {
        let timer_first = match self.timers.peek() {
            None => false,
            Some(timer) => self
                .deliveries
                .peek()
                .is_none_or(|delivery| timer > delivery),
        };
        if timer_first {
            &mut self.timers
        } else {
            &mut self.deliveries
        }
    }
}

/// The execution context handed to a block code while it processes an
/// event.  It is the only way a block interacts with the rest of the
/// system: sending messages, arming timers, reading and mutating the
/// shared world, changing its colour or requesting the whole simulation
/// to stop.
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
    /// model: the delivery delay comes from the kernel RNG on a
    /// [`NetworkModel::Uniform`] network and from the per-link stream on
    /// every other one, and a fault-injecting model may drop the message
    /// or schedule an independent duplicate (hence the `Clone` bound).
    pub fn send(&mut self, to: ModuleId, payload: M) {
        self.kernel.stats.messages_sent += 1;
        let from = self.me;
        let route = self
            .kernel
            .network
            .route(from.index(), to.index(), &mut self.kernel.rng);
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
/// the concrete block-code type stored in the dense module arena, so the
/// dispatch loop monomorphizes (no heap indirection, no virtual calls).
/// A simulation that mixes protocols names an enum over them as `C`.
pub struct Simulator<M, W, C> {
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
                deliveries: BinaryHeap::new(),
                timers: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
                network: NetworkState::new(NetworkModel::default(), network_seed(0xD15C0)),
                rng: SmallRng::seed_from_u64(0xD15C0),
                colors: Vec::new(),
                stats: SimStats::default(),
                stop_requested: false,
                faults: None,
            },
        }
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

    /// Whether no event (start-up callbacks included) is pending.
    pub fn is_idle(&self) -> bool {
        self.kernel.pending() == 0
    }

    /// Number of events still queued (events left behind by a stop
    /// request, or scheduled past a `run_until` deadline), including
    /// undispatched start-up callbacks.
    pub fn pending_events(&self) -> usize {
        self.kernel.pending()
    }

    /// Whether a block code requested the simulation to stop.
    pub fn is_stopped(&self) -> bool {
        self.kernel.stop_requested
    }

    /// Read access to a module's block code (e.g. to extract results
    /// after the run).  Returns `None` for out-of-range identifiers.
    pub fn module(&self, id: ModuleId) -> Option<&C> {
        self.modules.get(id.index())
    }

    /// Processes the next event.  Returns `false` when the queue is empty
    /// (nothing was processed).
    pub fn step(&mut self) -> bool {
        let event = match self.kernel.next_heap().pop() {
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
            match self.kernel.next_heap().peek() {
                Some(event) if event.time <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.kernel.stats.wall_elapsed += start.elapsed();
        self.kernel.stats
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

/// Derives the network-stream seed from the simulator seed, decorrelated
/// so the kernel RNG and the per-link streams never share a stream.
fn network_seed(seed: u64) -> u64 {
    seed ^ 0x6E65_7477_6F72_6B00 // "network\0"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;

    /// Toy protocol: a token is passed around a ring `rounds` times, then
    /// the last holder requests a stop.
    struct RingNode {
        next: ModuleId,
        is_initiator: bool,
        remaining: u32,
        /// Simulated time of every token delivery to this node.
        deliveries: Vec<SimTime>,
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
            self.deliveries.push(ctx.now());
            ctx.set_color(Color::GREEN);
            if hops == 0 {
                ctx.request_stop();
            } else {
                let next = self.next;
                ctx.send(next, hops - 1);
            }
        }
    }

    fn build_ring(n: usize, rounds: u32) -> Simulator<u32, Vec<ModuleId>, RingNode> {
        let mut sim = Simulator::new(Vec::new());
        for i in 0..n {
            sim.add(RingNode {
                next: ModuleId((i + 1) % n),
                is_initiator: i == 0,
                remaining: rounds,
                deliveries: Vec::new(),
            });
        }
        sim
    }

    /// Every node's recorded token deliveries, node by node.
    fn deliveries(sim: &Simulator<u32, Vec<ModuleId>, RingNode>) -> Vec<SimTime> {
        (0..sim.module_count())
            .filter_map(|i| sim.module(ModuleId(i)))
            .flat_map(|node| node.deliveries.iter().copied())
            .collect()
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
        // Every token hop was delivered to, and recorded by, a node.
        assert_eq!(deliveries(&sim).len(), 13);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed| {
            let mut sim = build_ring(4, 20);
            sim = sim
                .with_seed(seed)
                .with_network(NetworkModel::Uniform(LatencyModel::Uniform {
                    min: Duration::micros(1),
                    max: Duration::micros(100),
                }));
            sim.run_until_idle();
            (sim.now(), sim.stats().events_processed, deliveries(&sim))
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

    /// A burst pair: a `Sender` fires payloads `0..10` at `target` from
    /// its start-up callback, with an explicit delay or (`delay: None`)
    /// through the network model; a `Recorder` logs every payload it
    /// receives into the world.
    enum Burst {
        Recorder,
        Sender {
            target: ModuleId,
            delay: Option<Duration>,
        },
    }

    impl BlockCode<u32, Vec<u32>> for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_, u32, Vec<u32>>) {
            if let Burst::Sender { target, delay } = *self {
                for i in 0..10 {
                    match delay {
                        Some(delay) => ctx.send_with_delay(target, i, delay),
                        None => ctx.send(target, i),
                    }
                }
            }
        }
        fn on_message(&mut self, _: ModuleId, msg: u32, ctx: &mut Context<'_, u32, Vec<u32>>) {
            ctx.world_mut().push(msg);
        }
    }

    fn burst(delay: Option<Duration>) -> Simulator<u32, Vec<u32>, Burst> {
        let mut sim = Simulator::new(Vec::new());
        let target = sim.add(Burst::Recorder);
        sim.add(Burst::Sender { target, delay });
        sim
    }

    #[test]
    fn events_at_equal_time_fire_in_fifo_order() {
        // Same delivery time for every message.
        let mut sim = burst(Some(Duration::micros(50)));
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
        sim.add(TimerCode);
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
        sim = sim.with_network(NetworkModel::Uniform(LatencyModel::Instant));
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
        // With permille 1000 every send is delivered twice.
        let mut sim = burst(None).with_network(NetworkModel::Duplicating {
            latency: LatencyModel::Fixed(Duration::micros(10)),
            dup_permille: 1000,
        });
        let stats = sim.run_until_idle();
        assert_eq!(stats.messages_sent, 10);
        assert_eq!(stats.messages_duplicated, 10);
        assert_eq!(sim.world().len(), 20, "every message arrived twice");
    }

    #[test]
    fn empty_simulator_is_idle() {
        let mut sim: Simulator<u32, Vec<u32>, Burst> = Simulator::new(Vec::new());
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
        let received: usize = (0..sim.module_count())
            .map(|i| {
                sim.module(ModuleId(i))
                    .expect("registered")
                    .deliveries
                    .len()
            })
            .sum();
        assert_eq!(received, 6, "hops 5..=0 delivered around the ring");
    }
}
