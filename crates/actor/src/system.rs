//! The actor system: thread spawning, shutdown and statistics.

use crate::context::{
    Actor, ActorContext, ActorId, MailItem, Shared, TimerRequest, VisualState, VISUAL_NEUTRAL,
};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Outcome of a run.
#[derive(Debug)]
pub struct ActorRunReport<W> {
    /// The shared world after every actor thread has exited.
    pub world: W,
    /// Whether an actor requested the stop (normal termination).
    pub stopped: bool,
    /// Whether the run ended because the deadline expired instead.
    pub timed_out: bool,
    /// Messages sent by actors.
    pub messages_sent: u64,
    /// Messages actually delivered to `on_message`.
    pub messages_delivered: u64,
    /// Final visual state (colour) of every actor, indexed by
    /// [`ActorId`]; actors that never called
    /// [`ActorContext::set_visual`] stay at the neutral grey.
    pub visuals: Vec<VisualState>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// How often idle actor threads re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// A system of actors sharing a world, one OS thread per actor.
pub struct ActorSystem<M, W> {
    actors: Vec<Box<dyn Actor<M, W>>>,
    world: W,
}

impl<M, W> ActorSystem<M, W>
where
    M: Send + 'static,
    W: Send,
{
    /// Creates a system around the given world.
    pub fn new(world: W) -> Self {
        ActorSystem {
            actors: Vec::new(),
            world,
        }
    }

    /// Registers an actor.  Identifiers are assigned in registration
    /// order, starting at 0.
    pub fn add_actor(&mut self, actor: impl Actor<M, W> + 'static) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(Box::new(actor));
        id
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Runs the system until an actor requests a stop or `deadline`
    /// elapses, whichever comes first, then joins every thread and
    /// returns the world together with run statistics.
    pub fn run(self, deadline: Duration) -> ActorRunReport<W> {
        let ActorSystem { actors, world } = self;
        let n = actors.len();
        let mut senders = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<MailItem<M>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let (timer_tx, timer_rx) = unbounded::<TimerRequest>();
        let shared = Shared {
            world: Mutex::new(world),
            mailboxes: senders,
            visuals: Mutex::new(vec![VISUAL_NEUTRAL; n]),
            stop: AtomicBool::new(false),
            messages_sent: AtomicU64::new(0),
            messages_delivered: AtomicU64::new(0),
            timers: timer_tx,
            timer_seq: AtomicU64::new(0),
        };
        let start = Instant::now();
        let deadline_at = start + deadline;
        let timed_out = AtomicBool::new(false);
        // Actor threads still running; lets the watchdog retire as soon as
        // the system drains instead of sleeping out the whole deadline.
        let live_actors = AtomicUsize::new(n);

        crossbeam::scope(|scope| {
            // Watchdog thread: enforce the deadline.  The deadline is an
            // absolute `Instant`, so scheduler oversleep cannot drift the
            // effective deadline past the requested one, and the thread
            // exits early once every actor thread has finished.
            {
                let shared_ref = &shared;
                let timed_out = &timed_out;
                let live_actors = &live_actors;
                scope.spawn(move |_| {
                    let step = Duration::from_millis(1);
                    loop {
                        if shared_ref.stop_requested() || live_actors.load(Ordering::Acquire) == 0 {
                            return;
                        }
                        let now = Instant::now();
                        if now >= deadline_at {
                            break;
                        }
                        std::thread::sleep((deadline_at - now).min(step));
                    }
                    if !shared_ref.stop_requested() {
                        timed_out.store(true, Ordering::SeqCst);
                        shared_ref.request_stop();
                    }
                });
            }
            // Timer thread: a deadline-ordered min-heap serviced by one
            // dedicated thread.  Expiries are delivered through the
            // owner's mailbox (so they serialise with messages on the
            // actor's own thread); cancellation is lazy — cancelled ids
            // are skipped when they reach the top of the heap.  The
            // thread retires with the same discipline as the watchdog:
            // stop requested or every actor thread finished.
            {
                let shared_ref = &shared;
                let live_actors = &live_actors;
                scope.spawn(move |_| {
                    let step = Duration::from_millis(1);
                    let mut heap: BinaryHeap<Reverse<(Instant, u64, usize, u64)>> =
                        BinaryHeap::new();
                    let mut cancelled: BTreeSet<u64> = BTreeSet::new();
                    loop {
                        if shared_ref.stop_requested() || live_actors.load(Ordering::Acquire) == 0 {
                            return;
                        }
                        // Fire everything due.
                        let now = Instant::now();
                        while let Some(&Reverse((deadline, id, actor, tag))) = heap.peek() {
                            if deadline > now {
                                break;
                            }
                            heap.pop();
                            if cancelled.remove(&id) {
                                continue;
                            }
                            // A send to a disconnected mailbox only
                            // happens during shutdown; dropping the
                            // expiry is correct then.
                            let _ = shared_ref.mailboxes[actor].send(MailItem::Timer { tag });
                        }
                        // Sleep until the next deadline, the next arm or
                        // cancel request, or the next stop-flag poll,
                        // whichever comes first.
                        let wait = match heap.peek() {
                            Some(&Reverse((deadline, ..))) => {
                                deadline.saturating_duration_since(Instant::now()).min(step)
                            }
                            None => step,
                        };
                        match timer_rx.recv_timeout(wait) {
                            Ok(TimerRequest::Arm {
                                actor,
                                deadline,
                                tag,
                                id,
                            }) => {
                                heap.push(Reverse((deadline, id, actor.index(), tag)));
                            }
                            Ok(TimerRequest::Cancel { id }) => {
                                cancelled.insert(id);
                                // Compaction: lazy cancellation lets dead
                                // entries pile up in the heap (a workload
                                // that arms and cancels in a tight loop —
                                // e.g. retransmission timers under a
                                // healthy network — would otherwise grow
                                // it without bound).  When more than half
                                // the heap is cancelled, rebuild it
                                // without the corpses; amortised O(1) per
                                // cancel.
                                if cancelled.len() > heap.len() / 2 {
                                    let mut entries = std::mem::take(&mut heap).into_vec();
                                    entries.retain(|Reverse((_, id, _, _))| !cancelled.remove(id));
                                    heap = BinaryHeap::from(entries);
                                    // Ids left in `cancelled` were already
                                    // popped or never armed; forget them.
                                    cancelled.clear();
                                }
                            }
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => return,
                        }
                    }
                });
            }
            // One thread per actor.
            for (idx, (mut actor, rx)) in actors.into_iter().zip(receivers).enumerate() {
                let shared_ref = &shared;
                let live_actors = &live_actors;
                scope.spawn(move |_| {
                    let me = ActorId(idx);
                    let mut ctx = ActorContext {
                        shared: shared_ref,
                        me,
                    };
                    actor.on_start(&mut ctx);
                    loop {
                        match rx.recv_timeout(POLL_INTERVAL) {
                            Ok(MailItem::Message { from, payload }) => {
                                shared_ref
                                    .messages_delivered
                                    .fetch_add(1, Ordering::Relaxed);
                                actor.on_message(from, payload, &mut ctx);
                            }
                            // Timer expiries are not messages: they leave
                            // the sent/delivered counters untouched.
                            Ok(MailItem::Timer { tag }) => {
                                actor.on_timer(tag, &mut ctx);
                            }
                            Err(RecvTimeoutError::Timeout) => {
                                if shared_ref.stop_requested() {
                                    break;
                                }
                            }
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                        // Drain promptly after a stop, but do not wait for
                        // new messages.
                        if shared_ref.stop_requested() && rx.is_empty() {
                            break;
                        }
                    }
                    actor.on_stop(&mut ctx);
                    live_actors.fetch_sub(1, Ordering::Release);
                });
            }
        })
        .expect("actor threads must not panic");

        let elapsed = start.elapsed();
        let timed_out = timed_out.load(Ordering::SeqCst);
        ActorRunReport {
            stopped: shared.stop.load(Ordering::SeqCst) && !timed_out,
            timed_out,
            messages_sent: shared.messages_sent.load(Ordering::Relaxed),
            messages_delivered: shared.messages_delivered.load(Ordering::Relaxed),
            visuals: shared.visuals.into_inner(),
            elapsed,
            world: shared.world.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Token ring: each actor forwards the token to the next; after
    /// `rounds` laps the initiator stops the system.
    struct RingActor {
        next: ActorId,
        laps_left: u32,
        initiator: bool,
    }

    impl Actor<u32, Vec<usize>> for RingActor {
        fn on_start(&mut self, ctx: &mut ActorContext<'_, u32, Vec<usize>>) {
            if self.initiator {
                let next = self.next;
                let laps = self.laps_left;
                ctx.send(next, laps);
            }
        }
        fn on_message(
            &mut self,
            _from: ActorId,
            laps: u32,
            ctx: &mut ActorContext<'_, u32, Vec<usize>>,
        ) {
            let me = ctx.self_id().index();
            ctx.with_world(|w| w.push(me));
            if self.initiator {
                if laps == 0 {
                    ctx.request_stop();
                    return;
                }
                self.laps_left = laps - 1;
                let next = self.next;
                ctx.send(next, laps - 1);
            } else {
                let next = self.next;
                ctx.send(next, laps);
            }
        }
    }

    fn ring(n: usize, laps: u32) -> ActorSystem<u32, Vec<usize>> {
        let mut system = ActorSystem::new(Vec::new());
        for i in 0..n {
            system.add_actor(RingActor {
                next: ActorId((i + 1) % n),
                laps_left: laps,
                initiator: i == 0,
            });
        }
        system
    }

    #[test]
    fn token_ring_terminates_and_visits_everyone() {
        let report = ring(5, 3).run(Duration::from_secs(10));
        assert!(report.stopped);
        assert!(!report.timed_out);
        // 3 full laps of 5 hops + the final hop back to the initiator.
        assert_eq!(report.messages_sent, report.messages_delivered);
        let mut visited = report.world.clone();
        visited.sort_unstable();
        visited.dedup();
        assert_eq!(visited, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn deadline_stops_a_system_that_never_finishes() {
        // An actor that keeps messaging itself forever.
        struct Loopy;
        impl Actor<(), u64> for Loopy {
            fn on_start(&mut self, ctx: &mut ActorContext<'_, (), u64>) {
                let me = ctx.self_id();
                ctx.send(me, ());
            }
            fn on_message(&mut self, _: ActorId, _: (), ctx: &mut ActorContext<'_, (), u64>) {
                ctx.with_world(|w| *w += 1);
                if !ctx.stop_requested() {
                    let me = ctx.self_id();
                    ctx.send(me, ());
                }
            }
        }
        let mut system = ActorSystem::new(0u64);
        system.add_actor(Loopy);
        let report = system.run(Duration::from_millis(100));
        assert!(report.timed_out);
        assert!(!report.stopped);
        assert!(
            report.world > 0,
            "the loop made progress before the deadline"
        );
    }

    #[test]
    fn on_stop_runs_for_every_actor() {
        struct Finisher;
        impl Actor<(), Vec<usize>> for Finisher {
            fn on_start(&mut self, ctx: &mut ActorContext<'_, (), Vec<usize>>) {
                if ctx.self_id() == ActorId(0) {
                    ctx.request_stop();
                }
            }
            fn on_message(&mut self, _: ActorId, _: (), _: &mut ActorContext<'_, (), Vec<usize>>) {}
            fn on_stop(&mut self, ctx: &mut ActorContext<'_, (), Vec<usize>>) {
                let me = ctx.self_id().index();
                ctx.with_world(|w| w.push(me));
            }
        }
        let mut system = ActorSystem::new(Vec::new());
        for _ in 0..4 {
            system.add_actor(Finisher);
        }
        let mut report = system.run(Duration::from_secs(5));
        report.world.sort_unstable();
        assert_eq!(report.world, vec![0, 1, 2, 3]);
    }

    #[test]
    fn visual_states_are_recorded_per_actor() {
        struct Painter;
        impl Actor<(), ()> for Painter {
            fn on_start(&mut self, ctx: &mut ActorContext<'_, (), ()>) {
                let me = u8::try_from(ctx.self_id().index()).expect("test spawns < 256 actors");
                ctx.set_visual((me, 0, 0));
                if ctx.self_id() == ActorId(0) {
                    ctx.request_stop();
                }
            }
            fn on_message(&mut self, _: ActorId, _: (), _: &mut ActorContext<'_, (), ()>) {}
        }
        let mut system = ActorSystem::new(());
        for _ in 0..3 {
            system.add_actor(Painter);
        }
        let report = system.run(Duration::from_secs(5));
        assert_eq!(report.visuals, vec![(0, 0, 0), (1, 0, 0), (2, 0, 0)]);
    }

    #[test]
    fn world_mutations_are_serialized() {
        // Many actors increment a shared counter many times; the final
        // value must be exact (the mutex serialises the increments).
        struct Incr {
            times: u32,
        }
        impl Actor<(), u64> for Incr {
            fn on_start(&mut self, ctx: &mut ActorContext<'_, (), u64>) {
                for _ in 0..self.times {
                    ctx.with_world(|w| *w += 1);
                }
                if ctx.self_id() == ActorId(0) {
                    // Give the others a moment, then stop.
                    std::thread::sleep(Duration::from_millis(50));
                    ctx.request_stop();
                }
            }
            fn on_message(&mut self, _: ActorId, _: (), _: &mut ActorContext<'_, (), u64>) {}
        }
        let mut system = ActorSystem::new(0u64);
        for _ in 0..8 {
            system.add_actor(Incr { times: 1000 });
        }
        let report = system.run(Duration::from_secs(10));
        assert_eq!(report.world, 8 * 1000);
    }

    #[test]
    fn empty_system_returns_immediately_without_timing_out() {
        // No actor threads exist, so the watchdog must retire at once
        // instead of sleeping out the whole deadline (the pre-fix
        // behaviour burned the full 20 ms and reported a timeout).
        let system: ActorSystem<(), ()> = ActorSystem::new(());
        let report = system.run(Duration::from_millis(200));
        assert!(!report.timed_out, "nothing ran, so nothing timed out");
        assert!(!report.stopped, "no actor requested a stop");
        assert_eq!(report.messages_sent, 0);
        assert!(
            report.elapsed < Duration::from_millis(100),
            "the watchdog must not burn the deadline: {:?}",
            report.elapsed
        );
    }

    #[test]
    fn timers_fire_with_their_tag_and_do_not_count_as_messages() {
        struct Timed;
        impl Actor<(), Vec<u64>> for Timed {
            fn on_start(&mut self, ctx: &mut ActorContext<'_, (), Vec<u64>>) {
                ctx.set_timer(Duration::from_millis(5), 7);
            }
            fn on_message(&mut self, _: ActorId, _: (), _: &mut ActorContext<'_, (), Vec<u64>>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut ActorContext<'_, (), Vec<u64>>) {
                ctx.with_world(|w| w.push(tag));
                ctx.request_stop();
            }
        }
        let mut system = ActorSystem::new(Vec::new());
        system.add_actor(Timed);
        let report = system.run(Duration::from_secs(10));
        assert!(report.stopped, "the timer callback stops the run");
        assert_eq!(report.world, vec![7], "on_timer receives the armed tag");
        assert_eq!(report.messages_sent, 0, "timer expiries are not messages");
        assert_eq!(report.messages_delivered, 0);
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        struct Staggered;
        impl Actor<(), Vec<u64>> for Staggered {
            fn on_start(&mut self, ctx: &mut ActorContext<'_, (), Vec<u64>>) {
                // Armed out of order; must fire in deadline order.
                ctx.set_timer(Duration::from_millis(60), 3);
                ctx.set_timer(Duration::from_millis(20), 1);
                ctx.set_timer(Duration::from_millis(40), 2);
            }
            fn on_message(&mut self, _: ActorId, _: (), _: &mut ActorContext<'_, (), Vec<u64>>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut ActorContext<'_, (), Vec<u64>>) {
                let done = ctx.with_world(|w| {
                    w.push(tag);
                    w.len() == 3
                });
                if done {
                    ctx.request_stop();
                }
            }
        }
        let mut system = ActorSystem::new(Vec::new());
        system.add_actor(Staggered);
        let report = system.run(Duration::from_secs(10));
        assert!(report.stopped);
        assert_eq!(report.world, vec![1, 2, 3]);
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        struct Canceller;
        impl Actor<(), Vec<u64>> for Canceller {
            fn on_start(&mut self, ctx: &mut ActorContext<'_, (), Vec<u64>>) {
                // The cancel request reaches the timer thread long before
                // the 200 ms deadline, so the suppression is reliable.
                let doomed = ctx.set_timer(Duration::from_millis(200), 666);
                ctx.cancel_timer(doomed);
                ctx.set_timer(Duration::from_millis(300), 1);
            }
            fn on_message(&mut self, _: ActorId, _: (), _: &mut ActorContext<'_, (), Vec<u64>>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut ActorContext<'_, (), Vec<u64>>) {
                ctx.with_world(|w| w.push(tag));
                ctx.request_stop();
            }
        }
        let mut system = ActorSystem::new(Vec::new());
        system.add_actor(Canceller);
        let report = system.run(Duration::from_secs(10));
        assert!(report.stopped);
        assert_eq!(report.world, vec![1], "the cancelled timer never fired");
    }

    #[test]
    fn heap_compaction_preserves_survivors_after_mass_cancellation() {
        // Arms a burst of far-future timers and cancels them all: the
        // cancel burst trips the compaction rebuild (cancelled ids
        // outnumber half the heap) while two live timers sit in the heap.
        // They must survive the rebuild and still fire in deadline order.
        struct Churner;
        impl Actor<(), Vec<u64>> for Churner {
            fn on_start(&mut self, ctx: &mut ActorContext<'_, (), Vec<u64>>) {
                let doomed: Vec<_> = (0..48u64)
                    .map(|i| ctx.set_timer(Duration::from_secs(600 + i), 1000 + i))
                    .collect();
                ctx.set_timer(Duration::from_millis(120), 2);
                ctx.set_timer(Duration::from_millis(60), 1);
                for id in doomed {
                    ctx.cancel_timer(id);
                }
            }
            fn on_message(&mut self, _: ActorId, _: (), _: &mut ActorContext<'_, (), Vec<u64>>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut ActorContext<'_, (), Vec<u64>>) {
                let done = ctx.with_world(|w| {
                    w.push(tag);
                    w.len() == 2
                });
                if done {
                    ctx.request_stop();
                }
            }
        }
        let mut system = ActorSystem::new(Vec::new());
        system.add_actor(Churner);
        let report = system.run(Duration::from_secs(10));
        assert!(report.stopped);
        assert_eq!(report.world, vec![1, 2], "survivors outlive the rebuild");
        assert!(
            report.elapsed < Duration::from_secs(5),
            "no cancelled far-future timer may be waited out: {:?}",
            report.elapsed
        );
    }

    #[test]
    fn pending_timers_do_not_block_shutdown() {
        // An actor arms a far-future timer and immediately stops the
        // system: the timer thread must retire without waiting for the
        // deadline.
        struct Impatient;
        impl Actor<(), ()> for Impatient {
            fn on_start(&mut self, ctx: &mut ActorContext<'_, (), ()>) {
                ctx.set_timer(Duration::from_secs(3600), 0);
                ctx.request_stop();
            }
            fn on_message(&mut self, _: ActorId, _: (), _: &mut ActorContext<'_, (), ()>) {}
        }
        let mut system = ActorSystem::new(());
        system.add_actor(Impatient);
        let report = system.run(Duration::from_secs(10));
        assert!(report.stopped);
        assert!(
            report.elapsed < Duration::from_secs(5),
            "shutdown must not wait out pending timers: {:?}",
            report.elapsed
        );
    }

    #[test]
    fn watchdog_does_not_drift_past_the_deadline() {
        // The pre-fix watchdog accumulated `waited += step` across sleeps,
        // so scheduler oversleep stretched the effective deadline.  With an
        // absolute `Instant` deadline the run ends close to the requested
        // duration even under oversleep.
        struct Loopy;
        impl Actor<(), u64> for Loopy {
            fn on_start(&mut self, ctx: &mut ActorContext<'_, (), u64>) {
                let me = ctx.self_id();
                ctx.send(me, ());
            }
            fn on_message(&mut self, _: ActorId, _: (), ctx: &mut ActorContext<'_, (), u64>) {
                ctx.with_world(|w| *w += 1);
                if !ctx.stop_requested() {
                    let me = ctx.self_id();
                    ctx.send(me, ());
                }
            }
        }
        let mut system = ActorSystem::new(0u64);
        system.add_actor(Loopy);
        let deadline = Duration::from_millis(150);
        let report = system.run(deadline);
        assert!(report.timed_out);
        // Generous margin: the point is that the watchdog tracks an
        // absolute instant, not that the OS scheduler is precise.
        assert!(
            report.elapsed < deadline + Duration::from_millis(100),
            "run overshot the deadline: {:?}",
            report.elapsed
        );
    }
}
