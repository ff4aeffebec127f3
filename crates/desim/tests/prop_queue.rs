//! Order checks of the simulator's event queue.
//!
//! * A `BinaryHeap<Event<_>>` must pop in `(time, seq)` ascending order —
//!   FIFO among equal timestamps — for any interleaving of pushes and
//!   pops, zero-delay bursts included.  The heap is a max-heap, so this
//!   pins the hand-reversed `Ord` on [`Event`].
//! * The kernel keeps deliveries in such a heap and timers in a sorted
//!   queue, and pops the earlier head.  Driven through the public
//!   [`Simulator`] API by a block code that interleaves `send_with_delay`
//!   and `set_timer`, the dispatch order must equal the whole schedule
//!   sorted by (time, scheduling order) — equal-time timer/delivery ties
//!   included — and the queue's length counters must count both queues.
//! * The timer queue is a deque kept sorted by inserting from the back,
//!   tuned for timers armed nearly in firing order.  A scripted schedule
//!   arms them out of order on purpose — backoff timers armed later that
//!   fire earlier, far-future control timers, equal-time bursts — and must
//!   still dispatch in (time, scheduling order).

use proptest::prelude::*;
use sb_desim::event::{Event, EventKind};
use sb_desim::{BlockCode, Context, Duration, ModuleId, SimTime, Simulator};
use std::collections::{BTreeSet, BinaryHeap};

fn ev(time: u64, seq: u64) -> Event<u64> {
    Event {
        time: SimTime(time),
        seq,
        kind: EventKind::Timer {
            module: ModuleId(0),
            tag: seq,
        },
    }
}

/// One step of a queue workload.
#[derive(Clone, Debug)]
enum Op {
    /// Push an event `dt` microseconds after the last *popped* time (the
    /// simulator's invariant: never schedule into the past).
    Push { dt: u64 },
    /// Pop up to `n` events.
    Pop { n: usize },
}

/// Time offsets biased towards zero (same-timestamp bursts, where only
/// `seq` orders the events) and small jitter, with occasional far-future
/// values.
fn dt_strategy() -> impl Strategy<Value = u64> {
    // The vendored `prop_oneof!` is unweighted; repeating a strategy
    // raises its relative frequency.
    prop_oneof![
        Just(0u64),
        Just(0u64),
        1u64..20,
        1u64..20,
        20u64..2_000,
        100_000u64..10_000_000,
    ]
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let push = || dt_strategy().prop_map(|dt| Op::Push { dt });
    proptest::collection::vec(
        prop_oneof![
            push(),
            push(),
            push(),
            (1usize..8).prop_map(|n| Op::Pop { n }),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every pop agrees with a `(time, seq)`-sorted reference, the lengths
    /// stay in lockstep, and both drain to the same tail.
    #[test]
    fn heap_pops_in_time_then_seq_order(ops in ops_strategy()) {
        let mut heap: BinaryHeap<Event<u64>> = BinaryHeap::new();
        let mut reference: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for op in ops {
            match op {
                Op::Push { dt } => {
                    let t = now + dt;
                    heap.push(ev(t, seq));
                    reference.insert((t, seq));
                    seq += 1;
                }
                Op::Pop { n } => {
                    for _ in 0..n {
                        prop_assert_eq!(heap.len(), reference.len());
                        let expect = reference.pop_first();
                        prop_assert_eq!(heap.peek().map(|e| (e.time.0, e.seq)), expect);
                        let got = heap.pop().map(|e| (e.time.0, e.seq));
                        prop_assert_eq!(got, expect);
                        if let Some((t, _)) = got {
                            now = t;
                        }
                    }
                }
            }
        }
        // Drain both to the end: the tails must agree too.
        loop {
            let expect = reference.pop_first();
            let got = heap.pop().map(|e| (e.time.0, e.seq));
            prop_assert_eq!(got, expect);
            if got.is_none() {
                break;
            }
        }
        prop_assert!(heap.is_empty());
    }
}

/// One scheduling action of the scripted block code, relative to the
/// time of the event being dispatched.
#[derive(Clone, Debug)]
enum Sched {
    /// `send_with_delay` to module `to % MODULES`.
    Send { to: usize, dt: u64 },
    /// `set_timer` on the dispatching module.
    Timer { dt: u64 },
    /// A delivery and a timer due at the same instant, scheduled in
    /// either order: only the scheduling order may break their tie.
    Tie { dt: u64, timer_first: bool },
}

const MODULES: usize = 3;

/// Shared world: the script, plus the reference schedule and the
/// observed dispatch order.  Every event carries a unique id (the message
/// payload, the timer tag, or the module index for a start-up callback)
/// handed out in scheduling order.
#[derive(Default)]
struct Log {
    /// Batch `i` is scheduled by the `i`-th dispatched event.
    script: Vec<Vec<Sched>>,
    /// `(time, id)` of every scheduled event; `id` is its index here.
    scheduled: Vec<(u64, u64)>,
    /// `(time, id)` of every dispatched event, in dispatch order.
    dispatched: Vec<(u64, u64)>,
    /// Events scheduled but not yet dispatched, and their high-water mark.
    pending: usize,
    high_water: usize,
}

impl Log {
    fn schedule(&mut self, time: u64) -> u64 {
        let id = self.scheduled.len() as u64;
        self.scheduled.push((time, id));
        self.pending += 1;
        self.high_water = self.high_water.max(self.pending);
        id
    }
}

/// Replays the script: each dispatched event runs the next batch.
struct Scripted;

impl Scripted {
    fn fire(id: u64, ctx: &mut Context<'_, u64, Log>) {
        let now = ctx.now().as_micros();
        let log = ctx.world_mut();
        log.pending -= 1;
        let batch = log.script.get(log.dispatched.len()).cloned();
        log.dispatched.push((now, id));
        for op in batch.unwrap_or_default() {
            match op {
                Sched::Send { to, dt } => send(ctx, to, dt),
                Sched::Timer { dt } => timer(ctx, dt),
                Sched::Tie { dt, timer_first } => {
                    if timer_first {
                        timer(ctx, dt);
                        send(ctx, 0, dt);
                    } else {
                        send(ctx, 0, dt);
                        timer(ctx, dt);
                    }
                }
            }
        }
    }
}

fn send(ctx: &mut Context<'_, u64, Log>, to: usize, dt: u64) {
    let time = ctx.now().as_micros() + dt;
    let id = ctx.world_mut().schedule(time);
    ctx.send_with_delay(ModuleId(to % MODULES), id, Duration::micros(dt));
}

fn timer(ctx: &mut Context<'_, u64, Log>, dt: u64) {
    let time = ctx.now().as_micros() + dt;
    let id = ctx.world_mut().schedule(time);
    ctx.set_timer(Duration::micros(dt), id);
}

impl BlockCode<u64, Log> for Scripted {
    fn on_start(&mut self, ctx: &mut Context<'_, u64, Log>) {
        Scripted::fire(ctx.self_id().index() as u64, ctx);
    }
    fn on_message(&mut self, _: ModuleId, id: u64, ctx: &mut Context<'_, u64, Log>) {
        Scripted::fire(id, ctx);
    }
    fn on_timer(&mut self, id: u64, ctx: &mut Context<'_, u64, Log>) {
        Scripted::fire(id, ctx);
    }
}

/// A simulator of `MODULES` scripted modules replaying `script`, with
/// their start-up callbacks already entered in the reference schedule.
fn scripted(script: Vec<Vec<Sched>>) -> Simulator<u64, Log, Scripted> {
    let mut log = Log {
        script,
        ..Log::default()
    };
    for _ in 0..MODULES {
        log.schedule(0);
    }
    let mut sim = Simulator::new(log);
    for _ in 0..MODULES {
        sim.add(Scripted);
    }
    sim
}

fn sched_strategy() -> impl Strategy<Value = Sched> {
    let far = || 100_000u64..10_000_000;
    prop_oneof![
        (0usize..MODULES, dt_strategy()).prop_map(|(to, dt)| Sched::Send { to, dt }),
        (0usize..MODULES, dt_strategy()).prop_map(|(to, dt)| Sched::Send { to, dt }),
        dt_strategy().prop_map(|dt| Sched::Timer { dt }),
        far().prop_map(|dt| Sched::Timer { dt }),
        (0u64..20, any::<bool>()).prop_map(|(dt, timer_first)| Sched::Tie { dt, timer_first }),
    ]
}

fn script_strategy() -> impl Strategy<Value = Vec<Vec<Sched>>> {
    proptest::collection::vec(proptest::collection::vec(sched_strategy(), 0..5), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The simulator dispatches the whole schedule in (time, scheduling
    /// order), across a `run_until` pause, and its queue counters count
    /// deliveries and timers alike.
    #[test]
    fn simulator_dispatches_in_time_then_schedule_order(
        script in script_strategy(),
        deadline in 0u64..200,
    ) {
        let mut sim = scripted(script);
        sim.run_until(SimTime(deadline));
        let log = sim.world();
        prop_assert!(log.dispatched.iter().all(|&(t, _)| t <= deadline));
        prop_assert_eq!(sim.pending_events(), log.pending);
        prop_assert_eq!(
            log.pending,
            log.scheduled.iter().filter(|&&(t, _)| t > deadline).count()
        );

        let stats = sim.run_until_idle();
        prop_assert!(sim.is_idle());
        prop_assert_eq!(sim.pending_events(), 0);
        let log = sim.world();
        let mut expect = log.scheduled.clone();
        expect.sort_unstable();
        prop_assert_eq!(&log.dispatched, &expect);
        prop_assert_eq!(stats.events_processed, expect.len() as u64);
        prop_assert_eq!(stats.max_queue_len, log.high_water);
    }
}

/// Retransmission timers of a reliable run, armed 1–1.25 ms ahead.
const RTO: u64 = 1_000;

/// A control timer far beyond every other event.
const FAR: u64 = 10_000_000;

#[test]
fn timers_armed_out_of_firing_order_dispatch_in_time_then_schedule_order() {
    let timers = |dts: &[u64]| {
        dts.iter()
            .map(|&dt| Sched::Timer { dt })
            .collect::<Vec<_>>()
    };
    // Module 0 arms a far-future control timer, then forty retransmission
    // timers in firing order (the deque's favourable case), then sends.
    let mut first = vec![Sched::Timer { dt: FAR }];
    first.extend(timers(&(0..40).map(|k| RTO + 25 * k).collect::<Vec<_>>()));
    first.push(Sched::Send { to: 1, dt: 3 });
    let script = vec![
        first,
        // Module 1: a timer due with the eleventh of module 0's, and a
        // delivery due with module 0's send.
        vec![Sched::Timer { dt: RTO + 250 }, Sched::Send { to: 2, dt: 3 }],
        // Module 2: deliveries and timers due together, scheduled in both
        // orders, and a second control timer due with the first.
        vec![
            Sched::Tie {
                dt: 3,
                timer_first: true,
            },
            Sched::Tie {
                dt: 3,
                timer_first: false,
            },
            Sched::Timer { dt: FAR },
        ],
        // At t = 3: backoff timers armed later that fire earlier — one
        // ahead of all forty pending, one in their middle, one equal to a
        // pending one — and zero-delay ties with the other t = 3 events.
        [
            timers(&[RTO - 100, RTO + 497, RTO + 247]),
            vec![
                Sched::Tie {
                    dt: 0,
                    timer_first: false,
                },
                Sched::Tie {
                    dt: 0,
                    timer_first: true,
                },
            ],
        ]
        .concat(),
        // Later events arm a burst of equal-time timers, earliest last.
        timers(&[2 * RTO, 2 * RTO, RTO / 2, 2 * RTO, 1]),
        timers(&[FAR - 1, 0, RTO + 1_000]),
    ];
    let mut sim = scripted(script);
    let stats = sim.run_until_idle();
    let log = sim.world();
    let mut expect = log.scheduled.clone();
    expect.sort_unstable();
    assert_eq!(log.dispatched, expect);
    assert_eq!(stats.events_processed, expect.len() as u64);
    assert_eq!(stats.max_queue_len, log.high_water);
}
