//! Order check of the simulator's event queue: a `BinaryHeap<Event<_>>`
//! must pop in `(time, seq)` ascending order — FIFO among equal
//! timestamps — for any interleaving of pushes and pops, zero-delay
//! bursts included.  The heap is a max-heap, so this pins the
//! hand-reversed `Ord` on [`Event`], the only ordering logic the kernel
//! has.

use proptest::prelude::*;
use sb_desim::event::{Event, EventKind};
use sb_desim::{ModuleId, SimTime};
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
