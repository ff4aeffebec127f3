//! Proves the planning fast path performs **zero heap allocations** per
//! `any_motion_towards` query after warm-up, with a counting global
//! allocator.  Only allocations made by the measuring thread are counted
//! (the libtest harness allocates concurrently from its own threads), via
//! a const-initialised thread-local flag — no `Drop` glue, so reading it
//! inside the allocator itself cannot allocate.

use sb_grid::gen::{random_connected_config, InstanceSpec};
use sb_grid::ConnectivityOracle;
use sb_motion::MotionPlanner;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread only; allocations elsewhere are not
    /// counted.
    static COUNT_THIS_THREAD: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged;
// the bookkeeping is a relaxed atomic guarded by an allocation-free
// (const-initialised, no-Drop) thread-local read.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_THIS_THREAD.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_THIS_THREAD.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn any_motion_towards_allocates_nothing_after_warmup() {
    // A realistic N=32 instance: the shape the complexity benches sweep.
    let cfg = random_connected_config(&InstanceSpec::column_instance(32), 7);
    let planner = MotionPlanner::standard();
    let mut oracle = ConnectivityOracle::new();
    let grid = cfg.grid();
    let targets = [cfg.output(), cfg.input()];
    let positions: Vec<_> = grid.blocks().map(|(_, p)| p).collect();

    // Warm-up: size the caller-owned oracle's buffers (Tarjan arrays,
    // BFS bitset, frontier, post-move board) for this grid.
    let mut warm_hits = 0usize;
    for &pos in &positions {
        for target in targets {
            warm_hits +=
                usize::from(planner.any_motion_towards(grid, pos, target, |_| true, &mut oracle));
        }
    }
    assert!(warm_hits > 0, "the workload must exercise the fast path");

    // Measured pass: the exact same queries, many times over, counting
    // only this thread's allocations.
    COUNT_THIS_THREAD.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut hits = 0usize;
    for _ in 0..16 {
        for &pos in &positions {
            for target in targets {
                hits += usize::from(planner.any_motion_towards(
                    grid,
                    pos,
                    target,
                    |_| true,
                    &mut oracle,
                ));
            }
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNT_THIS_THREAD.with(|flag| flag.set(false));
    assert_eq!(hits, warm_hits * 16, "fast path must stay deterministic");
    assert_eq!(
        after - before,
        0,
        "any_motion_towards allocated on the hot path"
    );
}

#[test]
fn election_deliver_step_dispatch_allocates_nothing_after_warmup() {
    // End-to-end: the full deliver→step→dispatch loop of the unified
    // runtime harness — message delivery into `ElectionCore`, actions
    // written into the reusable `ActionSink`, dispatch translating them
    // into sends (metrics + module-index lookup) — must be allocation-free
    // after warm-up.  The measured workload is a complete election round
    // (Root flood, distance evaluations through the planner fast path,
    // ack folding, Root conclusion) over every block of a column world
    // whose reconfiguration already completed: hops are excluded by
    // construction, because a hop appends to the world's move log, which
    // legitimately accumulates.  A replayed round re-asks its
    // Eq. 9 questions under an unchanged occupancy, so the world's verdict
    // memo serves them, and the pin covers that path too.
    use sb_core::election::{AlgorithmConfig, ElectionCore, TieBreak};
    use sb_core::runtime::{BlockHarness, Color, Transport};
    use sb_core::workloads::column_instance;
    use sb_core::{Envelope, SurfaceWorld};
    use std::collections::VecDeque;

    /// A queue-backed test transport: sends append to a shared VecDeque,
    /// the stop flag is a bool — nothing allocates once the queue's
    /// capacity is warm.  Reliability stays off, so every envelope is
    /// `Raw` and no timers are ever armed.
    struct QueueTransport<'a> {
        world: &'a mut SurfaceWorld,
        queue: &'a mut VecDeque<(usize, usize, Envelope)>,
        me: usize,
        stopped: &'a mut bool,
    }

    impl Transport for QueueTransport<'_> {
        fn send(&mut self, target: usize, envelope: Envelope) {
            self.queue.push_back((self.me, target, envelope));
        }
        fn set_timer(&mut self, _delay_us: u64, _tag: u64) {
            unreachable!("reliability is off: the harness arms no timers");
        }
        fn request_stop(&mut self) {
            *self.stopped = true;
        }
        fn set_visual_state(&mut self, _color: Color) {}
        fn with_world<R>(&mut self, f: impl FnOnce(&mut SurfaceWorld) -> R) -> R {
            f(self.world)
        }
    }

    let algorithm = AlgorithmConfig {
        tie_break: TieBreak::LowestId,
        ..AlgorithmConfig::default()
    };
    let mut world = SurfaceWorld::standard(column_instance(12, 0));
    let order = world.grid().block_ids_sorted();
    world.set_module_mapping(order.clone());
    let root = world.root_block().expect("root occupies the input");
    let mut harnesses: Vec<BlockHarness> = order
        .iter()
        .map(|&b| BlockHarness::new(ElectionCore::new(b, b == root, algorithm)))
        .collect();
    let mut queue: VecDeque<(usize, usize, Envelope)> = VecDeque::new();
    let mut stopped = false;

    // Runs one complete protocol execution (start + drain) and returns
    // the number of delivered messages.
    let run_round = |world: &mut SurfaceWorld,
                     harnesses: &mut Vec<BlockHarness>,
                     queue: &mut VecDeque<(usize, usize, Envelope)>,
                     stopped: &mut bool|
     -> usize {
        *stopped = false;
        for (i, harness) in harnesses.iter_mut().enumerate() {
            harness.reset();
            let mut transport = QueueTransport {
                world,
                queue,
                me: i,
                stopped,
            };
            harness.start(&mut transport);
        }
        let mut delivered = 0usize;
        while let Some((from, to, envelope)) = queue.pop_front() {
            delivered += 1;
            let mut transport = QueueTransport {
                world,
                queue,
                me: to,
                stopped,
            };
            harnesses[to].deliver(from, envelope, &mut transport);
        }
        delivered
    };

    // Warm-up 1: the full reconfiguration, hops included — sizes the
    // world's oracle, the sinks, the neighbour buffers and the queue,
    // and leaves the world in its completed (hop-free) end state.
    let first = run_round(&mut world, &mut harnesses, &mut queue, &mut stopped);
    assert!(stopped, "the Root must stop the run");
    assert!(world.path_complete(), "the column workload completes");

    // Warm-up 2: a completed world can still host a few more helper
    // hops (blocks not on the path with a finite distance) before every
    // remaining candidate is locked.  Keep running election rounds until
    // the world reaches its fixed point; the first hop-free round is the
    // exact shape the measured rounds replay (all candidates infinite,
    // clean conclusion, zero hops).
    let mut reference;
    loop {
        let moves = world.metrics().elementary_moves;
        reference = run_round(&mut world, &mut harnesses, &mut queue, &mut stopped);
        assert!(stopped);
        if world.metrics().elementary_moves == moves {
            break;
        }
    }
    assert!(reference > 0 && reference < first);
    let moves_before = world.metrics().elementary_moves;
    let memo_hits_before = world.metrics().eq9_memo_hits;

    // Measured: identical full election rounds, counting only this
    // thread's allocations.
    COUNT_THIS_THREAD.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..8 {
        let delivered = run_round(&mut world, &mut harnesses, &mut queue, &mut stopped);
        assert_eq!(delivered, reference, "rounds must stay deterministic");
        assert!(stopped);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNT_THIS_THREAD.with(|flag| flag.set(false));

    assert_eq!(
        world.metrics().elementary_moves,
        moves_before,
        "the measured rounds must not move a block"
    );
    assert!(
        world.metrics().eq9_memo_hits > memo_hits_before,
        "the measured rounds must be served by the Eq. 9 memo"
    );
    assert_eq!(
        after - before,
        0,
        "deliver→step→dispatch allocated on the hot path"
    );
}

#[test]
fn connectivity_oracle_allocates_nothing_after_warmup() {
    // Two distinct same-size world states: alternating between them
    // forces a full Tarjan rebuild on every probe round (their epochs
    // differ), so the measured pass covers the rebuild path as well as
    // the O(1) probes and the BFS fallback.
    let cfg_a = random_connected_config(&InstanceSpec::column_instance(32), 7);
    let cfg_b = random_connected_config(&InstanceSpec::column_instance(32), 8);
    let mut oracle = ConnectivityOracle::new();

    let probe_all = |oracle: &mut ConnectivityOracle| {
        let mut admitted = 0usize;
        for cfg in [&cfg_a, &cfg_b] {
            let grid = cfg.grid();
            for (_, from) in grid.blocks() {
                for to in from.neighbors4() {
                    if !grid.is_free(to) {
                        continue;
                    }
                    // Single-block probe (fast path or cut-vertex
                    // fallback)...
                    admitted += usize::from(oracle.preserves_connectivity(grid, &[(from, to)]));
                    // ...and a hand-over chain through the vacated cell
                    // (net-effect reduction to a single move: O(1)).
                    for helper in from.neighbors4() {
                        if grid.is_occupied(helper) {
                            let chain = [(from, to), (helper, from)];
                            admitted += usize::from(oracle.preserves_connectivity(grid, &chain));
                            break;
                        }
                    }
                }
            }
        }
        admitted
    };

    // Warm-up: size the Tarjan buffers, the cut mask and the BFS scratch
    // for both grids.
    let warm = probe_all(&mut oracle);
    assert!(warm > 0, "the workload must admit some motions");
    let warm_rebuilds = oracle.rebuilds();

    COUNT_THIS_THREAD.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut admitted = 0usize;
    for _ in 0..8 {
        admitted += probe_all(&mut oracle);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNT_THIS_THREAD.with(|flag| flag.set(false));

    assert_eq!(admitted, warm * 8, "probes must stay deterministic");
    assert!(
        oracle.rebuilds() > warm_rebuilds,
        "alternating grids must force rebuilds in the measured pass"
    );
    assert_eq!(
        after - before,
        0,
        "ConnectivityOracle allocated after warm-up (probe or rebuild path)"
    );
}

#[test]
fn connectivity_oracle_edit_log_shuttle_allocates_nothing() {
    // A 2-thick slab with a ledge block at (0,2) and a mover shuttling
    // (1,2) ↔ (2,2): every vacate leaves TWO occupied neighbours merged
    // into one ring arc, so the epochs are absorbed by the PR 9
    // ring-certificate edit log (ghost push, graft, tail-pop) rather
    // than the pendant or leaf patches.  Probes stay on the far side of
    // the slab — single moves answered by the stateless certificate and
    // pair vacates answered by the BFS on its retained scratch — so the
    // pending trail never forces a rebuild, and none of it may allocate
    // after warm-up.
    use sb_grid::{BlockId, Bounds, OccupancyGrid, Pos};

    let mut grid = OccupancyGrid::new(Bounds::new(12, 6));
    let mut id = 1u32;
    for x in 0..8 {
        for y in 0..2 {
            grid.place(BlockId(id), Pos::new(x, y)).unwrap();
            id += 1;
        }
    }
    grid.place(BlockId(id), Pos::new(0, 2)).unwrap();
    grid.place(BlockId(id + 1), Pos::new(1, 2)).unwrap();
    let mut oracle = ConnectivityOracle::new();

    let probe_round = |oracle: &mut ConnectivityOracle, grid: &mut OccupancyGrid| -> usize {
        let mut admitted = 0usize;
        for (from, to) in [
            (Pos::new(1, 2), Pos::new(2, 2)),
            (Pos::new(2, 2), Pos::new(1, 2)),
        ] {
            grid.move_block(from, to).unwrap();
            // Far-side single move: ring-certified without the forest.
            admitted += usize::from(
                oracle.preserves_connectivity(grid, &[(Pos::new(7, 1), Pos::new(6, 2))]),
            );
            // Far-side pair vacate: no catalogue shape, so the BFS
            // answers it on its retained scratch.
            let pair = [
                (Pos::new(6, 1), Pos::new(5, 2)),
                (Pos::new(7, 1), Pos::new(6, 2)),
            ];
            admitted += usize::from(oracle.preserves_connectivity(grid, &pair));
        }
        admitted
    };

    // Warm-up: first build plus both shuttle phases.
    let warm = probe_round(&mut oracle, &mut grid);
    assert!(warm > 0, "the workload must admit some motions");
    let warm_rebuilds = oracle.rebuilds();
    let warm_patches = oracle.incremental_updates();

    COUNT_THIS_THREAD.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut admitted = 0usize;
    for _ in 0..8 {
        admitted += probe_round(&mut oracle, &mut grid);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNT_THIS_THREAD.with(|flag| flag.set(false));

    assert_eq!(admitted, warm * 8, "probes must stay deterministic");
    assert_eq!(
        oracle.rebuilds(),
        warm_rebuilds,
        "the shuttle must ride the edit log, never rebuild"
    );
    assert!(
        oracle.incremental_updates() > warm_patches,
        "the measured pass must exercise the edit-log absorb path"
    );
    assert_eq!(
        after - before,
        0,
        "the edit-log maintenance path allocated after warm-up"
    );
}

#[test]
fn connectivity_oracle_incremental_updates_allocate_nothing() {
    // A leaf block shuttling between two pendant cells: every epoch is a
    // single-move delta the oracle absorbs with its O(1) leaf patch, so
    // the measured pass must perform no rebuild and no allocation while
    // the probes (single moves, hand-over chains, pair vacates) keep
    // answering from the patched block-cut-tree state.
    use sb_grid::{BlockId, Bounds, OccupancyGrid, Pos};

    let mut grid = OccupancyGrid::new(Bounds::new(12, 6));
    for x in 0..8 {
        grid.place(BlockId(x as u32 + 1), Pos::new(x, 2)).unwrap();
    }
    grid.place(BlockId(9), Pos::new(3, 3)).unwrap();
    let mut oracle = ConnectivityOracle::new();

    let probe_round = |oracle: &mut ConnectivityOracle, grid: &mut OccupancyGrid| -> usize {
        let mut admitted = 0usize;
        // The shuttle: (3,3) -> (4,3) and back, one epoch per hop.
        for (from, to) in [
            (Pos::new(3, 3), Pos::new(4, 3)),
            (Pos::new(4, 3), Pos::new(3, 3)),
        ] {
            grid.move_block(from, to).unwrap();
            admitted += usize::from(oracle.preserves_connectivity(grid, &[(to, from)]));
            let chain = [(to, from), (Pos::new(3, 2), to)];
            admitted += usize::from(oracle.preserves_connectivity(grid, &chain));
            let pair = [
                (Pos::new(0, 2), Pos::new(0, 3)),
                (Pos::new(1, 2), Pos::new(1, 3)),
            ];
            admitted += usize::from(oracle.preserves_connectivity(grid, &pair));
        }
        admitted
    };

    // Warm-up: first build plus both patched states.
    let warm = probe_round(&mut oracle, &mut grid);
    assert!(warm > 0, "the workload must admit some motions");
    let warm_rebuilds = oracle.rebuilds();
    let warm_patches = oracle.incremental_updates();

    COUNT_THIS_THREAD.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut admitted = 0usize;
    for _ in 0..8 {
        admitted += probe_round(&mut oracle, &mut grid);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNT_THIS_THREAD.with(|flag| flag.set(false));

    assert_eq!(admitted, warm * 8, "probes must stay deterministic");
    assert_eq!(
        oracle.rebuilds(),
        warm_rebuilds,
        "leaf relocations must patch incrementally, never rebuild"
    );
    assert!(
        oracle.incremental_updates() > warm_patches,
        "the measured pass must exercise the incremental path"
    );
    assert_eq!(
        after - before,
        0,
        "the incremental update path allocated after warm-up"
    );
}
