//! Per-layer attribution of complete reconfigurations (`--trace 1`).
//!
//! Each draw runs the deployment the driver builds — one `BlockHarness`
//! per block in the simulator's module arena, Root at the input cell —
//! once plain (the total) and once recorded, then re-runs single layers
//! in isolation.  All timing lives in this file.
//!
//! | layer    | code                                           | host time attributed                                   |
//! |----------|------------------------------------------------|--------------------------------------------------------|
//! | kernel   | `sb-desim`: event queue, dispatch, network     | the run's event schedule re-played by scripted modules |
//! | harness  | `BlockHarness`: envelopes, reliability, timers | plain loop − kernel − `with_world` spans               |
//! | election | `ElectionCore`                                 | `with_world` spans − world − oracle                    |
//! | world    | `SurfaceWorld`: Eqs. 8–10, neighbours, hops    | the run's world calls re-played on a fresh world − oracle |
//! | oracle   | `ConnectivityOracle`: Remark 1 probes          | the run's probe sequence re-issued to a fresh oracle   |
//!
//! *Recording.*  The recorded run wraps every harness in [`Traced`]: its
//! transport logs each callback's sends, timers and stop request (the
//! kernel's script) and, in one callback in [`SAMPLE_EVERY`] (a seeded
//! xorshift draw per module, not a stride the protocol could alias with),
//! times every `with_world` call — the election core and the world calls
//! it makes.  A clock read costs ~30–40 ns on a 2-core x86-64 VM, a
//! quarter of an event, so spans are single-level, sampled, and corrected
//! by the duration of an empty span measured alongside them.
//!
//! *Replays.*  Large uninstrumented chunks are timed instead of small
//! spans wherever a layer can run alone.  The kernel replays the recorded
//! schedule with modules that only send, arm and stop; it must process as
//! many events as the run.  The world replays the run's calls on a fresh
//! world: every election evaluates each block's distance and neighbour
//! list, then the elected block hops and the Root checks the path; the
//! replay must reproduce the run's move log, occupancy and distance count.
//! Its Eq. 9 probes are mirrored from the compiled rules to record the
//! exact sequence of Remark 1 batches the oracle answers; that sequence is
//! re-issued, timed, to a second oracle, which must give the same
//! verdicts.  Replays run hotter in cache than the interleaved run, so
//! kernel and world read low and the residual layers absorb the
//! difference — a fixed bias, the same on every commit.

use crate::workload::{Draw, Workload};
use crate::{median, Metric, RunResult};
use sb_core::driver::ReconfigurationReport;
use sb_core::election::ElectionCore;
use sb_core::messages::{Distance, Msg};
use sb_core::reliability::Envelope;
use sb_core::runtime::{BlockHarness, Transport};
use sb_core::world::{Outcome, SurfaceWorld};
use sb_desim::{BlockCode, Color, Context, Duration as SimDuration, ModuleId, Simulator};
use sb_grid::{BlockId, ConnectivityOracle, OccupancyGrid, OrientedGraph, Pos, SurfaceConfig};
use sb_motion::CompiledRule;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One block callback in this many times its `with_world` calls.
const SAMPLE_EVERY: u64 = 8;

/// The per-layer metrics, in output order (name, unit).
const METRICS: [(&str, &str); 23] = [
    ("loop_ms", "ms"),
    ("kernel_ms", "ms"),
    ("harness_ms", "ms"),
    ("election_ms", "ms"),
    ("world_ms", "ms"),
    ("oracle_ms", "ms"),
    ("kernel_ns_per_event", "ns"),
    ("harness_ns_per_callback", "ns"),
    ("election_ns_per_message", "ns"),
    ("world_ns_per_distance", "ns"),
    ("oracle_ns_per_probe", "ns"),
    ("events", "count"),
    ("kernel_sends", "count"),
    ("max_queue_len", "count"),
    ("messages", "count"),
    ("elections", "count"),
    ("distance_computations", "count"),
    ("rule_checks", "count"),
    ("elementary_moves", "count"),
    ("oracle_probes", "count"),
    ("oracle_rebuilds", "count"),
    ("oracle_incremental_updates", "count"),
    ("traced_loop_ms", "ms"),
];

pub fn run(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    // The reference for draw 0: the same draw through the public driver.
    let reference = w.driver(Draw::new(seed, 0)).run_des();
    if let Err(e) = w.check(&reference) {
        result.error(format!("reference draw: {e}"));
    }
    let mut samples: Vec<[f64; METRICS.len()]> = Vec::new();
    let start = Instant::now();
    for index in 0u64.. {
        if index > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        result.attempted += 1;
        let check = (index == 0).then_some(&reference);
        match layers(w, Draw::new(seed, index), check) {
            Ok(sample) => samples.push(sample),
            Err(e) => result.fail(format!("draw {index}: {e}")),
        }
    }
    result.metrics = METRICS
        .iter()
        .enumerate()
        .map(|(k, &(name, unit))| {
            let values: Vec<f64> = samples.iter().map(|s| s[k]).collect();
            Metric::new(name, median(&values), unit)
        })
        .collect();
    result
}

fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One draw, split across the layers; `reference` is the same draw run
/// through the public driver, which the deployment must reproduce.
fn layers(
    w: Workload,
    draw: Draw,
    reference: Option<&ReconfigurationReport>,
) -> Result<[f64; METRICS.len()], String> {
    let config = w.instance();

    let (mut sim, order) = deploy(w, config.clone(), draw, |harness, _| harness);
    let start = Instant::now();
    let stats = sim.run_until_idle();
    let loop_ns = nanos(start) as f64;
    let world = sim.world();
    let m = world.metrics_with_connectivity();
    if world.outcome() != Some(Outcome::Completed) || !world.path_complete() || !sim.is_stopped() {
        return Err("reconfiguration did not complete".into());
    }
    if let Some(r) = reference {
        if r.metrics != m
            || r.move_log != world.move_log()
            || r.events_processed != Some(stats.events_processed)
        {
            return Err("deployment diverged from the driver's run".into());
        }
    }

    let recorded = record(w, config.clone(), draw)?;
    if recorded.metrics != m || recorded.events != stats.events_processed {
        return Err("recorded run diverged from the plain run".into());
    }
    let replay = replay_world(&config, &order, m.elections, &recorded.selects, world)?;
    let kernel = replay_kernel(w, recorded.script, draw, stats.events_processed)?;

    let spans = recorded.spans;
    if spans.sampled == 0 {
        return Err("no callback was sampled".into());
    }
    let scale = spans.callbacks as f64 / spans.sampled as f64;
    let empty = spans.empty_ns as f64 / spans.sampled as f64;
    let with_world = scale * (spans.world_calls_ns as f64 - spans.world_calls as f64 * empty);
    let harness = loop_ns - kernel - with_world;
    let election = with_world - replay.world_ns;
    let world_self = replay.world_ns - replay.oracle_ns;
    let oracle = replay.oracle_ns;

    let ms = |ns: f64| ns / 1e6;
    let events = stats.events_processed as f64;
    let messages = m.total_messages() as f64;
    Ok([
        ms(loop_ns),
        ms(kernel),
        ms(harness),
        ms(election),
        ms(world_self),
        ms(oracle),
        kernel / events,
        harness / spans.callbacks as f64,
        election / messages,
        world_self / m.distance_computations as f64,
        oracle / replay.probes as f64,
        events,
        stats.messages_sent as f64,
        stats.max_queue_len as f64,
        messages,
        m.elections as f64,
        m.distance_computations as f64,
        m.rule_checks as f64,
        m.elementary_moves as f64,
        replay.probes as f64,
        m.connectivity_rebuilds as f64,
        m.connectivity_incremental_updates as f64,
        ms(recorded.loop_ns),
    ])
}

/// The driver's DES deployment of `config` (module order, Root, algorithm,
/// network, reliability), each harness passed through `wrap` with a
/// per-module seed.
fn deploy<C: BlockCode<Envelope, SurfaceWorld>>(
    w: Workload,
    config: SurfaceConfig,
    draw: Draw,
    wrap: impl Fn(BlockHarness, u64) -> C,
) -> (Simulator<Envelope, SurfaceWorld, C>, Vec<BlockId>) {
    let algorithm = *w.driver_for(config.clone(), draw).algorithm();
    let mut world = SurfaceWorld::standard(config);
    let order = world.grid().block_ids_sorted();
    world.set_module_mapping(order.clone());
    let root = world
        .root_block()
        .expect("a Root block occupies the input cell");
    let mut sim = Simulator::new(world)
        .with_network(w.network())
        .with_seed(draw.sim_seed);
    for &block in &order {
        let core = ElectionCore::new(block, block == root, algorithm);
        let harness = BlockHarness::with_reliability(core, w.reliability());
        sim.add(wrap(harness, draw.sim_seed ^ u64::from(block.as_u32())));
    }
    (sim, order)
}

/// Sums of the sampled `with_world` spans.
#[derive(Clone, Copy, Default)]
struct Spans {
    callbacks: u64,
    sampled: u64,
    world_calls_ns: u64,
    world_calls: u64,
    /// Sum of one empty span (two back-to-back clock reads) per sampled
    /// callback: the in-situ cost a span adds to what it measures.
    empty_ns: u64,
}

/// The kernel's side of a run, in dispatch order: per block callback, its
/// sends (module index), timers and stop request, then [`END`].
#[derive(Default)]
struct Script(Vec<u32>);

const END: u32 = u32::MAX;
const STOP: u32 = u32::MAX - 1;
/// Followed by the delay (µs) and the tag, two words each, low first.
const TIMER: u32 = u32::MAX - 2;

thread_local! {
    static SCRIPT: RefCell<Script> = RefCell::new(Script::default());
}

fn script(word: u32) {
    SCRIPT.with(|s| s.borrow_mut().0.push(word));
}

fn script_u64(value: u64) {
    script(value as u32);
    script((value >> 32) as u32);
}

/// What the recorded run yields.
struct Recorded {
    loop_ns: f64,
    events: u64,
    metrics: sb_core::metrics::Metrics,
    spans: Spans,
    script: Script,
    /// `(iteration, elected)` of every `Select` delivered to its elected
    /// block.
    selects: Vec<(u32, BlockId)>,
}

fn record(w: Workload, config: SurfaceConfig, draw: Draw) -> Result<Recorded, String> {
    let (mut sim, _) = deploy(w, config, draw, Traced::new);
    SCRIPT.with(|s| s.borrow_mut().0.clear());
    let start = Instant::now();
    let stats = sim.run_until_idle();
    let loop_ns = nanos(start) as f64;
    let mut spans = Spans::default();
    let mut selects = Vec::new();
    for module in (0..sim.module_count()).filter_map(|i| sim.module(ModuleId(i))) {
        let s = &module.spans;
        spans.callbacks += s.callbacks;
        spans.sampled += s.sampled;
        spans.world_calls_ns += s.world_calls_ns;
        spans.world_calls += s.world_calls;
        spans.empty_ns += s.empty_ns;
        selects.extend_from_slice(&module.selects);
    }
    Ok(Recorded {
        loop_ns,
        events: stats.events_processed,
        metrics: sim.world().metrics_with_connectivity(),
        spans,
        script: SCRIPT.with(|s| std::mem::take(&mut *s.borrow_mut())),
        selects,
    })
}

/// A block harness whose callbacks are recorded.
struct Traced {
    harness: BlockHarness,
    /// xorshift64 state of the sampling draw.
    rng: u64,
    spans: Spans,
    selects: Vec<(u32, BlockId)>,
}

impl Traced {
    fn new(harness: BlockHarness, seed: u64) -> Self {
        Traced {
            harness,
            rng: seed | 1,
            spans: Spans::default(),
            selects: Vec::new(),
        }
    }

    fn callback(
        &mut self,
        ctx: &mut Context<'_, Envelope, SurfaceWorld>,
        f: impl FnOnce(&mut BlockHarness, &mut TracedTransport<'_, '_>),
    ) {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let Traced { harness, spans, .. } = self;
        spans.callbacks += 1;
        if self.rng.is_multiple_of(SAMPLE_EVERY) {
            spans.sampled += 1;
            let empty = Instant::now();
            spans.empty_ns += nanos(empty);
            f(
                harness,
                &mut TracedTransport {
                    ctx,
                    spans: Some(spans),
                },
            );
        } else {
            f(harness, &mut TracedTransport { ctx, spans: None });
        }
        script(END);
    }
}

impl BlockCode<Envelope, SurfaceWorld> for Traced {
    fn on_start(&mut self, ctx: &mut Context<'_, Envelope, SurfaceWorld>) {
        self.callback(ctx, |harness, transport| harness.start(transport));
    }

    fn on_message(
        &mut self,
        from: ModuleId,
        msg: Envelope,
        ctx: &mut Context<'_, Envelope, SurfaceWorld>,
    ) {
        if let Envelope::Raw(Msg::Select {
            iteration, elected, ..
        })
        | Envelope::Data {
            msg: Msg::Select {
                iteration, elected, ..
            },
            ..
        } = &msg
        {
            if *elected == self.harness.core().id() {
                self.selects.push((*iteration, *elected));
            }
        }
        self.callback(ctx, |harness, transport| {
            harness.deliver(from.index(), msg, transport)
        });
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Envelope, SurfaceWorld>) {
        self.callback(ctx, |harness, transport| harness.timer(tag, transport));
    }
}

/// The DES transport shim, logging the kernel script and timing the
/// `with_world` calls of a sampled callback (`spans` is `Some`).
struct TracedTransport<'a, 'k> {
    ctx: &'a mut Context<'k, Envelope, SurfaceWorld>,
    spans: Option<&'a mut Spans>,
}

impl Transport for TracedTransport<'_, '_> {
    fn send(&mut self, target: usize, envelope: Envelope) {
        script(u32::try_from(target).expect("module index fits the script word"));
        self.ctx.send(ModuleId(target), envelope);
    }

    fn set_timer(&mut self, delay_us: u64, tag: u64) {
        script(TIMER);
        script_u64(delay_us);
        script_u64(tag);
        self.ctx.set_timer(SimDuration::micros(delay_us), tag);
    }

    fn request_stop(&mut self) {
        script(STOP);
        self.ctx.request_stop();
    }

    fn set_visual_state(&mut self, color: Color) {
        self.ctx.set_color(color);
    }

    fn with_world<R>(&mut self, f: impl FnOnce(&mut SurfaceWorld) -> R) -> R {
        let Some(spans) = self.spans.as_deref_mut() else {
            return f(self.ctx.world_mut());
        };
        let start = Instant::now();
        let result = f(self.ctx.world_mut());
        spans.world_calls_ns += nanos(start);
        spans.world_calls += 1;
        result
    }
}

/// A module that replays its share of a [`Script`]: the same sends (with
/// a fixed payload of the same type), timers and stop, in the same order,
/// so the kernel sees the run's exact event schedule and nothing else.
struct Scripted;

/// The scripted replay's shared world: the script and its read position.
struct Cursor {
    words: Vec<u32>,
    at: usize,
}

impl Cursor {
    fn next(&mut self) -> u32 {
        let word = self.words.get(self.at).copied().unwrap_or(END);
        self.at += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        u64::from(self.next()) | u64::from(self.next()) << 32
    }
}

impl Scripted {
    fn play(ctx: &mut Context<'_, Envelope, Cursor>) {
        loop {
            match ctx.world_mut().next() {
                END => return,
                STOP => ctx.request_stop(),
                TIMER => {
                    let delay = ctx.world_mut().next_u64();
                    let tag = ctx.world_mut().next_u64();
                    ctx.set_timer(SimDuration::micros(delay), tag);
                }
                target => ctx.send(
                    ModuleId(target as usize),
                    Envelope::Raw(Msg::RoundSync { round: 0 }),
                ),
            }
        }
    }
}

impl BlockCode<Envelope, Cursor> for Scripted {
    fn on_start(&mut self, ctx: &mut Context<'_, Envelope, Cursor>) {
        Scripted::play(ctx);
    }

    fn on_message(&mut self, _: ModuleId, _: Envelope, ctx: &mut Context<'_, Envelope, Cursor>) {
        Scripted::play(ctx);
    }

    fn on_timer(&mut self, _: u64, ctx: &mut Context<'_, Envelope, Cursor>) {
        Scripted::play(ctx);
    }
}

/// Host time of the kernel alone on the run's event schedule.
fn replay_kernel(w: Workload, script: Script, draw: Draw, events: u64) -> Result<f64, String> {
    let callbacks = script.0.iter().filter(|&&word| word == END).count();
    let cursor = Cursor {
        words: script.0,
        at: 0,
    };
    let mut sim: Simulator<Envelope, Cursor, Scripted> = Simulator::new(cursor)
        .with_network(w.network())
        .with_seed(draw.sim_seed);
    for _ in 0..w.blocks {
        sim.add(Scripted);
    }
    let start = Instant::now();
    let stats = sim.run_until_idle();
    let ns = nanos(start) as f64;
    if stats.events_processed != events || callbacks as u64 != events {
        return Err(format!(
            "kernel replay processed {} events, the run {events}",
            stats.events_processed
        ));
    }
    Ok(ns)
}

/// Host time of the run's world calls on a fresh world, and of its oracle
/// probes re-issued to a fresh oracle.
struct Replay {
    world_ns: f64,
    oracle_ns: f64,
    probes: u64,
}

fn replay_world(
    config: &SurfaceConfig,
    order: &[BlockId],
    elections: u64,
    selects: &[(u32, BlockId)],
    run: &SurfaceWorld,
) -> Result<Replay, String> {
    let mut hops = BTreeMap::new();
    for &(iteration, elected) in selects {
        hops.entry(iteration).or_insert(elected);
    }
    let elections = u32::try_from(elections).map_err(|_| "election count overflows u32")?;
    let mut world = SurfaceWorld::standard(config.clone());
    world.set_module_mapping(order.to_vec());
    let mut mirror = Mirror::new(config, world.planner().catalog().compiled().to_vec());
    let mut distances = vec![Distance::INFINITE; order.len()];
    let mut neighbours = Vec::new();
    let (mut world_ns, mut oracle_ns) = (0, 0);
    for iteration in 1..=elections {
        let elected = hops.get(&iteration).copied();
        let start = Instant::now();
        for (d, &block) in distances.iter_mut().zip(order) {
            *d = world.distance_to_output(block);
            world.neighbors_into(block, &mut neighbours);
        }
        if let Some(block) = elected {
            black_box(world.hop_towards_output(block, iteration));
        }
        black_box(world.path_complete());
        world_ns += nanos(start);

        for (d, &block) in distances.iter().zip(order) {
            if mirror.distance_is_finite(block) == d.is_infinite() {
                return Err(format!(
                    "election {iteration}: mirrored Eq. 9 probe disagrees for block {block}"
                ));
            }
        }
        if let Some(block) = elected {
            mirror.hop_probes(block);
        }
        oracle_ns += mirror.time_probes()?;
        if elected.is_some() {
            let record = world
                .move_log()
                .last()
                .filter(|r| r.iteration == iteration)
                .ok_or_else(|| format!("election {iteration}: the elected block did not move"))?;
            let moves: Vec<(Pos, Pos)> = record.moves.iter().map(|&(_, f, t)| (f, t)).collect();
            mirror
                .grid
                .apply_simultaneous_moves(&moves)
                .map_err(|e| format!("election {iteration}: mirrored hop failed: {e}"))?;
        }
    }
    if world.move_log() != run.move_log()
        || world.grid() != run.grid()
        || world.metrics().distance_computations != run.metrics().distance_computations
    {
        return Err("replayed world calls do not reproduce the run".into());
    }
    Ok(Replay {
        world_ns: world_ns as f64,
        oracle_ns: oracle_ns as f64,
        probes: mirror.probes,
    })
}

/// Re-derives, in order, the Remark 1 batches the world's oracle answers:
/// the planner's rule-matching order over the compiled catalogue, with the
/// world's locking policy as the Eq. 9 admission filter.
struct Mirror {
    rules: Vec<CompiledRule>,
    graph: OrientedGraph,
    input: Pos,
    output: Pos,
    grid: OccupancyGrid,
    log: ProbeLog,
    /// Re-answers each state's recorded probes, timed.
    timed: ConnectivityOracle,
    probes: u64,
}

/// The probes of one occupancy state, answered while recorded.
#[derive(Default)]
struct ProbeLog {
    oracle: ConnectivityOracle,
    batches: Vec<(Pos, Pos)>,
    lens: Vec<usize>,
    verdicts: Vec<bool>,
}

impl ProbeLog {
    fn probe(&mut self, grid: &OccupancyGrid, moves: &[(Pos, Pos)]) -> bool {
        let verdict = self.oracle.preserves_connectivity(grid, moves);
        self.batches.extend_from_slice(moves);
        self.lens.push(moves.len());
        self.verdicts.push(verdict);
        verdict
    }
}

impl Mirror {
    fn new(config: &SurfaceConfig, rules: Vec<CompiledRule>) -> Self {
        Mirror {
            rules,
            graph: config.graph(),
            input: config.input(),
            output: config.output(),
            grid: config.grid().clone(),
            log: ProbeLog::default(),
            timed: ConnectivityOracle::new(),
            probes: 0,
        }
    }

    /// The world's locking policy: the input cell and the straight part of
    /// the path never move.
    fn locked(&self, pos: Pos) -> bool {
        pos == self.input
            || ((pos.x == self.output.x || pos.y == self.output.y) && self.graph.contains(pos))
    }

    /// `SurfaceWorld::distance_to_output`'s probes; false for `+∞`.
    fn distance_is_finite(&mut self, block: BlockId) -> bool {
        let Some(pos) = self.grid.position_of(block) else {
            return false;
        };
        if self.locked(pos) {
            return false;
        }
        let from_d = pos.manhattan(self.output);
        let mut moves = Vec::new();
        for rule in &self.rules {
            for mv in &rule.moves {
                let subject_to = pos.offset(mv.to.0 - mv.from.0, mv.to.1 - mv.from.1);
                if subject_to.manhattan(self.output) >= from_d {
                    continue;
                }
                let anchor = pos.offset(-mv.from.0, -mv.from.1);
                if !rule.applies_at(&self.grid, anchor) {
                    continue;
                }
                moves.clear();
                moves.extend(rule.moves.iter().map(|m| rule.world_move(m, anchor)));
                if self.log.probe(&self.grid, &moves)
                    && moves.iter().all(|&(from, _)| !self.locked(from))
                {
                    return true;
                }
            }
        }
        false
    }

    /// The elected block's motion enumeration
    /// (`MotionPlanner::motions_involving_with`): every rule instance that
    /// moves it, duplicates skipped before their probe.
    fn hop_probes(&mut self, block: BlockId) {
        let Some(pos) = self.grid.position_of(block) else {
            return;
        };
        let mut admitted: Vec<(Pos, Vec<(Pos, Pos)>)> = Vec::new();
        for rule in &self.rules {
            for (idx, mv) in rule.moves.iter().enumerate() {
                let anchor = pos.offset(-mv.from.0, -mv.from.1);
                if !rule.applies_at(&self.grid, anchor) {
                    continue;
                }
                let moves: Vec<(Pos, Pos)> = rule
                    .moves
                    .iter()
                    .map(|m| rule.world_move(m, anchor))
                    .collect();
                let subject_to = moves[idx].1;
                let duplicate = admitted.iter().any(|(to, seen)| {
                    *to == subject_to
                        && seen.len() == moves.len()
                        && seen.iter().all(|m| moves.contains(m))
                });
                if duplicate || !self.log.probe(&self.grid, &moves) {
                    continue;
                }
                admitted.push((subject_to, moves));
            }
        }
    }

    /// Re-issues this state's recorded probes to the timed oracle and
    /// returns the host time they took.
    fn time_probes(&mut self) -> Result<u64, String> {
        let log = &mut self.log;
        let start = Instant::now();
        let (mut at, mut agree) = (0, 0);
        for (&len, &verdict) in log.lens.iter().zip(&log.verdicts) {
            let answer = self
                .timed
                .preserves_connectivity(&self.grid, &log.batches[at..at + len]);
            agree += usize::from(answer == verdict);
            at += len;
        }
        let ns = nanos(start);
        let issued = log.lens.len();
        self.probes += issued as u64;
        log.batches.clear();
        log.lens.clear();
        log.verdicts.clear();
        if agree != issued {
            return Err("the timed oracle disagrees with the recorded verdicts".into());
        }
        Ok(ns)
    }
}
