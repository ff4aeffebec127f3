//! The per-block election state machine (Section V of the paper).
//!
//! The state machine is written independently from any runtime: handlers
//! receive the shared [`SurfaceWorld`] and write [`Action`]s (messages to
//! send, or a stop request) into a caller-owned reusable [`ActionSink`].
//! The generic [`crate::runtime::BlockHarness`] executes it on the
//! discrete-event simulator and on the threaded actor runtime through
//! the [`crate::runtime::Transport`] trait, so a single implementation is
//! validated under both a deterministic scheduler and true thread-level
//! asynchrony.
//!
//! ## Protocol recap
//!
//! Every iteration of Algorithm 1 is one *diffusing computation* in the
//! style of Dijkstra and Scholten \[16\]:
//!
//! 1. the Root floods `Activate` messages; the first activation a block
//!    receives defines its *father*; the block computes its distance
//!    `d_BO` (Eqs. 8–10) and propagates the activation to its other
//!    neighbours;
//! 2. a block that has received acknowledgments from all the neighbours it
//!    activated sends an `Ack` to its father carrying the best candidate
//!    of its subtree (shortest distance + block id); a block that receives
//!    an activation while already engaged declines immediately with an
//!    `Ack` carrying an infinite distance so the sender does not wait on
//!    it (the paper states such a block "does nothing" towards becoming a
//!    son — the decline is the explicit form of that);
//! 3. when the Root has collected all acknowledgments it knows the global
//!    minimum; it routes a `Select` message towards the winner along the
//!    recorded best-candidate links;
//! 4. the elected block performs its one-cell hop towards `O` and a
//!    `SelectAck` travels back up the father chain to the Root, which
//!    either terminates (Algorithm 1's condition `P(Bk) = O`) or starts
//!    the next iteration.
//!
//! ### Deviations from the paper's description (documented)
//!
//! * The initial `ShortestDistance` of Eq. (6) is `|O−I|₁` with
//!   `IDshortest = Root`; because the Root itself is excluded from moving
//!   (it anchors the input cell), seeding the aggregation with that value
//!   could elect the Root when every other candidate ties it.  We seed
//!   with the Root's own computed distance (which is infinite) instead;
//!   the message still carries the field.
//! * The paper has the elected block acknowledge first and hop afterwards.
//!   Under true asynchrony that order lets the next election start while
//!   the hop is still in flight, so the implementation hops first and then
//!   acknowledges; both orders are indistinguishable to the rest of the
//!   protocol.
//! * "The Root selects randomly one block" ([`TieBreak::Random`]) is
//!   implemented as an **exactly uniform global** choice via *weighted*
//!   reservoir sampling: every `Ack` carries, next to its winning
//!   candidate, the number of candidates in the sender's subtree that tie
//!   that distance (`ties`, an implementation addition to the paper's
//!   message format).  An aggregation point merging a candidate of weight
//!   `w` into a reservoir that has seen `k` tying candidates so far keeps
//!   the incoming one with probability `w / (k + w)` (`gen_ratio(w, k+w)`,
//!   with the counter reset to `w` on strict improvement), so by
//!   induction every one of the `k + w` global candidates is the held
//!   representative with probability `1 / (k + w)` exactly.  The
//!   historical implementation flipped a fair coin per tying merge
//!   (biasing even one aggregation point towards late arrivals), and its
//!   first fix — an unweighted `gen_ratio(1, k)` reservoir — was uniform
//!   per aggregation point but weighted *subtrees* rather than
//!   candidates globally; the ties count closes that last deviation.
//! * A `Select` that reaches an engaged block which neither is the winner
//!   nor has recorded a best-candidate link (`best_via == None`) cannot
//!   be forwarded — the routing state it needs never existed at this
//!   block.  Instead of dropping it silently (which left the Root waiting
//!   forever for a `SelectAck`), the block counts the anomaly in
//!   `metrics.protocol_drops` and answers its father with
//!   `SelectAck { moved: false, .. }`, so the Root concludes the
//!   iteration as a clean stall rather than hanging.
//!
//! ## Rounds: deadline-driven re-election (opt-in)
//!
//! The paper's election silently assumes every module survives to the
//! end; one crashed relay leaves the Root waiting forever.  With
//! [`AlgorithmConfig::rounds`] set, the core wraps iterations in explicit
//! **rounds**, borrowing the `Round`/`Step` state-machine shape
//! of deadline-driven BFT protocols (Tendermint): every message carries
//! the sender's round next to the iteration, and three chronology rules
//! make message handling total over rounds —
//!
//! * **stale rounds are silent**: a message from a round below the
//!   receiver's is dropped without effect (its election was abandoned);
//! * **future rounds are cached**: a non-`Activate` message from a round
//!   above the receiver's is held in a *bounded* cache
//!   ([`ROUND_CACHE_CAP`] entries, oldest entry evicted and counted in
//!   `metrics.round_cache_evictions` on overflow) and replayed when the
//!   receiver enters that round; a future-round `Activate` makes the
//!   receiver enter the round immediately (reset, adopt, engage);
//! * **the current round runs the unchanged iteration discipline**.
//!
//! **Round-skip invariant**: the runtime harness arms a deadline
//! ([`ROUND_SKIP_TIMEOUT_US`]) whenever a block participates in an
//! election; if the deadline expires and the block's `progress`
//! counter — bumped once per accepted current-round message — has not
//! moved, the round is declared stalled.  Round chronology is
//! **single-writer**: only the *Root* reacts by abandoning the round
//! ([`ElectionCore::skip_round`]) — the round number increments and the
//! Root re-floods the *same* iteration in the new round
//! (`metrics.round_skips`, `metrics.rounds_started`) — while a quiet
//! non-Root merely lets its watchdog lapse and waits for the next flood
//! (were it to skip on a private deadline, quiet blocks would drift
//! permanently ahead of the Root and every re-flood would arrive
//! stale).  Because the world (occupancy, hops already performed)
//! persists across rounds, a spurious skip merely re-runs an election
//! over unchanged state and elects the same winner; liveness is bounded
//! by [`MAX_ROUNDS`], past which the Root concludes a clean `Stalled` —
//! never a hang.  Rounds are totally ordered by the single Root's
//! chronology; a rejoining or lagging Root is pulled forward by
//! `RoundSync` replies to its stale `Activate`s.
//!
//! With rounds disabled (the default) every message carries round 0, no
//! deadline is armed, and the protocol is bit-for-bit the historical
//! single-round behaviour.
//!
//! ## Inlining
//!
//! [`ElectionCore::on_message`] and the per-message handlers it
//! dispatches to carry `#[inline]`.  A release build splits crates and
//! modules into separate codegen units, and the runtime harness that
//! calls the core once per message lives in another module; without the
//! attribute each message would pay out-of-line calls at every step.

use crate::messages::{Candidate, Distance, Msg};
use crate::world::{Outcome, SurfaceWorld};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sb_grid::BlockId;

/// Tie-breaking policy when several blocks share the shortest distance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TieBreak {
    /// Keep the candidate seen first (deterministic, order-dependent).
    FirstSeen,
    /// Prefer the lowest block identifier (fully deterministic).
    LowestId,
    /// Choose uniformly among tying candidates (the paper: "the Root
    /// selects randomly one block"); applied at every aggregation point
    /// by *weighted* reservoir sampling over the `ties` counts carried in
    /// `Ack` messages — a merged candidate representing `w` tying
    /// candidates displaces the held one with probability `w / total`,
    /// so the Root's final choice is exactly uniform over every tying
    /// candidate in the whole ensemble, not merely over subtrees.
    #[default]
    Random,
}

/// When the Root declares Algorithm 1 finished.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Termination {
    /// Stop as soon as an elected block's hop lands on the output `O`
    /// (the literal condition of Algorithm 1).
    OutputReached,
    /// Keep electing until a complete shortest path of blocks connects
    /// `I` to `O` (the declared goal of the reconfiguration).  On the
    /// workloads of the paper both conditions coincide.
    #[default]
    PathComplete,
}

/// Round-skip deadline in microseconds (simulated time on the DES,
/// wall-clock on the actor runtime): a participating block that sees no
/// accepted message for this long abandons the round.  It sits above the
/// worst-case retry exhaustion of the crash probes' fast reliable layer
/// (~7.5 ms: 500 µs base RTO, 2 ms cap, 4 retries), so the failure
/// detector resolves dead peers before the watchdog has to abandon a
/// round; a shorter deadline would preempt retransmissions that were
/// about to succeed (harmless for correctness — the re-election still
/// converges — but wasteful).
pub const ROUND_SKIP_TIMEOUT_US: u64 = 20_000;

/// Bound on the per-block out-of-order future-round message cache; on
/// overflow the oldest entry is evicted and counted
/// (`metrics.round_cache_evictions`), so a late-message flood degrades
/// to counted drops, never unbounded memory.
pub const ROUND_CACHE_CAP: usize = 32;

/// Liveness valve: a round skip past this round concludes the run as a
/// clean `Stalled` instead of re-electing forever.
pub const MAX_ROUNDS: u32 = 64;

/// Tunable parameters of the algorithm.
#[derive(Clone, Copy, Debug)]
pub struct AlgorithmConfig {
    /// Tie-breaking policy.
    pub tie_break: TieBreak,
    /// Termination condition.
    pub termination: Termination,
    /// Safety valve: abort (as `Stalled`) after this many elections.
    pub max_iterations: u32,
    /// Seed for the per-block RNG used by the random tie-break.
    pub seed: u64,
    /// Round-structured re-election (off by default; see the module
    /// docs and [`ROUND_SKIP_TIMEOUT_US`], [`ROUND_CACHE_CAP`],
    /// [`MAX_ROUNDS`]).
    pub rounds: bool,
}

impl Default for AlgorithmConfig {
    fn default() -> Self {
        AlgorithmConfig {
            tie_break: TieBreak::default(),
            termination: Termination::default(),
            max_iterations: 1_000_000,
            seed: 0xB10C,
            rounds: false,
        }
    }
}

/// An effect requested by the state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send a message to another block (necessarily a current lateral
    /// neighbour, or the recorded father/son of the ongoing election).
    Send {
        /// Destination block.
        to: BlockId,
        /// The message.
        msg: Msg,
    },
    /// Stop the whole distributed application (only ever emitted by the
    /// Root).
    Stop,
}

/// A caller-owned, reusable buffer the state machine writes its
/// [`Action`]s into.
///
/// The handlers historically returned a fresh `Vec<Action>` per event,
/// which put one heap allocation (often two, counting the intermediate
/// neighbour list) on every message of the hot deliver→step→dispatch
/// loop.  A sink is handed in by the runtime harness instead and drained
/// after each step, so after warm-up the buffer's capacity is stable and
/// the whole loop allocates nothing
/// (`crates/motion/tests/alloc_free.rs`).
#[derive(Debug, Default)]
pub struct ActionSink {
    actions: Vec<Action>,
}

impl ActionSink {
    /// An empty sink.
    pub fn new() -> Self {
        ActionSink::default()
    }

    /// Appends an action.
    #[inline]
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// Appends a send action.
    #[inline]
    pub fn send(&mut self, to: BlockId, msg: Msg) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Appends a stop action.
    pub fn stop(&mut self) {
        self.actions.push(Action::Stop);
    }

    /// Number of buffered actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the sink holds no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The buffered actions, in emission order.
    pub fn as_slice(&self) -> &[Action] {
        &self.actions
    }

    /// Removes and returns every buffered action, keeping the capacity
    /// for the next step.
    #[inline]
    pub fn drain(&mut self) -> std::vec::Drain<'_, Action> {
        self.actions.drain(..)
    }

    /// Discards every buffered action, keeping the capacity.
    pub fn clear(&mut self) {
        self.actions.clear();
    }
}

/// Per-block election state (the paper's block memory of Fig. 8: father,
/// table of sons / pending acknowledgments, `d_BO`, `ShortestDistance`,
/// iteration number `IT`).
pub struct ElectionCore {
    me: BlockId,
    is_root: bool,
    config: AlgorithmConfig,
    rng: SmallRng,
    /// Current iteration number (`IT`).
    iteration: u32,
    /// Whether this block has been activated in the current iteration.
    engaged: bool,
    /// The neighbour that activated this block.
    father: Option<BlockId>,
    /// The neighbours activated by this block whose acknowledgment is
    /// still outstanding.  Tracking *who* owes an ack (rather than a bare
    /// count, as the paper's Fig. 8 block memory suggests) is what makes
    /// the handler idempotent: a replayed `Ack` from a neighbour that
    /// already answered is rejected instead of double-decrementing the
    /// pending count into a premature (and wrong) conclusion.
    awaiting: Vec<BlockId>,
    /// Memo of the hop performed for the current iteration's `Select`
    /// (`reached_output`, `moved`): a replayed `Select` re-sends the same
    /// `SelectAck` instead of hopping a second time.
    hop_done: Option<(bool, bool)>,
    /// Best candidate of this block's subtree.
    best: Candidate,
    /// The son through which the best candidate was reported
    /// (`None` = this block itself).
    best_via: Option<BlockId>,
    /// Total number of candidates seen (weighted by the `ties` counts of
    /// merged `Ack`s) at the current best distance, reset on every strict
    /// improvement: the reservoir weight behind the globally uniform
    /// [`TieBreak::Random`], and the `ties` value this block reports to
    /// its own father.
    ties_seen: u32,
    /// Scratch buffer for the neighbour list of the current event (reused
    /// across events so the hot path performs no allocation after
    /// warm-up).
    neighbors_scratch: Vec<BlockId>,
    /// Current re-election round (0 with rounds disabled; survives
    /// iteration resets, advances only through skips and round entries).
    round: u32,
    /// Accepted-message counter the harness round-skip watchdog compares
    /// against its snapshot: unchanged across a deadline means the round
    /// stalled.  Only bumped with rounds enabled.
    progress: u64,
    /// Bounded cache of messages from rounds above the current one,
    /// replayed on round entry (oldest evicted and counted on overflow).
    future_cache: Vec<(BlockId, Msg)>,
}

impl ElectionCore {
    /// Creates the state machine for one block.
    pub fn new(me: BlockId, is_root: bool, config: AlgorithmConfig) -> Self {
        ElectionCore {
            me,
            is_root,
            config,
            rng: SmallRng::seed_from_u64(config.seed ^ (u64::from(me.as_u32()) << 32)),
            iteration: 0,
            engaged: false,
            father: None,
            awaiting: Vec::new(),
            hop_done: None,
            best: Candidate::none(me),
            best_via: None,
            ties_seen: 0,
            neighbors_scratch: Vec::new(),
            round: 0,
            progress: 0,
            future_cache: Vec::new(),
        }
    }

    /// Returns the state machine to its pre-start state (iteration 0,
    /// round 0, disengaged, future-round cache empty), keeping the block
    /// identity, configuration, RNG stream position and warmed scratch
    /// buffers.  Lets a harness re-run elections on the same world
    /// without reallocating anything.
    pub fn reset_state(&mut self) {
        self.reset_for(0);
        self.round = 0;
        self.progress = 0;
        self.future_cache.clear();
    }

    /// The block this state machine belongs to.
    pub fn id(&self) -> BlockId {
        self.me
    }

    /// Whether this block is the Root.
    pub fn is_root(&self) -> bool {
        self.is_root
    }

    /// The current iteration number.
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// The current re-election round (0 with rounds disabled).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Whether this block is engaged in the current iteration's election.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// The accepted-message counter the harness round-skip watchdog
    /// snapshots; unchanged across a deadline means the round stalled.
    pub fn progress(&self) -> u64 {
        self.progress
    }

    /// Whether the round layer is enabled.
    pub fn rounds(&self) -> bool {
        self.config.rounds
    }

    /// Start-up handler: the Root launches the first election.  Requested
    /// effects are appended to `sink`.
    pub fn on_start(&mut self, world: &mut SurfaceWorld, sink: &mut ActionSink) {
        if self.is_root {
            if self.config.rounds {
                world.metrics_mut().rounds_started += 1;
            }
            self.start_iteration(1, world, sink);
        }
    }

    /// Message handler.  Requested effects are appended to `sink`.
    #[inline]
    pub fn on_message(
        &mut self,
        from: BlockId,
        msg: Msg,
        world: &mut SurfaceWorld,
        sink: &mut ActionSink,
    ) {
        if self.config.rounds {
            if let Msg::RoundSync { round } = msg {
                // Catch-up notification: a peer already reached a higher
                // round.  Jump forward (a Root re-floods there); at or
                // below our round it carries no information.
                if round > self.round {
                    self.progress = self.progress.wrapping_add(1);
                    self.enter_round(round, world, sink);
                    self.replay_cached(world, sink);
                }
                return;
            }
            let msg_round = msg.round();
            if msg_round < self.round {
                // Stale round: its election was abandoned; silent — except
                // that a stale *Activate* reveals a Root lagging behind
                // (typically one that rejoined after a crash while the
                // survivors kept skipping rounds).  Tell it where we are,
                // or its floods would be dropped here forever.
                if matches!(msg, Msg::Activate { .. }) {
                    sink.send(from, Msg::RoundSync { round: self.round });
                }
                return;
            }
            if msg_round > self.round {
                if matches!(msg, Msg::Activate { .. }) {
                    // A Root already moved on: enter its round and handle
                    // the activation there.
                    self.enter_round(msg_round, world, sink);
                } else {
                    self.cache_future(from, msg, world);
                    return;
                }
            }
            self.progress = self.progress.wrapping_add(1);
        }
        match msg {
            Msg::Activate { iteration, .. } => self.on_activate(from, iteration, world, sink),
            Msg::Ack {
                iteration,
                shortest_distance,
                id_shortest,
                ties,
                ..
            } => self.on_ack(
                from,
                iteration,
                shortest_distance,
                id_shortest,
                ties,
                world,
                sink,
            ),
            Msg::Select {
                iteration, elected, ..
            } => self.on_select(iteration, elected, world, sink),
            Msg::SelectAck {
                iteration,
                elected,
                reached_output,
                moved,
                ..
            } => self.on_select_ack(iteration, elected, reached_output, moved, world, sink),
            // Handled (or ignored, with rounds off) before the dispatch.
            Msg::RoundSync { .. } => return,
        }
        if self.config.rounds {
            self.replay_cached(world, sink);
        }
    }

    // ----- round bookkeeping ---------------------------------------------------

    /// Watchdog expiry at the *Root*: the harness observed no progress
    /// for a full skip deadline.  Abandons the stalled round and
    /// re-floods the same iteration in the next one; past [`MAX_ROUNDS`]
    /// the run concludes as a clean `Stalled` — the liveness valve that
    /// guarantees zero hangs.  The harness never calls this at a non-Root
    /// (round chronology is the Root's alone to advance; a quiet non-Root
    /// just lets its watchdog lapse), but a direct call there advances
    /// the local round and turns the block passive until a round ≥ its
    /// own re-activates it.
    pub fn skip_round(&mut self, world: &mut SurfaceWorld, sink: &mut ActionSink) {
        if !self.config.rounds {
            return;
        }
        world.metrics_mut().round_skips += 1;
        let next = self.round.saturating_add(1);
        if next > MAX_ROUNDS {
            if world.outcome().is_none() {
                world.set_outcome(Outcome::Stalled);
            }
            sink.stop();
            return;
        }
        self.enter_round(next, world, sink);
        self.replay_cached(world, sink);
    }

    /// Re-entry after a crash: full state reset, then resume at the given
    /// round and iteration (the harness restores both from its
    /// crash-time snapshot — the equivalent of the paper's persistent
    /// block memory).  A rejoining Root re-announces by starting an
    /// election in that round; a non-Root waits passively for the next
    /// round's activation flood to reach it.
    pub fn rejoin_at(
        &mut self,
        round: u32,
        iteration: u32,
        world: &mut SurfaceWorld,
        sink: &mut ActionSink,
    ) {
        self.reset_state();
        self.iteration = iteration;
        if self.config.rounds {
            self.enter_round(round, world, sink);
        } else if self.is_root {
            // Without rounds there is no re-election chronology; restart
            // the current iteration and let the engaged peers' declines
            // conclude it (typically as a clean stall).
            self.start_iteration(iteration.max(1), world, sink);
        }
    }

    /// Failure-detector verdict from the transport: `peer` exhausted its
    /// retry budget and is presumed crashed.  With rounds enabled, a
    /// pending wait on that peer is resolved by synthesising the decline
    /// it can no longer send (an `Ack` with infinite distance), so the
    /// fold completes over the surviving subtree instead of hanging until
    /// the round-skip deadline.  Without rounds (or when not waiting on
    /// `peer`) this is a no-op — the harness keeps the historical
    /// exhaustion-means-stall behaviour there.
    pub fn on_peer_unreachable(
        &mut self,
        peer: BlockId,
        world: &mut SurfaceWorld,
        sink: &mut ActionSink,
    ) {
        if !self.config.rounds || !self.engaged {
            return;
        }
        if !self.awaiting.contains(&peer) {
            return;
        }
        self.progress = self.progress.wrapping_add(1);
        self.on_ack(
            peer,
            self.iteration,
            Distance::INFINITE,
            peer,
            0,
            world,
            sink,
        );
    }

    /// Enters `round`: adopts the number, disengages from the abandoned
    /// round's election (the iteration number survives — rounds re-run
    /// the *same* iteration), and, at the Root, re-floods it.
    fn enter_round(&mut self, round: u32, world: &mut SurfaceWorld, sink: &mut ActionSink) {
        self.round = round;
        let iteration = self.iteration.max(1);
        self.reset_for(iteration);
        if self.is_root {
            world.metrics_mut().rounds_started += 1;
            self.start_iteration(iteration, world, sink);
        }
    }

    /// Appends one future-round message to the bounded cache, evicting
    /// (and counting) the oldest entry on overflow.
    fn cache_future(&mut self, from: BlockId, msg: Msg, world: &mut SurfaceWorld) {
        if self.future_cache.len() >= ROUND_CACHE_CAP {
            self.future_cache.remove(0);
            world.metrics_mut().round_cache_evictions += 1;
        }
        self.future_cache.push((from, msg));
    }

    /// Replays cached messages that became current (and silently drops
    /// those that became stale).  Each pass removes at least one entry
    /// and replay can only cache messages from *strictly higher* rounds,
    /// so the re-entrant walk terminates.
    fn replay_cached(&mut self, world: &mut SurfaceWorld, sink: &mut ActionSink) {
        while let Some(i) = self
            .future_cache
            .iter()
            .position(|(_, m)| m.round() <= self.round)
        {
            let (from, msg) = self.future_cache.remove(i);
            if msg.round() == self.round {
                self.on_message(from, msg, world, sink);
            }
        }
    }

    // ----- iteration bookkeeping ----------------------------------------------

    fn reset_for(&mut self, iteration: u32) {
        self.iteration = iteration;
        self.engaged = false;
        self.father = None;
        self.awaiting.clear();
        self.hop_done = None;
        self.best = Candidate::none(self.me);
        self.best_via = None;
        self.ties_seen = 0;
    }

    fn start_iteration(&mut self, iteration: u32, world: &mut SurfaceWorld, sink: &mut ActionSink) {
        debug_assert!(self.is_root);
        self.reset_for(iteration);
        self.engaged = true;
        world.metrics_mut().elections += 1;
        // The Root evaluates its own distance like everyone else (it is
        // infinite: the Root anchors the input cell).
        let own = world.distance_to_output(self.me);
        self.merge_candidate(
            Candidate {
                distance: own,
                id: self.me,
            },
            1,
            None,
        );
        world.neighbors_into(self.me, &mut self.neighbors_scratch);
        self.awaiting.clear();
        self.awaiting.extend_from_slice(&self.neighbors_scratch);
        for &n in &self.neighbors_scratch {
            sink.send(n, self.activate_message(world));
        }
        if self.awaiting.is_empty() {
            // A single isolated Root cannot build anything: stall.
            world.set_outcome(Outcome::Stalled);
            sink.stop();
        }
    }

    #[inline]
    fn activate_message(&self, world: &SurfaceWorld) -> Msg {
        Msg::Activate {
            round: self.round,
            iteration: self.iteration,
            father: self.me,
            output: world.output(),
            shortest_distance: self.best.distance,
            id_shortest: self.best.id,
        }
    }

    /// Merges one candidate — a uniformly chosen representative of
    /// `weight` candidates tying its distance — into the reservoir.
    #[inline]
    fn merge_candidate(&mut self, candidate: Candidate, weight: u32, via: Option<BlockId>) {
        if candidate.distance.is_infinite() {
            return;
        }
        // A finite candidate always represents at least itself; clamping
        // keeps the deterministic policies unchanged if a peer ever sent
        // a zero count.
        let weight = weight.max(1);
        let replace = if candidate.strictly_better_than(&self.best) {
            self.ties_seen = weight;
            true
        } else if candidate.distance == self.best.distance {
            self.ties_seen += weight;
            match self.config.tie_break {
                TieBreak::FirstSeen => false,
                TieBreak::LowestId => candidate.id < self.best.id,
                // Weighted reservoir sampling: a representative of
                // `weight` tying candidates displaces the held one with
                // probability weight/total, so by induction every one of
                // the `total` candidates aggregated so far — across
                // subtrees of any shape — is held with probability
                // 1/total exactly.
                TieBreak::Random => self.rng.gen_ratio(weight, self.ties_seen),
            }
        } else {
            false
        };
        if replace {
            self.best = candidate;
            self.best_via = via;
        }
    }

    // ----- handlers ------------------------------------------------------------

    #[inline]
    fn on_activate(
        &mut self,
        from: BlockId,
        iteration: u32,
        world: &mut SurfaceWorld,
        sink: &mut ActionSink,
    ) {
        if iteration < self.iteration {
            // Late activation from a finished election: decline.
            sink.push(self.decline_ack(from, iteration));
            return;
        }
        if iteration > self.iteration {
            self.reset_for(iteration);
        }
        if self.engaged {
            // Already activated in this iteration by someone else: decline
            // immediately so the sender does not wait on us.
            sink.push(self.decline_ack(from, iteration));
            return;
        }
        // First activation of this iteration: `from` becomes the father.
        self.engaged = true;
        self.father = Some(from);
        let own = world.distance_to_output(self.me);
        self.merge_candidate(
            Candidate {
                distance: own,
                id: self.me,
            },
            1,
            None,
        );
        world.neighbors_into(self.me, &mut self.neighbors_scratch);
        self.neighbors_scratch.retain(|&n| n != from);
        self.awaiting.clear();
        self.awaiting.extend_from_slice(&self.neighbors_scratch);
        if self.awaiting.is_empty() {
            // Leaf: acknowledge right away with the subtree best (just us).
            sink.send(
                from,
                Msg::Ack {
                    round: self.round,
                    iteration,
                    son: self.me,
                    shortest_distance: self.best.distance,
                    id_shortest: self.best.id,
                    ties: self.ties_seen,
                },
            );
            return;
        }
        for &n in &self.neighbors_scratch {
            sink.send(n, self.activate_message(world));
        }
    }

    #[inline]
    fn decline_ack(&self, to: BlockId, iteration: u32) -> Action {
        Action::Send {
            to,
            msg: Msg::Ack {
                round: self.round,
                iteration,
                son: self.me,
                shortest_distance: Distance::INFINITE,
                id_shortest: self.me,
                ties: 0,
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn on_ack(
        &mut self,
        from: BlockId,
        iteration: u32,
        shortest_distance: Distance,
        id_shortest: BlockId,
        ties: u32,
        world: &mut SurfaceWorld,
        sink: &mut ActionSink,
    ) {
        if iteration != self.iteration {
            // Acks from a finished election arrive in normal fault-free
            // runs (declined late activations echo the old iteration);
            // they are not an anomaly, just ignored.
            return;
        }
        let position = if self.engaged {
            self.awaiting.iter().position(|&b| b == from)
        } else {
            None
        };
        let Some(position) = position else {
            // A current-iteration `Ack` from a neighbour that already
            // answered (or that we never activated): counting it again
            // would double-decrement the pending count and conclude the
            // phase early with sons still unreported.  Reject and count.
            world.metrics_mut().protocol_drops += 1;
            return;
        };
        self.awaiting.swap_remove(position);
        self.merge_candidate(
            Candidate {
                distance: shortest_distance,
                id: id_shortest,
            },
            ties,
            Some(from),
        );
        if !self.awaiting.is_empty() {
            return;
        }
        if self.is_root {
            self.conclude_phase_one(world, sink);
        } else {
            let father = self.father.expect("engaged non-root has a father");
            sink.send(
                father,
                Msg::Ack {
                    round: self.round,
                    iteration,
                    son: self.me,
                    shortest_distance: self.best.distance,
                    id_shortest: self.best.id,
                    ties: self.ties_seen,
                },
            );
        }
    }

    fn conclude_phase_one(&mut self, world: &mut SurfaceWorld, sink: &mut ActionSink) {
        if self.best.distance.is_infinite() || self.best.id == self.me {
            // No block can move towards the output anymore.
            if self.goal_reached(world) {
                world.set_outcome(Outcome::Completed);
                sink.stop();
            } else if self.config.rounds {
                // With rounds on, "no candidate" may be transient: a
                // crashed subtree was declined away (synthesised or real
                // declines) and may yet rejoin.  Stay engaged and let the
                // round-skip deadline re-elect; `MAX_ROUNDS` bounds the
                // wait, after which the valve concludes `Stalled` anyway.
            } else {
                world.set_outcome(Outcome::Stalled);
                sink.stop();
            }
            return;
        }
        let via = self
            .best_via
            .expect("a non-self winner was necessarily reported by a son");
        sink.send(
            via,
            Msg::Select {
                round: self.round,
                iteration: self.iteration,
                elected: self.best.id,
            },
        );
    }

    fn on_select(
        &mut self,
        iteration: u32,
        elected: BlockId,
        world: &mut SurfaceWorld,
        sink: &mut ActionSink,
    ) {
        if iteration != self.iteration || !self.engaged {
            return;
        }
        if elected != self.me {
            // Forward along the recorded best-candidate link.
            if let Some(via) = self.best_via {
                sink.send(
                    via,
                    Msg::Select {
                        round: self.round,
                        iteration,
                        elected,
                    },
                );
                return;
            }
            // Mis-routed selection: we are not the winner and recorded no
            // son to forward through.  Dropping it silently would leave
            // the Root waiting forever for the `SelectAck`; answer the
            // father with `moved: false` instead so the Root stalls
            // cleanly, and count the anomaly.
            world.metrics_mut().protocol_drops += 1;
            if let Some(father) = self.father {
                sink.send(
                    father,
                    Msg::SelectAck {
                        round: self.round,
                        iteration,
                        elected,
                        reached_output: false,
                        moved: false,
                    },
                );
            }
            return;
        }
        // We are the elected block: perform the hop, then acknowledge up
        // the father chain.  A replayed `Select` for an iteration whose
        // hop was already performed must not hop a second time — it
        // re-sends the identical `SelectAck` so a lost first answer still
        // cannot hang the Root.
        let father = self.father.expect("elected block is not the Root");
        let (reached_output, moved) = match self.hop_done {
            Some(memo) => {
                world.metrics_mut().protocol_drops += 1;
                memo
            }
            None => {
                let result = world.hop_towards_output(self.me, iteration);
                let memo = (result.reached_output, result.moved);
                self.hop_done = Some(memo);
                memo
            }
        };
        sink.send(
            father,
            Msg::SelectAck {
                round: self.round,
                iteration,
                elected: self.me,
                reached_output,
                moved,
            },
        );
    }

    fn on_select_ack(
        &mut self,
        iteration: u32,
        elected: BlockId,
        reached_output: bool,
        moved: bool,
        world: &mut SurfaceWorld,
        sink: &mut ActionSink,
    ) {
        if iteration != self.iteration {
            return;
        }
        if !self.is_root {
            let father = match self.father {
                Some(f) => f,
                None => return,
            };
            sink.send(
                father,
                Msg::SelectAck {
                    round: self.round,
                    iteration,
                    elected,
                    reached_output,
                    moved,
                },
            );
            return;
        }
        // Root: the election is over, decide whether Algorithm 1 stops.
        if !moved {
            world.set_outcome(Outcome::Stalled);
            sink.stop();
            return;
        }
        if self.goal_reached(world) {
            world.set_outcome(Outcome::Completed);
            sink.stop();
            return;
        }
        if self.iteration >= self.config.max_iterations {
            world.set_outcome(Outcome::Stalled);
            sink.stop();
            return;
        }
        let next = self.iteration + 1;
        self.start_iteration(next, world, sink);
    }

    /// Whether Algorithm 1 stops on the current occupancy.  `O` is a
    /// locked cell, so a block that reaches it never leaves: an occupied
    /// output is exactly "some hop reached the output".
    fn goal_reached(&self, world: &SurfaceWorld) -> bool {
        match self.config.termination {
            Termination::OutputReached => world.output_occupied(),
            Termination::PathComplete => world.path_complete(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_grid::SurfaceConfig;

    /// Test shorthand: runs the start handler through a throwaway sink
    /// and returns the emitted actions.
    fn start(core: &mut ElectionCore, world: &mut SurfaceWorld) -> Vec<Action> {
        let mut sink = ActionSink::new();
        core.on_start(world, &mut sink);
        sink.drain().collect()
    }

    /// Test shorthand: delivers one message through a throwaway sink and
    /// returns the emitted actions.
    fn deliver(
        core: &mut ElectionCore,
        from: BlockId,
        msg: Msg,
        world: &mut SurfaceWorld,
    ) -> Vec<Action> {
        let mut sink = ActionSink::new();
        core.on_message(from, msg, world, &mut sink);
        sink.drain().collect()
    }

    fn tiny_world() -> SurfaceWorld {
        // Root at I=(1,0), two more blocks; output at the top of column 1.
        let cfg = SurfaceConfig::from_ascii(
            ". O .\n\
             . . .\n\
             . # .\n\
             . I #",
        )
        .unwrap();
        SurfaceWorld::standard(cfg)
    }

    fn config_first_seen() -> AlgorithmConfig {
        AlgorithmConfig {
            tie_break: TieBreak::FirstSeen,
            ..AlgorithmConfig::default()
        }
    }

    #[test]
    fn root_starts_by_activating_all_neighbors() {
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let mut core = ElectionCore::new(root, true, config_first_seen());
        let actions = start(&mut core, &mut world);
        assert_eq!(actions.len(), 2, "two lateral neighbours to activate");
        for a in &actions {
            match a {
                Action::Send {
                    msg:
                        Msg::Activate {
                            round: 0,
                            iteration,
                            father,
                            ..
                        },
                    ..
                } => {
                    assert_eq!(*iteration, 1);
                    assert_eq!(*father, root);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(world.metrics().elections, 1);
        assert_eq!(core.iteration(), 1);
    }

    #[test]
    fn non_root_does_nothing_on_start() {
        let mut world = tiny_world();
        let some_block = world
            .grid()
            .block_ids_sorted()
            .into_iter()
            .find(|&b| Some(b) != world.root_block())
            .unwrap();
        let mut core = ElectionCore::new(some_block, false, config_first_seen());
        assert!(start(&mut core, &mut world).is_empty());
    }

    #[test]
    fn leaf_block_acks_immediately_with_its_own_distance() {
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        // The block at (2,0) has the Root as its only neighbour: a leaf.
        let leaf = world.grid().block_at(sb_grid::Pos::new(2, 0)).unwrap();
        let mut core = ElectionCore::new(leaf, false, config_first_seen());
        let actions = deliver(
            &mut core,
            root,
            Msg::Activate {
                round: 0,
                iteration: 1,
                father: root,
                output: world.output(),
                shortest_distance: Distance::INFINITE,
                id_shortest: root,
            },
            &mut world,
        );
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Send {
                to,
                msg:
                    Msg::Ack {
                        shortest_distance,
                        id_shortest,
                        ..
                    },
            } => {
                assert_eq!(*to, root);
                assert_eq!(*id_shortest, leaf);
                // (2,0) is not aligned with O=(1,3): distance is finite if
                // it can move towards O.
                assert!(!shortest_distance.is_infinite());
                assert_eq!(*shortest_distance, Distance::finite(4));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn double_activation_is_declined() {
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let other = world.grid().block_at(sb_grid::Pos::new(1, 1)).unwrap();
        let leaf = world.grid().block_at(sb_grid::Pos::new(2, 0)).unwrap();
        let mut core = ElectionCore::new(leaf, false, config_first_seen());
        let output = world.output();
        let activate = |father: BlockId| Msg::Activate {
            round: 0,
            iteration: 1,
            father,
            output,
            shortest_distance: Distance::INFINITE,
            id_shortest: father,
        };
        let _ = deliver(&mut core, root, activate(root), &mut world);
        let second = deliver(&mut core, other, activate(other), &mut world);
        assert_eq!(second.len(), 1);
        match &second[0] {
            Action::Send {
                to,
                msg: Msg::Ack {
                    shortest_distance, ..
                },
            } => {
                assert_eq!(*to, other);
                assert!(shortest_distance.is_infinite(), "decline carries +inf");
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn root_selects_the_minimum_and_routes_via_the_reporting_son() {
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let neighbors = world.neighbors_of(root);
        let mut core = ElectionCore::new(root, true, config_first_seen());
        let _ = start(&mut core, &mut world);
        // First son reports a distance of 4, second son a distance of 3.
        let a0 = deliver(
            &mut core,
            neighbors[0],
            Msg::Ack {
                round: 0,
                iteration: 1,
                son: neighbors[0],
                shortest_distance: Distance::finite(4),
                id_shortest: BlockId(42),
                ties: 1,
            },
            &mut world,
        );
        assert!(a0.is_empty(), "still waiting for the other ack");
        let a1 = deliver(
            &mut core,
            neighbors[1],
            Msg::Ack {
                round: 0,
                iteration: 1,
                son: neighbors[1],
                shortest_distance: Distance::finite(3),
                id_shortest: BlockId(43),
                ties: 1,
            },
            &mut world,
        );
        assert_eq!(a1.len(), 1);
        match &a1[0] {
            Action::Send {
                to,
                msg: Msg::Select {
                    elected, iteration, ..
                },
            } => {
                assert_eq!(*iteration, 1);
                assert_eq!(*elected, BlockId(43));
                assert_eq!(*to, neighbors[1]);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn root_stops_with_stalled_when_every_candidate_is_infinite() {
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let neighbors = world.neighbors_of(root);
        let mut core = ElectionCore::new(root, true, config_first_seen());
        let _ = start(&mut core, &mut world);
        let mut last = Vec::new();
        for n in &neighbors {
            last = deliver(
                &mut core,
                *n,
                Msg::Ack {
                    round: 0,
                    iteration: 1,
                    son: *n,
                    shortest_distance: Distance::INFINITE,
                    id_shortest: *n,
                    ties: 0,
                },
                &mut world,
            );
        }
        assert_eq!(last, vec![Action::Stop]);
        assert_eq!(world.outcome(), Some(Outcome::Stalled));
    }

    #[test]
    fn elected_block_hops_and_acknowledges_its_father() {
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        // The block at (2,0) will pretend to be elected.
        let elected = world.grid().block_at(sb_grid::Pos::new(2, 0)).unwrap();
        let mut core = ElectionCore::new(elected, false, config_first_seen());
        let _ = deliver(
            &mut core,
            root,
            Msg::Activate {
                round: 0,
                iteration: 1,
                father: root,
                output: world.output(),
                shortest_distance: Distance::INFINITE,
                id_shortest: root,
            },
            &mut world,
        );
        let before = world.position_of(elected).unwrap();
        let actions = deliver(
            &mut core,
            root,
            Msg::Select {
                round: 0,
                iteration: 1,
                elected,
            },
            &mut world,
        );
        let after = world.position_of(elected).unwrap();
        assert!(after.manhattan(world.output()) < before.manhattan(world.output()));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Send {
                to,
                msg: Msg::SelectAck {
                    moved, elected: e, ..
                },
            } => {
                assert_eq!(*to, root);
                assert!(*moved);
                assert_eq!(*e, elected);
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(world.metrics().elected_hops, 1);
    }

    #[test]
    fn stale_messages_are_ignored() {
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let mut core = ElectionCore::new(root, true, config_first_seen());
        let _ = start(&mut core, &mut world);
        // An ack for a nonexistent iteration 7 is ignored.
        let actions = deliver(
            &mut core,
            BlockId(2),
            Msg::Ack {
                round: 0,
                iteration: 7,
                son: BlockId(2),
                shortest_distance: Distance::finite(1),
                id_shortest: BlockId(2),
                ties: 1,
            },
            &mut world,
        );
        assert!(actions.is_empty());
        // A select for the wrong iteration is ignored too.
        let actions = deliver(
            &mut core,
            BlockId(2),
            Msg::Select {
                round: 0,
                iteration: 7,
                elected: root,
            },
            &mut world,
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn mis_routed_select_answers_the_father_instead_of_hanging() {
        // An engaged block with `best_via == None` (a leaf that only ever
        // reported itself) receiving a `Select` for *another* block has no
        // link to forward it along.  It must answer its father with
        // `moved: false` — silently dropping the message left the Root
        // waiting for a `SelectAck` forever — and count the anomaly.
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let leaf = world.grid().block_at(sb_grid::Pos::new(2, 0)).unwrap();
        let mut core = ElectionCore::new(leaf, false, config_first_seen());
        let _ = deliver(
            &mut core,
            root,
            Msg::Activate {
                round: 0,
                iteration: 1,
                father: root,
                output: world.output(),
                shortest_distance: Distance::INFINITE,
                id_shortest: root,
            },
            &mut world,
        );
        let stray = BlockId(777);
        let actions = deliver(
            &mut core,
            root,
            Msg::Select {
                round: 0,
                iteration: 1,
                elected: stray,
            },
            &mut world,
        );
        assert_eq!(actions.len(), 1, "the drop must be answered, not silent");
        match &actions[0] {
            Action::Send {
                to,
                msg:
                    Msg::SelectAck {
                        round: 0,
                        iteration,
                        elected,
                        reached_output,
                        moved,
                    },
            } => {
                assert_eq!(*to, root, "the answer goes up the father chain");
                assert_eq!(*iteration, 1);
                assert_eq!(*elected, stray);
                assert!(!*moved, "no hop was performed");
                assert!(!*reached_output);
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(world.metrics().protocol_drops, 1);
    }

    #[test]
    fn replayed_ack_is_rejected_instead_of_double_decrementing() {
        // Pre-fix, `pending_acks` was a bare counter: a duplicated `Ack`
        // decremented it twice and the Root concluded phase one with a son
        // still unreported.  With the membership list the replay is
        // rejected, counted, and the election still needs the real second
        // ack to conclude.
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let neighbors = world.neighbors_of(root);
        let mut core = ElectionCore::new(root, true, config_first_seen());
        let _ = start(&mut core, &mut world);
        let ack_from = |son: BlockId, d: u32| Msg::Ack {
            round: 0,
            iteration: 1,
            son,
            shortest_distance: Distance::finite(d),
            id_shortest: son,
            ties: 1,
        };
        let first = deliver(
            &mut core,
            neighbors[0],
            ack_from(neighbors[0], 4),
            &mut world,
        );
        assert!(first.is_empty(), "one son still outstanding");
        // The same ack again — a network duplicate.
        let replay = deliver(
            &mut core,
            neighbors[0],
            ack_from(neighbors[0], 4),
            &mut world,
        );
        assert!(replay.is_empty(), "the replay must not conclude the phase");
        assert_eq!(world.metrics().protocol_drops, 1);
        // The genuine second ack concludes the phase and routes the
        // `Select` to the true minimum, unperturbed by the replay.
        let second = deliver(
            &mut core,
            neighbors[1],
            ack_from(neighbors[1], 3),
            &mut world,
        );
        assert_eq!(second.len(), 1);
        match &second[0] {
            Action::Send {
                to,
                msg: Msg::Select { elected, .. },
            } => {
                assert_eq!(*to, neighbors[1]);
                assert_eq!(*elected, neighbors[1]);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn replayed_select_reacks_without_hopping_twice() {
        // A duplicated `Select` reaching the elected block must not move
        // it a second cell; it re-sends the identical `SelectAck` (so a
        // lost first answer cannot hang the Root) and counts the replay.
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let elected = world.grid().block_at(sb_grid::Pos::new(2, 0)).unwrap();
        let mut core = ElectionCore::new(elected, false, config_first_seen());
        let _ = deliver(
            &mut core,
            root,
            Msg::Activate {
                round: 0,
                iteration: 1,
                father: root,
                output: world.output(),
                shortest_distance: Distance::INFINITE,
                id_shortest: root,
            },
            &mut world,
        );
        let select = Msg::Select {
            round: 0,
            iteration: 1,
            elected,
        };
        let first = deliver(&mut core, root, select.clone(), &mut world);
        let after_first = world.position_of(elected).unwrap();
        let replay = deliver(&mut core, root, select, &mut world);
        assert_eq!(world.position_of(elected).unwrap(), after_first);
        assert_eq!(world.metrics().elected_hops, 1, "exactly one hop");
        assert_eq!(world.metrics().protocol_drops, 1);
        assert_eq!(replay, first, "the re-ack is byte-identical");
    }

    #[test]
    fn random_tie_break_is_uniform_across_three_candidates() {
        // Root with three lateral neighbours; each son reports a distinct
        // candidate at the same distance.  Over many seeded trials each of
        // the three tying candidates must be elected about 1/3 of the
        // time — the pre-fix coin-flip merge gave the last-reported
        // candidate probability 1/2 and the first only 1/4.
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<BlockId, usize> = BTreeMap::new();
        let trials = 1000u64;
        for trial in 0..trials {
            let cfg = SurfaceConfig::from_ascii(
                ". O .\n\
                 . . .\n\
                 . # .\n\
                 # I #",
            )
            .unwrap();
            let mut world = SurfaceWorld::standard(cfg);
            let root = world.root_block().unwrap();
            let neighbors = world.neighbors_of(root);
            assert_eq!(neighbors.len(), 3, "the root needs three sons");
            let mut core = ElectionCore::new(
                root,
                true,
                AlgorithmConfig {
                    tie_break: TieBreak::Random,
                    seed: trial,
                    ..AlgorithmConfig::default()
                },
            );
            let _ = start(&mut core, &mut world);
            let mut last = Vec::new();
            for (i, &son) in neighbors.iter().enumerate() {
                last = deliver(
                    &mut core,
                    son,
                    Msg::Ack {
                        round: 0,
                        iteration: 1,
                        son,
                        shortest_distance: Distance::finite(3),
                        id_shortest: BlockId(42 + i as u32),
                        ties: 1,
                    },
                    &mut world,
                );
            }
            match &last[0] {
                Action::Send {
                    msg: Msg::Select { elected, .. },
                    ..
                } => *counts.entry(*elected).or_insert(0) += 1,
                other => panic!("unexpected action {other:?}"),
            }
        }
        for id in [42u32, 43, 44] {
            let won = counts.get(&BlockId(id)).copied().unwrap_or(0);
            assert!(
                (250..=420).contains(&won),
                "candidate #{id} elected {won}/{trials}: not uniform ({counts:?})"
            );
        }
    }

    /// The satellite fix this PR pins down: `ties` counts in `Ack`s make
    /// the random tie-break uniform over *candidates*, not subtrees.  A
    /// son whose subtree aggregated two tying candidates must win the
    /// root's reservoir ~2/3 of the time against a single direct
    /// candidate — the unweighted reservoir gave each *subtree* 1/2.
    #[test]
    fn weighted_ties_make_the_global_choice_uniform_over_candidates() {
        let trials = 1000u64;
        let mut aggregated_son_wins = 0usize;
        for trial in 0..trials {
            let mut world = tiny_world();
            let root = world.root_block().unwrap();
            let neighbors = world.neighbors_of(root);
            assert_eq!(neighbors.len(), 2, "the root needs two sons");
            let mut core = ElectionCore::new(
                root,
                true,
                AlgorithmConfig {
                    tie_break: TieBreak::Random,
                    seed: trial,
                    ..AlgorithmConfig::default()
                },
            );
            let _ = start(&mut core, &mut world);
            // Son 0 reports a representative of TWO tying candidates,
            // son 1 a single direct candidate at the same distance.
            let _ = deliver(
                &mut core,
                neighbors[0],
                Msg::Ack {
                    round: 0,
                    iteration: 1,
                    son: neighbors[0],
                    shortest_distance: Distance::finite(3),
                    id_shortest: BlockId(100),
                    ties: 2,
                },
                &mut world,
            );
            let last = deliver(
                &mut core,
                neighbors[1],
                Msg::Ack {
                    round: 0,
                    iteration: 1,
                    son: neighbors[1],
                    shortest_distance: Distance::finite(3),
                    id_shortest: BlockId(200),
                    ties: 1,
                },
                &mut world,
            );
            match &last[0] {
                Action::Send {
                    msg: Msg::Select { elected, .. },
                    ..
                } => {
                    if *elected == BlockId(100) {
                        aggregated_son_wins += 1;
                    }
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        // Expectation 2/3 ≈ 667 of 1000; a ±6% band is > 4 sigma wide.
        assert!(
            (600..=730).contains(&aggregated_son_wins),
            "subtree of two candidates won {aggregated_son_wins}/{trials}: not candidate-uniform"
        );
    }

    #[test]
    fn lowest_id_tie_break_is_deterministic() {
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let neighbors = world.neighbors_of(root);
        let mut core = ElectionCore::new(
            root,
            true,
            AlgorithmConfig {
                tie_break: TieBreak::LowestId,
                ..AlgorithmConfig::default()
            },
        );
        let _ = start(&mut core, &mut world);
        let _ = deliver(
            &mut core,
            neighbors[0],
            Msg::Ack {
                round: 0,
                iteration: 1,
                son: neighbors[0],
                shortest_distance: Distance::finite(3),
                id_shortest: BlockId(50),
                ties: 1,
            },
            &mut world,
        );
        let actions = deliver(
            &mut core,
            neighbors[1],
            Msg::Ack {
                round: 0,
                iteration: 1,
                son: neighbors[1],
                shortest_distance: Distance::finite(3),
                id_shortest: BlockId(7),
                ties: 1,
            },
            &mut world,
        );
        match &actions[0] {
            Action::Send {
                msg: Msg::Select { elected, .. },
                ..
            } => {
                assert_eq!(*elected, BlockId(7), "lowest id wins the tie");
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    // ----- round machinery (PR 10) ---------------------------------------------

    fn config_rounds_on() -> AlgorithmConfig {
        AlgorithmConfig {
            tie_break: TieBreak::FirstSeen,
            rounds: true,
            ..AlgorithmConfig::default()
        }
    }

    /// Test shorthand: reports a peer as unreachable through a throwaway
    /// sink and returns the emitted actions.
    fn unreachable(
        core: &mut ElectionCore,
        peer: BlockId,
        world: &mut SurfaceWorld,
    ) -> Vec<Action> {
        let mut sink = ActionSink::new();
        core.on_peer_unreachable(peer, world, &mut sink);
        sink.drain().collect()
    }

    #[test]
    fn stale_activate_is_answered_with_round_sync() {
        // A non-Root that already advanced to round 2 receives an
        // `Activate` from round 0 — typically a Root that rejoined after
        // a crash and restarted behind the survivors.  Silence would drop
        // its floods forever; instead the receiver points it forward.
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let leaf = world.grid().block_at(sb_grid::Pos::new(2, 0)).unwrap();
        let mut core = ElectionCore::new(leaf, false, config_rounds_on());
        let none = deliver(&mut core, root, Msg::RoundSync { round: 2 }, &mut world);
        assert!(none.is_empty(), "a non-Root catches up silently");
        assert_eq!(core.round(), 2);
        let actions = deliver(
            &mut core,
            root,
            Msg::Activate {
                round: 0,
                iteration: 1,
                father: root,
                output: world.output(),
                shortest_distance: Distance::INFINITE,
                id_shortest: root,
            },
            &mut world,
        );
        assert_eq!(
            actions,
            vec![Action::Send {
                to: root,
                msg: Msg::RoundSync { round: 2 },
            }],
            "the stale flood is answered with a catch-up notification"
        );
    }

    #[test]
    fn round_sync_pulls_a_lagging_root_forward_and_refloods() {
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let mut core = ElectionCore::new(root, true, config_rounds_on());
        let _ = start(&mut core, &mut world);
        assert_eq!(core.round(), 0);
        let actions = deliver(
            &mut core,
            world.neighbors_of(root)[0],
            Msg::RoundSync { round: 3 },
            &mut world,
        );
        assert_eq!(core.round(), 3);
        assert_eq!(
            world.metrics().rounds_started,
            2,
            "round 0 plus the jump to 3"
        );
        assert_eq!(actions.len(), 2, "the Root re-floods in the new round");
        for a in &actions {
            match a {
                Action::Send {
                    msg:
                        Msg::Activate {
                            round, iteration, ..
                        },
                    ..
                } => {
                    assert_eq!(*round, 3);
                    assert_eq!(*iteration, 1, "rounds re-run the same iteration");
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn unreachable_peer_resolves_the_fold_with_a_synthetic_decline() {
        // The transport's failure detector (retry exhaustion) reports one
        // son as crashed; the Root folds the phase over the survivor
        // instead of hanging until the round-skip deadline.
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let neighbors = world.neighbors_of(root);
        let mut core = ElectionCore::new(root, true, config_rounds_on());
        let _ = start(&mut core, &mut world);
        let partial = unreachable(&mut core, neighbors[0], &mut world);
        assert!(partial.is_empty(), "the other son is still outstanding");
        let actions = deliver(
            &mut core,
            neighbors[1],
            Msg::Ack {
                round: 0,
                iteration: 1,
                son: neighbors[1],
                shortest_distance: Distance::finite(3),
                id_shortest: neighbors[1],
                ties: 1,
            },
            &mut world,
        );
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Send {
                to,
                msg: Msg::Select { elected, .. },
            } => {
                assert_eq!(*to, neighbors[1]);
                assert_eq!(*elected, neighbors[1], "the survivor wins");
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn unreachable_peer_is_a_no_op_with_rounds_off() {
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let neighbors = world.neighbors_of(root);
        let mut core = ElectionCore::new(root, true, config_first_seen());
        let _ = start(&mut core, &mut world);
        assert!(unreachable(&mut core, neighbors[0], &mut world).is_empty());
        assert!(unreachable(&mut core, neighbors[1], &mut world).is_empty());
        assert_eq!(world.outcome(), None, "no synthetic fold without rounds");
    }

    #[test]
    fn all_infinite_acks_defer_the_stall_when_rounds_are_on() {
        // Counterpart of `root_stops_with_stalled_when_every_candidate_is
        // _infinite`: with rounds enabled an all-declined fold may just be
        // a transient (a crashed cut vertex about to rejoin), so the Root
        // stays engaged and lets the watchdog re-elect; `MAX_ROUNDS`
        // bounds the wait.
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let neighbors = world.neighbors_of(root);
        let mut core = ElectionCore::new(root, true, config_rounds_on());
        let _ = start(&mut core, &mut world);
        let mut last = Vec::new();
        for n in &neighbors {
            last = deliver(
                &mut core,
                *n,
                Msg::Ack {
                    round: 0,
                    iteration: 1,
                    son: *n,
                    shortest_distance: Distance::INFINITE,
                    id_shortest: *n,
                    ties: 0,
                },
                &mut world,
            );
        }
        assert!(last.is_empty(), "no Stop: the stall may be transient");
        assert_eq!(world.outcome(), None);
        assert!(core.engaged(), "the Root waits for a skip or a rejoin");
    }

    #[test]
    fn round_skip_past_max_rounds_stalls_cleanly() {
        let mut world = tiny_world();
        let root = world.root_block().unwrap();
        let mut core = ElectionCore::new(root, true, config_rounds_on());
        let _ = start(&mut core, &mut world);
        let mut sink = ActionSink::new();
        for skip in 1..=MAX_ROUNDS {
            core.skip_round(&mut world, &mut sink);
            assert_eq!(core.round(), skip, "skip {skip} re-floods in round {skip}");
        }
        let refloods: Vec<Action> = sink.drain().collect();
        assert!(!refloods.contains(&Action::Stop), "{refloods:?}");
        assert_eq!(world.outcome(), None);
        core.skip_round(&mut world, &mut sink);
        let actions: Vec<Action> = sink.drain().collect();
        assert_eq!(actions, vec![Action::Stop], "the liveness valve must fire");
        assert_eq!(world.outcome(), Some(Outcome::Stalled));
        assert_eq!(world.metrics().round_skips, u64::from(MAX_ROUNDS) + 1);
    }
}
