//! Opt-in reliable delivery: per-link sequencing, ack/timeout/retransmit
//! and duplicate suppression for the [`crate::runtime::BlockHarness`].
//!
//! The paper's Assumption 3 promises reliable finite-time links, and the
//! fault probes show what happens when it breaks: one dropped election
//! message deadlocks the diffusing computation, one duplicated `Ack`
//! corrupts the pending-ack count.  This module restores the assumption
//! *as protocol*, below the election layer and above the raw transport:
//!
//! * every protocol message is wrapped in an [`Envelope`] — either
//!   [`Envelope::Raw`] (reliability off: byte-identical to the historical
//!   behaviour) or [`Envelope::Data`] carrying a per-directed-link
//!   sequence number, acknowledged per-sequence by
//!   [`Envelope::DeliveryAck`];
//! * the sender keeps an in-flight list per link and retransmits from
//!   timers — exponential backoff from `base_rto_us` to `max_rto_us`,
//!   deterministic per-(link, seq, attempt) jitter, and a bounded retry
//!   budget (`retry_limit`); budget exhaustion is surfaced as a counted
//!   `delivery_failures` metric and a clean `Stalled` outcome, never a
//!   silent hang;
//! * the receiver keeps a sliding anti-replay window per link (highest
//!   sequence seen + 128-bit bitmask), so duplicates are suppressed
//!   whichever copy arrives first — links may legally reorder, so only
//!   loss and duplication are repaired, not ordering (the election is
//!   already reorder-tolerant).
//!
//! `DeliveryAck`s themselves travel unreliably (there is no ack-of-ack):
//! a lost ack merely triggers a retransmission, which the receive window
//! suppresses and re-acks, so the exchange converges.
//!
//! All state lives in the harness; timers are the only runtime capability
//! required (`Transport::set_timer` + an `on_timer` path), which both the
//! discrete-event simulator and the threaded actor runtime provide.
//!
//! The per-envelope methods of `ReliabilityState` and the tag and
//! jitter helpers carry `#[inline]`: a release build splits crates and
//! modules into separate codegen units, and the harness that calls them
//! on every envelope lives in another module.

use crate::messages::Msg;
use sb_desim::network::{fnv1a64, splitmix64};

/// The wire format exchanged between harnesses.
///
/// With reliability disabled every send is [`Envelope::Raw`], keeping the
/// event schedule and RNG consumption byte-identical to the historical
/// unwrapped behaviour.  With reliability enabled, payloads travel as
/// [`Envelope::Data`] and are acknowledged per-sequence with
/// [`Envelope::DeliveryAck`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Envelope {
    /// An unsequenced protocol message (reliability off).
    Raw(Msg),
    /// A sequenced protocol message (reliability on).  `seq` numbers are
    /// per **directed link**, starting at 1.
    Data {
        /// Sequence number on the sender→receiver link.
        seq: u32,
        /// The wrapped protocol message.
        msg: Msg,
    },
    /// Transport-level acknowledgment of one received [`Envelope::Data`]
    /// sequence number (per-seq, not cumulative: links may reorder).
    DeliveryAck {
        /// The acknowledged sequence number.
        seq: u32,
    },
}

/// Configuration of the reliable-delivery layer.
///
/// The default (and [`ReliabilityConfig::off`]) disables the layer
/// entirely: no sequencing, no timers, no behaviour change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Whether the layer is active.
    pub enabled: bool,
    /// Initial retransmission timeout in microseconds (of simulated time
    /// on the DES, wall-clock on the actor runtime).
    pub base_rto_us: u64,
    /// Ceiling of the exponential backoff, in microseconds.
    pub max_rto_us: u64,
    /// Retransmissions allowed per message before the sender gives up
    /// (`RetryLimit`); the original transmission is not counted.
    pub retry_limit: u32,
}

impl ReliabilityConfig {
    /// Reliability disabled: byte-identical to the historical behaviour.
    pub const fn off() -> Self {
        ReliabilityConfig {
            enabled: false,
            base_rto_us: 1_000,
            max_rto_us: 100_000,
            retry_limit: 10,
        }
    }

    /// Reliability enabled with the default timing policy: 1 ms initial
    /// RTO, exponential backoff ×2 capped at 100 ms, 10 retransmissions.
    /// The initial RTO sits far above every benign per-message latency
    /// the sweep uses, so enabling the layer on a healthy network costs
    /// acks but (almost) no retransmissions.
    pub const fn on() -> Self {
        ReliabilityConfig {
            enabled: true,
            ..ReliabilityConfig::off()
        }
    }
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig::off()
    }
}

/// Receive-side verdict for one [`Envelope::Data`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Deliver {
    /// First sighting of this sequence number: deliver the payload.
    Fresh,
    /// Already seen (or too old to tell): suppress the payload.
    Duplicate,
}

/// Send-side verdict when a retransmission timer fires.
#[derive(Debug)]
pub(crate) enum TimerVerdict {
    /// The sequence was acknowledged in the meantime; ignore the timer.
    Stale,
    /// Retransmit the payload and re-arm the timer.
    Retransmit {
        /// A fresh copy of the unacknowledged payload.
        msg: Msg,
        /// Delay before the *next* timer, jittered, in microseconds.
        delay_us: u64,
    },
    /// The retry budget is exhausted; the caller reports the failure.
    Exhausted,
}

/// One unacknowledged transmission.
struct InFlight {
    seq: u32,
    msg: Msg,
    /// Retransmissions performed so far.
    retries: u32,
    /// Current (pre-jitter) retransmission timeout.
    rto_us: u64,
}

/// Send-side state of one directed link.
struct SendLink {
    peer: usize,
    next_seq: u32,
    inflight: Vec<InFlight>,
    /// The link's constant share of the retransmission-jitter hash (see
    /// [`jitter_prefix`]).
    jitter_prefix: u64,
}

/// Receive-side anti-replay window of one directed link: the highest
/// sequence seen plus a 128-bit mask of the window below it.
struct RecvLink {
    peer: usize,
    highest: u32,
    mask: u128,
}

/// Per-harness reliable-delivery state: one send and one receive record
/// per active directed link.  Block ensembles talk to a handful of grid
/// neighbours, so links are found by linear scan over short `Vec`s — no
/// hashing on the hot path.
pub(crate) struct ReliabilityState {
    config: ReliabilityConfig,
    send_links: Vec<SendLink>,
    recv_links: Vec<RecvLink>,
}

impl ReliabilityState {
    pub fn new(config: ReliabilityConfig) -> Self {
        ReliabilityState {
            config,
            send_links: Vec::new(),
            recv_links: Vec::new(),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Drops all link state while keeping the allocated capacity (for
    /// harness reuse across runs).
    pub fn reset(&mut self) {
        self.send_links.clear();
        self.recv_links.clear();
    }

    /// Abandons every unacknowledged in-flight transmission while keeping
    /// the per-link sequence counters and receive windows.  Used on a
    /// crash/rejoin: the crashed module's pending sends died with it, but
    /// the link *history* must survive — resetting `next_seq` would make
    /// peers' anti-replay windows discard the fresh session's payloads as
    /// duplicates.
    pub fn abandon_inflight(&mut self) {
        for link in &mut self.send_links {
            link.inflight.clear();
        }
    }

    /// Registers one outgoing payload on the link to `peer` and returns
    /// the assigned sequence number plus the (jittered) delay before the
    /// first retransmission timer.
    #[inline]
    pub fn register_send(&mut self, peer: usize, msg: &Msg, me: u32) -> (u32, u64) {
        let config = self.config;
        let link = match self.send_links.iter_mut().position(|l| l.peer == peer) {
            Some(i) => &mut self.send_links[i],
            None => {
                self.send_links.push(SendLink {
                    peer,
                    next_seq: 1,
                    inflight: Vec::new(),
                    jitter_prefix: jitter_prefix(me, peer),
                });
                self.send_links.last_mut().expect("just pushed")
            }
        };
        let seq = link.next_seq;
        link.next_seq = link.next_seq.wrapping_add(1);
        let delay = jittered_delay(config.base_rto_us, link.jitter_prefix, seq, 0);
        link.inflight.push(InFlight {
            seq,
            msg: msg.clone(),
            retries: 0,
            rto_us: config.base_rto_us,
        });
        (seq, delay)
    }

    /// Handles a transport ack: removes the in-flight entry if it is
    /// still pending.  Returns whether the ack retired a transmission.
    #[inline]
    pub fn on_delivery_ack(&mut self, peer: usize, seq: u32) -> bool {
        let Some(link) = self.send_links.iter_mut().find(|l| l.peer == peer) else {
            return false;
        };
        match link.inflight.iter().position(|f| f.seq == seq) {
            Some(i) => {
                link.inflight.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Classifies an incoming [`Envelope::Data`] through the link's
    /// anti-replay window.
    #[inline]
    pub fn on_data(&mut self, peer: usize, seq: u32) -> Deliver {
        let link = match self.recv_links.iter_mut().position(|l| l.peer == peer) {
            Some(i) => &mut self.recv_links[i],
            None => {
                self.recv_links.push(RecvLink {
                    peer,
                    highest: 0,
                    mask: 0,
                });
                self.recv_links.last_mut().expect("just pushed")
            }
        };
        if seq > link.highest {
            let shift = seq - link.highest;
            link.mask = if shift >= 128 { 0 } else { link.mask << shift };
            link.mask |= 1;
            link.highest = seq;
            Deliver::Fresh
        } else {
            let diff = link.highest - seq;
            if diff >= 128 {
                // Too far behind the window to tell; with a 10-deep retry
                // budget a live sequence can never lag 128 behind, so
                // anything this old is a replay.
                Deliver::Duplicate
            } else if link.mask & (1u128 << diff) != 0 {
                Deliver::Duplicate
            } else {
                link.mask |= 1u128 << diff;
                Deliver::Fresh
            }
        }
    }

    /// Handles a retransmission timer for `(peer, seq)`.
    #[inline]
    pub fn on_timer(&mut self, peer: usize, seq: u32) -> TimerVerdict {
        let config = self.config;
        let Some(link) = self.send_links.iter_mut().find(|l| l.peer == peer) else {
            return TimerVerdict::Stale;
        };
        let Some(i) = link.inflight.iter().position(|f| f.seq == seq) else {
            return TimerVerdict::Stale;
        };
        if link.inflight[i].retries >= config.retry_limit {
            link.inflight.swap_remove(i);
            return TimerVerdict::Exhausted;
        }
        let entry = &mut link.inflight[i];
        entry.retries += 1;
        entry.rto_us = (entry.rto_us.saturating_mul(2)).min(config.max_rto_us);
        TimerVerdict::Retransmit {
            msg: entry.msg.clone(),
            delay_us: jittered_delay(entry.rto_us, link.jitter_prefix, seq, entry.retries),
        }
    }
}

/// Packs a `(peer, seq)` pair into the one `u64` timer tag the runtimes
/// carry.
#[inline]
pub(crate) fn timer_tag(peer: usize, seq: u32) -> u64 {
    ((peer as u64) << 32) | u64::from(seq)
}

/// Inverse of [`timer_tag`].
#[inline]
pub(crate) fn split_tag(tag: u64) -> (usize, u32) {
    // sb-allow: truncating-cast — intentional low-32 extraction; the tag packs (peer << 32) | seq
    ((tag >> 32) as usize, tag as u32)
}

/// The per-link prefix of the retransmission-jitter hash: FNV-1a over
/// `"rto"`, the sending block and the peer — 19 of the hash's 35 bytes,
/// constant for the link, so they are hashed once when the link opens.
fn jitter_prefix(me: u32, peer: usize) -> u64 {
    let h = fnv1a64(b"rto", 0xcbf2_9ce4_8422_2325);
    let h = fnv1a64(&u64::from(me).to_le_bytes(), h);
    fnv1a64(&(peer as u64).to_le_bytes(), h)
}

/// The (pre-armed) delay before the next retransmission timer: the
/// current RTO plus a deterministic jitter of up to 25 %, hashed from the
/// link's [`jitter_prefix`] (sending block and peer), the sequence number
/// and the attempt — so retransmission bursts decorrelate across links
/// without any RNG state in the harness.
#[inline]
fn jittered_delay(rto_us: u64, jitter_prefix: u64, seq: u32, attempt: u32) -> u64 {
    let h = fnv1a64(&u64::from(seq).to_le_bytes(), jitter_prefix);
    let h = fnv1a64(&u64::from(attempt).to_le_bytes(), h);
    rto_us + splitmix64(h) % (rto_us / 4 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_grid::BlockId;

    fn probe_msg() -> Msg {
        Msg::Select {
            round: 0,
            iteration: 1,
            elected: BlockId(2),
        }
    }

    #[test]
    fn sequence_numbers_are_per_directed_link_and_start_at_one() {
        let mut state = ReliabilityState::new(ReliabilityConfig::on());
        let (s1, _) = state.register_send(3, &probe_msg(), 0);
        let (s2, _) = state.register_send(3, &probe_msg(), 0);
        let (other, _) = state.register_send(4, &probe_msg(), 0);
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(other, 1, "each directed link numbers independently");
    }

    #[test]
    fn acks_retire_inflight_entries_and_timers_go_stale() {
        let mut state = ReliabilityState::new(ReliabilityConfig::on());
        let (seq, _) = state.register_send(3, &probe_msg(), 0);
        assert!(state.on_delivery_ack(3, seq));
        assert!(!state.on_delivery_ack(3, seq), "double ack is a no-op");
        assert!(matches!(state.on_timer(3, seq), TimerVerdict::Stale));
        assert!(
            matches!(state.on_timer(9, 1), TimerVerdict::Stale),
            "a timer for an unknown link is stale, not a panic"
        );
    }

    #[test]
    fn unacked_messages_retransmit_with_exponential_backoff_then_exhaust() {
        let config = ReliabilityConfig {
            retry_limit: 3,
            ..ReliabilityConfig::on()
        };
        let mut state = ReliabilityState::new(config);
        let (seq, first_delay) = state.register_send(2, &probe_msg(), 7);
        assert!(first_delay >= config.base_rto_us);
        assert!(first_delay <= config.base_rto_us + config.base_rto_us / 4);
        let mut delays = Vec::new();
        for _ in 0..config.retry_limit {
            match state.on_timer(2, seq) {
                TimerVerdict::Retransmit { msg, delay_us } => {
                    assert_eq!(msg, probe_msg());
                    delays.push(delay_us);
                }
                other => panic!("expected a retransmission, got {other:?}"),
            }
        }
        // Backoff doubles the base delay each attempt (jitter ≤ 25 %).
        assert!(delays[0] >= 2_000 && delays[0] <= 2_500);
        assert!(delays[1] >= 4_000 && delays[1] <= 5_000);
        assert!(delays[2] >= 8_000 && delays[2] <= 10_000);
        assert!(matches!(state.on_timer(2, seq), TimerVerdict::Exhausted));
        // The entry is gone: a later (duplicate) timer is stale.
        assert!(matches!(state.on_timer(2, seq), TimerVerdict::Stale));
    }

    #[test]
    fn backoff_caps_at_the_configured_maximum() {
        let config = ReliabilityConfig {
            base_rto_us: 1_000,
            max_rto_us: 3_000,
            retry_limit: 10,
            enabled: true,
        };
        let mut state = ReliabilityState::new(config);
        let (seq, _) = state.register_send(1, &probe_msg(), 0);
        let mut last = 0;
        for _ in 0..10 {
            if let TimerVerdict::Retransmit { delay_us, .. } = state.on_timer(1, seq) {
                last = delay_us;
            }
        }
        assert!(last <= 3_000 + 3_000 / 4, "delay stays under max + jitter");
    }

    #[test]
    fn receive_window_suppresses_duplicates_in_any_arrival_order() {
        let mut state = ReliabilityState::new(ReliabilityConfig::on());
        // In-order fresh deliveries.
        assert_eq!(state.on_data(5, 1), Deliver::Fresh);
        assert_eq!(state.on_data(5, 2), Deliver::Fresh);
        // Exact replays.
        assert_eq!(state.on_data(5, 1), Deliver::Duplicate);
        assert_eq!(state.on_data(5, 2), Deliver::Duplicate);
        // Reordering: 5 overtakes 3 and 4; all three are fresh once.
        assert_eq!(state.on_data(5, 5), Deliver::Fresh);
        assert_eq!(state.on_data(5, 3), Deliver::Fresh);
        assert_eq!(state.on_data(5, 4), Deliver::Fresh);
        assert_eq!(state.on_data(5, 5), Deliver::Duplicate);
        assert_eq!(state.on_data(5, 3), Deliver::Duplicate);
        // Windows are per link.
        assert_eq!(state.on_data(6, 1), Deliver::Fresh);
    }

    #[test]
    fn receive_window_treats_ancient_sequences_as_duplicates() {
        let mut state = ReliabilityState::new(ReliabilityConfig::on());
        assert_eq!(state.on_data(1, 1), Deliver::Fresh);
        assert_eq!(state.on_data(1, 300), Deliver::Fresh);
        // 150 behind the highest: outside the 128-bit window.
        assert_eq!(state.on_data(1, 150), Deliver::Duplicate);
        // Just inside the window and never seen: fresh.
        assert_eq!(state.on_data(1, 299), Deliver::Fresh);
    }

    #[test]
    fn timer_tags_round_trip() {
        for (peer, seq) in [(0usize, 1u32), (17, 42), (usize::MAX >> 33, u32::MAX)] {
            assert_eq!(split_tag(timer_tag(peer, seq)), (peer, seq));
        }
    }

    /// The jitter formula as it stood before the per-link prefix: 35
    /// byte-serial FNV-1a steps over `"rto"`, sender, peer, sequence and
    /// attempt, finalised with splitmix64.
    fn reference_jittered_delay(rto_us: u64, me: u32, peer: usize, seq: u32, attempt: u32) -> u64 {
        let mut h = fnv1a64(b"rto", 0xcbf2_9ce4_8422_2325);
        h = fnv1a64(&u64::from(me).to_le_bytes(), h);
        h = fnv1a64(&(peer as u64).to_le_bytes(), h);
        h = fnv1a64(&u64::from(seq).to_le_bytes(), h);
        h = fnv1a64(&u64::from(attempt).to_le_bytes(), h);
        rto_us + splitmix64(h) % (rto_us / 4 + 1)
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        // Equal delays mean equal timer times, so retransmission
        // schedules are unchanged by hashing the link prefix once.
        let config = ReliabilityConfig {
            retry_limit: 3,
            ..ReliabilityConfig::on()
        };
        for me in 0..20u32 {
            let mut state = ReliabilityState::new(config);
            for peer in 0..20usize {
                for seq in 1..30u32 {
                    let (got_seq, first) = state.register_send(peer, &probe_msg(), me);
                    assert_eq!(got_seq, seq);
                    assert_eq!(first, reference_jittered_delay(1_000, me, peer, seq, 0));
                    assert!((1_000..=1_250).contains(&first));
                }
                for seq in 1..30u32 {
                    let mut rto_us = config.base_rto_us;
                    for attempt in 1..4u32 {
                        rto_us *= 2;
                        let TimerVerdict::Retransmit { delay_us, .. } = state.on_timer(peer, seq)
                        else {
                            panic!("expected a retransmission of ({me}, {peer}, {seq})");
                        };
                        let expect = reference_jittered_delay(rto_us, me, peer, seq, attempt);
                        assert_eq!(delay_us, expect, "({me}, {peer}, {seq}, {attempt})");
                    }
                }
            }
        }
    }

    #[test]
    fn reset_clears_links() {
        let mut state = ReliabilityState::new(ReliabilityConfig::on());
        let (seq, _) = state.register_send(2, &probe_msg(), 0);
        assert_eq!(state.on_data(2, 9), Deliver::Fresh);
        state.reset();
        assert!(matches!(state.on_timer(2, seq), TimerVerdict::Stale));
        let (seq2, _) = state.register_send(2, &probe_msg(), 0);
        assert_eq!(seq2, 1, "sequence numbering restarts after reset");
        assert_eq!(state.on_data(2, 9), Deliver::Fresh, "window cleared");
    }
}
