//! Counters reproducing the quantities discussed in Remarks 2–4 of the
//! paper:
//!
//! * Remark 2 — computation complexity: number of distance computations,
//!   `O(N³)`.
//! * Remark 3 — communication complexity: number of messages exchanged,
//!   `O(N³)`.
//! * Remark 4 — number of block hops needed to build the path, `O(N²)`.
//!
//! [`Metrics::record_message`] counts every sent message and carries
//! `#[inline]`: a release build splits crates and modules into separate
//! codegen units, and its per-message caller lives in another module.

use crate::messages::MsgKind;
use std::fmt;

/// Declares [`Metrics`] from one table of `field => "display label"`
/// entries: the struct field, [`Metrics::merge`], [`Metrics::counters`]
/// (keyed by field name, as the sweep's BENCH records are) and the
/// `Display` labels all come from the one line per counter.
macro_rules! metrics_table {
    ($($(#[$doc:meta])* $field:ident => $label:literal,)*) => {
        /// Counters accumulated by the shared world during a run.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Metrics {
            $($(#[$doc])* pub $field: u64,)*
        }

        /// `Display` label of every counter, in table order.
        const LABELS: &[&str] = &[$($label),*];

        /// Number of counters in [`Metrics`].
        const COUNTERS: usize = LABELS.len();

        impl Metrics {
            /// Every counter as `(field name, value)`, in table order.
            pub fn counters(&self) -> [(&'static str, u64); COUNTERS] {
                [$((stringify!($field), self.$field)),*]
            }

            /// Merges another metrics record into this one (used when
            /// aggregating across repetitions in the benches).
            pub fn merge(&mut self, other: &Metrics) {
                $(self.$field += other.$field;)*
            }

            /// Every counter, writable, in table order.
            #[cfg(test)]
            fn counters_mut(&mut self) -> [&mut u64; COUNTERS] {
                [$(&mut self.$field),*]
            }
        }
    };
}

metrics_table! {
    /// Number of elections (iterations of Algorithm 1) started.
    elections => "elections",
    /// Number of `Activate` messages sent.
    activate_msgs => "activate",
    /// Number of `Ack` messages sent.
    ack_msgs => "ack",
    /// Number of `Select` messages sent (including forwarding hops).
    select_msgs => "select",
    /// Number of `SelectAck` messages sent (including forwarding hops).
    select_ack_msgs => "select-ack",
    /// Number of distance computations (Eqs. 8–10 evaluations).
    distance_computations => "distance-computations",
    /// Number of elementary block moves executed (a carrying motion that
    /// displaces two blocks counts as two moves, matching the "55 block
    /// moves" accounting of the paper's example).
    elementary_moves => "elementary-moves",
    /// Number of hops performed by elected blocks (one per successful
    /// iteration).
    elected_hops => "elected-hops",
    /// Number of motion-rule questions asked on behalf of blocks: every
    /// Eq. (9) feasibility question and every hop enumeration, however it
    /// was answered.  Questions the Eq. (9) memo served reach neither the
    /// planner nor the oracle, so planner calls = `rule_checks −
    /// eq9_memo_hits`.
    rule_checks => "rule-checks",
    /// Number of Eq. (9) questions served from the asking block's memo
    /// slot: a verdict no hop has evicted since it was stored
    /// (`SurfaceWorld::distance_to_output`).
    eq9_memo_hits => "eq9-memo-hits",
    /// Number of protocol messages that could not be handled by their
    /// recipient (e.g. a `Select` reaching an engaged block with no
    /// recorded best-candidate link, or a replayed `Ack` the idempotency
    /// guards rejected).  Such anomalies are answered so the Root stalls
    /// cleanly instead of hanging; a non-zero count flags a routing bug,
    /// message duplication or reordering worth investigating.
    protocol_drops => "protocol-drops",
    /// Number of payload retransmissions performed by the reliable
    /// delivery layer (zero when reliability is off or the network is
    /// healthy enough that every first transmission is acked in time).
    retransmissions => "retransmissions",
    /// Number of received payload copies the reliability layer's
    /// anti-replay window suppressed (network duplicates and
    /// retransmissions whose original also arrived).
    duplicates_suppressed => "duplicates-suppressed",
    /// Number of transport-level `DeliveryAck`s sent by the reliable
    /// delivery layer.  Not part of [`Metrics::total_messages`], which
    /// counts protocol messages only — this is the measured *overhead*
    /// of reliability.
    delivery_acks => "delivery-acks",
    /// Number of messages abandoned after exhausting the retry budget;
    /// each converts the run into a clean `Stalled` outcome instead of a
    /// silent hang.
    delivery_failures => "delivery-failures",
    /// Number of full Tarjan passes the world's connectivity oracle ran
    /// (one per world state whose occupancy delta could not be absorbed
    /// by an incremental block-cut-tree patch).
    connectivity_rebuilds => "connectivity-rebuilds",
    /// Number of Remark 1 admission probes the world's connectivity
    /// oracle could *not* answer in O(1) from its block-cut-tree state
    /// and routed to the O(N) scratch BFS.  ~0 on the standard families:
    /// the regression signal that a probe shape fell off the fast path.
    connectivity_fallback_probes => "connectivity-fallback-probes",
    /// Number of occupancy epochs the world's connectivity oracle
    /// absorbed incrementally (O(1) light-layer sync or leaf patch)
    /// instead of rebuilding.  Together with `connectivity_rebuilds`
    /// this accounts for every synchronised epoch.
    connectivity_incremental_updates => "connectivity-incremental-updates",
    /// Number of rounds in which a Root started (or restarted) an
    /// election — 1 on an undisturbed rounds-enabled run, higher when a
    /// crash or a round-skip deadline forced re-elections.  Zero with
    /// rounds disabled.
    rounds_started => "rounds-started",
    /// Number of round-skip deadlines that expired on a block whose
    /// election had made no progress, abandoning the stalled round.
    round_skips => "round-skips",
    /// Number of future-round messages evicted from a block's bounded
    /// out-of-order cache (the cache was full; the oldest entry degraded
    /// to a counted drop instead of unbounded memory).
    round_cache_evictions => "round-cache-evictions",
    /// Number of `RoundSync` catch-up messages sent (replies to
    /// stale-round `Activate`s; zero with rounds disabled).
    round_sync_msgs => "round-sync-msgs",
    /// Number of module crashes injected by a fault plan during the run.
    crashes_injected => "crashes-injected",
    /// Number of crashed modules that rejoined (fresh election state,
    /// re-entered the protocol) during the run.
    rejoins => "rejoins",
}

impl Metrics {
    /// Total number of messages of all kinds.
    pub fn total_messages(&self) -> u64 {
        self.activate_msgs
            + self.ack_msgs
            + self.select_msgs
            + self.select_ack_msgs
            + self.round_sync_msgs
    }

    /// Records one sent message of the given kind.
    #[inline]
    pub fn record_message(&mut self, kind: MsgKind) {
        match kind {
            MsgKind::Activate => self.activate_msgs += 1,
            MsgKind::Ack => self.ack_msgs += 1,
            MsgKind::Select => self.select_msgs += 1,
            MsgKind::SelectAck => self.select_ack_msgs += 1,
            MsgKind::RoundSync => self.round_sync_msgs += 1,
        }
    }
}

/// Table entries [`Metrics`]'s `Display` always prints in its header line;
/// every later counter is printed only when nonzero.
const HEADER_COUNTERS: usize = 8;

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "elections={} messages={} (activate={} ack={} select={} select-ack={}) \
             distance-computations={} elementary-moves={} elected-hops={}",
            self.elections,
            self.total_messages(),
            self.activate_msgs,
            self.ack_msgs,
            self.select_msgs,
            self.select_ack_msgs,
            self.distance_computations,
            self.elementary_moves,
            self.elected_hops,
        )?;
        let tail = self
            .counters()
            .into_iter()
            .zip(LABELS)
            .skip(HEADER_COUNTERS);
        for ((_, value), label) in tail {
            if value > 0 {
                write!(f, " {label}={value}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_message_updates_the_right_counter() {
        let mut m = Metrics::default();
        m.record_message(MsgKind::Activate);
        m.record_message(MsgKind::Activate);
        m.record_message(MsgKind::Ack);
        m.record_message(MsgKind::Select);
        m.record_message(MsgKind::SelectAck);
        assert_eq!(m.activate_msgs, 2);
        assert_eq!(m.ack_msgs, 1);
        assert_eq!(m.select_msgs, 1);
        assert_eq!(m.select_ack_msgs, 1);
        assert_eq!(m.total_messages(), 5);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Metrics::default();
        for (i, counter) in a.counters_mut().into_iter().enumerate() {
            *counter = i as u64 + 1;
        }
        let before = a.counters();
        a.merge(&a.clone());
        for ((name, merged), (_, value)) in a.counters().into_iter().zip(before) {
            assert_eq!(merged, 2 * value, "{name} doubled");
        }
    }

    #[test]
    fn display_contains_key_counters() {
        let m = Metrics {
            elections: 5,
            elementary_moves: 55,
            ..Metrics::default()
        };
        let text = m.to_string();
        assert!(text.contains("elections=5"));
        assert!(text.contains("elementary-moves=55"));
        assert!(!text.contains("rejoins="), "zero tail counters stay hidden");
        assert!(!text.contains("rule-checks="));

        let m = Metrics {
            rule_checks: 9,
            rejoins: 2,
            ..m
        };
        let text = m.to_string();
        assert!(text.contains(" rule-checks=9"), "{text}");
        assert!(text.ends_with(" rejoins=2"), "{text}");
    }
}
