//! Messages exchanged between blocks during the distributed election.
//!
//! The message formats follow Section V.C of the paper:
//!
//! ```text
//! Activate [Father, Son, O, ShortestDistance, IDshortest]
//! Ack      [Son, Father, ShortestDistance, IDshortest]
//! ```
//!
//! plus the `Select` message the Root routes to the elected block and the
//! acknowledgment that closes the election.  Every message additionally
//! carries the iteration number `IT` (the paper stores it in the block
//! memory, Fig. 8) so that late messages from a previous iteration can be
//! recognised.
//!
//! [`Msg::round`] and [`Msg::kind`] are read on every message and carry
//! `#[inline]`: a release build splits crates and modules into separate
//! codegen units, and their per-message callers live in other modules.

use sb_grid::{BlockId, Pos};
use std::cmp::Ordering;
use std::fmt;

/// A distance to the output in the extended lattice `{0, 1, …} ∪ {+∞}`
/// used by Eqs. (8)–(10).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Distance(pub u32);

impl Distance {
    /// The infinite distance (`+∞`) assigned to blocks that must not or
    /// cannot move (Eqs. 8–9).
    pub const INFINITE: Distance = Distance(u32::MAX);

    /// A finite distance.
    pub const fn finite(d: u32) -> Distance {
        Distance(d)
    }

    /// Whether the distance is `+∞`.
    pub const fn is_infinite(self) -> bool {
        self.0 == u32::MAX
    }

    /// The finite value, if any.
    pub const fn value(self) -> Option<u32> {
        if self.is_infinite() {
            None
        } else {
            Some(self.0)
        }
    }
}

impl PartialOrd for Distance {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Distance {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl fmt::Display for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "inf")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// The best candidate seen so far by a block during an election: the
/// shortest recorded distance to `O` and the identifier of the block that
/// achieves it, plus (an implementation addition) the neighbour through
/// which that candidate was reported, so the `Select` message can be
/// routed back down the father/son tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Candidate {
    /// Shortest recorded distance to the output.
    pub distance: Distance,
    /// Identifier of the block achieving it (`IDshortest`).
    pub id: BlockId,
}

impl Candidate {
    /// A candidate with infinite distance (worse than everything).
    pub fn none(id: BlockId) -> Candidate {
        Candidate {
            distance: Distance::INFINITE,
            id,
        }
    }

    /// Whether this candidate beats `other` under the given tie-breaking
    /// policy (strictly better distance, or equal distance resolved by the
    /// policy; the caller handles the random policy itself).
    pub fn strictly_better_than(&self, other: &Candidate) -> bool {
        self.distance < other.distance
    }
}

/// Messages exchanged by block codes.
///
/// Every message carries, next to the paper's iteration number `IT`, a
/// **round** number: the re-election attempt the sender was in when it
/// emitted the message.  Rounds order re-elections of the *same*
/// iteration after a crash or a round-skip deadline (see
/// [`crate::election`] for the round state machine); with rounds
/// disabled the field is constant zero and the wire behaviour is
/// bit-for-bit the historical one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Activation message of the diffusing computation (Root → leaves).
    Activate {
        /// Re-election round the sender is in (0 with rounds disabled).
        round: u32,
        /// Election (iteration) number `IT`.
        iteration: u32,
        /// Identifier of the sender (the prospective father).
        father: BlockId,
        /// Location of the output `O`.
        output: Pos,
        /// Current shortest recorded distance from a block to `O`.
        shortest_distance: Distance,
        /// Identifier of the block with the shortest recorded distance.
        id_shortest: BlockId,
    },
    /// Acknowledgment folding the minimum back towards the Root
    /// (leaves → Root).
    Ack {
        /// Re-election round the sender is in (0 with rounds disabled).
        round: u32,
        /// Election (iteration) number.
        iteration: u32,
        /// Identifier of the sender (the son).
        son: BlockId,
        /// Current shortest recorded distance from a block to `O`.
        shortest_distance: Distance,
        /// Identifier of the block with the shortest recorded distance.
        id_shortest: BlockId,
        /// Number of candidates in the sender's subtree achieving
        /// `shortest_distance` (an implementation addition to the paper's
        /// `Ack [Son, Father, ShortestDistance, IDshortest]` format):
        /// `id_shortest` is one uniformly chosen representative of `ties`
        /// tying candidates, and carrying the count lets every upstream
        /// aggregation point run a *weighted* reservoir, so
        /// [`crate::election::TieBreak::Random`] is exactly uniform over
        /// all global candidates rather than over subtrees.  Zero on a
        /// decline (no candidate).
        ties: u32,
    },
    /// Selection message routed from the Root down the father/son tree to
    /// the elected block.
    Select {
        /// Re-election round the sender is in (0 with rounds disabled).
        round: u32,
        /// Election (iteration) number.
        iteration: u32,
        /// The elected block.
        elected: BlockId,
    },
    /// Acknowledgment of the selection, routed from the elected block back
    /// up the father chain to the Root.  Carries the outcome of the hop so
    /// the Root can decide whether Algorithm 1 terminates.
    SelectAck {
        /// Re-election round the sender is in (0 with rounds disabled).
        round: u32,
        /// Election (iteration) number.
        iteration: u32,
        /// The elected block.
        elected: BlockId,
        /// Whether the elected block's hop landed on the output `O`.
        reached_output: bool,
        /// Whether a hop could actually be performed (defensive: the
        /// election guarantees feasibility, but the flag lets the Root
        /// detect a stall instead of looping forever).
        moved: bool,
    },
    /// Round-catchup notification (only sent with rounds enabled): the
    /// reply to a *stale*-round `Activate`, telling its sender which round
    /// the replying block has already reached so a rejoined (or otherwise
    /// lagging) Root can jump forward instead of flooding rounds nobody
    /// listens to any more.  Carries no iteration: the receiver re-enters
    /// its own current iteration when it adopts the round.
    RoundSync {
        /// The replying block's current round.
        round: u32,
    },
}

impl Msg {
    /// The iteration this message belongs to.  `RoundSync` carries none
    /// and reports 0; its receiver only ever looks at the round.
    pub fn iteration(&self) -> u32 {
        match self {
            Msg::Activate { iteration, .. }
            | Msg::Ack { iteration, .. }
            | Msg::Select { iteration, .. }
            | Msg::SelectAck { iteration, .. } => *iteration,
            Msg::RoundSync { .. } => 0,
        }
    }

    /// The re-election round this message belongs to (0 with rounds
    /// disabled).
    #[inline]
    pub fn round(&self) -> u32 {
        match self {
            Msg::Activate { round, .. }
            | Msg::Ack { round, .. }
            | Msg::Select { round, .. }
            | Msg::SelectAck { round, .. }
            | Msg::RoundSync { round } => *round,
        }
    }

    /// Short kind name used by the metrics.
    #[inline]
    pub fn kind(&self) -> MsgKind {
        match self {
            Msg::Activate { .. } => MsgKind::Activate,
            Msg::Ack { .. } => MsgKind::Ack,
            Msg::Select { .. } => MsgKind::Select,
            Msg::SelectAck { .. } => MsgKind::SelectAck,
            Msg::RoundSync { .. } => MsgKind::RoundSync,
        }
    }
}

/// The message kinds (used as metric keys).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgKind {
    /// `Activate` messages.
    Activate,
    /// `Ack` messages.
    Ack,
    /// `Select` messages.
    Select,
    /// `SelectAck` messages.
    SelectAck,
    /// `RoundSync` messages (rounds enabled only).
    RoundSync,
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MsgKind::Activate => "activate",
            MsgKind::Ack => "ack",
            MsgKind::Select => "select",
            MsgKind::SelectAck => "select-ack",
            MsgKind::RoundSync => "round-sync",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_distance_ordering() {
        assert!(Distance::finite(5) < Distance::INFINITE);
        assert!(Distance::finite(3) < Distance::finite(4));
        assert_eq!(Distance::INFINITE, Distance::INFINITE);
        assert!(Distance::INFINITE.is_infinite());
        assert!(!Distance::finite(0).is_infinite());
        assert_eq!(Distance::finite(7).value(), Some(7));
        assert_eq!(Distance::INFINITE.value(), None);
    }

    #[test]
    fn distance_display() {
        assert_eq!(Distance::finite(11).to_string(), "11");
        assert_eq!(Distance::INFINITE.to_string(), "inf");
    }

    #[test]
    fn candidate_comparison_is_strict_on_distance() {
        let a = Candidate {
            distance: Distance::finite(2),
            id: BlockId(9),
        };
        let b = Candidate {
            distance: Distance::finite(3),
            id: BlockId(1),
        };
        assert!(a.strictly_better_than(&b));
        assert!(!b.strictly_better_than(&a));
        // Ties are NOT strictly better, whatever the ids.
        let c = Candidate {
            distance: Distance::finite(2),
            id: BlockId(1),
        };
        assert!(!a.strictly_better_than(&c));
        assert!(!c.strictly_better_than(&a));
        assert!(!Candidate::none(BlockId(1)).strictly_better_than(&a));
    }

    #[test]
    fn message_iteration_round_and_kind() {
        let m = Msg::Activate {
            round: 0,
            iteration: 4,
            father: BlockId(1),
            output: Pos::new(0, 5),
            shortest_distance: Distance::finite(7),
            id_shortest: BlockId(1),
        };
        assert_eq!(m.iteration(), 4);
        assert_eq!(m.round(), 0);
        assert_eq!(m.kind(), MsgKind::Activate);
        let m = Msg::SelectAck {
            round: 3,
            iteration: 2,
            elected: BlockId(3),
            reached_output: false,
            moved: true,
        };
        assert_eq!(m.iteration(), 2);
        assert_eq!(m.round(), 3);
        assert_eq!(m.kind(), MsgKind::SelectAck);
        assert_eq!(MsgKind::SelectAck.to_string(), "select-ack");
    }
}
