//! Rules precompiled to bitmask form.
//!
//! The matrix matcher of [`crate::rule::MotionRule::applies_at`] rebuilds a
//! `Vec<Vec<bool>>` presence window and walks the Motion Matrix entry by
//! entry for every `(rule, anchor)` probe — an O(size²) allocation-heavy
//! inner loop that the election hammers for every perimeter block of every
//! iteration (Eq. 9).  Table II is, however, a pure function of the
//! *initial* occupancy: each event code either requires the cell occupied
//! (codes 1, 4, 5), requires it free (codes 0, 3), or does not care
//! (code 2).  A whole Motion Matrix therefore collapses into two window
//! bitmasks, and the `MM ⊗ MP` validation of Eq. (3) into two word ops
//! against the window lifted straight off the occupancy bitboard:
//!
//! ```text
//! valid(anchor)  ⇔  window & required_occupied == required_occupied
//!                ∧  window & required_free == 0
//! ```
//!
//! Compilation happens once, when a rule enters the
//! [`crate::RuleCatalog`]; the catalogue also interns rule names to dense
//! `u16` ids so the planner can order and deduplicate motions without
//! touching a `String` or allocating per comparison.
//!
//! [`CompiledRule::applies_at`] is the reference matcher: it lifts the
//! rule's own window at an anchor.  The election's hot path no longer
//! calls it.  [`crate::MotionPlanner`] moves these masks once more, into a
//! frame centred on the block a question is about, and answers each
//! question from one frame lift (see [`crate::planner`]); the tests hold
//! that path to a per-rule `applies_at` scan, probe for probe.

use crate::event::EventCode;
use crate::rule::MotionRule;
use sb_grid::{OccupancyGrid, Pos};

/// Interned identifier of a rule inside its catalogue (the rule's index
/// in insertion order).
pub type RuleId = u16;

/// One elementary move of a compiled rule, as world offsets relative to
/// the anchor (east-positive `dx`, north-positive `dy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MoveOffsets {
    /// Source offset.
    pub from: (i32, i32),
    /// Destination offset.
    pub to: (i32, i32),
}

/// A motion rule lowered to bitmask + offset-table form.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// Interned id: index of the rule in its catalogue.
    pub id: RuleId,
    /// Window side length.
    pub size: usize,
    /// Window bits that must be occupied (codes 1, 4, 5 of Table I).
    pub required_occupied: u64,
    /// Window bits that must be free (codes 0, 3 of Table I).
    pub required_free: u64,
    /// World move offsets in the rule's declaration order (the order the
    /// paper's simultaneous moves are listed in, preserved so planned
    /// motions report moves identically to the naive matcher).
    pub moves: Vec<MoveOffsets>,
}

/// Upper bound on elementary moves per rule: an 8×8 window (the mask
/// limit) holds at most 32 disjoint single-cell moves.  Lets hot paths
/// materialise world moves into a stack buffer.
pub const MAX_MOVES_PER_RULE: usize = 32;

impl CompiledRule {
    /// Lowers a validated rule.  `id` is the rule's index in its
    /// catalogue.
    pub fn compile(rule: &MotionRule, id: RuleId) -> Self {
        let size = rule.size();
        assert!(size <= 8, "window masks hold at most 8x8 bits");
        assert!(
            rule.moves().len() <= MAX_MOVES_PER_RULE,
            "a rule window cannot trigger more than {MAX_MOVES_PER_RULE} moves"
        );
        let mut required_occupied = 0u64;
        let mut required_free = 0u64;
        for (coord, event) in rule.matrix().iter() {
            let bit = 1u64 << (coord.row * size + coord.col);
            match event {
                EventCode::RemainsOccupied | EventCode::BecomesEmpty | EventCode::Handover => {
                    required_occupied |= bit;
                }
                EventCode::RemainsEmpty | EventCode::BecomesOccupied => {
                    required_free |= bit;
                }
                EventCode::Any => {}
            }
        }
        let moves: Vec<MoveOffsets> = rule
            .moves()
            .iter()
            .map(|m| MoveOffsets {
                from: rule.offset_of(m.from),
                to: rule.offset_of(m.to),
            })
            .collect();
        CompiledRule {
            id,
            size,
            required_occupied,
            required_free,
            moves,
        }
    }

    /// Whether the rule applies with its window centred at `anchor`:
    /// the two-mask compare against the bitboard window, plus the
    /// on-surface check for every destination (an off-surface cell reads
    /// as *free* in the window, so `required_free` alone cannot reject
    /// a move that would fall off the edge).
    #[inline]
    pub fn applies_at(&self, grid: &OccupancyGrid, anchor: Pos) -> bool {
        let window = grid.window_mask(anchor, self.size);
        if window & self.required_occupied != self.required_occupied
            || window & self.required_free != 0
        {
            return false;
        }
        let bounds = grid.bounds();
        self.moves
            .iter()
            .all(|m| bounds.contains(anchor.offset(m.to.0, m.to.1)))
    }

    /// The world `(from, to)` pair of one elementary move when the rule
    /// is anchored at `anchor` — the one home of the offset-to-world
    /// translation used by every planner path.
    #[inline]
    pub fn world_move(&self, mv: &MoveOffsets, anchor: Pos) -> (Pos, Pos) {
        (
            anchor.offset(mv.from.0, mv.from.1),
            anchor.offset(mv.to.0, mv.to.1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules;
    use sb_grid::{BlockId, Bounds};

    /// Exhaustively compare the mask matcher against the Table II matrix
    /// matcher on every 3×3 occupancy pattern (the window fully determines
    /// applicability once destinations stay on the surface).
    #[test]
    fn masks_agree_with_the_matrix_matcher_on_all_512_windows() {
        for rule in rules::extended_rules() {
            let compiled = CompiledRule::compile(&rule, 0);
            for pattern in 0u32..512 {
                // Materialise the window on a 5x5 grid, anchored centrally
                // so destinations are always on the surface.
                let mut grid = OccupancyGrid::new(Bounds::new(5, 5));
                let anchor = Pos::new(2, 2);
                let mut next = 1u32;
                for row in 0..3i32 {
                    for col in 0..3i32 {
                        if pattern >> (row * 3 + col) & 1 != 0 {
                            // row 0 = north.
                            let p = anchor.offset(col - 1, 1 - row);
                            grid.place(BlockId(next), p).unwrap();
                            next += 1;
                        }
                    }
                }
                assert_eq!(
                    compiled.applies_at(&grid, anchor),
                    rule.applies_at(&grid, anchor),
                    "rule {} pattern {:09b}",
                    rule.name(),
                    pattern
                );
            }
        }
    }

    #[test]
    fn border_destinations_are_rejected() {
        // Block on the eastern border: the window's off-surface cells read
        // as free, so only the destination bounds check can reject.
        let mut grid = OccupancyGrid::new(Bounds::new(2, 2));
        grid.place(BlockId(1), Pos::new(1, 1)).unwrap();
        grid.place(BlockId(2), Pos::new(1, 0)).unwrap();
        grid.place(BlockId(3), Pos::new(0, 0)).unwrap();
        grid.place(BlockId(4), Pos::new(0, 1)).unwrap();
        let rule = rules::east_sliding();
        let compiled = CompiledRule::compile(&rule, 0);
        assert!(!compiled.applies_at(&grid, Pos::new(1, 1)));
    }

    #[test]
    fn compiled_offsets_match_the_rule_declaration() {
        let carry = CompiledRule::compile(&rules::east_carrying(), 3);
        assert_eq!(carry.id, 3);
        assert_eq!(
            carry.moves,
            vec![
                MoveOffsets {
                    from: (0, 0),
                    to: (1, 0)
                },
                MoveOffsets {
                    from: (-1, 0),
                    to: (0, 0)
                },
            ]
        );
    }
}
