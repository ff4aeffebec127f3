//! The rule catalogue: the set of motion capabilities a block can access.
//!
//! In the real system, "a block can access the list of possible motions
//! that are stored in the XML code" (Section V.E).  The catalogue is that
//! list: loaded from an XML capability file (see `sb-rules-xml`) or
//! generated from the base rules and their symmetry orbit.

use crate::compiled::{CompiledRule, RuleId};
use crate::rule::MotionRule;
use crate::rules;
use crate::transform::Transform;
use std::collections::BTreeSet;
use std::fmt;

/// A collection of motion rules.
///
/// Alongside the source-form rules the catalogue maintains, for each rule
/// in insertion order, a [`CompiledRule`]: the Motion Matrix lowered to
/// `(required_occupied, required_free)` window bitmasks plus world-offset
/// move tables (see [`crate::compiled`]).  The rule's index doubles as its
/// interned [`RuleId`], so hot paths refer to rules by `u16` instead of by
/// name.
#[derive(Clone, Debug, Default)]
pub struct RuleCatalog {
    rules: Vec<MotionRule>,
    compiled: Vec<CompiledRule>,
}

impl RuleCatalog {
    /// An empty catalogue.
    pub fn new() -> Self {
        RuleCatalog {
            rules: Vec::new(),
            compiled: Vec::new(),
        }
    }

    /// Builds a catalogue from the given rules, dropping exact duplicates
    /// (identical matrix and moves) while keeping first names.
    pub fn from_rules(rules: impl IntoIterator<Item = MotionRule>) -> Self {
        let mut catalog = RuleCatalog::new();
        for r in rules {
            catalog.push(r);
        }
        catalog
    }

    /// The standard catalogue used throughout the reproduction: the
    /// extended base set (the paper's east sliding and east carrying plus
    /// the permissive wall-slide and wall-carry families, see
    /// [`rules::extended_rules`]) expanded to its full dihedral orbit
    /// (rotations and mirrors), deduplicated.
    pub fn standard() -> Self {
        Self::orbit_of(&rules::extended_rules())
    }

    /// Only the two rule families printed in the paper (Eqs. 1 and 4) and
    /// their symmetry orbit: used by the ablation bench to show the effect
    /// of the rule-catalogue breadth on solvability.
    pub fn paper_rules_only() -> Self {
        Self::orbit_of(&rules::base_rules())
    }

    /// Only the sliding family (no carrying): used by the ablation bench
    /// to show that corner situations become unsolvable without the
    /// carrying rules.
    pub fn sliding_only() -> Self {
        Self::orbit_of(&[rules::east_sliding(), rules::east_wall_slide()])
    }

    /// Only the carrying family.
    pub fn carrying_only() -> Self {
        Self::orbit_of(&[rules::east_carrying(), rules::east_wall_carry()])
    }

    /// Expands a set of base rules to their full D4 orbit.
    pub fn orbit_of(base: &[MotionRule]) -> Self {
        let mut catalog = RuleCatalog::new();
        for rule in base {
            for t in Transform::ALL {
                catalog.push(t.apply_rule(rule));
            }
        }
        catalog
    }

    /// Adds a rule unless an identical one (same matrix and moves) is
    /// already present.  Returns whether the rule was inserted.
    pub fn push(&mut self, rule: MotionRule) -> bool {
        let duplicate = self
            .rules
            .iter()
            .any(|r| r.matrix() == rule.matrix() && r.moves() == rule.moves());
        if duplicate {
            false
        } else {
            let id = RuleId::try_from(self.rules.len()).expect("at most 65536 rules");
            self.compiled.push(CompiledRule::compile(&rule, id));
            self.rules.push(rule);
            true
        }
    }

    /// The rules in insertion order.
    pub fn rules(&self) -> &[MotionRule] {
        &self.rules
    }

    /// The precompiled (bitmask) form of every rule, index-aligned with
    /// [`RuleCatalog::rules`].
    pub fn compiled(&self) -> &[CompiledRule] {
        &self.compiled
    }

    /// The rule behind an interned id.
    pub fn rule(&self, id: RuleId) -> &MotionRule {
        &self.rules[id as usize]
    }

    /// The name behind an interned id.
    pub fn name_of(&self, id: RuleId) -> &str {
        self.rules[id as usize].name()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Finds a rule by name.
    pub fn find(&self, name: &str) -> Option<&MotionRule> {
        self.rules.iter().find(|r| r.name() == name)
    }

    /// The distinct rule names.
    pub fn names(&self) -> Vec<&str> {
        self.rules.iter().map(|r| r.name()).collect()
    }
}

impl fmt::Display for RuleCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "catalogue of {} rules:", self.len())?;
        for r in &self.rules {
            writeln!(f, "  - {}", r.name())?;
        }
        Ok(())
    }
}

impl IntoIterator for RuleCatalog {
    type Item = MotionRule;
    type IntoIter = std::vec::IntoIter<MotionRule>;
    fn into_iter(self) -> Self::IntoIter {
        self.rules.into_iter()
    }
}

impl<'a> IntoIterator for &'a RuleCatalog {
    type Item = &'a MotionRule;
    type IntoIter = std::slice::Iter<'a, MotionRule>;
    fn into_iter(self) -> Self::IntoIter {
        self.rules.iter()
    }
}

impl FromIterator<MotionRule> for RuleCatalog {
    fn from_iter<T: IntoIterator<Item = MotionRule>>(iter: T) -> Self {
        RuleCatalog::from_rules(iter)
    }
}

/// Sanity statistics about a catalogue, used by documentation examples and
/// the rule-gallery example binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CatalogStats {
    /// Total number of rules.
    pub rules: usize,
    /// Rules moving a single block.
    pub single_move: usize,
    /// Rules moving two or more blocks simultaneously.
    pub multi_move: usize,
}

impl RuleCatalog {
    /// Summary statistics.
    pub fn stats(&self) -> CatalogStats {
        let single = self.rules.iter().filter(|r| r.moves().len() == 1).count();
        CatalogStats {
            rules: self.len(),
            single_move: single,
            multi_move: self.len() - single,
        }
    }

    /// The set of distinct window sizes used by the rules.
    pub fn window_sizes(&self) -> Vec<usize> {
        let sizes: BTreeSet<usize> = self.rules.iter().map(|r| r.size()).collect();
        sizes.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_has_full_orbits() {
        let catalog = RuleCatalog::standard();
        // Each of the four base families has a trivial stabiliser, so each
        // orbit has 8 distinct elements.
        assert_eq!(catalog.len(), 32);
        let stats = catalog.stats();
        assert_eq!(stats.single_move, 16);
        assert_eq!(stats.multi_move, 16);
        assert_eq!(catalog.window_sizes(), vec![3]);
        // The paper-only subset has two orbits.
        assert_eq!(RuleCatalog::paper_rules_only().len(), 16);
    }

    #[test]
    fn orbit_members_are_distinct() {
        let catalog = RuleCatalog::standard();
        let mut matrices: Vec<Vec<u8>> = catalog
            .rules()
            .iter()
            .map(|r| {
                let mut key = r.matrix().codes();
                key.extend(r.moves().iter().flat_map(|m| {
                    vec![
                        m.from.col as u8,
                        m.from.row as u8,
                        m.to.col as u8,
                        m.to.row as u8,
                    ]
                }));
                key
            })
            .collect();
        let before = matrices.len();
        matrices.sort();
        matrices.dedup();
        assert_eq!(matrices.len(), before);
    }

    #[test]
    fn find_by_name() {
        let catalog = RuleCatalog::standard();
        assert!(catalog.find("east1").is_some());
        assert!(catalog.find("carry_east1").is_some());
        assert!(catalog.find("east1_r90").is_some());
        assert!(catalog.find("does_not_exist").is_none());
    }

    #[test]
    fn push_rejects_duplicates() {
        let mut catalog = RuleCatalog::new();
        assert!(catalog.push(crate::rules::east_sliding()));
        assert!(!catalog.push(crate::rules::east_sliding().with_name("other_name")));
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn sliding_only_and_carrying_only_partitions() {
        assert_eq!(RuleCatalog::sliding_only().len(), 16);
        assert_eq!(RuleCatalog::carrying_only().len(), 16);
        assert!(RuleCatalog::sliding_only()
            .rules()
            .iter()
            .all(|r| r.moves().len() == 1));
        assert!(RuleCatalog::carrying_only()
            .rules()
            .iter()
            .all(|r| r.moves().len() == 2));
    }

    #[test]
    fn every_catalogue_rule_is_a_net_single_relocation() {
        // The connectivity oracle answers a batch in O(1) only when its
        // net effect vacates and fills at most one cell each; anything
        // wider goes to the BFS.  Carrying rules stay within that shape
        // because their moves chain head-to-tail (Eqs. 4-5), so a new
        // multi-block rule of another shape must fail here rather than
        // quietly slow every probe down.
        let catalogs = [
            ("standard", RuleCatalog::standard()),
            ("paper_rules_only", RuleCatalog::paper_rules_only()),
            ("sliding_only", RuleCatalog::sliding_only()),
            ("carrying_only", RuleCatalog::carrying_only()),
        ];
        for (name, catalog) in catalogs {
            for rule in catalog.rules() {
                let moves = rule.moves();
                let vacated = moves
                    .iter()
                    .filter(|m| moves.iter().all(|n| n.to != m.from))
                    .count();
                let filled = moves
                    .iter()
                    .filter(|m| moves.iter().all(|n| n.from != m.to))
                    .count();
                assert!(
                    vacated <= 1 && filled <= 1,
                    "{name}: rule {} vacates {vacated} and fills {filled} cells net",
                    rule.name()
                );
            }
        }
    }

    #[test]
    fn from_iterator_collects() {
        let catalog: RuleCatalog = crate::rules::base_rules().into_iter().collect();
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.names(), vec!["east1", "carry_east1"]);
    }
}
