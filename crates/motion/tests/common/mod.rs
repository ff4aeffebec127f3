//! Helpers shared by the motion integration tests.

use sb_grid::{OccupancyGrid, Pos};
use sb_motion::{PlannedMotion, RuleCatalog};

/// The per-rule reference scan: every rule instance of `catalog` that
/// moves the block at `pos`, before the Remark 1 filter, in catalogue
/// order.  Each compiled rule, for each of its moves, is anchored so that
/// the move starts at `pos` and kept when
/// [`sb_motion::CompiledRule::applies_at`] accepts that anchor.
pub fn rule_instances(catalog: &RuleCatalog, grid: &OccupancyGrid, pos: Pos) -> Vec<PlannedMotion> {
    let mut out = Vec::new();
    for compiled in catalog.compiled() {
        for (idx, mv) in compiled.moves.iter().enumerate() {
            let anchor = pos.offset(-mv.from.0, -mv.from.1);
            if compiled.applies_at(grid, anchor) {
                let moves: Vec<(Pos, Pos)> = compiled
                    .moves
                    .iter()
                    .map(|m| compiled.world_move(m, anchor))
                    .collect();
                let (subject_from, subject_to) = moves[idx];
                out.push(PlannedMotion {
                    rule_id: compiled.id,
                    anchor,
                    moves,
                    subject_from,
                    subject_to,
                });
            }
        }
    }
    out
}

/// The world moves of every rule instance of `catalog` that moves the
/// block at `pos`, before the Remark 1 filter (see [`rule_instances`]).
pub fn unfiltered_batches(
    catalog: &RuleCatalog,
    grid: &OccupancyGrid,
    pos: Pos,
) -> Vec<Vec<(Pos, Pos)>> {
    rule_instances(catalog, grid, pos)
        .into_iter()
        .map(|m| m.moves)
        .collect()
}
