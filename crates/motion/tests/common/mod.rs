//! Helpers shared by the motion integration tests.

use sb_grid::{OccupancyGrid, Pos};
use sb_motion::RuleCatalog;

/// The world moves of every rule instance of `catalog` that moves the
/// block at `pos`, before the Remark 1 filter: each compiled rule at each
/// anchor where its masks match with that block moving.
pub fn unfiltered_batches(
    catalog: &RuleCatalog,
    grid: &OccupancyGrid,
    pos: Pos,
) -> Vec<Vec<(Pos, Pos)>> {
    let mut out = Vec::new();
    for compiled in catalog.compiled() {
        for mv in &compiled.moves {
            let anchor = pos.offset(-mv.from.0, -mv.from.1);
            if compiled.applies_at(grid, anchor) {
                out.push(
                    compiled
                        .moves
                        .iter()
                        .map(|m| compiled.world_move(m, anchor))
                        .collect(),
                );
            }
        }
    }
    out
}
