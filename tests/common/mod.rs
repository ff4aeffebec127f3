//! Helpers shared by the integration tests.

use smart_surface::core::ReconfigurationReport;
use smart_surface::grid::{OccupancyGrid, SurfaceConfig};

/// Adjacent block pairs (lateral neighbours, each pair counted once).
pub fn adjacent_pairs(grid: &OccupancyGrid) -> u64 {
    grid.occupied_positions_sorted()
        .iter()
        .flat_map(|p| [p.offset(1, 0), p.offset(0, 1)])
        .filter(|&q| grid.is_occupied(q))
        .count() as u64
}

/// Remark 3's flood cost, exactly: the Root activates its `deg`
/// neighbours and every other block forwards to its other `deg − 1`,
/// so election `k` sends `2·E_k − (N − 1)` Activates, where `E_k` counts
/// the adjacent block pairs when it starts.  Replays the report's move
/// log from `initial` to find each `E_k`.
pub fn expected_activations(initial: &SurfaceConfig, report: &ReconfigurationReport) -> u64 {
    let mut grid = initial.grid().clone();
    let non_roots = report.blocks as u64 - 1;
    let flood = |grid: &OccupancyGrid| 2 * adjacent_pairs(grid) - non_roots;
    let mut total = 0;
    for record in &report.move_log {
        total += flood(&grid);
        record.apply_to(&mut grid).expect("logged moves replay");
    }
    // A stalled run's last election finds no hop.
    if report.stalled {
        total += flood(&grid);
    }
    total
}
