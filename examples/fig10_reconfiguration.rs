//! Reproduction of the worked example of the paper (Figs. 10–11): twelve
//! blocks reconfigure into a column of blocks between the input `I` and
//! the output `O` (shortest path of eleven cells), and the number of
//! elementary block moves is reported (the paper quotes 55 moves with its
//! rule families).
//!
//! ```text
//! cargo run --release --example fig10_reconfiguration
//! ```

use smart_surface::core::analysis;
use smart_surface::core::workloads::fig10_instance;
use smart_surface::core::ReconfigurationDriver;

fn main() {
    let config = fig10_instance();
    println!(
        "Fig. 10 instance: {} blocks, I={}, O={}, shortest path {} cells",
        config.block_count(),
        config.input(),
        config.output(),
        config.graph().shortest_path_info().cells,
    );
    println!("\nInitial state:\n{}", config.to_ascii());

    let report = ReconfigurationDriver::new(config.clone()).run_des();

    println!(
        "Reconfiguration {}",
        if report.completed {
            "completed"
        } else {
            "DID NOT complete"
        }
    );
    println!("  elections (iterations) : {}", report.elections());
    println!(
        "  elementary block moves : {} (paper reports 55 with its rule set)",
        report.elementary_moves()
    );
    println!("  messages exchanged     : {}", report.total_messages());
    println!(
        "  distance computations  : {}",
        report.metrics.distance_computations
    );
    println!("  path complete          : {}", report.path_complete);

    // Show the beginning, middle and end of the reconfiguration, like the
    // sequence of snapshots in Figs. 10 and 11.
    let frames = analysis::frames(&config, &report.move_log);
    if !frames.is_empty() {
        let picks = [
            ("after the first move", 0),
            ("mid-reconfiguration", frames.len() / 2),
            ("final state", frames.len() - 1),
        ];
        for (label, idx) in picks {
            println!("\n-- {label} (move {}) --\n{}", idx + 1, frames[idx]);
        }
    }

    println!("Run summary:");
    let summary = analysis::RunSummary::from_report(&report);
    println!("{summary}");
}
