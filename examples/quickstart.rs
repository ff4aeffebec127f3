//! Quickstart: build a small Smart Blocks instance, run the distributed
//! election-based reconfiguration, and display the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use smart_surface::core::{ReconfigurationDriver, Termination, TieBreak};
use smart_surface::grid::SurfaceConfig;

fn main() {
    // The surface is described in ASCII, rows from top (north) to bottom:
    // `O` output, `I` input occupied by the Root, `#` block, `.` empty.
    let config = SurfaceConfig::from_ascii(
        ". O . . . .\n\
         . . . . . .\n\
         . . # . . .\n\
         . # # . . .\n\
         . # # . . .\n\
         . I # . . .",
    )
    .expect("valid ASCII surface");

    println!("Initial configuration ({} blocks):", config.block_count());
    println!("{}", config.to_ascii());
    println!(
        "Input I = {}, output O = {}, shortest path = {} cells",
        config.input(),
        config.output(),
        config.graph().shortest_path_info().cells
    );

    let algorithm = smart_surface::core::election::AlgorithmConfig {
        tie_break: TieBreak::LowestId, // deterministic demo
        termination: Termination::PathComplete,
        ..Default::default()
    };

    let report = ReconfigurationDriver::new(config)
        .with_algorithm(algorithm)
        .run_des();

    println!("== outcome ==");
    println!("{report}");
    println!();
    println!("Final configuration:");
    println!("{}", report.final_ascii);

    println!("Move log ({} elected hops):", report.move_log.len());
    for record in report.move_log.iter().take(10) {
        let (id, from, to) = record.moves[0];
        println!(
            "  iteration {:>3}: rule {:<16} block {} {} -> {} ({} block(s) moved)",
            record.iteration,
            report.rule_name(record),
            id,
            from,
            to,
            record.moves.len()
        );
    }
    if report.move_log.len() > 10 {
        println!("  ... {} more", report.move_log.len() - 10);
    }
}
