//! Run the distributed election on the threaded actor runtime (one OS
//! thread per block, real asynchrony) and check the outcome agrees with
//! the deterministic discrete-event run: the example exits non-zero
//! unless both runtimes complete with a complete path.
//!
//! ```text
//! cargo run --release --example actor_runtime
//! ```

use smart_surface::core::workloads::rectangle_instance;
use smart_surface::core::ReconfigurationDriver;
use std::time::Duration;

fn main() {
    let config = rectangle_instance(5, 2, 8);
    println!(
        "Instance: {} blocks, path of {} cells\n{}",
        config.block_count(),
        config.graph().shortest_path_info().cells,
        config.to_ascii()
    );

    let driver = ReconfigurationDriver::new(config);

    println!("== discrete-event runtime ==");
    let des = driver.run_des();
    println!("{des}\n");

    println!("== threaded actor runtime ({} threads) ==", des.blocks);
    let actors = driver.run_actors(Duration::from_secs(60));
    println!("{actors}\n");

    println!("final state (DES):\n{}", des.final_ascii);
    println!("final state (actors):\n{}", actors.final_ascii);
    let completed = des.completed && actors.completed;
    let paths_complete = des.path_complete && actors.path_complete;
    println!("both runtimes completed: {completed}, both paths complete: {paths_complete}");
    assert!(
        completed && paths_complete,
        "the DES and actor runtimes must both complete with complete paths"
    );
}
