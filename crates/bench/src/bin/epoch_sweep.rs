//! The mega storm at every {2, 10, 30} s epoch × {1, 2, 4, …} thread grid
//! point; the merge volumes are exported, wall clock stays on stdout.
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin epoch_sweep -- --viewers 100000 --minutes 5 --threads 4
//! ```

fn main() {
    telecast_bench::scenario_main("epoch_sweep")
}
