//! The 10k-viewer flash crowd: the whole audience joins at one instant on
//! the coordinate delay backend (`flash_crowd [N]` or `--viewers N`).
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin flash_crowd -- --viewers 2000 --backend dense
//! ```

fn main() {
    telecast_bench::scenario_main("flash_crowd")
}
