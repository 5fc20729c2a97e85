//! The mega storm: the churn storm on five per-region shards in lock-step
//! epochs; `--threads` never changes the figure (`ChurnPreset::MegaStorm`).
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin mega_storm -- --viewers 100000 --minutes 10 --threads 4
//! ```

fn main() {
    telecast_bench::scenario_main("mega_storm")
}
