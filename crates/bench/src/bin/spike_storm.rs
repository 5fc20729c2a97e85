//! The spike storm: replayed-highlight bursts on a diurnal baseline, served
//! by per-region pools (`ChurnPreset::SpikeStorm`).
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin spike_storm -- --viewers 10000 --minutes 15 --autoscale --predictive
//! ```

fn main() {
    telecast_bench::scenario_main("spike_storm")
}
