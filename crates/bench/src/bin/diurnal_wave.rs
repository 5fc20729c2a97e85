//! The diurnal wave: a flash kickoff into compressed days of churn on a
//! tight pool, which `--autoscale` lets follow the wave
//! (`ChurnPreset::DiurnalWave`).
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin diurnal_wave -- --viewers 20000 --minutes 10 --autoscale
//! ```

fn main() {
    telecast_bench::scenario_main("diurnal_wave")
}
