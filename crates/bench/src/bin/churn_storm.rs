//! The churn storm: a sustained population under steady join/leave/fail
//! churn on one event loop (`ChurnPreset::ChurnStorm`).
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin churn_storm -- --viewers 20000 --minutes 5
//! ```

fn main() {
    telecast_bench::scenario_main("churn_storm")
}
