//! The view storm: a Zipf multi-view audience hit by correlated re-focus
//! storms, with the per-view prune pass folding the abandoned trees.
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin view_storm -- --viewers 20000 --views 8 --zipf-view 1.1 --refocus-pct 40
//! ```

fn main() {
    telecast_bench::scenario_main("view_storm")
}
