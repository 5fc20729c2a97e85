//! The tenant mix: M broadcasts share the regional pools through the
//! capacity broker while the headline tenant bursts.
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin tenant_mix -- --tenants 8 --viewers 40000 --minutes 10 --autoscale --predictive
//! ```

fn main() {
    telecast_bench::scenario_main("tenant_mix")
}
