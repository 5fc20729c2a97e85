//! The 10k-viewer flash-crowd scale scenario.
//!
//! The whole audience requests the session at the same instant — a
//! broadcast kickoff — on the O(n) coordinate delay substrate, which is
//! the regime the dense matrix cannot reach (its tables would need
//! ≈ 3.2 GB at this population). The run reports simulator *throughput*
//! (joins processed per wall-clock second) alongside the protocol-cost
//! metrics the paper plots, and exports them through the standard
//! figure/JSON path as `results/flash_crowd.json`.
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin flash_crowd              # 10,000 viewers
//! cargo run --release -p telecast-bench --bin flash_crowd -- 2000      # custom size
//! cargo run --release -p telecast-bench --bin flash_crowd -- \
//!     --viewers 2000 --backend dense --seed 7                          # full flags
//! ```
//!
//! All simulation metrics are deterministic for a fixed seed and viewer
//! count; only the wall-clock throughput line varies between machines.

use std::time::Instant;

use telecast::{DelayModelChoice, SessionConfig, TelecastSession};
use telecast_bench::{FigureData, ScenarioArgs, Series};
use telecast_cdn::CdnConfig;
use telecast_media::{ArrivalModel, ViewChoice, ViewerWorkload};
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_sim::SimRng;

fn main() {
    let args = ScenarioArgs::from_env(&["--viewers", "--backend", "--seed", "--pool-mbps"]);
    let viewers = args.viewers.unwrap_or(10_000);
    let backend = args.backend.unwrap_or(DelayModelChoice::Coordinate);

    // Paper defaults, with the CDN pool scaled so admission reflects
    // overlay supply rather than an arbitrarily small pool: the flash
    // front is served from the CDN until the first trees grow slots.
    let pool = Bandwidth::from_mbps(args.pool_mbps.unwrap_or(48_000));
    let config = SessionConfig::default()
        .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
        .with_cdn(CdnConfig::default().with_outbound(pool))
        .with_delay_model(backend)
        .with_seed(args.seed.unwrap_or(1_000 + viewers as u64));

    println!("== flash crowd: {viewers} simultaneous joins ==");
    let build_start = Instant::now();
    let mut session = TelecastSession::builder(config).viewers(viewers).build();
    println!(
        "  session built in {:.2}s ({} delay backend, {} nodes)",
        build_start.elapsed().as_secs_f64(),
        session.delay_backend().kind(),
        session.registry().len(),
    );

    let mut rng = SimRng::seed_from_u64(0xF1A5_4C20);
    let workload = ViewerWorkload::builder(viewers, session.catalog().len())
        .arrivals(ArrivalModel::Flash)
        .view_choice(ViewChoice::Zipf { s: 0.8 })
        .build(&mut rng);

    let run_start = Instant::now();
    session.run_workload(&workload);
    let wall = run_start.elapsed().as_secs_f64();

    let m = session.metrics();
    let admitted = m.admitted_viewers.value();
    let joins_per_sec = viewers as f64 / wall.max(1e-9);
    println!("  wall clock         : {wall:.2}s ({joins_per_sec:.0} joins/sec)");
    println!("  acceptance ratio ρ : {:.3}", m.acceptance_ratio());
    println!("  admitted viewers   : {admitted}");
    println!("  subscription msgs  : {}", m.subscription_messages.value());
    println!("  displacements      : {}", m.displacements.value());
    println!("  peak CDN usage     : {:.1} Mbps", m.peak_cdn_mbps());
    println!(
        "  join delay p50/p99 : {:.0}/{:.0} ms",
        m.join_delays_ms.percentile(50.0).unwrap_or(0.0),
        m.join_delays_ms.percentile(99.0).unwrap_or(0.0),
    );

    let x = viewers as f64;
    let figure = FigureData {
        id: "flash_crowd".into(),
        title: format!("Flash crowd, {viewers} simultaneous joins (coordinate delay model)"),
        x_label: "viewers".into(),
        y_label: "per-metric value".into(),
        series: vec![
            Series::new("acceptance_ratio", vec![(x, m.acceptance_ratio())]),
            Series::new("admitted_viewers", vec![(x, admitted as f64)]),
            Series::new(
                "subscription_messages",
                vec![(x, m.subscription_messages.value() as f64)],
            ),
            Series::new("displacements", vec![(x, m.displacements.value() as f64)]),
            Series::new("peak_cdn_mbps", vec![(x, m.peak_cdn_mbps())]),
            Series::new(
                "join_delay_p99_ms",
                vec![(x, m.join_delays_ms.percentile(99.0).unwrap_or(0.0))],
            ),
        ],
    };
    telecast_bench::emit_with_wall(&figure, wall);
}
