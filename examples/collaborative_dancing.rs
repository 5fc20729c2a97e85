//! Collaborative dancing broadcast — the paper's motivating scenario.
//!
//! Two remote dancers (producer sites) perform in a shared virtual
//! space; a large audience tunes in with Zipf-skewed view popularity.
//! The example also drops to the frame level: synthetic TEEVE traces
//! feed every viewer's buffer at the delays the overlay computed, and
//! the renderer picks synchronised frames — demonstrating that the delay
//! layers actually make 4D content renderable. It exits non-zero if any
//! viewer fails to render, or if nobody renders at all.
//!
//! ```sh
//! cargo run --release -p telecast-apps --example collaborative_dancing
//! ```

use std::process::ExitCode;

use telecast::{DataPlane, SessionConfig, TelecastSession};
use telecast_media::{ArrivalModel, ViewChoice, ViewerWorkload};
use telecast_net::BandwidthProfile;
use telecast_sim::{SimDuration, SimRng, SimTime};

fn main() -> ExitCode {
    let config = SessionConfig::default()
        .with_outbound(BandwidthProfile::uniform_mbps(0, 12))
        .with_seed(2026);
    let mut session = TelecastSession::builder(config).viewers(600).build();

    // The audience arrives over ~30 s, most of it wanting the two front
    // views of the dance floor.
    let mut rng = SimRng::seed_from_u64(7);
    let workload = ViewerWorkload::builder(600, session.catalog().len())
        .arrivals(ArrivalModel::Poisson {
            mean_gap: SimDuration::from_millis(50),
        })
        .view_choice(ViewChoice::Zipf { s: 1.1 })
        .build(&mut rng);
    session.run_workload(&workload);

    let m = session.metrics();
    println!("== collaborative dancing, 600 viewers ==");
    println!("acceptance ratio ρ   : {:.3}", m.acceptance_ratio());
    println!(
        "CDN outbound in use  : {:.1} Mbps (peak {:.1})",
        session.cdn().outbound().used().as_mbps_f64(),
        m.peak_cdn_mbps()
    );
    println!(
        "P2P share of streams : {:.1}%",
        (1.0 - session.cdn_stream_fraction()) * 100.0
    );
    let layers = session.layer_snapshot();
    let layer0 = layers.iter().filter(|&&l| l == 0).count();
    println!(
        "viewers at Layer-0   : {:.1}%  (deepest layer {})",
        layer0 as f64 / layers.len().max(1) as f64 * 100.0,
        layers.iter().max().copied().unwrap_or(0)
    );

    // ---- frame-level close-up: pump real frames through every buffer ----
    // Synthetic TEEVE traces flow into each viewer's buffer at the
    // effective delays the overlay computed; then the whole audience
    // attempts a synchronous render at its media playback point.
    let mut plane = DataPlane::new(42);
    let slowest = session
        .viewer_ids()
        .iter()
        .filter_map(|&v| {
            session
                .viewer(v)
                .ok()
                .and_then(|s| s.subs.values().map(|sub| sub.e2e).max())
        })
        .max()
        .expect("audience has subscriptions");
    plane.pump(
        &session,
        SimTime::ZERO + slowest + SimDuration::from_secs(3),
    );
    let report = plane.render_all(
        &session,
        SimTime::ZERO + slowest + SimDuration::from_secs(1),
        SimDuration::from_millis(100),
    );
    println!(
        "frame-level check    : {} viewers rendered a synchronous 4D view, {} failed",
        report.rendered, report.failed
    );
    if report.failed > 0 || report.rendered == 0 {
        eprintln!("error: the frame-level check did not render every viewer");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
