//! `view_storm`: one single-loop [`TelecastSession`] driven by a scripted
//! [`ViewerWorkload`]. A Zipf-1.1 audience over eight views arrives in
//! the first simulated minute, each viewer makes one baseline view change
//! on average, and three 40% re-focus storms hit with the prune floor
//! armed. It exercises the multi-view path (view change, background join,
//! victim reposition, prune fold) and nothing sharded or multi-tenant.
//!
//! The benchmark replays the script itself, exactly as
//! [`TelecastSession::run_workload`] does, and additionally steps
//! `run_until` at the phase boundaries (end of arrivals, start and settle
//! of each storm, horizon). A single loop fires the same events in the
//! same order whatever deadlines it is stepped to, so the phase split
//! leaves the simulation unchanged.

use std::collections::BTreeMap;
use std::time::Instant;

use telecast::{DelayModelChoice, SessionConfig, TelecastSession};
use telecast_cdn::CdnConfig;
use telecast_media::{
    ArrivalModel, ProducerSite, RefocusEvent, SiteId, ViewCatalog, ViewId, ViewPopularity,
    ViewerWorkload, WorkloadEvent,
};
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_sim::{SimDuration, SimRng, SimTime};

use super::{finish, join_delays, overlay_layers, per, protocol_layers, step_integral_hours};
use super::{Model, Outcome, Results, RunEnd, Scale, SetupEnd, Start};
use crate::digest::Digest;
use crate::trace::Tracer;

/// Size and shape of the storm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Audience; everyone arrives during the first simulated minute.
    pub viewers: usize,
    /// Simulated horizon in minutes.
    pub minutes: u64,
    /// Views per producer site.
    pub views: usize,
    /// Zipf exponent of view popularity.
    pub zipf_view: f64,
    /// Share of the audience each re-focus storm pulls onto one view.
    pub refocus_fraction: f64,
    /// Member floor below which the prune pass folds a view's trees.
    pub prune_floor: usize,
}

impl Params {
    /// The benchmark's size, or the test size.
    pub fn new(scale: Scale) -> Params {
        let (viewers, minutes, prune_floor) = match scale {
            Scale::Full => (2_000, 5, 16),
            Scale::Small => (400, 4, 8),
        };
        Params {
            viewers,
            minutes,
            views: 8,
            zipf_view: 1.1,
            refocus_fraction: 0.4,
            prune_floor,
        }
    }

    fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.minutes * 60)
    }

    fn storm_starts(&self) -> [SimTime; 3] {
        STORM_AT_PCT.map(|pct| SimTime::from_secs(self.minutes * 60 * pct / 100))
    }
}

/// Where in the horizon the three storms start, in percent.
const STORM_AT_PCT: [u64; 3] = [40, 60, 80];
/// How long each storm keeps pulling viewers over.
const STORM_WINDOW: SimDuration = SimDuration::from_secs(5);
/// How long after its window a storm's background joins and victim
/// repositions are still counted to the storm phase.
const STORM_SETTLE: SimDuration = SimDuration::from_secs(20);
/// The arrival phase: every viewer joins within the first minute.
const ARRIVAL_END: SimTime = SimTime::from_secs(60);

/// The protocol phases `run_s` splits into, in `run_s` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Arrival,
    Steady,
    Storm,
    Drain,
}

impl Phase {
    const ALL: [Phase; 4] = [Phase::Arrival, Phase::Steady, Phase::Storm, Phase::Drain];

    fn span(self) -> &'static str {
        [
            "core.phase.arrival",
            "core.phase.steady",
            "core.phase.storm",
            "core.phase.drain",
        ][self as usize]
    }

    fn metrics(self) -> (&'static str, &'static str) {
        [
            ("core.phase.arrival_s", "core.phase.arrival_events"),
            ("core.phase.steady_s", "core.phase.steady_events"),
            ("core.phase.storm_s", "core.phase.storm_events"),
            ("core.phase.drain_s", "core.phase.drain_events"),
        ][self as usize]
    }
}

/// Host time and engine events accumulated per phase.
struct PhaseClock {
    span: Option<usize>,
    at: Instant,
    events: u64,
    secs: [f64; 4],
    counts: [u64; 4],
}

impl PhaseClock {
    /// Ends the running `phase` now and, unless `parent` is `None`,
    /// opens a span for the `following` one.
    fn switch(
        &mut self,
        session: &TelecastSession,
        phase: Phase,
        following: Phase,
        tr: &mut Tracer,
        parent: Option<usize>,
    ) {
        tr.close(self.span);
        let now = Instant::now();
        let events = session.events_processed();
        self.secs[phase as usize] += (now - self.at).as_secs_f64();
        self.counts[phase as usize] += events - self.events;
        self.at = now;
        self.events = events;
        self.span = parent.and_then(|_| tr.open(following.span(), parent));
    }
}

/// The simulated instants at which a phase ends, each with the phase it
/// ends, up to the horizon; the drain phase follows the last one.
fn phase_ends(p: &Params) -> Vec<(SimTime, Phase)> {
    let mut ends = vec![(ARRIVAL_END, Phase::Arrival)];
    for start in p.storm_starts() {
        ends.push((start, Phase::Steady));
        ends.push((start + STORM_WINDOW + STORM_SETTLE, Phase::Storm));
    }
    ends.push((p.horizon(), Phase::Steady));
    ends
}

/// The paper's setup with the camera ring widened to `views` views per
/// site, the CDN pool scaled to the audience (5 Mbps per viewer) and the
/// prune pass armed.
pub fn config(p: &Params, seed: u64) -> SessionConfig {
    let cameras = u16::try_from(p.views).expect("view count fits a camera ring");
    SessionConfig {
        sites: vec![
            ProducerSite::ring(SiteId::new(0), cameras, 2_000, 10),
            ProducerSite::ring(SiteId::new(1), cameras, 2_000, 10),
        ],
        streams_per_local_view: p.views.min(3),
        ..SessionConfig::default()
    }
    .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
    .with_cdn(
        CdnConfig::default().with_outbound(Bandwidth::from_mbps((p.viewers as u64 * 5).max(3_000))),
    )
    .with_delay_model(DelayModelChoice::Coordinate)
    .with_monitor_period(SimDuration::from_secs(10))
    .with_prune_floor(p.prune_floor)
    .with_seed(seed)
}

/// The audience script: staggered arrivals over the first minute, Zipf
/// view choice, one baseline view change per viewer over the first
/// three quarters of the horizon, and the three re-focus storms
/// targeting views 1, 2 and 3.
pub fn script(p: &Params, seed: u64, catalog_len: usize) -> ViewerWorkload {
    let gap = SimDuration::from_micros(60_000_000 / p.viewers.max(1) as u64);
    let mut popularity = ViewPopularity::zipf(p.zipf_view);
    for (i, at) in p.storm_starts().into_iter().enumerate() {
        popularity = popularity.with_refocus(RefocusEvent {
            at,
            window: STORM_WINDOW,
            target: ViewId::new(((i + 1) % catalog_len) as u32),
            fraction: p.refocus_fraction,
        });
    }
    let mut rng = SimRng::seed_from_u64(seed);
    ViewerWorkload::builder(p.viewers, catalog_len)
        .arrivals(ArrivalModel::Staggered { gap })
        .popularity(&popularity)
        .view_changes(1.0, SimDuration::from_secs(p.minutes * 60 * 3 / 4))
        .build(&mut rng)
}

/// Digest of everything the workload reads from the session.
pub fn digest(session: &TelecastSession) -> u64 {
    let mut d = Digest::default();
    d.session(session);
    d.finish()
}

/// Runs one repetition.
pub fn run(p: &Params, seed: u64, tr: &mut Tracer) -> Outcome {
    let start = Start::now();
    let setup_span = tr.open("setup", None);
    let build_span = tr.open("core.build", setup_span);
    let config = config(p, seed);
    let catalog_len = ViewCatalog::canonical(&config.sites, config.streams_per_local_view).len();
    let mut session = TelecastSession::builder(config).viewers(p.viewers).build();
    tr.close(build_span);
    let media_at = Instant::now();
    let media_span = tr.open("media.workload", setup_span);
    let workload = script(p, seed, catalog_len);
    let pool = session.viewer_ids().to_vec();
    tr.close(media_span);
    tr.close(setup_span);
    let setup = SetupEnd::now(session.events_processed());

    let mut layers = BTreeMap::new();
    layers.insert("core.build_s", (media_at - start.at).as_secs_f64());
    layers.insert(
        "media.workload_build_s",
        (setup.at - media_at).as_secs_f64(),
    );
    layers.insert("media.workload_events", workload.events().len() as f64);

    // Run: replay the script phase by phase.
    let run_span = tr.open("run", None);
    let ends = phase_ends(p);
    let mut clock = PhaseClock {
        span: tr.open(ends[0].1.span(), run_span),
        at: setup.at,
        events: session.events_processed(),
        secs: [0.0; 4],
        counts: [0; 4],
    };
    let traced = tr.on();
    let mut requests = 0u64;
    let mut request_ns = 0u128;
    let mut next = 0;
    // A final `None` ends the phases left after the last scripted event.
    for item in workload.events().iter().map(Some).chain([None]) {
        let due = item.map_or(SimTime::MAX, |e| e.0);
        while next < ends.len() && ends[next].0 < due {
            session.run_until(ends[next].0);
            next += 1;
            let following = ends.get(next).map_or(Phase::Drain, |e| e.1);
            clock.switch(&session, ends[next - 1].1, following, tr, run_span);
        }
        let Some(&(at, ev)) = item else { break };
        session.run_until(at);
        let t0 = traced.then(Instant::now);
        let name = match ev {
            WorkloadEvent::Join { viewer, view } => {
                let _ = session.request_join_at(pool[viewer], view, at);
                "core.request.join"
            }
            WorkloadEvent::ViewChange { viewer, view } => {
                let _ = session.request_view_change(pool[viewer], view);
                "core.request.view_change"
            }
            WorkloadEvent::Depart { viewer } => {
                let _ = session.request_depart(pool[viewer]);
                "core.request.depart"
            }
        };
        requests += 1;
        if let Some(t0) = t0 {
            let t1 = Instant::now();
            request_ns += (t1 - t0).as_nanos();
            tr.record(name, clock.span, t0, t1);
        }
    }
    session.run_to_idle();
    clock.switch(&session, Phase::Drain, Phase::Drain, tr, None);

    // Collect.
    let collect_start = Instant::now();
    let collect_span = tr.open("core.collect", run_span);
    let m = session.metrics();
    let (join_p50_ms, join_p99_ms, join_samples) = join_delays(&m.join_delays_ms);
    let switch_p99 = m.switch_latency_ms.percentile(99.0).unwrap_or(0.0);
    let model = Model {
        acceptance_ratio: m.acceptance_ratio(),
        join_p50_ms,
        join_p99_ms,
        join_samples,
        cdn_mbps_hours: step_integral_hours(&m.cdn_usage_mbps, session.now()),
        provisioned_dollars: session.cdn().provisioned_dollars_at(p.horizon()),
    };
    tr.close(collect_span);
    tr.close(run_span);
    let end = RunEnd::now(collect_start);

    // Everything below is the benchmark's own bookkeeping.
    for phase in Phase::ALL {
        let (secs, events) = phase.metrics();
        layers.insert(secs, clock.secs[phase as usize]);
        layers.insert(events, clock.counts[phase as usize] as f64);
    }
    layers.insert("core.requests", requests as f64);
    if traced {
        layers.insert(
            "core.request_us_mean",
            per(request_ns as f64 / 1e3, requests),
        );
    }
    protocol_layers(&mut layers, m);
    overlay_layers(&mut layers, [&session], m.accepted_streams.value());
    let switch_samples = m.switch_latency_ms.len() as u64;
    for (name, value) in [
        (
            "overlay.fragments_merged",
            m.fragments_merged.value() as f64,
        ),
        ("overlay.groups_retired", m.groups_retired.value() as f64),
        (
            "core.switches",
            (switch_samples + m.switch_starved.value()) as f64,
        ),
        ("core.switch_starved", m.switch_starved.value() as f64),
        ("core.switch_latency_p99_ms", switch_p99),
        ("core.switch_latency_samples", switch_samples as f64),
        ("core.wasted_mbps_hours", m.wasted_mbps_hours()),
    ] {
        layers.insert(name, value);
    }
    let results = Results {
        model,
        admissions: m.admitted_viewers.value() + m.rejected_viewers.value(),
        digest: digest(&session),
        events: session.events_processed(),
        peak_queue: m.peak_event_queue,
        spans_s: clock.secs.iter().sum(),
        layers,
    };
    let mut outcome = finish(start, setup, end, results);
    if switch_samples == 0 {
        outcome
            .problems
            .push("storms produced no view switches".into());
    }
    outcome
}
