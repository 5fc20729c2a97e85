//! `mega_churn`: a [`ShardedSession`] of 30k viewers on the five
//! regional shards, churning 1% per minute on two worker threads, with
//! static regional CDN pools and cross-shard spill. It is the only
//! workload on the persistent worker pool, the epoch barrier merge and
//! spill, and it has no view switching.
//!
//! Untraced runs call `run_until(horizon)` once. Traced runs step it one
//! epoch at a time, on the epoch boundaries the runtime uses anyway, so
//! they insert no extra barrier and replay the same simulation.

use std::collections::BTreeMap;
use std::time::Instant;

use telecast::{DelayModelChoice, SessionConfig, ShardedSession};
use telecast_cdn::CdnConfig;
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_sim::{SimDuration, SimTime};

use super::{finish, join_delays, overlay_layers, per, protocol_layers, step_integral_hours};
use super::{Model, Outcome, Results, RunEnd, Scale, SetupEnd, Start};
use crate::digest::Digest;
use crate::trace::Tracer;

/// Worker threads the benchmark runs the shards on.
pub const THREADS: usize = 2;

/// Size of the churn run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Steady-state population across the shards (also the prefill).
    pub viewers: usize,
    /// Simulated horizon in minutes.
    pub minutes: u64,
    /// Share of the population leaving (and arriving) per minute.
    pub churn_per_minute: f64,
    /// Worker threads the five shards run on.
    pub threads: usize,
    /// Barrier period in simulated seconds.
    pub epoch_secs: u64,
}

impl Params {
    /// The benchmark's size, or the test size, on `threads` workers.
    pub fn new(scale: Scale, threads: usize) -> Params {
        let (viewers, minutes) = match scale {
            Scale::Full => (30_000, 3),
            Scale::Small => (4_000, 2),
        };
        Params {
            viewers,
            minutes,
            churn_per_minute: 0.01,
            threads,
            epoch_secs: 10,
        }
    }

    fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.minutes * 60)
    }
}

/// Runs one repetition.
pub fn run(p: &Params, seed: u64, tr: &mut Tracer) -> Outcome {
    let start = Start::now();
    let setup_span = tr.open("setup", None);
    let build_span = tr.open("core.build", setup_span);
    // Static pool of 5 Mbps per viewer, split by region weight; spill
    // covers the regions that run short.
    let pool = Bandwidth::from_mbps((p.viewers as u64 * 5).max(3_000));
    let config = SessionConfig::default()
        .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
        .with_cdn(CdnConfig::default().with_outbound(pool))
        .with_delay_model(DelayModelChoice::Coordinate)
        .with_monitor_period(SimDuration::from_secs(10))
        .with_seed(seed);
    let epoch = SimDuration::from_secs(p.epoch_secs);
    let mut session = ShardedSession::new(config, p.viewers, p.threads, epoch);
    session.start_churn(p.churn_per_minute, p.horizon());
    tr.close(build_span);
    tr.close(setup_span);
    let setup = SetupEnd::now(session.shards().iter().map(|s| s.events_processed()).sum());

    let run_span = tr.open("run", None);
    let epochs = p.horizon().as_micros() / epoch.as_micros();
    // Traced runs: host time of the stepped `run_until` calls, and the
    // critical path, which is the sum over epochs of the epoch's
    // longest-first makespan of per-shard busy time on the workers.
    let mut stepped = None;
    if tr.on() {
        let (mut total, mut critical_ns) = (0.0, 0);
        let mut busy_before = busy_ns(&session);
        for k in 1..=epochs {
            let span = tr.open("core.shard.epoch", run_span);
            let t0 = Instant::now();
            session.run_until(SimTime::from_micros(epoch.as_micros() * k));
            total += (Instant::now() - t0).as_secs_f64();
            tr.close(span);
            let busy = busy_ns(&session);
            let epoch_busy: Vec<u64> = busy.iter().zip(&busy_before).map(|(a, b)| a - b).collect();
            critical_ns += lpt_makespan(&epoch_busy, p.threads);
            busy_before = busy;
        }
        stepped = Some((total, critical_ns as f64 / 1e9));
    } else {
        session.run_until(p.horizon());
    }
    let collect_start = Instant::now();
    let run_until_s = (collect_start - setup.at).as_secs_f64();
    let collect_span = tr.open("core.collect", run_span);
    let m = session.merged_metrics();
    let (join_p50_ms, join_p99_ms, join_samples) = join_delays(&m.join_delays_ms);
    let provisioned_dollars = session
        .shards()
        .iter()
        .map(|s| s.cdn().provisioned_dollars_at(p.horizon()))
        .sum();
    let model = Model {
        acceptance_ratio: m.acceptance_ratio(),
        join_p50_ms,
        join_p99_ms,
        join_samples,
        cdn_mbps_hours: step_integral_hours(&m.cdn_usage_mbps, p.horizon()),
        provisioned_dollars,
    };
    tr.close(collect_span);
    tr.close(run_span);
    let end = RunEnd::now(collect_start);

    // Everything below is the benchmark's own bookkeeping.
    let stats = session.stats();
    let mut d = Digest::default();
    for (shard, stat) in session.shards().iter().zip(stats) {
        d.session(shard);
        for x in [
            stat.viewers as u64,
            stat.cross_shard_messages,
            stat.peak_event_queue,
        ] {
            d.u64(x);
        }
    }
    d.u64(session.spill_denied());

    let total_events: u64 = stats.iter().map(|s| s.events_processed).sum();
    let mut layers = BTreeMap::new();
    if let Some((_, critical_s)) = stepped {
        layers.insert("core.shard.critical_path_s", critical_s);
        layers.insert("core.shard.serial_s", run_until_s - critical_s);
    }
    for (name, value) in [
        ("core.build_s", (setup.at - start.at).as_secs_f64()),
        ("core.shard.epochs", epochs as f64),
        (
            "core.shard.busy_s",
            stats.iter().map(|s| s.busy_ns).sum::<u64>() as f64 / 1e9,
        ),
        (
            "core.shard.barrier_wait_s",
            stats.iter().map(|s| s.barrier_wait_ns).sum::<u64>() as f64 / 1e9,
        ),
        (
            "core.shard.util_min",
            stats.iter().map(|s| s.utilization()).fold(1.0, f64::min),
        ),
        (
            "core.shard.cross_shard_messages",
            stats.iter().map(|s| s.cross_shard_messages).sum::<u64>() as f64,
        ),
        (
            "core.shard.max_event_share",
            per(
                stats.iter().map(|s| s.events_processed).max().unwrap_or(0) as f64,
                total_events,
            ),
        ),
        ("cdn.spill_requests", m.spill_requests.value() as f64),
        ("cdn.spill_admits", m.spill_admits.value() as f64),
        ("cdn.spill_denied", session.spill_denied() as f64),
    ] {
        layers.insert(name, value);
    }
    protocol_layers(&mut layers, &m);
    overlay_layers(&mut layers, session.shards(), m.accepted_streams.value());
    let results = Results {
        model,
        admissions: m.admitted_viewers.value() + m.rejected_viewers.value(),
        digest: d.finish(),
        events: total_events,
        peak_queue: m.peak_event_queue,
        spans_s: stepped.map_or(run_until_s, |(total, _)| total),
        layers,
    };
    finish(start, setup, end, results)
}

/// Each shard's cumulative busy time so far, ns.
fn busy_ns(session: &ShardedSession) -> Vec<u64> {
    session.stats().iter().map(|s| s.busy_ns).collect()
}

/// Length of a longest-first schedule of `jobs` on `workers` workers: an
/// epoch's wall time when the shards' busy times are `jobs`.
pub fn lpt_makespan(jobs: &[u64], workers: usize) -> u64 {
    let mut jobs = jobs.to_vec();
    jobs.sort_unstable_by(|a, b| b.cmp(a));
    let mut load = vec![0; workers.max(1)];
    for job in jobs {
        *load.iter_mut().min().expect("at least one worker") += job;
    }
    load.into_iter().max().unwrap_or(0)
}
