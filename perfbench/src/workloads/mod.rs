//! The three workloads. Each builds its inputs from the seed, drives the
//! public API of one runtime, and returns one [`Outcome`] per repetition.

pub mod mega_churn;
pub mod tenant_spike;
pub mod view_storm;

use std::collections::BTreeMap;
use std::time::Instant;

use telecast::{SessionMetrics, TelecastSession};
use telecast_sim::{Histogram, SimTime, TimeSeries};

use crate::alloc::{self, Heap};
use crate::trace::Tracer;

/// Workload sizes: `Full` is what the benchmark measures, `Small` keeps
/// the benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few-second size for tests.
    Small,
}

impl Scale {
    /// The name `--scale` and `references.txt` use.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Small => "small",
        }
    }
}

/// The workloads by name.
pub const NAMES: &[&str] = &["view_storm", "mega_churn", "tenant_spike"];

/// Runs one repetition of workload `name` on the inputs of `seed`.
pub fn run(name: &str, scale: Scale, seed: u64, tr: &mut Tracer) -> Outcome {
    let mut outcome = match name {
        "view_storm" => view_storm::run(&view_storm::Params::new(scale), seed, tr),
        "mega_churn" => mega_churn::run(
            &mega_churn::Params::new(scale, mega_churn::THREADS),
            seed,
            tr,
        ),
        "tenant_spike" => tenant_spike::run(&tenant_spike::Params::new(scale), seed, tr),
        other => panic!("unknown workload {other}"),
    };
    outcome.seed = seed;
    outcome
}

/// Threads workload `name` keeps busy.
pub fn threads(name: &str) -> usize {
    if name == "mega_churn" {
        mega_churn::THREADS
    } else {
        1
    }
}

/// The simulated results the paper reports (deterministic per seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Model {
    /// ρ = accepted / requested streams.
    pub acceptance_ratio: f64,
    /// Median join delay, simulated ms.
    pub join_p50_ms: f64,
    /// 99th-percentile join delay, simulated ms.
    pub join_p99_ms: f64,
    /// Join-delay samples behind the percentiles.
    pub join_samples: usize,
    /// CDN egress served over the run, Mbps·h.
    pub cdn_mbps_hours: f64,
    /// Cost of the provisioned CDN pool over the horizon, USD.
    pub provisioned_dollars: f64,
}

/// One repetition's measurements.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Seed the repetition's inputs were generated from.
    pub seed: u64,
    /// Config construction to the first `run_until`, host seconds.
    pub setup_s: f64,
    /// First `run_until` to collected metrics, host seconds.
    pub run_s: f64,
    /// Factor from this repetition's host times to reference seconds; 1
    /// until the calibration kernel has run on both sides of it.
    pub host_scale: f64,
    /// Peak live heap during the repetition, MB.
    pub peak_heap_mb: f64,
    /// Admission decisions (admitted + rejected viewers).
    pub admissions: u64,
    /// Digest of every simulated statistic read.
    pub digest: u64,
    /// The simulated results.
    pub model: Model,
    /// Per-layer metrics this workload measures; the rest print `n/a`.
    pub layers: BTreeMap<&'static str, f64>,
    /// Consistency failures found in the simulated results.
    pub problems: Vec<String>,
}

/// Heap and clock readings at the start of a repetition.
pub struct Start {
    at: Instant,
    heap: Heap,
}

impl Start {
    /// Restarts the heap high-water mark and takes the readings.
    pub fn now() -> Start {
        alloc::reset_peak();
        Start {
            at: Instant::now(),
            heap: Heap::now(),
        }
    }
}

/// Readings at the end of set-up (just before the first `run_until`).
pub struct SetupEnd {
    at: Instant,
    heap: Heap,
    events: u64,
}

impl SetupEnd {
    /// Takes the readings; `events` is the engines' fired-event count so
    /// far.
    pub fn now(events: u64) -> SetupEnd {
        SetupEnd {
            at: Instant::now(),
            heap: Heap::now(),
            events,
        }
    }
}

/// Readings once the metrics are collected (the end of `run_s`).
pub struct RunEnd {
    collect_start: Instant,
    at: Instant,
    heap: Heap,
}

impl RunEnd {
    /// Takes the readings; collection began at `collect_start`.
    pub fn now(collect_start: Instant) -> RunEnd {
        RunEnd {
            collect_start,
            at: Instant::now(),
            heap: Heap::now(),
        }
    }
}

/// What a workload hands to [`finish`] besides the clock readings.
pub struct Results {
    /// The simulated results.
    pub model: Model,
    /// Admission decisions.
    pub admissions: u64,
    /// Digest of every simulated statistic read.
    pub digest: u64,
    /// Engine events fired in total.
    pub events: u64,
    /// Deepest any engine's event queue got.
    pub peak_queue: u64,
    /// Host time of the run's top-level spans before collection: the
    /// phases, the stepped epochs, or the one `run_until` call.
    pub spans_s: f64,
    /// Workload-specific layer metrics.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Assembles an [`Outcome`] from the readings at the start, the end of
/// set-up and the end of collection, and adds the heap, sim-engine and
/// collection layer metrics.
pub fn finish(start: Start, setup: SetupEnd, end: RunEnd, results: Results) -> Outcome {
    let Results {
        model,
        admissions,
        digest,
        events,
        peak_queue,
        spans_s,
        mut layers,
    } = results;
    let heap = end.heap;
    let setup_s = (setup.at - start.at).as_secs_f64();
    let run_s = (end.at - setup.at).as_secs_f64();
    let run_events = events - setup.events;
    layers.insert(
        "heap.setup_mb",
        alloc::mb(setup.heap.live.saturating_sub(start.heap.live)),
    );
    layers.insert(
        "heap.setup_allocs",
        (setup.heap.allocs - start.heap.allocs) as f64,
    );
    layers.insert(
        "heap.allocs_per_event",
        per((heap.allocs - setup.heap.allocs) as f64, run_events),
    );
    layers.insert(
        "heap.bytes_per_event",
        per((heap.bytes - setup.heap.bytes) as f64, run_events),
    );
    layers.insert("sim.events", run_events as f64);
    layers.insert("sim.ns_per_event", per(run_s * 1e9, run_events));
    layers.insert("sim.peak_event_queue", peak_queue as f64);
    let collect_s = (end.at - end.collect_start).as_secs_f64();
    layers.insert("core.collect_s", collect_s);
    layers.insert("trace.unaccounted_s", run_s - spans_s - collect_s);
    layers.insert("core.join_delay_samples", model.join_samples as f64);
    Outcome {
        seed: 0,
        setup_s,
        run_s,
        host_scale: 1.0,
        peak_heap_mb: alloc::mb(heap.peak),
        admissions,
        digest,
        model,
        layers,
        problems: check_model(&model, admissions),
    }
}

/// `x / n`, or 0 when `n` is 0.
pub fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// Integral of a step series from its first point to `end`, in value·h.
pub fn step_integral_hours(series: &TimeSeries, end: SimTime) -> f64 {
    let points = series.points();
    let mut total = 0.0;
    for (i, &(at, value)) in points.iter().enumerate() {
        let until = points.get(i + 1).map_or(end, |p| p.0).min(end);
        total += value * until.saturating_since(at).as_secs_f64();
    }
    total / 3_600.0
}

/// The join-delay percentiles and sample count of `h`.
pub fn join_delays(h: &Histogram) -> (f64, f64, usize) {
    (
        h.percentile(50.0).unwrap_or(0.0),
        h.percentile(99.0).unwrap_or(0.0),
        h.len(),
    )
}

/// Protocol-work counters shared by every workload, from (merged)
/// session metrics.
pub fn protocol_layers(layers: &mut BTreeMap<&'static str, f64>, m: &SessionMetrics) {
    let victims = m.victims.value();
    let repositioned = m.victims_repositioned.value();
    for (name, value) in [
        ("core.rejected_viewers", m.rejected_viewers.value() as f64),
        ("core.victims", victims as f64),
        ("core.victims_repositioned", repositioned as f64),
        ("core.reposition_ratio", per(repositioned as f64, victims)),
        ("core.displacements", m.displacements.value() as f64),
        (
            "core.subscription_messages",
            m.subscription_messages.value() as f64,
        ),
        ("core.layer_drops", m.layer_drops.value() as f64),
        ("core.resync_cap_hits", m.resync_cap_hits.value() as f64),
        ("cdn.join_retries", m.join_retries.value() as f64),
        ("cdn.peak_retry_queue", m.peak_retry_queue as f64),
    ] {
        layers.insert(name, value);
    }
}

/// Overlay counters summed over `sessions`, with the mean tree depth
/// weighted by connected viewers.
pub fn overlay_layers<'a>(
    layers: &mut BTreeMap<&'static str, f64>,
    sessions: impl IntoIterator<Item = &'a TelecastSession>,
    accepted_streams: u64,
) {
    let (mut probes, mut shifts, mut depth, mut weight) = (0u64, 0u64, 0.0, 0.0);
    for s in sessions {
        probes += s.attach_probe_total();
        shifts += s.depth_shift_total();
        let w = s.connected_viewers() as f64;
        depth += s.mean_tree_depth() * w;
        weight += w;
    }
    layers.insert("overlay.attach_probes", probes as f64);
    layers.insert(
        "overlay.probes_per_accepted_stream",
        per(probes as f64, accepted_streams),
    );
    layers.insert("overlay.depth_shifts", shifts as f64);
    layers.insert(
        "overlay.mean_tree_depth",
        if weight > 0.0 { depth / weight } else { 0.0 },
    );
}

/// Sanity checks every workload's model results must pass.
pub fn check_model(model: &Model, admissions: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if !(model.acceptance_ratio > 0.0 && model.acceptance_ratio <= 1.0) {
        problems.push(format!(
            "acceptance ratio {} outside (0, 1]",
            model.acceptance_ratio
        ));
    }
    if admissions == 0 || model.join_samples == 0 {
        problems.push("no admission decisions or join-delay samples".into());
    }
    if !(model.join_p50_ms > 0.0 && model.join_p50_ms <= model.join_p99_ms) {
        problems.push(format!(
            "join delay p50 {} / p99 {} not ordered and positive",
            model.join_p50_ms, model.join_p99_ms
        ));
    }
    if !(model.cdn_mbps_hours > 0.0 && model.provisioned_dollars > 0.0) {
        problems.push("no CDN egress or provisioned cost".into());
    }
    problems
}
