//! The simulator's benchmark: runs one workload repeatedly for a fixed
//! host-time budget, checks every repetition's simulated statistics
//! against the reference digest for its seed, and prints the end-to-end
//! metrics (untraced) or the per-layer metrics (traced). A run with seed
//! `s` measures [`INPUTS`] inputs, generated from seeds `s` to
//! `s + INPUTS - 1`, in turn: one seed's inputs cost up to 15% more host
//! time than another's, and a median over several inputs averages that
//! out. Metrics are medians over the inputs of each input's median.
//! End-to-end host times are scaled to a reference host speed by a
//! calibration kernel run before and after every repetition (see
//! `calibrate.rs`).
//! The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! ```text
//! perfbench --workload view_storm --seed 1 --seconds 10 --trace 0
//! ```

mod alloc;
mod calibrate;
mod digest;
mod metrics;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Tracer;
use workloads::{Outcome, Scale};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Inputs a run measures in turn; also the fewest untraced repetitions,
/// so that every input is measured.
const INPUTS: u64 = 8;
/// No repetition starts that would end past this host time.
const HARD_LIMIT: Duration = Duration::from_secs(150);

/// Reference digests, one `workload scale seed digest` line each.
const REFERENCES: &str = include_str!("../references.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    spans: Option<PathBuf>,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        spans: None,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => {
                args.scale = [Scale::Full, Scale::Small]
                    .into_iter()
                    .find(|s| s.name() == value)
                    .ok_or_else(|| bad(&"expected full or small"))?
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be ≥ 0".into());
    }
    Ok(args)
}

/// The recorded reference digest of `workload` at `scale` for `seed`.
fn reference(workload: &str, scale: Scale, seed: u64) -> Option<u64> {
    let scale = scale.name();
    REFERENCES
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 4 && f[0] == workload && f[1] == scale && f[2] == seed.to_string())
        .and_then(|f| u64::from_str_radix(f[3], 16).ok())
}

/// Untraced (and, in traced runs, traced) repetitions of one workload.
struct Reps {
    untraced: Vec<Outcome>,
    traced: Vec<Outcome>,
    tracer: Tracer,
    /// Calibration kernel times: one before each round and one after the
    /// last, so untraced repetition `i` lies between entries `i` and
    /// `i + 1`.
    calibration_s: Vec<f64>,
}

fn repeat(args: &Args) -> Reps {
    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let mut reps = Reps {
        untraced: Vec::new(),
        traced: Vec::new(),
        tracer: Tracer::new(false),
        calibration_s: Vec::new(),
    };
    loop {
        let round = Instant::now();
        reps.calibration_s
            .push(calibrate::kernel_s(workloads::threads(&args.workload)));
        reps.tracer.set_on(false);
        let seed = args.seed.wrapping_add(reps.untraced.len() as u64 % INPUTS);
        let run = |tr: &mut Tracer| workloads::run(&args.workload, args.scale, seed, tr);
        reps.untraced.push(run(&mut reps.tracer));
        if args.trace {
            reps.tracer.set_on(true);
            reps.traced.push(run(&mut reps.tracer));
            reps.tracer.next_iteration();
        }
        // Stop before a round that would end past the budget (or the
        // hard limit), once there are enough repetitions.
        let next_end = began.elapsed() + round.elapsed();
        let limit = if reps.untraced.len() as u64 >= INPUTS {
            budget.min(HARD_LIMIT)
        } else {
            HARD_LIMIT
        };
        if next_end > limit {
            break;
        }
    }
    reps.calibration_s
        .push(calibrate::kernel_s(workloads::threads(&args.workload)));
    for (o, around) in reps.untraced.iter_mut().zip(reps.calibration_s.windows(2)) {
        o.host_scale = calibrate::REFERENCE_S / ((around[0] + around[1]) / 2.0);
    }
    reps
}

/// `reps` grouped by input seed, in seed order.
fn by_input<'a>(reps: impl IntoIterator<Item = &'a Outcome>) -> BTreeMap<u64, Vec<&'a Outcome>> {
    let mut inputs: BTreeMap<u64, Vec<&Outcome>> = BTreeMap::new();
    for o in reps {
        inputs.entry(o.seed).or_default().push(o);
    }
    inputs
}

/// Every reason the run's simulated output is not the expected one, and
/// how many inputs had a recorded reference.
fn check(args: &Args, reps: &Reps) -> (usize, Vec<String>) {
    let mut problems = Vec::new();
    let mut referenced = 0;
    for (seed, outcomes) in by_input(reps.untraced.iter().chain(&reps.traced)) {
        problems.extend(outcomes[0].problems.iter().cloned());
        let digest = outcomes[0].digest;
        if let Some(other) = outcomes.iter().find(|o| o.digest != digest) {
            problems.push(format!(
                "seed {seed}: digest differs between repetitions: {digest:016x} vs {:016x}",
                other.digest
            ));
        }
        if let Some(expected) = reference(&args.workload, args.scale, seed) {
            referenced += 1;
            if expected != digest {
                problems.push(format!(
                    "seed {seed}: digest {digest:016x} differs from the reference {expected:016x}"
                ));
            }
        }
    }
    (referenced, problems)
}

/// The median over inputs of each input's median of `f`, so that every
/// input weighs the same however many repetitions it got.
fn median_of(reps: &[Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    let per_input: Vec<f64> = by_input(reps)
        .values()
        .map(|outcomes| metrics::median(&outcomes.iter().map(|&o| f(o)).collect::<Vec<_>>()))
        .collect();
    metrics::median(&per_input)
}

/// The end-to-end metrics: medians over the untraced repetitions, host
/// times scaled to reference seconds by the calibration times around
/// each repetition.
fn end_to_end(reps: &[Outcome]) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", median_of(reps, |o| o.setup_s * o.host_scale)),
        ("run_s", median_of(reps, |o| o.run_s * o.host_scale)),
        (
            "ops_per_s",
            median_of(reps, |o| o.admissions as f64 / (o.run_s * o.host_scale)),
        ),
        ("peak_heap_mb", median_of(reps, |o| o.peak_heap_mb)),
        (
            "acceptance_ratio",
            median_of(reps, |o| o.model.acceptance_ratio),
        ),
        (
            "join_delay_p50_ms",
            median_of(reps, |o| o.model.join_p50_ms),
        ),
        (
            "join_delay_p99_ms",
            median_of(reps, |o| o.model.join_p99_ms),
        ),
        (
            "cdn_mbps_hours",
            median_of(reps, |o| o.model.cdn_mbps_hours),
        ),
        (
            "provisioned_dollars",
            median_of(reps, |o| o.model.provisioned_dollars),
        ),
    ])
}

/// The per-layer metrics: medians over the traced repetitions, plus the
/// tracing overhead against the untraced ones and the host's speed. Host
/// times here are wall clock, not scaled. Metrics the workload does not
/// exercise are absent.
fn per_layer(reps: &Reps) -> BTreeMap<&'static str, f64> {
    let traced = &reps.traced;
    let mut out = BTreeMap::new();
    for &(name, _, _) in metrics::PER_LAYER {
        if traced[0].layers.contains_key(name) {
            out.insert(
                name,
                median_of(traced, |o| o.layers.get(name).copied().unwrap_or(0.0)),
            );
        }
    }
    let traced_run = median_of(traced, |o| o.run_s);
    out.insert("trace.run_s", traced_run);
    out.insert(
        "trace.overhead_s",
        traced_run - median_of(&reps.untraced, |o| o.run_s),
    );
    out.insert("host.run_wall_s", median_of(&reps.untraced, |o| o.run_s));
    out.insert("host.calibration_s", metrics::median(&reps.calibration_s));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        let o = workloads::run(
            &args.workload,
            args.scale,
            args.seed,
            &mut Tracer::new(false),
        );
        println!(
            "{} {} {} {:016x}",
            args.workload,
            args.scale.name(),
            args.seed,
            o.digest
        );
        return ExitCode::SUCCESS;
    }
    let reps = repeat(&args);
    let (referenced, mut problems) = check(&args, &reps);
    let inputs = by_input(&reps.untraced).len();

    let (table, values): (&[(&str, &str, &str)], _) = if args.trace {
        (metrics::PER_LAYER, per_layer(&reps))
    } else {
        (metrics::END_TO_END, end_to_end(&reps.untraced))
    };
    if let Some(bad) = values.iter().find(|(_, v)| !v.is_finite()) {
        problems.push(format!("{} is not finite", bad.0));
    }

    println!(
        "workload {} seeds {}..={} scale {:?}: {} untraced + {} traced repetitions",
        args.workload,
        args.seed,
        args.seed.wrapping_add(inputs as u64 - 1),
        args.scale,
        reps.untraced.len(),
        reps.traced.len()
    );
    println!(
        "{referenced} of {inputs} inputs have a recorded reference digest; \
         every input's repetitions and traced runs are also checked against each other"
    );
    let listed: Vec<String> = reps
        .untraced
        .iter()
        .map(|o| format!("{:.4}", o.run_s))
        .collect();
    println!(
        "wall-clock run_s per untraced repetition: {}",
        listed.join(" ")
    );
    let listed: Vec<String> = reps
        .calibration_s
        .iter()
        .map(|s| format!("{s:.4}"))
        .collect();
    println!(
        "calibration kernel, s (reference {} s): {}",
        calibrate::REFERENCE_S,
        listed.join(" ")
    );
    let samples = median_of(&reps.untraced, |o| o.model.join_samples as f64);
    for &(name, unit, _) in table {
        match values.get(name) {
            Some(v) if name.starts_with("join_delay_") => {
                println!(
                    "  {name:<36} {v:>14.4} {unit:<8} (n={samples:.0} samples, median over inputs)"
                )
            }
            Some(v) => println!("  {name:<36} {v:>14.4} {unit}"),
            None => println!(
                "  {name:<36} {:>14} {unit:<8} (not exercised by {})",
                "n/a", args.workload
            ),
        }
    }
    if args.trace {
        println!(
            "not measurable from outside (needs timers inside the program): \
             dispatch time per event kind, the prune sweep alone, broker Mutex wait, \
             outbox drain versus k-way merge within core.shard.serial_s"
        );
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    if let (true, Some(path)) = (args.trace, &args.spans) {
        match reps.tracer.write_jsonl(path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }

    let correct = problems.is_empty();
    let attempted: u64 = reps
        .untraced
        .iter()
        .chain(&reps.traced)
        .map(|o| o.admissions)
        .sum();
    let metrics_json: Vec<String> = table
        .iter()
        .map(|&(name, unit, _)| {
            let v = values.get(name).copied().filter(|v| v.is_finite());
            format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                v.unwrap_or(0.0)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        if correct { 0 } else { attempted.max(1) },
        metrics_json.join(", ")
    );
    // A failed check is reported through `correct`, not the exit code.
    ExitCode::SUCCESS
}
