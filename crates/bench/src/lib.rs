#![warn(missing_docs)]

//! Experiment harness reproducing the 4D TeleCast evaluation (§VII).
//!
//! Each figure of the paper has a generator in [`figures`] producing a
//! [`FigureData`] with the same series the paper plots; the `fig*`
//! binaries print them as aligned tables and export JSON next to the
//! terminal output. Scenario plumbing lives in [`harness`]; independent
//! simulation runs of a sweep execute in parallel on the deterministic,
//! order-preserving executor shared through [`telecast_sim::parallel_map`].
//! The scale scenarios are data: the churn family is one
//! [`ChurnScenario`] spec with four [`ChurnPreset`]s and one runner, and
//! every scenario bin is a one-line call into [`scenario_main`].

pub mod bins;
pub mod cli;
pub mod figures;
pub mod gate;
pub mod harness;
pub mod json;
pub mod scenario;
pub mod sweep;
pub mod table;
pub mod tenancy;
pub mod view_storm;

pub use bins::{scenario_main, ScenarioBin, BINS};
pub use cli::ScenarioArgs;
pub use figures::Scale;
pub use gate::{GateBaseline, MetricCheck, ScenarioBaseline};
pub use harness::{run_scenario, RunResult, Scenario};
pub use scenario::{
    autoscale_policy_for, run_churn, ChurnOutcome, ChurnPreset, ChurnScenario, RateShape, Runtime,
};
pub use sweep::{run_epoch_sweep, sweep_figure, SweepCell, SweepScenario};
pub use table::{FigureData, Series};
pub use tenancy::{
    run_tenant_mix, tenant_config, tenant_quota, zipf_split, TenantMixOutcome, TenantMixScenario,
};
pub use view_storm::{run_view_storm, ViewStormScenario};

/// Prints a figure's table to stdout and writes `results/<id>.json`.
///
/// The scenario binaries call this once per figure; JSON export
/// failures are reported but do not abort the run (the table already
/// printed).
pub fn emit(figure: &FigureData) {
    emit_in(figure, "results");
}

/// [`emit`] for a paper figure generated at `scale`: the export goes to
/// [`Scale::results_dir`], so a smoke run never overwrites the
/// committed full-scale figure.
pub fn emit_figure(figure: &FigureData, scale: Scale) {
    emit_in(figure, scale.results_dir());
}

fn emit_in(figure: &FigureData, dir: &str) {
    println!("{}", figure.to_table());
    match figure.write_json(dir) {
        Ok(()) => println!("# wrote {dir}/{}.json\n", figure.id),
        Err(err) => eprintln!("# could not write {dir}/{}.json: {err}\n", figure.id),
    }
}

/// [`emit`], plus the machine-local side channel the bench-regression
/// gate reads: `results/<id>.meta.json` carrying the run's wall-clock
/// seconds and the exact invocation arguments (so the gate can refuse
/// to compare results produced by a different invocation than the
/// baseline records). The meta file is *not* part of the deterministic
/// figure export (and is gitignored) — wall clock is the one number
/// that varies between machines.
pub fn emit_with_wall(figure: &FigureData, wall_seconds: f64) {
    emit(figure);
    let invocation: Vec<String> = std::env::args().skip(1).collect();
    let mut meta = String::new();
    meta.push_str("{\n  \"scenario\": ");
    json::write_escaped(&mut meta, &figure.id);
    meta.push_str(",\n  \"args\": ");
    json::write_escaped(&mut meta, &invocation.join(" "));
    meta.push_str(",\n  \"wall_seconds\": ");
    json::write_number(&mut meta, wall_seconds);
    meta.push_str("\n}\n");
    let path = format!("results/{}.meta.json", figure.id);
    if let Err(err) = std::fs::write(&path, meta) {
        eprintln!("# could not write {path}: {err}\n");
    }
}
