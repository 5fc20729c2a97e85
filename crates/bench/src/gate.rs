//! The bench-regression gate: compares key scenario metrics against a
//! checked-in baseline (`BENCH_baseline.json`) with per-metric
//! tolerances, and fails CI on regression.
//!
//! Every scenario bin exports two files: the deterministic figure
//! (`results/<id>.json`, byte-identical per seed) and a machine-local
//! side channel (`results/<id>.meta.json`) carrying the wall-clock
//! seconds of the run. The gate checks
//!
//! * each baselined **metric** (a scalar series of the figure, e.g.
//!   `acceptance_ratio`, `rejected_joins`, `provisioned_mbps_hours`)
//!   against its recorded value within a relative tolerance, and
//! * the **wall clock** against an absolute per-scenario ceiling (CI
//!   machines vary, so the budget is a ceiling, not a tolerance band).
//!
//! Intentional behaviour changes re-record the baseline through
//! [`update_scenario`] (`bench_gate --update`), which refreshes the
//! recorded values while keeping tolerances and wall ceilings.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::json::{self, JsonValue};
use crate::table::FigureData;

/// One baselined metric: a scalar series label, its recorded value, and
/// the relative tolerance the current value may drift within.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricCheck {
    /// The figure series the metric lives in (its last point's y).
    pub label: String,
    /// The recorded baseline value.
    pub value: f64,
    /// Allowed relative drift: the check passes while
    /// `|current − value| ≤ tolerance × max(|value|, 1)`.
    pub tolerance: f64,
}

impl MetricCheck {
    /// Whether `current` is inside this metric's tolerance band.
    pub fn accepts(&self, current: f64) -> bool {
        (current - self.value).abs() <= self.tolerance * self.value.abs().max(1.0)
    }
}

/// The baseline of one scenario: its name (figure id and bin name), the
/// CI invocation it was recorded under, a wall-clock ceiling, and the
/// metric checks.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBaseline {
    /// Scenario name — the figure id, the binary name, and the
    /// `results/<name>.json` stem.
    pub name: String,
    /// The arguments the baseline was recorded under (documentation;
    /// the gate does not re-run the scenario).
    pub args: String,
    /// Absolute wall-clock budget in seconds for the recorded
    /// invocation; `0` disables the wall check.
    pub max_wall_seconds: f64,
    /// The baselined metrics.
    pub metrics: Vec<MetricCheck>,
}

/// The whole checked-in baseline document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateBaseline {
    /// Baselines in file order.
    pub scenarios: Vec<ScenarioBaseline>,
}

impl GateBaseline {
    /// Parses a baseline document.
    ///
    /// # Errors
    ///
    /// Returns an error naming the malformed or missing element.
    pub fn from_json(input: &str) -> Result<GateBaseline, String> {
        let doc = json::parse(input).map_err(|e| e.to_string())?;
        let mut scenarios = Vec::new();
        for (i, entry) in doc
            .get("scenarios")
            .and_then(JsonValue::as_array)
            .ok_or("missing array field `scenarios`")?
            .iter()
            .enumerate()
        {
            let string = |key: &str| -> Result<String, String> {
                entry
                    .get(key)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("scenario {i}: missing string `{key}`"))
            };
            let number = |key: &str| -> Result<f64, String> {
                entry
                    .get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("scenario {i}: missing number `{key}`"))
            };
            let mut metrics = Vec::new();
            for (j, m) in entry
                .get("metrics")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("scenario {i}: missing array `metrics`"))?
                .iter()
                .enumerate()
            {
                let label = m
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("scenario {i} metric {j}: missing `label`"))?;
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("scenario {i} metric {j}: missing `value`"))?;
                let tolerance = m
                    .get("tolerance")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("scenario {i} metric {j}: missing `tolerance`"))?;
                metrics.push(MetricCheck {
                    label: label.to_string(),
                    value,
                    tolerance,
                });
            }
            scenarios.push(ScenarioBaseline {
                name: string("name")?,
                args: string("args").unwrap_or_default(),
                max_wall_seconds: number("max_wall_seconds").unwrap_or(0.0),
                metrics,
            });
        }
        Ok(GateBaseline { scenarios })
    }

    /// Serialises the baseline to the checked-in pretty-JSON form
    /// (round-trip-exact numbers, stable ordering).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"scenarios\": [");
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"name\": ");
            json::write_escaped(&mut out, &s.name);
            out.push_str(",\n      \"args\": ");
            json::write_escaped(&mut out, &s.args);
            out.push_str(",\n      \"max_wall_seconds\": ");
            json::write_number(&mut out, s.max_wall_seconds);
            out.push_str(",\n      \"metrics\": [");
            for (j, m) in s.metrics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        {\"label\": ");
                json::write_escaped(&mut out, &m.label);
                out.push_str(", \"value\": ");
                json::write_number(&mut out, m.value);
                out.push_str(", \"tolerance\": ");
                json::write_number(&mut out, m.tolerance);
                out.push('}');
            }
            if !s.metrics.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        if !self.scenarios.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// The baseline entry for `name`, if recorded.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioBaseline> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// The machine-local side channel a scenario run leaves next to its
/// figure: wall-clock seconds plus the exact invocation arguments.
struct RunMeta {
    wall_seconds: Option<f64>,
    args: Option<String>,
}

/// Reads `results/<name>.meta.json`; `Ok(None)` when the file does not
/// exist (the scenario was not run on this machine).
///
/// # Errors
///
/// Returns an error only for a present-but-malformed file.
fn read_meta(results_dir: &Path, name: &str) -> Result<Option<RunMeta>, String> {
    let path = results_dir.join(format!("{name}.meta.json"));
    let raw = match fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(_) => return Ok(None),
    };
    let doc = json::parse(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Some(RunMeta {
        wall_seconds: doc.get("wall_seconds").and_then(JsonValue::as_f64),
        args: doc
            .get("args")
            .and_then(JsonValue::as_str)
            .map(str::to_string),
    }))
}

/// Refuses to compare results whose recorded invocation differs from
/// the baseline's — three hand-synchronised copies (CI args, baseline
/// args, the local command line) otherwise drift into misleading
/// "regressions".
fn verify_invocation(baseline: &ScenarioBaseline, meta: &RunMeta) -> Result<(), String> {
    if let Some(args) = &meta.args {
        if args.trim() != baseline.args.trim() {
            return Err(format!(
                "{}: results were produced by `{}` but the baseline records `{}`; \
                 re-run the scenario with the baseline invocation (or --update after \
                 changing the baseline's args)",
                baseline.name,
                args.trim(),
                baseline.args.trim()
            ));
        }
    }
    Ok(())
}

/// Loads `results/<name>.json` as a figure.
fn read_figure(results_dir: &Path, name: &str) -> Result<FigureData, String> {
    let path = results_dir.join(format!("{name}.json"));
    let raw = fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {} ({e}); run the scenario first",
            path.display()
        )
    })?;
    FigureData::from_json(&raw).map_err(|e| format!("{}: {e}", path.display()))
}

/// Evaluates one scenario's current results against its baseline in a
/// single pass over the inputs: returns the rendered per-metric report
/// and the list of regression messages (empty = the gate passes).
///
/// # Errors
///
/// Returns an error when the inputs are missing or malformed, or when
/// the results were produced by a different invocation than the
/// baseline records (as opposed to a regression, which is a non-empty
/// failure list).
pub fn evaluate_scenario(
    baseline: &ScenarioBaseline,
    results_dir: &Path,
) -> Result<(String, Vec<String>), String> {
    let figure = read_figure(results_dir, &baseline.name)?;
    let meta = read_meta(results_dir, &baseline.name)?;
    if let Some(meta) = &meta {
        verify_invocation(baseline, meta)?;
    }
    let mut report = String::new();
    let mut failures = Vec::new();
    for m in &baseline.metrics {
        let current = figure.scalar(&m.label);
        let verdict = match current {
            Some(c) if m.accepts(c) => "ok",
            Some(_) => "REGRESSED",
            None => "MISSING",
        };
        let _ = writeln!(
            report,
            "  {:<28} current {:>14} baseline {:>14} ±{:>4.0}%  {}",
            m.label,
            current.map_or("-".to_string(), |c| format!("{c:.4}")),
            format!("{:.4}", m.value),
            m.tolerance * 100.0,
            verdict
        );
        match current {
            None => failures.push(format!(
                "{}: metric `{}` missing from results",
                baseline.name, m.label
            )),
            Some(current) if !m.accepts(current) => failures.push(format!(
                "{}: `{}` regressed — current {current} vs baseline {} (±{:.0}%)",
                baseline.name,
                m.label,
                m.value,
                m.tolerance * 100.0
            )),
            Some(_) => {}
        }
    }
    if baseline.max_wall_seconds > 0.0 {
        let wall = meta.and_then(|m| m.wall_seconds).ok_or_else(|| {
            format!(
                "cannot read {}.meta.json wall seconds; run the scenario first",
                results_dir.join(&baseline.name).display()
            )
        })?;
        if wall > baseline.max_wall_seconds {
            failures.push(format!(
                "{}: wall clock {wall:.1}s exceeds the {:.0}s budget",
                baseline.name, baseline.max_wall_seconds
            ));
        }
    }
    Ok((report, failures))
}

/// Re-records one scenario's baseline values from the current results,
/// keeping tolerances and the wall ceiling — the update path for
/// intentional behaviour changes.
///
/// # Errors
///
/// Returns an error when the current results are missing a baselined
/// metric (stale baselines should be pruned explicitly, not silently),
/// when the results carry no run metadata (nothing proves what produced
/// them — run the scenario first), or when they were produced by a
/// different invocation than the baseline records.
pub fn update_scenario(baseline: &mut ScenarioBaseline, results_dir: &Path) -> Result<(), String> {
    let figure = read_figure(results_dir, &baseline.name)?;
    let meta = read_meta(results_dir, &baseline.name)?.ok_or_else(|| {
        format!(
            "{}: no run metadata next to the results; run the scenario \
             (with the baseline's args) before --update",
            baseline.name
        )
    })?;
    verify_invocation(baseline, &meta)?;
    for m in &mut baseline.metrics {
        m.value = figure.scalar(&m.label).ok_or_else(|| {
            format!(
                "{}: metric `{}` missing from current results",
                baseline.name, m.label
            )
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Series;

    fn dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "telecast-gate-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn figure(id: &str, ratio: f64) -> FigureData {
        FigureData {
            id: id.into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series::new("acceptance_ratio", vec![(100.0, ratio)])],
        }
    }

    fn baseline(name: &str, value: f64, tol: f64, wall: f64) -> ScenarioBaseline {
        ScenarioBaseline {
            name: name.into(),
            args: "--viewers 100".into(),
            max_wall_seconds: wall,
            metrics: vec![MetricCheck {
                label: "acceptance_ratio".into(),
                value,
                tolerance: tol,
            }],
        }
    }

    #[test]
    fn baseline_json_round_trips() {
        let doc = GateBaseline {
            scenarios: vec![baseline("spike_storm", 0.95, 0.05, 240.0)],
        };
        let parsed = GateBaseline::from_json(&doc.to_json()).unwrap();
        assert_eq!(parsed, doc);
        assert!(parsed.scenario("spike_storm").is_some());
        assert!(parsed.scenario("nope").is_none());
        assert!(GateBaseline::from_json("{}").is_err());
    }

    #[test]
    fn gate_passes_inside_tolerance_and_fails_outside() {
        let d = dir();
        figure("s", 0.93).write_json(&d).unwrap();
        fs::write(d.join("s.meta.json"), "{\"wall_seconds\": 12.5}").unwrap();
        let b = baseline("s", 0.95, 0.05, 240.0);
        assert!(evaluate_scenario(&b, &d).unwrap().1.is_empty());
        // 0.93 vs 0.95 at 1% of max(0.95,1)=1 → |Δ|=0.02 > 0.01: fail.
        let tight = baseline("s", 0.95, 0.01, 240.0);
        let failures = evaluate_scenario(&tight, &d).unwrap().1;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regressed"), "{failures:?}");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn gate_enforces_the_wall_budget_and_missing_inputs() {
        let d = dir();
        figure("s", 0.95).write_json(&d).unwrap();
        // No meta file yet: the wall check reports an actionable error.
        let b = baseline("s", 0.95, 0.05, 100.0);
        assert!(evaluate_scenario(&b, &d)
            .unwrap_err()
            .contains("run the scenario first"));
        fs::write(d.join("s.meta.json"), "{\"wall_seconds\": 150.0}").unwrap();
        let failures = evaluate_scenario(&b, &d).unwrap().1;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("wall clock"), "{failures:?}");
        // A zero ceiling disables the wall check.
        let no_wall = baseline("s", 0.95, 0.05, 0.0);
        assert!(evaluate_scenario(&no_wall, &d).unwrap().1.is_empty());
        // Missing results are an error, not a silent pass.
        let missing = baseline("absent", 1.0, 0.1, 0.0);
        assert!(evaluate_scenario(&missing, &d).is_err());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn gate_flags_metrics_missing_from_results() {
        let d = dir();
        figure("s", 0.95).write_json(&d).unwrap();
        let mut b = baseline("s", 0.95, 0.05, 0.0);
        b.metrics.push(MetricCheck {
            label: "no_such_series".into(),
            value: 1.0,
            tolerance: 0.1,
        });
        let failures = evaluate_scenario(&b, &d).unwrap().1;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"), "{failures:?}");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn update_re_records_values_but_keeps_tolerances() {
        let d = dir();
        figure("s", 0.80).write_json(&d).unwrap();
        let mut b = baseline("s", 0.95, 0.05, 240.0);
        // No run metadata: nothing proves what produced the results, so
        // the update path refuses instead of silently re-recording.
        assert!(update_scenario(&mut b, &d)
            .unwrap_err()
            .contains("no run metadata"));
        fs::write(
            d.join("s.meta.json"),
            "{\"args\": \"--viewers 100\", \"wall_seconds\": 9.0}",
        )
        .unwrap();
        update_scenario(&mut b, &d).unwrap();
        assert_eq!(b.metrics[0].value, 0.80);
        assert_eq!(b.metrics[0].tolerance, 0.05);
        assert_eq!(b.max_wall_seconds, 240.0);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn gate_refuses_results_from_a_different_invocation() {
        let d = dir();
        figure("s", 0.95).write_json(&d).unwrap();
        fs::write(
            d.join("s.meta.json"),
            "{\"args\": \"--viewers 9999\", \"wall_seconds\": 1.0}",
        )
        .unwrap();
        let b = baseline("s", 0.95, 0.05, 240.0); // records --viewers 100
        let err = evaluate_scenario(&b, &d).unwrap_err();
        assert!(err.contains("different invocation") || err.contains("baseline records"));
        let mut b2 = baseline("s", 0.95, 0.05, 240.0);
        assert!(update_scenario(&mut b2, &d).is_err());
        assert_eq!(b2.metrics[0].value, 0.95, "mismatch must not re-record");
        fs::remove_dir_all(&d).unwrap();
    }
}
