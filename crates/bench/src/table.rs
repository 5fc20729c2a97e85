//! Figure data containers, table printing, and JSON export.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::json::{self, JsonValue};

/// One plotted curve: a label plus `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `Cobw=6Mbps` or `TeleCast`.
    pub label: String,
    /// The curve's points in ascending x.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// The y value at the given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }
}

/// Everything needed to regenerate one figure of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Figure identifier, e.g. `fig13a`.
    pub id: String,
    /// Human title matching the paper's caption.
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// The plotted curves.
    pub series: Vec<Series>,
}

impl FigureData {
    /// The series labelled `label`.
    pub fn find(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// The y of the last point of the series labelled `label` — a
    /// scalar series' value.
    pub fn scalar(&self, label: &str) -> Option<f64> {
        self.find(label)?.points.last().map(|&(_, y)| y)
    }

    /// Renders the figure as an aligned text table (x column + one column
    /// per series), the form the `fig*` binaries print.
    pub fn to_table(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("x is never NaN"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = writeln!(out, "# y: {}", self.y_label);
        let width = 14usize;
        let _ = write!(out, "{:>width$}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "{:>width$}", truncate(&s.label, width - 1));
        }
        let _ = writeln!(out);
        for &x in &xs {
            let _ = write!(out, "{:>width$}", format_num(x));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, "{:>width$}", format_num(y));
                    }
                    None => {
                        let _ = write!(out, "{:>width$}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Serialises the figure to pretty JSON.
    ///
    /// The document is written by hand (see [`crate::json`]); numbers use
    /// the shortest round-trip-exact form, so [`FigureData::from_json`]
    /// reconstructs the figure bit for bit.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        for (i, (key, value)) in [
            ("id", &self.id),
            ("title", &self.title),
            ("x_label", &self.x_label),
            ("y_label", &self.y_label),
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  ");
            json::write_escaped(&mut out, key);
            out.push_str(": ");
            json::write_escaped(&mut out, value);
        }
        out.push_str(",\n  \"series\": [");
        for (i, series) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"label\": ");
            json::write_escaped(&mut out, &series.label);
            out.push_str(",\n      \"points\": [");
            for (j, &(x, y)) in series.points.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push('[');
                json::write_number(&mut out, x);
                out.push_str(", ");
                json::write_number(&mut out, y);
                out.push(']');
            }
            out.push_str("]\n    }");
        }
        if !self.series.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// Parses a document produced by [`FigureData::to_json`].
    ///
    /// # Errors
    ///
    /// Returns an error naming the malformed or missing element.
    pub fn from_json(input: &str) -> Result<FigureData, String> {
        let doc = json::parse(input).map_err(|e| e.to_string())?;
        let field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let mut series = Vec::new();
        for (i, entry) in doc
            .get("series")
            .and_then(JsonValue::as_array)
            .ok_or("missing array field `series`")?
            .iter()
            .enumerate()
        {
            let label = entry
                .get("label")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("series {i}: missing `label`"))?;
            let mut points = Vec::new();
            for point in entry
                .get("points")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("series {i}: missing `points`"))?
            {
                match point.as_array() {
                    Some([x, y]) => match (x.as_f64(), y.as_f64()) {
                        (Some(x), Some(y)) => points.push((x, y)),
                        _ => return Err(format!("series {i}: non-numeric point")),
                    },
                    _ => return Err(format!("series {i}: point is not an [x, y] pair")),
                }
            }
            series.push(Series::new(label, points));
        }
        Ok(FigureData {
            id: field("id")?,
            title: field("title")?,
            x_label: field("x_label")?,
            y_label: field("y_label")?,
            series,
        })
    }

    /// Writes `<dir>/<id>.json`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the directory or file.
    pub fn write_json(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.json", self.id)), self.to_json())
    }
}

/// Shortens a label to at most `max` characters, appending `…` when cut.
/// Operates on char boundaries, so multi-byte labels never split.
fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let keep: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{keep}…")
    }
}

fn format_num(v: f64) -> String {
    if (v.fract()).abs() < 1e-9 && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure() -> FigureData {
        FigureData {
            id: "fig0".into(),
            title: "test figure".into(),
            x_label: "viewers".into(),
            y_label: "ratio".into(),
            series: vec![
                Series::new("a", vec![(100.0, 0.5), (200.0, 0.75)]),
                Series::new("b", vec![(100.0, 1.0)]),
            ],
        }
    }

    #[test]
    fn table_aligns_and_fills_gaps() {
        let t = figure().to_table();
        assert!(t.contains("fig0"));
        assert!(t.contains("viewers"));
        assert!(t.contains("0.75"));
        // Missing point of series b at x=200 shows as '-'.
        let last = t.lines().last().unwrap();
        assert!(last.trim_end().ends_with('-'), "line was: {last}");
    }

    #[test]
    fn json_round_trips() {
        let f = figure();
        let parsed = FigureData::from_json(&f.to_json()).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn json_round_trips_non_ascii_and_empty_series() {
        let f = FigureData {
            id: "fig≤".into(),
            title: "τ — \"quoted\"\nmultiline".into(),
            x_label: "β".into(),
            y_label: "ρ".into(),
            series: vec![
                Series::new("Cobw≤6Mbps", vec![(0.1, -2.5)]),
                Series::new("∅", vec![]),
            ],
        };
        let parsed = FigureData::from_json(&f.to_json()).unwrap();
        assert_eq!(parsed, f);
        let none = FigureData {
            series: vec![],
            ..f
        };
        assert_eq!(FigureData::from_json(&none.to_json()).unwrap(), none);
    }

    #[test]
    fn from_json_reports_malformed_documents() {
        assert!(FigureData::from_json("{").is_err());
        assert!(FigureData::from_json("{}").is_err());
        assert!(FigureData::from_json(
            r#"{"id":"a","title":"b","x_label":"c","y_label":"d","series":[{"label":"s","points":[[1.0]]}]}"#
        )
        .is_err());
    }

    #[test]
    fn write_json_creates_results_dir_and_round_trips() {
        // Exercise the `results/` auto-creation path `emit` relies on:
        // point write_json at a tempdir subdirectory that does not exist.
        let dir = std::env::temp_dir().join(format!(
            "telecast-table-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let nested = dir.join("results");
        let _ = fs::remove_dir_all(&dir);
        assert!(!nested.exists());

        let f = figure();
        f.write_json(&nested).unwrap();
        let raw = fs::read_to_string(nested.join("fig0.json")).unwrap();
        assert_eq!(FigureData::from_json(&raw).unwrap(), f);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_is_char_boundary_safe() {
        // A multi-byte label used to panic on the old byte-index slice.
        assert_eq!(truncate("Cobw≤6Mbps—Ω", 8), "Cobw≤6M…");
        assert_eq!(truncate("ασβγ", 8), "ασβγ");
        assert_eq!(truncate("日本語のラベル", 4), "日本語…");
        assert_eq!(truncate("ascii-label-that-is-long", 8), "ascii-l…");
    }

    #[test]
    fn y_at_finds_points() {
        let f = figure();
        assert_eq!(f.series[0].y_at(200.0), Some(0.75));
        assert_eq!(f.series[1].y_at(200.0), None);
    }

    #[test]
    fn integers_print_clean() {
        assert_eq!(format_num(1000.0), "1000");
        assert_eq!(format_num(0.55), "0.550");
    }
}
