//! Shared `bfw/bench-report` assembly, writing and validation.
//!
//! Every committed `BENCH_*.json` artifact (E16's churn-scale costs,
//! E19's complexity faceoff, E20's tick-scale timings, E21's
//! parallel-scale sweep) is one schema: the common envelope, the
//! experiment id, the run configuration that produced it, and a flat
//! `rows` array, each row naming its graph in the workload grammar —
//!
//! ```json
//! {
//!   "format": "bfw/bench-report",
//!   "version": 1,
//!   "experiment": "E19-complexity",
//!   "quick": true,
//!   "seed": 12525605,
//!   "rows": [ ... ]
//! }
//! ```
//!
//! Experiments add extra top-level fields (e.g. churn's
//! `events_per_run`) between `seed` and `rows`. Row layout is
//! per-experiment; [`validate_bench_report`] checks the shared
//! structure, which is what `bfw report validate` runs over the tracked
//! artifacts.

use bfw_stats::{diff, Doc, Envelope, JsonValue, SchemaError};
use std::fmt;
use std::path::PathBuf;

/// Assembles a `bfw/bench-report` document.
pub fn bench_report(
    experiment: &str,
    quick: bool,
    seed: u64,
    extra: impl IntoIterator<Item = (&'static str, JsonValue)>,
    rows: impl IntoIterator<Item = JsonValue>,
) -> JsonValue {
    let mut fields: Vec<(String, JsonValue)> = Envelope::entries("bench-report").into();
    fields.push(("experiment".to_owned(), JsonValue::from(experiment)));
    fields.push(("quick".to_owned(), JsonValue::from(quick)));
    fields.push(("seed".to_owned(), JsonValue::from(seed)));
    for (key, value) in extra {
        fields.push((key.to_owned(), value));
    }
    fields.push(("rows".to_owned(), JsonValue::array(rows)));
    JsonValue::object(fields)
}

/// Rounds a measured float to `decimals` places so a report renders
/// compact, stable spellings (the renderer prints the shortest exact
/// form of the rounded value).
pub(crate) fn rounded(x: f64, decimals: u32) -> f64 {
    let scale = 10f64.powi(decimals as i32);
    (x * scale).round() / scale
}

/// Renders a report (pretty, deterministic) and writes it as
/// `file_name` under `root` (see [`ExpConfig::report_root`]); returns
/// the path written.
///
/// [`ExpConfig::report_root`]: crate::ExpConfig::report_root
///
/// # Panics
///
/// Panics if the file cannot be written — a bench report the harness
/// cannot commit is a broken run.
pub fn write_bench_report(root: PathBuf, file_name: &str, report: &JsonValue) -> PathBuf {
    let path = root.join(file_name);
    std::fs::write(&path, report.render_pretty())
        .unwrap_or_else(|e| panic!("{file_name} must be writable: {e}"));
    path
}

/// What [`validate_bench_report`] reports about a well-formed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchSummary {
    /// Experiment id (e.g. `"E20-tick-scale"`).
    pub experiment: String,
    /// Number of result rows.
    pub rows: usize,
}

impl fmt::Display for BenchSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bfw/bench-report, {} ({} rows)",
            self.experiment, self.rows
        )
    }
}

/// Validates the shared `bfw/bench-report` structure: envelope,
/// `experiment` string, `quick` flag, `seed`, and a `rows` array of
/// objects.
///
/// # Errors
///
/// A [`SchemaError`] naming the first offending path.
pub fn validate_bench_report(text: &str) -> Result<BenchSummary, SchemaError> {
    let value = JsonValue::parse(text).map_err(|e| SchemaError::root(e.to_string()))?;
    let doc = Doc::root(&value);
    Envelope::expect(&doc, "bench-report")?;
    let experiment = doc.field("experiment")?.str()?.to_owned();
    doc.field("quick")?.bool()?;
    doc.field("seed")?.u64()?;
    let rows = doc.field("rows")?.items()?;
    for row in &rows {
        if row.value().as_object().is_none() {
            return Err(row.error("expected a row object"));
        }
    }
    Ok(BenchSummary {
        experiment,
        rows: rows.len(),
    })
}

/// Folds successive `bfw/bench-report` documents of the **same
/// experiment** into one `bfw/bench-history` trajectory document:
///
/// ```json
/// {
///   "format": "bfw/bench-history",
///   "version": 1,
///   "experiment": "E20-tick-scale",
///   "points": [ <bench-report>, <bench-report>, ... ],
///   "deltas": [ { "entries": [ {"pointer", "left", "right"}, ... ] }, ... ]
/// }
/// ```
///
/// `points` carries the input reports verbatim (oldest first — pass
/// them in the order they were produced); `deltas[i]` is the
/// structural [`diff`] from `points[i]` to `points[i + 1]`, one entry
/// per divergent JSON pointer, so a reader can see *what moved*
/// between consecutive bench runs without re-diffing. Rendering is
/// deterministic: the same inputs always produce a byte-identical
/// document.
///
/// # Errors
///
/// A [`SchemaError`] when `reports` is empty, an input is not a
/// well-formed `bfw/bench-report`, or the inputs name different
/// experiments (a history mixes runs of one experiment only).
pub fn bench_history(reports: &[JsonValue]) -> Result<JsonValue, SchemaError> {
    if reports.is_empty() {
        return Err(SchemaError::root(
            "a bench history needs at least one bench report",
        ));
    }
    let mut experiment: Option<String> = None;
    for report in reports {
        let doc = Doc::root(report);
        Envelope::expect(&doc, "bench-report")?;
        let name = doc.field("experiment")?.str()?;
        match &experiment {
            None => experiment = Some(name.to_owned()),
            Some(first) if first != name => {
                return Err(SchemaError::root(format!(
                    "cannot fold reports of different experiments into one history: \
                     got \"{first}\" then \"{name}\""
                )));
            }
            Some(_) => {}
        }
    }
    let deltas = reports.windows(2).map(|pair| {
        let entries = diff(&pair[0], &pair[1]).into_iter().map(|e| {
            JsonValue::object([
                ("pointer", JsonValue::from(e.pointer.as_str())),
                ("left", e.left.unwrap_or(JsonValue::Null)),
                ("right", e.right.unwrap_or(JsonValue::Null)),
            ])
        });
        JsonValue::object([("entries".to_owned(), JsonValue::array(entries))])
    });
    let mut fields: Vec<(String, JsonValue)> = Envelope::entries("bench-history").into();
    fields.push((
        "experiment".to_owned(),
        JsonValue::from(experiment.expect("at least one report")),
    ));
    fields.push(("deltas".to_owned(), JsonValue::array(deltas)));
    fields.push((
        "points".to_owned(),
        JsonValue::array(reports.iter().cloned()),
    ));
    Ok(JsonValue::object(fields))
}

/// What [`validate_bench_history`] reports about a well-formed
/// document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistorySummary {
    /// The experiment the trajectory tracks.
    pub experiment: String,
    /// Number of bench-report points.
    pub points: usize,
    /// Total divergent pointers across all consecutive deltas.
    pub changes: usize,
}

impl fmt::Display for HistorySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bfw/bench-history, {} ({} points, {} changed paths)",
            self.experiment, self.points, self.changes
        )
    }
}

/// Validates a `bfw/bench-history` document: the envelope, the
/// experiment id, every embedded point as a full `bfw/bench-report`
/// (all naming the same experiment), and a `deltas` array with one
/// entry list per consecutive pair.
///
/// # Errors
///
/// A [`SchemaError`] naming the first offending path.
pub fn validate_bench_history(text: &str) -> Result<HistorySummary, SchemaError> {
    let value = JsonValue::parse(text).map_err(|e| SchemaError::root(e.to_string()))?;
    let doc = Doc::root(&value);
    Envelope::expect(&doc, "bench-history")?;
    let experiment = doc.field("experiment")?.str()?.to_owned();
    let points = doc.field("points")?.items()?;
    if points.is_empty() {
        return Err(doc.field("points")?.error("expected at least one point"));
    }
    for point in &points {
        Envelope::expect(point, "bench-report")?;
        let name = point.field("experiment")?.str()?;
        if name != experiment {
            return Err(point
                .field("experiment")?
                .error(format!("expected \"{experiment}\", got \"{name}\"")));
        }
        point.field("quick")?.bool()?;
        point.field("seed")?.u64()?;
        for row in point.field("rows")?.items()? {
            if row.value().as_object().is_none() {
                return Err(row.error("expected a row object"));
            }
        }
    }
    let deltas = doc.field("deltas")?.items()?;
    if deltas.len() + 1 != points.len() {
        return Err(doc.field("deltas")?.error(format!(
            "expected {} delta(s) for {} point(s), got {}",
            points.len() - 1,
            points.len(),
            deltas.len()
        )));
    }
    let mut changes = 0;
    for delta in &deltas {
        for entry in delta.field("entries")?.items()? {
            entry.field("pointer")?.str()?;
            changes += 1;
        }
    }
    Ok(HistorySummary {
        experiment,
        points: points.len(),
        changes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_assembles_validates_and_round_trips() {
        let report = bench_report(
            "E99-test",
            true,
            42,
            [("events_per_run", JsonValue::from(1024u64))],
            [
                JsonValue::object([("graph", JsonValue::from("cycle:16"))]),
                JsonValue::object([("graph", JsonValue::from("torus:4x4"))]),
            ],
        );
        let text = report.render_pretty();
        let summary = validate_bench_report(&text).unwrap();
        assert_eq!(
            summary,
            BenchSummary {
                experiment: "E99-test".to_owned(),
                rows: 2,
            }
        );
        // Parse–render–parse fixpoint.
        assert_eq!(JsonValue::parse(&text).unwrap(), report);
        assert_eq!(
            report.get("format").and_then(JsonValue::as_str),
            Some("bfw/bench-report")
        );
    }

    #[test]
    fn history_folds_reports_and_diffs_consecutive_pairs() {
        let a = bench_report(
            "E20-tick-scale",
            true,
            42,
            [],
            [JsonValue::object([("rps", JsonValue::from(100.0))])],
        );
        let b = bench_report(
            "E20-tick-scale",
            true,
            42,
            [],
            [JsonValue::object([("rps", JsonValue::from(140.0))])],
        );
        let history = bench_history(&[a.clone(), b.clone()]).unwrap();
        let text = history.render_pretty();
        let summary = validate_bench_history(&text).unwrap();
        assert_eq!(
            summary,
            HistorySummary {
                experiment: "E20-tick-scale".to_owned(),
                points: 2,
                changes: 1,
            }
        );
        // The single delta names the row value that moved.
        let deltas = history.get("deltas").and_then(JsonValue::as_array).unwrap();
        assert_eq!(deltas.len(), 1);
        let entries = deltas[0]
            .get("entries")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(
            entries[0].get("pointer").and_then(JsonValue::as_str),
            Some("/rows/0/rps")
        );
        assert_eq!(
            entries[0].get("right").and_then(JsonValue::as_number),
            Some(140.0)
        );
        // Points carry the inputs verbatim; rendering is deterministic.
        let points = history.get("points").and_then(JsonValue::as_array).unwrap();
        assert_eq!(points, &[a.clone(), b.clone()]);
        assert_eq!(JsonValue::parse(&text).unwrap(), history);
        assert_eq!(bench_history(&[a.clone(), b]).unwrap(), history);

        // A single point is a valid (delta-free) trajectory.
        let single = bench_history(std::slice::from_ref(&a)).unwrap();
        let summary = validate_bench_history(&single.render_pretty()).unwrap();
        assert_eq!(summary.points, 1);
        assert_eq!(summary.changes, 0);
    }

    #[test]
    fn history_rejects_mixed_and_malformed_inputs() {
        let a = bench_report("E20-tick-scale", true, 42, [], []);
        let other = bench_report("E19-complexity", true, 42, [], []);
        let err = bench_history(&[a.clone(), other]).unwrap_err();
        assert!(err.to_string().contains("different experiments"), "{err}");
        assert!(bench_history(&[]).is_err());
        let not_a_report = JsonValue::object([("rows", JsonValue::array([]))]);
        assert!(bench_history(&[not_a_report]).is_err());

        // Validation pins the shape: wrong point experiment, missing
        // deltas, short delta arrays all fail with pointer paths.
        let good = bench_history(&[a.clone(), a]).unwrap();
        let mut tampered = good.clone();
        if let JsonValue::Object(map) = &mut tampered {
            map.insert("deltas".to_owned(), JsonValue::array([]));
        }
        let err = validate_bench_history(&tampered.render()).unwrap_err();
        assert_eq!(err.pointer(), "/deltas", "{err}");
        let mut tampered = good;
        if let JsonValue::Object(map) = &mut tampered {
            if let Some(JsonValue::Array(points)) = map.get_mut("points") {
                if let JsonValue::Object(point) = &mut points[1] {
                    point.insert("experiment".to_owned(), JsonValue::from("E19-complexity"));
                }
            }
        }
        let err = validate_bench_history(&tampered.render()).unwrap_err();
        assert_eq!(err.pointer(), "/points/1/experiment", "{err}");
    }

    #[test]
    fn validation_rejects_with_pointers() {
        let cases = [
            (r#"{"experiment": "x"}"#, ""),
            (
                r#"{"format": "bfw/graph", "version": 1, "experiment": "x", "quick": true, "seed": 1, "rows": []}"#,
                "",
            ),
            (
                r#"{"format": "bfw/bench-report", "version": 1, "quick": true, "seed": 1, "rows": []}"#,
                "",
            ),
            (
                r#"{"format": "bfw/bench-report", "version": 1, "experiment": "x", "quick": true, "seed": 1, "rows": [{"a": 1}, 3]}"#,
                "/rows/1",
            ),
            (
                r#"{"format": "bfw/bench-report", "version": 1, "experiment": "x", "quick": "yes", "seed": 1, "rows": []}"#,
                "/quick",
            ),
        ];
        for (text, pointer) in cases {
            let err = validate_bench_report(text).unwrap_err();
            assert_eq!(err.pointer(), pointer, "{text} -> {err}");
        }
    }
}
