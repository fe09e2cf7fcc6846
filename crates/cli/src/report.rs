//! `bfw report`: validate any `bfw/*` document, diff two, or fold bench
//! reports into a history.

use crate::args::Flags;
use bfw_stats::{did_you_mean, JsonValue, SchemaError};
use std::fmt::Write as _;

/// Checks a document of one kind and summarizes it.
type Validator = fn(&str) -> Result<String, SchemaError>;

/// Every document kind `bfw` writes, each with its validator: the list
/// `report validate` dispatches on and `bfw help` prints.
pub(crate) const KINDS: &[(&str, Validator)] = &[
    ("bfw/graph", |text| {
        Ok(bfw_graph::io::validate_json(text)?.to_string())
    }),
    ("bfw/bench-report", |text| {
        Ok(bfw_bench::report::validate_bench_report(text)?.to_string())
    }),
    ("bfw/scenario-report", |text| {
        Ok(bfw_scenario::validate_run_report(text)?.to_string())
    }),
    ("bfw/bench-history", |text| {
        Ok(bfw_bench::report::validate_bench_history(text)?.to_string())
    }),
    ("bfw/engine-snapshot", |text| {
        Ok(bfw_scenario::validate_engine_snapshot(text)?.to_string())
    }),
    ("bfw/scenario-spec", |text| {
        Ok(bfw_scenario::validate_scenario_spec(text)?.to_string())
    }),
    ("bfw/report-diff", |text| {
        Ok(bfw_stats::validate_diff(text)?.to_string())
    }),
];

/// The `bfw report` verbs.
const VERBS: &[&str] = &["validate", "diff", "history"];

pub(crate) fn run(args: &[String]) -> Result<String, String> {
    let Some((verb, rest)) = args.split_first() else {
        return Err("report needs a subcommand (validate | diff | history)".to_owned());
    };
    match verb.as_str() {
        "validate" if rest.is_empty() => Err("report validate needs at least one FILE".to_owned()),
        "validate" => validate(rest),
        "diff" => {
            let [left, right] = rest else {
                return Err("report diff takes exactly two FILE arguments".to_owned());
            };
            diff(left, right)
        }
        "history" => history(rest),
        other => Err(format!(
            "unknown report subcommand '{other}'{}; valid: {}",
            did_you_mean(other, VERBS),
            VERBS.join(", ")
        )),
    }
}

/// Reads a file as JSON.
fn read_json(file: &str) -> Result<JsonValue, String> {
    JsonValue::parse(&crate::read_file(file)?).map_err(|e| format!("{file}: not JSON: {e}"))
}

/// `bfw report validate`: dispatches each file on its envelope
/// `format` field to the matching validator and prints one summary
/// line per file. The first invalid file fails the command.
fn validate(files: &[String]) -> Result<String, String> {
    let mut out = String::new();
    for file in files {
        let text = crate::read_file(file)?;
        let value = JsonValue::parse(&text).map_err(|e| format!("{file}: not JSON: {e}"))?;
        let format = value
            .get("format")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{file}: missing \"format\" envelope field"))?;
        let Some((_, validator)) = KINDS.iter().find(|(kind, _)| *kind == format) else {
            let known: Vec<&str> = KINDS.iter().map(|(kind, _)| *kind).collect();
            return Err(format!(
                "{file}: unknown format \"{format}\"{}; valid: {}",
                did_you_mean(format, &known),
                known.join(", ")
            ));
        };
        let summary = validator(&text).map_err(|e| format!("{file}: {e}"))?;
        let _ = writeln!(out, "{file}: ok — {summary}");
    }
    out.truncate(out.trim_end_matches('\n').len());
    Ok(out)
}

/// `bfw report diff`: structural comparison of two JSON documents,
/// printed as a `bfw/report-diff` document — one entry per differing
/// JSON-pointer path, with the left/right values (`null` = absent).
fn diff(left: &str, right: &str) -> Result<String, String> {
    let entries = bfw_stats::diff(&read_json(left)?, &read_json(right)?);
    let rendered = bfw_stats::diff_to_json(&entries).render_pretty();
    Ok(rendered.trim_end_matches('\n').to_owned())
}

/// `bfw report history`: folds a chronological sequence of
/// `bfw/bench-report` documents (same experiment) into one
/// `bfw/bench-history` document — the input reports verbatim as
/// `points`, plus a precomputed diff per consecutive pair as `deltas`.
fn history(args: &[String]) -> Result<String, String> {
    let args = Flags {
        verb: "report history",
        values: &["--out"],
        switches: &[],
    }
    .read(args)?;
    if args.positionals().is_empty() {
        return Err(
            "report history needs at least one bfw/bench-report FILE (oldest first)".to_owned(),
        );
    }
    let reports = args
        .positionals()
        .iter()
        .map(|file| read_json(file))
        .collect::<Result<Vec<_>, _>>()?;
    let history = bfw_bench::report::bench_history(&reports).map_err(|e| e.to_string())?;
    let rendered = history.render_pretty();
    match args.text("--out") {
        Some(path) => {
            crate::write_file(&path, &rendered)?;
            let summary = bfw_bench::report::validate_bench_history(&rendered)
                .map_err(|e| format!("{path}: {e}"))?;
            Ok(format!("wrote {path} — {summary}"))
        }
        None => Ok(rendered.trim_end_matches('\n').to_owned()),
    }
}
