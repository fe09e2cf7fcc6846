//! Self-tests of the benchmark at toy size: every workload runs and
//! checks its outputs, forced failures are counted, the printed metric
//! names match `BENCHMARK.json`, and each traced run emits the per-layer
//! metrics of the layers its workload exercises.

use bfw_stats::JsonValue;
use perfbench::{geo, ring, trials, Options, Outcome, Scale, Workload, END_TO_END, PER_LAYER};
use std::process::Command;

fn smoke(workload: Workload, trace: bool, force_failure: bool) -> Outcome {
    perfbench::run(&Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        force_failure,
    })
}

fn layers(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::Ring => ring::LAYERS,
        Workload::Geo => geo::LAYERS,
        Workload::Trials => trials::LAYERS,
    }
}

#[test]
fn every_workload_runs_and_passes_its_checks() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, false, false);
        assert!(outcome.checks.attempted > 0, "{}", workload.name());
        assert_eq!(
            outcome.checks.failures,
            Vec::<String>::new(),
            "{}",
            workload.name()
        );
        assert!(outcome.pass_wall_s.len() >= 3, "{}", workload.name());
        for &(name, _) in END_TO_END {
            let value = outcome
                .metric(name)
                .expect("every end-to-end metric is measured");
            assert!(value > 0.0, "{} {name} = {value}", workload.name());
        }
    }
}

#[test]
fn traced_runs_emit_every_layer_their_workload_exercises() {
    let known: Vec<&str> = PER_LAYER.iter().map(|&(name, _)| name).collect();
    for workload in Workload::ALL {
        let outcome = smoke(workload, true, false);
        assert_eq!(
            outcome.checks.failures,
            Vec::<String>::new(),
            "{}: traced report bytes must equal the untraced run's",
            workload.name()
        );
        assert!(outcome
            .tracer
            .as_ref()
            .is_some_and(|t| !t.spans().is_empty()));
        for &name in layers(workload) {
            assert!(known.contains(&name), "{name} is not in PER_LAYER");
            let value = outcome
                .metric(name)
                .unwrap_or_else(|| panic!("{}: traced run lacks {name}", workload.name()));
            assert!(value.is_finite(), "{} {name} = {value}", workload.name());
        }
        let line = JsonValue::parse(&outcome.result_line(PER_LAYER)).expect("result line is JSON");
        let metrics = line
            .get("metrics")
            .and_then(JsonValue::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), PER_LAYER.len());
    }
}

#[test]
fn an_unconverged_trial_is_counted_not_swallowed() {
    let outcome = smoke(Workload::Trials, false, true);
    // Every trial fails (budget of one round) on every pass.
    assert!(
        outcome.checks.failed() >= 3 * 64 * 2,
        "{:?}",
        outcome.checks
    );
    let line = JsonValue::parse(&outcome.result_line(END_TO_END)).expect("result line is JSON");
    assert_eq!(
        line.get("correct").and_then(JsonValue::as_bool),
        Some(false)
    );
}

#[test]
fn a_mismatched_resume_is_counted_not_swallowed() {
    let outcome = smoke(Workload::Geo, false, true);
    assert!(
        outcome
            .checks
            .failures
            .iter()
            .any(|f| f.contains("resumed outcome differs")),
        "{:?}",
        outcome.checks.failures
    );
    let line = JsonValue::parse(&outcome.result_line(END_TO_END)).expect("result line is JSON");
    assert_eq!(
        line.get("failed").and_then(JsonValue::as_number),
        Some(outcome.checks.failed() as f64)
    );
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn the_binary_prints_one_result_object_last() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "ring-1m",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .arg("--smoke")
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = JsonValue::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let keys: Vec<&String> = last.as_object().expect("an object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);

    let bad = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!bad.status.success());
    assert!(bad.stdout.is_empty());
}
