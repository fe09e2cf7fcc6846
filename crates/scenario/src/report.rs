//! The `bfw/scenario-report` document: one structure, two views.
//!
//! A [`RunReport`] bundles everything one scenario run produced — the
//! resolved configuration, the [`ScenarioOutcome`], and the optional
//! [`ScenarioTrace`] — and renders it two ways:
//!
//! * [`RunReport::to_text`] — the CLI's pinned stdout block, byte
//!   identical to what `bfw scenario run` has always printed (the
//!   determinism smoke tests `cmp` it across runs);
//! * [`RunReport::to_json_value`] — the versioned interchange document
//!   written by `--trace FILE` and checked by `bfw report validate`:
//!
//! ```json
//! {
//!   "format": "bfw/scenario-report",
//!   "version": 1,
//!   "config": { "scenario": "ring churn", "graph": "cycle:32", ... },
//!   "result": { "rounds_run": 20000, "recoveries": [ ... ], ... },
//!   "trace": { "ledger": { ... }, "flight_recorder": { ... }, ... }
//! }
//! ```
//!
//! Both views come from the same struct, so they cannot drift: the
//! text block and the JSON report of a run always describe the same
//! execution. [`validate_run_report`] checks the document structure
//! with JSON-pointer error paths.

use crate::{
    resolved_kernel, KernelKind, ProtocolKind, RuntimeKind, ScenarioOutcome, ScenarioSpec,
    ScenarioTrace,
};
use bfw_sim::Scheduler;
use bfw_stats::{Doc, Envelope, JsonValue, SchemaError};
use std::fmt::Write as _;

/// Everything one scenario run produced, ready to render as the pinned
/// text block or the versioned JSON report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scenario name (the spec's `name`).
    pub scenario: String,
    /// Workload spec string the graph was built from (e.g. `"cycle:32"`).
    pub graph: String,
    /// Protocol stack that ran.
    pub protocol: ProtocolKind,
    /// Runtime that executed the run.
    pub runtime: RuntimeKind,
    /// Activation scheduler (meaningful only under
    /// [`RuntimeKind::Async`]; `None` = uniform).
    pub scheduler: Option<Scheduler>,
    /// The *resolved* execution kernel. `Some` exactly when a kernel
    /// choice exists (plain synchronous BFW) — which is also when the
    /// text view prints its `kernel:` line.
    pub kernel: Option<KernelKind>,
    /// Explicitly configured worker-thread count for the bit kernel's
    /// word-sharded step. `Some` only when the spec set `threads` *and*
    /// the resolved kernel is the bit kernel — which is also when the
    /// text view prints its `threads:` line; an unset key keeps the
    /// pinned stdout byte-identical to what it always was. The count
    /// never changes the result block (the sharded step is
    /// byte-identical at every thread count).
    pub threads: Option<usize>,
    /// BFW beep probability.
    pub p: f64,
    /// The seed the run actually used (CLI override already applied).
    pub seed: u64,
    /// Stability window in rounds.
    pub stability: u64,
    /// The measured outcome.
    pub outcome: ScenarioOutcome,
    /// Instrumentation results, when tracing was on.
    pub trace: Option<ScenarioTrace>,
}

impl RunReport {
    /// Assembles the report for a completed run of `spec` on a graph
    /// with `node_count` nodes (needed to resolve `kernel = "auto"`).
    /// `seed` is the effective seed — pass the CLI override when one
    /// was given.
    pub fn new(
        spec: &ScenarioSpec,
        graph: String,
        node_count: usize,
        seed: u64,
        outcome: ScenarioOutcome,
        trace: Option<ScenarioTrace>,
    ) -> Self {
        let kernel = (spec.runtime == RuntimeKind::Sync && spec.protocol == ProtocolKind::Bfw)
            .then(|| resolved_kernel(spec, node_count));
        let threads = (kernel == Some(KernelKind::Bit))
            .then_some(spec.threads)
            .flatten();
        RunReport {
            scenario: spec.name.clone(),
            graph,
            protocol: spec.protocol,
            runtime: spec.runtime,
            scheduler: spec.scheduler,
            kernel,
            threads,
            p: spec.p,
            seed,
            stability: spec.stability,
            outcome,
            trace,
        }
    }

    /// The pinned plain-text view: the configuration header, the
    /// outcome block, and — for traced runs — the appended complexity
    /// summary and recovery-cost table.
    ///
    /// An untraced run's output is a byte prefix of the traced run's at
    /// the same seed (tracing is passive); the CI smoke test `cmp`s
    /// exactly that.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "scenario:          {}", self.scenario);
        let _ = writeln!(out, "graph:             {}", self.graph);
        let _ = writeln!(out, "protocol:          {}", self.protocol);
        match self.runtime {
            RuntimeKind::Sync => {
                let _ = writeln!(out, "runtime:           sync");
                // The kernel line only exists where a kernel choice
                // exists (plain sync BFW); it is stripped by the CI
                // equivalence smoke, and never affects the result
                // block.
                if let Some(kernel) = self.kernel {
                    let _ = writeln!(out, "kernel:            {kernel}");
                }
                // Likewise the threads line: only for an explicitly
                // configured count on the bit kernel, also stripped by
                // the CI equivalence smoke, never affecting the result
                // block.
                if let Some(threads) = self.threads {
                    let _ = writeln!(out, "threads:           {threads}");
                }
            }
            RuntimeKind::Async => {
                let _ = writeln!(
                    out,
                    "runtime:           async (scheduler: {}; timeline positions in activations)",
                    self.scheduler.unwrap_or_default()
                );
            }
        }
        let _ = writeln!(out, "p:                 {}", self.p);
        let _ = writeln!(out, "seed:              {}", self.seed);
        let _ = writeln!(out, "stability window:  {}", self.stability);
        out.push_str(&self.outcome.to_text());
        if let Some(mean) = self.outcome.mean_latency() {
            let _ = writeln!(out, "mean re-election latency: {mean:.1} rounds");
        }
        // Trace reporting is strictly appended *after* the pinned
        // result block — including the blank separator line, so the
        // prefix property survives the binary's final `println!`
        // newline and can be checked on captured files with `cmp`.
        if let Some(trace) = &self.trace {
            let _ = writeln!(out, "\n{}", trace.summary_line());
            if let Some(table) = trace.recovery_table(&self.outcome) {
                let _ = writeln!(out, "\nrecoveries (channel cost):\n{}", table.to_markdown());
            }
        }
        out
    }

    /// The versioned JSON view (`bfw/scenario-report`): the envelope,
    /// a `config` object, a `result` object, and the `trace` object
    /// (`null` for untraced runs). Deterministic rendering — rerunning
    /// the same scenario produces a byte-identical document.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Envelope::entries("scenario-report").into();
        fields.push(("config".to_owned(), self.config_json()));
        fields.push(("result".to_owned(), self.result_json()));
        fields.push((
            "trace".to_owned(),
            match &self.trace {
                Some(trace) => trace.to_json_value(),
                None => JsonValue::Null,
            },
        ));
        JsonValue::object(fields)
    }

    fn config_json(&self) -> JsonValue {
        JsonValue::object([
            ("scenario", JsonValue::from(self.scenario.as_str())),
            ("graph", JsonValue::from(self.graph.as_str())),
            ("protocol", JsonValue::from(self.protocol.to_string())),
            ("runtime", JsonValue::from(self.runtime.to_string())),
            (
                "scheduler",
                JsonValue::from(self.scheduler.map(|s| s.to_string())),
            ),
            (
                "kernel",
                JsonValue::from(self.kernel.map(|k| k.to_string())),
            ),
            ("threads", JsonValue::from(self.threads.map(|t| t as u64))),
            ("p", JsonValue::from(self.p)),
            ("seed", JsonValue::from(self.seed)),
            ("stability", JsonValue::from(self.stability)),
        ])
    }

    fn result_json(&self) -> JsonValue {
        let outcome = &self.outcome;
        JsonValue::object([
            ("rounds_run", JsonValue::from(outcome.rounds_run)),
            (
                "event_log",
                JsonValue::array(
                    outcome
                        .event_log
                        .iter()
                        .map(|line| JsonValue::from(line.as_str())),
                ),
            ),
            ("leader_flaps", JsonValue::from(outcome.leader_flaps)),
            (
                "recoveries",
                JsonValue::array(outcome.recoveries.iter().map(|r| {
                    JsonValue::object([
                        ("disrupted_at", JsonValue::from(r.disrupted_at)),
                        ("recovered_at", JsonValue::from(r.recovered_at)),
                        ("leader", JsonValue::from(r.leader.index())),
                    ])
                })),
            ),
            (
                "pending_disruption",
                JsonValue::from(outcome.pending_disruption),
            ),
            (
                "final_leaders",
                JsonValue::array(
                    outcome
                        .final_leaders
                        .iter()
                        .map(|u| JsonValue::from(u.index())),
                ),
            ),
            ("final_alive", JsonValue::from(outcome.final_alive)),
            ("final_edges", JsonValue::from(outcome.final_edges)),
            ("mean_latency", JsonValue::from(outcome.mean_latency())),
        ])
    }
}

/// What [`validate_run_report`] reports about a well-formed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Scenario name from the config block.
    pub scenario: String,
    /// Rounds the run executed.
    pub rounds_run: u64,
    /// Whether the document carries a trace block.
    pub traced: bool,
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bfw/scenario-report, \"{}\" ({} rounds{})",
            self.scenario,
            self.rounds_run,
            if self.traced { ", traced" } else { "" }
        )
    }
}

/// Validates a `bfw/scenario-report` document: the envelope, the
/// config and result blocks, and — when present — the trace block's
/// ledger, flight recorder and recovery costs.
///
/// # Errors
///
/// A [`SchemaError`] naming the first offending path.
pub fn validate_run_report(text: &str) -> Result<RunSummary, SchemaError> {
    let value = JsonValue::parse(text).map_err(|e| SchemaError::root(e.to_string()))?;
    let doc = Doc::root(&value);
    Envelope::expect(&doc, "scenario-report")?;

    let config = doc.field("config")?;
    let scenario = config.field("scenario")?.str()?.to_owned();
    let graph = config.field("graph")?;
    crate::spec::canonical_graph(graph.str()?).map_err(|e| graph.error(e.to_string()))?;
    config.field("protocol")?.str()?;
    config.field("runtime")?.str()?;
    if let Some(scheduler) = config.opt_field("scheduler")? {
        scheduler.str()?;
    }
    if let Some(kernel) = config.opt_field("kernel")? {
        kernel.str()?;
    }
    if let Some(threads) = config.opt_field("threads")? {
        threads.u64()?;
    }
    config.field("p")?.f64()?;
    config.field("seed")?.u64()?;
    config.field("stability")?.u64()?;

    let result = doc.field("result")?;
    let rounds_run = result.field("rounds_run")?.u64()?;
    for line in result.field("event_log")?.items()? {
        line.str()?;
    }
    result.field("leader_flaps")?.u64()?;
    for recovery in result.field("recoveries")?.items()? {
        recovery.field("disrupted_at")?.u64()?;
        recovery.field("recovered_at")?.u64()?;
        recovery.field("leader")?.u64()?;
    }
    if let Some(pending) = result.opt_field("pending_disruption")? {
        pending.u64()?;
    }
    for leader in result.field("final_leaders")?.items()? {
        leader.u64()?;
    }
    result.field("final_alive")?.u64()?;
    result.field("final_edges")?.u64()?;
    if let Some(mean) = result.opt_field("mean_latency")? {
        mean.f64()?;
    }

    let trace = doc.field("trace")?;
    let traced = !matches!(trace.value(), JsonValue::Null);
    if traced {
        let ledger = trace.field("ledger")?;
        for key in ["steps", "beeps_sent", "beeps_heard", "bits", "messages"] {
            ledger.field(key)?.u64()?;
        }
        if let Some(recorder) = trace.opt_field("flight_recorder")? {
            for event in recorder.field("events")?.items()? {
                event.field("step")?.u64()?;
                event.field("kind")?.str()?;
            }
        }
        for cost in trace.field("recovery_costs")?.items()? {
            cost.field("bits")?.u64()?;
            cost.field("messages")?.u64()?;
        }
    }

    Ok(RunSummary {
        scenario,
        rounds_run,
        traced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_bfw_scenario_traced, Recovery};
    use bfw_graph::NodeId;

    fn spec(extra: &str) -> ScenarioSpec {
        ScenarioSpec::parse(&format!(
            "[scenario]\nname = \"report test\"\ngraph = \"cycle:8\"\nrounds = 4000\n\
             stability = 20\n{extra}\n\
             [[event]]\nat = 1500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 1600\nkind = \"recover-all\"\n"
        ))
        .unwrap()
    }

    fn sample_outcome() -> ScenarioOutcome {
        ScenarioOutcome {
            rounds_run: 4000,
            event_log: vec!["@1500 crash-leader -> crashed leader 2".to_owned()],
            recoveries: vec![Recovery {
                disrupted_at: 1500,
                recovered_at: 1700,
                leader: NodeId::new(3),
            }],
            pending_disruption: None,
            leader_flaps: 1,
            final_leaders: vec![NodeId::new(3)],
            final_alive: 8,
            final_edges: 8,
        }
    }

    #[test]
    fn text_and_json_views_describe_the_same_run() {
        let spec = spec("");
        let report = RunReport::new(&spec, "cycle:8".to_owned(), 8, 7, sample_outcome(), None);
        let text = report.to_text();
        assert!(text.contains("scenario:          report test"), "{text}");
        assert!(text.contains("kernel:            generic"), "{text}");
        assert!(
            text.contains("mean re-election latency: 200.0 rounds"),
            "{text}"
        );

        let value = report.to_json_value();
        let rendered = value.render_pretty();
        let summary = validate_run_report(&rendered).unwrap();
        assert_eq!(
            summary,
            RunSummary {
                scenario: "report test".to_owned(),
                rounds_run: 4000,
                traced: false,
            }
        );
        // Parse–render–parse fixpoint.
        assert_eq!(JsonValue::parse(&rendered).unwrap(), value);
        // The two views agree on the numbers.
        let result = value.get("result").unwrap();
        assert_eq!(
            result.get("rounds_run").and_then(JsonValue::as_number),
            Some(4000.0)
        );
        assert_eq!(
            result.get("mean_latency").and_then(JsonValue::as_number),
            Some(200.0)
        );
        assert_eq!(
            value
                .get("config")
                .and_then(|c| c.get("kernel"))
                .and_then(JsonValue::as_str),
            Some("generic")
        );
    }

    #[test]
    fn traced_run_report_carries_the_trace_block() {
        let spec = spec("");
        let graph = bfw_graph::generators::cycle(8);
        let (outcome, trace) = run_bfw_scenario_traced(&spec, &graph, 42, Some(64)).unwrap();
        let report = RunReport::new(&spec, "cycle:8".to_owned(), 8, 42, outcome, trace);
        assert!(report.trace.is_some());

        let rendered = report.to_json_value().render_pretty();
        let summary = validate_run_report(&rendered).unwrap();
        assert!(summary.traced);
        let value = JsonValue::parse(&rendered).unwrap();
        let trace = value.get("trace").unwrap();
        assert!(
            trace
                .get("ledger")
                .and_then(|l| l.get("steps"))
                .and_then(JsonValue::as_number)
                .unwrap()
                > 0.0
        );
        assert!(trace
            .get("flight_recorder")
            .and_then(|r| r.get("events"))
            .and_then(JsonValue::as_array)
            .is_some());
        // The untraced text is a byte prefix of the traced text.
        let untraced = RunReport {
            trace: None,
            ..report.clone()
        };
        assert!(report.to_text().starts_with(&untraced.to_text()));
    }

    #[test]
    fn threads_line_appears_only_when_configured_on_the_bit_kernel() {
        // Default spec on a small graph: generic kernel, no threads
        // key — the pinned stdout stays exactly as it always was.
        let plain = RunReport::new(
            &spec(""),
            "cycle:8".to_owned(),
            8,
            7,
            sample_outcome(),
            None,
        );
        assert_eq!(plain.threads, None);
        assert!(!plain.to_text().contains("threads:"), "{}", plain.to_text());

        // Explicit bit kernel + threads: the line renders, 19-column
        // aligned like every other header line, and the JSON config
        // carries the count.
        let spec = spec("kernel = \"bit\"\nthreads = 4");
        let report = RunReport::new(&spec, "cycle:8".to_owned(), 8, 7, sample_outcome(), None);
        assert_eq!(report.threads, Some(4));
        let text = report.to_text();
        assert!(text.contains("kernel:            bit"), "{text}");
        assert!(text.contains("threads:           4"), "{text}");
        let rendered = report.to_json_value().render_pretty();
        validate_run_report(&rendered).unwrap();
        let value = JsonValue::parse(&rendered).unwrap();
        assert_eq!(
            value
                .get("config")
                .and_then(|c| c.get("threads"))
                .and_then(JsonValue::as_number),
            Some(4.0)
        );

        // An explicit threads key under kernel = "auto" forces the bit
        // kernel even on a small graph (the only kernel that shards its
        // step), so the report must surface both resolved values
        // instead of silently misreporting a generic run.
        let auto = ScenarioSpec {
            kernel: KernelKind::Auto,
            threads: Some(4),
            ..ScenarioSpec::parse("[scenario]\ngraph = \"cycle:8\"").unwrap()
        };
        let report = RunReport::new(&auto, "cycle:8".to_owned(), 8, 7, sample_outcome(), None);
        assert_eq!(report.kernel, Some(KernelKind::Bit));
        assert_eq!(report.threads, Some(4));
    }

    #[test]
    fn async_report_records_scheduler_and_no_kernel() {
        let spec = spec("runtime = \"async\"\nscheduler = \"replay\"");
        let report = RunReport::new(&spec, "cycle:8".to_owned(), 8, 7, sample_outcome(), None);
        assert_eq!(report.kernel, None);
        let text = report.to_text();
        assert!(
            text.contains(
                "runtime:           async (scheduler: replay; timeline positions in activations)"
            ),
            "{text}"
        );
        assert!(!text.contains("kernel:"), "{text}");
        let value = report.to_json_value();
        let config = value.get("config").unwrap();
        assert_eq!(
            config.get("scheduler").and_then(JsonValue::as_str),
            Some("replay")
        );
        assert_eq!(config.get("kernel"), Some(&JsonValue::Null));
    }

    #[test]
    fn validation_rejects_with_pointers() {
        let report = RunReport::new(
            &spec(""),
            "cycle:8".to_owned(),
            8,
            7,
            sample_outcome(),
            None,
        );
        let good = report.to_json_value();

        let cases: Vec<(JsonValue, &str)> = vec![
            (JsonValue::from("nope"), ""),
            (
                {
                    let mut v = good.clone();
                    if let JsonValue::Object(map) = &mut v {
                        map.insert("format".to_owned(), JsonValue::from("bfw/graph"));
                    }
                    v
                },
                "",
            ),
            (
                {
                    let mut v = good.clone();
                    if let JsonValue::Object(map) = &mut v {
                        map.remove("result");
                    }
                    v
                },
                "",
            ),
            (
                {
                    let mut v = good.clone();
                    if let JsonValue::Object(map) = &mut v {
                        if let Some(JsonValue::Object(result)) = map.get_mut("result") {
                            result.insert("rounds_run".to_owned(), JsonValue::from("many"));
                        }
                    }
                    v
                },
                "/result/rounds_run",
            ),
            (
                {
                    let mut v = good.clone();
                    if let JsonValue::Object(map) = &mut v {
                        if let Some(JsonValue::Object(config)) = map.get_mut("config") {
                            config.insert("p".to_owned(), JsonValue::Null);
                        }
                    }
                    v
                },
                "/config/p",
            ),
            (
                {
                    let mut v = good.clone();
                    if let JsonValue::Object(map) = &mut v {
                        if let Some(JsonValue::Object(config)) = map.get_mut("config") {
                            config.insert("graph".to_owned(), JsonValue::from("cylce:8"));
                        }
                    }
                    v
                },
                "/config/graph",
            ),
        ];
        for (value, pointer) in cases {
            let err = validate_run_report(&value.render()).unwrap_err();
            assert_eq!(err.pointer(), pointer, "{err}");
        }
    }
}
