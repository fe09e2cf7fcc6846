//! The BFW workspace benchmark: three workloads, timed end to end and,
//! in a separate traced run, layer by layer.
//!
//! * `ring-1m` — plain synchronous BFW on `cycle:1000000`, bit kernel,
//!   two threads, fixed horizon, no events, text + JSON report.
//! * `geo-churn` — a 50k-node unit-disk graph under crash/recover
//!   churn, edge add/remove, a partition + heal and a noise burst, run
//!   straight and as step → snapshot → decode → resume.
//! * `trials` — seeded all-leaders elections on graphs of growing
//!   diameter, through `run_trials` and the 64-lane bitsliced runner.
//!
//! The benchmark only calls public library functions and times each
//! layer from outside, around the calls into it. Every workload is one
//! closed-loop batch job with one client: a pass starts when the
//! previous one has finished, and passes repeat until the measuring
//! time is used up. Timings are medians over passes.

use bfw_stats::JsonValue;
use std::time::Instant;

pub mod geo;
pub mod pipeline;
pub mod provenance;
pub mod ring;
pub mod trace;
pub mod trials;

pub use trace::Tracer;

/// The end-to-end metrics every untraced run prints: `(name, unit)`.
/// Kept in the order `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("node_rounds_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints: `(name, unit)`. A
/// layer a workload bypasses reports 0 (no span of it was recorded).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spec.parse_s", "s"),
    ("graph.build_s", "s"),
    ("graph.edges", "count"),
    ("wordgraph.build_s", "s"),
    ("wordgraph.edge_stream", "bool"),
    ("wordgraph.propagate_ns_per_round", "ns"),
    ("wordgraph.replans", "count"),
    ("wordgraph.replan_s", "s"),
    ("fault.carve_s", "s"),
    ("fault.stream_bytes", "bytes"),
    ("bitkernel.step_ns_per_round", "ns"),
    ("bitkernel.step_1t_ns_per_round", "ns"),
    ("bitkernel.coin_draws_per_round", "count"),
    ("bitkernel.ns_per_coin_draw", "ns"),
    ("bitkernel.leaders_at_horizon", "count"),
    ("pool.step_speedup_2t", "x"),
    ("ledger.beeps_per_round", "count"),
    ("ledger.messages_per_round", "count"),
    ("scenario.loop_ns_per_round", "ns"),
    ("scenario.monitor_ns_per_round", "ns"),
    ("scenario.leaders_call_us", "us"),
    ("scenario.events_applied", "count"),
    ("lifecycle.snapshot_bytes", "bytes"),
    ("lifecycle.encode_s", "s"),
    ("lifecycle.decode_s", "s"),
    ("lifecycle.resume_s", "s"),
    ("report.text_s", "s"),
    ("report.text_bytes", "bytes"),
    ("report.json_s", "s"),
    ("report.json_bytes", "bytes"),
    ("tick.ns_per_node_round", "ns"),
    ("runner.rounds_per_trial_mean", "count"),
    ("runner.trial_ms_p50", "ms"),
    ("runner.trial_ms_p99", "ms"),
    ("runner.trials_per_s", "1/s"),
    ("monte_carlo.busy_share", "share"),
    ("lanes.ns_per_node_round", "ns"),
    ("lanes.rounds_per_group_mean", "count"),
    ("lanes.trials_per_s", "1/s"),
    ("host.cores", "count"),
    ("trace.spans_per_pass", "count"),
    ("trace.overhead_share", "share"),
];

/// Worker threads every workload runs with (the scenario `threads` key,
/// the trial runners' worker count).
pub const THREADS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `cycle:1000000`, bit kernel, fixed horizon, no events.
    Ring,
    /// `geo:50000:11:<seed>` under churn, straight and resumed.
    Geo,
    /// Scalar and 64-lane Monte-Carlo elections.
    Trials,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Ring, Workload::Geo, Workload::Trials];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ring => "ring-1m",
            Workload::Geo => "geo-churn",
            Workload::Trials => "trials",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the real workload, or a toy version for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Toy sizes that finish in well under a second.
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measuring time: passes repeat until it is used up.
    pub seconds: f64,
    /// `false` = end-to-end metrics, `true` = the traced per-layer run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Self-test hook: sabotage one output (a trial budget too small to
    /// converge, a tampered snapshot) so the checks must catch it.
    pub force_failure: bool,
}

/// Output checks: every check attempted, and a note for each failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Notes of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Per-pass values of the traced run's metrics, reduced to medians.
#[derive(Debug, Default)]
pub struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    /// Adds one pass's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, values)) => values.push(value),
            None => self.0.push((name, vec![value])),
        }
    }

    /// The median of `name`'s values (0 if none were pushed).
    pub fn median_of(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, values)| median(values))
    }

    /// The median of every metric's values, in first-pushed order.
    pub fn medians(&self) -> Vec<Metric> {
        self.0
            .iter()
            .map(|(name, values)| Metric {
                name,
                value: median(values),
            })
            .collect()
    }
}

/// What a run produced: its checks, its metrics, how many passes the
/// timings are medians of, and the spans of a traced run.
#[derive(Debug)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// End-to-end or per-layer metrics, by name.
    pub metrics: Vec<Metric>,
    /// Wall seconds of every measured pass (the medians' samples).
    pub pass_wall_s: Vec<f64>,
    /// The traced run's spans (`None` for untraced runs).
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// The value of metric `name`, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit, in the order of `units`.
    pub fn result_line(&self, units: &[(&str, &str)]) -> String {
        let metrics = units.iter().map(|&(name, unit)| {
            let value = self.metric(name).unwrap_or(0.0);
            (
                name,
                JsonValue::object([("value", JsonValue::from(value)), ("unit", unit.into())]),
            )
        });
        JsonValue::object([
            ("correct", JsonValue::from(self.checks.failed() == 0)),
            ("attempted", JsonValue::from(self.checks.attempted)),
            ("failed", JsonValue::from(self.checks.failed())),
            ("metrics", JsonValue::object(metrics)),
        ])
        .render()
    }
}

/// Runs one invocation: the workload's untraced passes or its traced
/// run.
pub fn run(opts: &Options) -> Outcome {
    match opts.workload {
        Workload::Ring => ring::run(opts),
        Workload::Geo => geo::run(opts),
        Workload::Trials => trials::run(opts),
    }
}

/// The timings of one untraced pass.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Spec text to engine ready at round 0.
    pub setup_s: f64,
    /// The whole pass, setup to rendered report.
    pub wall_s: f64,
    /// Node-rounds simulated while stepping.
    pub node_rounds: f64,
    /// CPU seconds every thread of the process spent stepping them.
    pub step_cpu_s: f64,
}

/// Repeats `pass` until `seconds` have elapsed (at least `min_passes`
/// times) and returns every pass's timings.
pub fn repeat_passes(seconds: f64, min_passes: usize, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        passes.push(pass());
    }
    passes
}

/// The end-to-end metrics of a set of passes: medians over passes, plus
/// the process's peak resident memory.
pub fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    let col = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("setup_s", col(|p| p.setup_s)),
        metric("wall_s", col(|p| p.wall_s)),
        metric(
            "node_rounds_per_cpu_s",
            col(|p| p.node_rounds / p.step_cpu_s),
        ),
        metric("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a 64 of `bytes`, continuing from `hash` — a cheap digest for
/// comparing report bytes across passes.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds every thread of this process has run so far, live and
/// exited (`CLOCK_PROCESS_CPUTIME_ID`). On a virtual machine the kernel
/// keeps time stolen by the hypervisor out of it.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Pushes the tracer's own samples for traced pass `k`: spans recorded,
/// and their measured cost as a share of the pass's wall time.
pub fn push_trace_samples(
    samples: &mut Samples,
    tr: &Tracer,
    k: u32,
    wall_s: f64,
    span_cost_s: f64,
) {
    let spans = tr.count(k) as f64;
    samples.push("trace.spans_per_pass", spans);
    samples.push("trace.overhead_share", spans * span_cost_s / wall_s);
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

/// Times `f` until at least `min_s` seconds and `min_iters` calls have
/// passed, returning the mean seconds per call.
pub fn time_per_call(min_s: f64, min_iters: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut iters = 0u32;
    while iters < min_iters || secs(start) < min_s {
        f();
        iters += 1;
    }
    secs(start) / f64::from(iters)
}
