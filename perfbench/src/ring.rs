//! `ring-1m`: plain synchronous BFW on `cycle:1000000`, bit kernel, two
//! threads, fixed horizon, no events, text + JSON report.
//!
//! The rotations plan makes propagation cheap, so per-node coin draws
//! from 10⁶ ChaCha8 streams, the monitor's leader walk in early rounds
//! and the long leader list of the report dominate.
//!
//! Checks: the leader count stays ≥ 1 and never rises between stops
//! (Lemma 9), the JSON report validates, and — once per run — a short
//! probe's result block is byte-identical at one and two threads.

use crate::pipeline::{
    drive, kernel_probe, probe_metrics, push_pass_samples, render, setup, Ready, Rendered,
};
use crate::trace::span_cost_s;
use crate::{
    end_to_end, process_cpu_s, repeat_passes, secs, Checks, Options, Outcome, Pass, Samples, Scale,
    Tracer, THREADS,
};
use bfw_scenario::{validate_run_report, RunReport};
use std::time::Instant;

/// Per-layer metrics the traced run measures on this workload.
pub const LAYERS: &[&str] = &[
    "spec.parse_s",
    "graph.build_s",
    "graph.edges",
    "wordgraph.build_s",
    "wordgraph.edge_stream",
    "wordgraph.propagate_ns_per_round",
    "fault.carve_s",
    "fault.stream_bytes",
    "bitkernel.step_ns_per_round",
    "bitkernel.step_1t_ns_per_round",
    "bitkernel.coin_draws_per_round",
    "bitkernel.ns_per_coin_draw",
    "bitkernel.leaders_at_horizon",
    "pool.step_speedup_2t",
    "ledger.beeps_per_round",
    "ledger.messages_per_round",
    "scenario.loop_ns_per_round",
    "scenario.monitor_ns_per_round",
    "scenario.leaders_call_us",
    "scenario.events_applied",
    "report.text_s",
    "report.text_bytes",
    "report.json_s",
    "report.json_bytes",
    "host.cores",
    "trace.spans_per_pass",
    "trace.overhead_share",
];

struct Sizes {
    nodes: usize,
    rounds: u64,
    /// Rounds between Lemma 9 checks.
    stop_every: u64,
    /// Horizon of the thread-equivalence probe.
    probe_rounds: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            nodes: 1_000_000,
            rounds: 1_000,
            stop_every: 50,
            probe_rounds: 40,
        },
        Scale::Smoke => Sizes {
            nodes: 4_096,
            rounds: 200,
            stop_every: 25,
            probe_rounds: 20,
        },
    }
}

/// The workload's scenario spec.
pub fn spec_text(nodes: usize, rounds: u64, seed: u64, threads: usize) -> String {
    format!(
        "[scenario]\nname = \"ring-1m\"\ngraph = \"cycle:{nodes}\"\np = 0.5\nrounds = {rounds}\n\
         stability = 50\nseed = {seed}\nkernel = \"bit\"\nthreads = {threads}\n"
    )
}

struct PassOut {
    pass: Pass,
    rendered: Rendered,
    edges: usize,
    events: usize,
}

/// One pass: setup, the stepping loop with Lemma 9 checks at every
/// stop, and both report views.
fn pass(text: &str, sizes: &Sizes, tr: &mut Tracer, checks: &mut Checks) -> PassOut {
    let start = Instant::now();
    let Ready {
        spec,
        workload,
        graph,
        mut engine,
    } = setup(text, tr);
    let setup_s = secs(start);

    let mut stops: Vec<(u64, &str)> = (0..spec.rounds)
        .step_by(sizes.stop_every as usize)
        .map(|r| (r, "scenario.run_until"))
        .collect();
    stops.push((spec.rounds, "scenario.run_until"));
    let (mut previous, mut lemma9) = (usize::MAX, true);
    let cpu = process_cpu_s();
    drive(&mut engine, &stops, tr, |host| {
        let leaders = host.leader_count();
        lemma9 &= leaders >= 1 && leaders <= previous;
        previous = leaders;
    });
    let step_cpu_s = process_cpu_s() - cpu;

    let (outcome, host) = engine.into_outcome();
    let events = outcome.event_log.len();
    let report = RunReport::new(
        &spec,
        workload.to_string(),
        graph.node_count(),
        spec.seed,
        outcome,
        None,
    );
    let (text, json) = render(&report, tr);
    let wall_s = secs(start);
    drop(host);

    checks.check(lemma9, || {
        "ring-1m: the leader count rose or reached zero between stops (Lemma 9)".to_owned()
    });
    checks.check(validate_run_report(&json).is_ok(), || {
        "ring-1m: the JSON report fails validation".to_owned()
    });
    PassOut {
        pass: Pass {
            setup_s,
            wall_s,
            node_rounds: graph.node_count() as f64 * spec.rounds as f64,
            step_cpu_s,
        },
        rendered: Rendered::new(&text, &json),
        edges: graph.edge_count(),
        events,
    }
}

/// The result block of a short run at `threads` threads.
fn probe_result_block(sizes: &Sizes, seed: u64, threads: usize) -> String {
    let text = spec_text(sizes.nodes, sizes.probe_rounds, seed, threads);
    let mut ready = setup(&text, &mut Tracer::new(false));
    ready.engine.run_until(ready.spec.rounds);
    ready.engine.into_outcome().0.to_text()
}

/// Checks that one and [`THREADS`] threads produce the same bytes.
fn thread_probe(sizes: &Sizes, seed: u64, checks: &mut Checks) {
    let serial = probe_result_block(sizes, seed, 1);
    let sharded = probe_result_block(sizes, seed, THREADS);
    checks.check(serial == sharded, || {
        format!("ring-1m: the result block differs between 1 and {THREADS} threads")
    });
}

/// Runs the workload: untraced passes for the end-to-end metrics, or the
/// traced run for the per-layer ones.
pub fn run(opts: &Options) -> Outcome {
    let sizes = sizes(opts.scale);
    let text = spec_text(sizes.nodes, sizes.rounds, opts.seed, THREADS);
    let mut checks = Checks::default();
    if !opts.trace {
        let mut tr = Tracer::new(false);
        let passes = repeat_passes(opts.seconds, 3, || {
            pass(&text, &sizes, &mut tr, &mut checks).pass
        });
        thread_probe(&sizes, opts.seed, &mut checks);
        return Outcome {
            metrics: end_to_end(&passes),
            pass_wall_s: passes.iter().map(|p| p.wall_s).collect(),
            checks,
            tracer: None,
        };
    }

    let baseline = pass(&text, &sizes, &mut Tracer::new(false), &mut checks);
    let span_cost = span_cost_s();
    let mut tr = Tracer::new(true);
    let mut samples = Samples::default();
    let mut pass_wall_s = Vec::new();
    let start = Instant::now();
    while tr.pass() == 0 || secs(start) < opts.seconds {
        tr.next_pass();
        let k = tr.pass();
        let out = pass(&text, &sizes, &mut tr, &mut checks);
        pass_wall_s.push(out.pass.wall_s);
        checks.check(out.rendered == baseline.rendered, || {
            "ring-1m: the traced run's report bytes differ from the untraced run's".to_owned()
        });
        let loop_s = tr.total_s("scenario.run_until", k);
        samples.push(
            "scenario.loop_ns_per_round",
            loop_s * 1e9 / sizes.rounds as f64,
        );
        samples.push("scenario.events_applied", out.events as f64);
        push_pass_samples(
            &mut samples,
            &tr,
            k,
            out.edges,
            &out.rendered,
            out.pass.wall_s,
            span_cost,
        );
    }
    let loop_ns = samples.median_of("scenario.loop_ns_per_round");
    let mut metrics = samples.medians();
    let graph = bfw_graph::generators::cycle(sizes.nodes);
    let probe = kernel_probe(&graph, 0.5, opts.seed, sizes.rounds);
    metrics.extend(probe_metrics(&probe, loop_ns, sizes.nodes));
    thread_probe(&sizes, opts.seed, &mut checks);
    Outcome {
        metrics,
        pass_wall_s,
        checks,
        tracer: Some(tr),
    }
}
