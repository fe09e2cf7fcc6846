//! `geo-churn`: BFW on `geo:50000:11:<seed>` (≈475k edges, mean degree
//! ≈19, edge-stream gather) under a churn timeline, bit kernel, two
//! threads.
//!
//! The timeline crashes and recovers random nodes, alternately adds and
//! removes one edge (each forces an O(n + m) replan), opens and heals a
//! partition, and ends with a noise burst. A pass runs the scenario
//! straight, then again as `step` to mid-horizon → `bfw/engine-snapshot`
//! encode → decode → resume to the horizon, and renders the resumed
//! run's report.
//!
//! Checks: the resumed outcome equals the straight run and the JSON
//! report validates, on every pass; the traced run also checks the
//! snapshot with `validate_engine_snapshot` and the straight run against
//! `run_bfw_scenario`.

use crate::pipeline::{
    drive, kernel_probe, probe_metrics, push_pass_samples, render, setup, Ready, Rendered,
};
use crate::trace::span_cost_s;
use crate::{
    end_to_end, process_cpu_s, repeat_passes, secs, Checks, Options, Outcome, Pass, Samples, Scale,
    Tracer,
};
use bfw_bench::GraphSpec;
use bfw_graph::NodeId;
use bfw_scenario::{
    resume_run_bfw_scenario, run_bfw_scenario, step_bfw_scenario, validate_engine_snapshot,
    validate_run_report, EngineSnapshot, RunReport, ScenarioEvent, ScenarioOutcome, ScenarioSpec,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::time::Instant;

/// Per-layer metrics the traced run measures on this workload.
pub const LAYERS: &[&str] = &[
    "spec.parse_s",
    "graph.build_s",
    "graph.edges",
    "wordgraph.build_s",
    "wordgraph.edge_stream",
    "wordgraph.propagate_ns_per_round",
    "wordgraph.replans",
    "wordgraph.replan_s",
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
    "lifecycle.snapshot_bytes",
    "lifecycle.encode_s",
    "lifecycle.decode_s",
    "lifecycle.resume_s",
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
    radius_milli: u32,
    rounds: u64,
    /// Nodes on the small side of the partition.
    cut: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            nodes: 50_000,
            radius_milli: 11,
            rounds: 600,
            cut: 250,
        },
        Scale::Smoke => Sizes {
            nodes: 2_000,
            radius_milli: 60,
            rounds: 240,
            cut: 20,
        },
    }
}

/// The workload's scenario spec for `seed`. Generating it builds the
/// graph once (outside any timing) to pick an edge that does not exist
/// yet, so every add/remove event applies.
pub fn spec_text(scale: Scale, seed: u64) -> String {
    let s = sizes(scale);
    let graph = GraphSpec::Geo(s.nodes, s.radius_milli, seed).build();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6e0c_4a2b);
    let (u, v) = loop {
        let (u, v) = (rng.random_range(0..s.nodes), rng.random_range(0..s.nodes));
        if u != v && !graph.has_edge(NodeId::new(u), NodeId::new(v)) {
            break (u, v);
        }
    };
    let mut cut = BTreeSet::new();
    while cut.len() < s.cut {
        cut.insert(rng.random_range(0..s.nodes));
    }
    let cut: Vec<String> = cut.iter().map(usize::to_string).collect();
    let h = s.rounds;
    let at = |share: u64| h * share / 100;
    format!(
        "[scenario]\nname = \"geo-churn\"\ngraph = \"geo:{n}:{r}:{seed}\"\np = 0.5\nrounds = {h}\n\
         stability = 50\nseed = {seed}\nkernel = \"bit\"\nthreads = {threads}\n\n\
         [[event]]\nevery = {churn}\nstart = {churn}\ncount = 10\nkind = \"crash-random\"\n\n\
         [[event]]\nevery = {churn}\nstart = {rejoin}\ncount = 10\nkind = \"recover-random\"\n\n\
         [[event]]\nat = {a1}\nkind = \"add-edge\"\nu = {u}\nv = {v}\n\n\
         [[event]]\nat = {r1}\nkind = \"remove-edge\"\nu = {u}\nv = {v}\n\n\
         [[event]]\nat = {part}\nkind = \"partition\"\ncut = [{cut}]\n\n\
         [[event]]\nat = {heal}\nkind = \"heal\"\n\n\
         [[event]]\nat = {a2}\nkind = \"add-edge\"\nu = {u}\nv = {v}\n\n\
         [[event]]\nat = {r2}\nkind = \"remove-edge\"\nu = {u}\nv = {v}\n\n\
         [[event]]\nat = {noise}\nkind = \"noise-burst\"\nfn = 0.05\nfp = 0.01\nrounds = {burst}\n",
        n = s.nodes,
        r = s.radius_milli,
        threads = crate::THREADS,
        churn = at(8),
        rejoin = at(12),
        a1 = at(15),
        r1 = at(30),
        part = at(40),
        heal = at(55),
        a2 = at(65),
        r2 = at(80),
        noise = at(85),
        burst = at(5),
        cut = cut.join(", "),
    )
}

fn is_topology(event: &ScenarioEvent) -> bool {
    matches!(
        event,
        ScenarioEvent::AddEdge(..)
            | ScenarioEvent::RemoveEdge(..)
            | ScenarioEvent::Partition { .. }
            | ScenarioEvent::Heal
    )
}

/// Stops of the straight run: up to the round before each topology
/// event, then the event round alone (one step, the events and their
/// replan), so the replan cost can be told apart from stepping.
fn stops(spec: &ScenarioSpec) -> Vec<(u64, &'static str)> {
    let mut rounds: Vec<u64> = spec
        .timeline
        .compile(spec.rounds, spec.seed)
        .iter()
        .filter(|e| is_topology(&e.event) && (1..=spec.rounds).contains(&e.round))
        .map(|e| e.round)
        .collect();
    rounds.dedup();
    let mut stops = Vec::new();
    for r in rounds {
        stops.push((r - 1, "scenario.run_until"));
        stops.push((r, "scenario.event_round"));
    }
    stops.push((spec.rounds, "scenario.run_until"));
    stops
}

/// Applied topology events in an event log — each one replanned the
/// bit kernel's adjacency.
fn replans(log: &[String]) -> usize {
    log.iter()
        .filter(|line| {
            let note = line.split_once(" -> ").map_or("", |(_, note)| note);
            note.starts_with("added edge")
                || note.starts_with("removed edge")
                || (note.starts_with("cut ") && !note.starts_with("cut 0 "))
                || (note.starts_with("restored ") && !note.starts_with("restored 0 "))
        })
        .count()
}

struct PassOut {
    pass: Pass,
    rendered: Rendered,
    edges: usize,
    events: usize,
    replans: usize,
    event_rounds: usize,
    outcome: ScenarioOutcome,
    /// The encoded snapshot.
    doc: String,
}

/// One pass: setup, the straight run, the step → encode → decode →
/// resume twin, and the resumed run's report.
fn pass(text: &str, tr: &mut Tracer, checks: &mut Checks, force_failure: bool) -> PassOut {
    let start = Instant::now();
    let Ready {
        spec,
        workload,
        graph,
        mut engine,
    } = setup(text, tr);
    let setup_s = secs(start);

    let stops = stops(&spec);
    let cpu = process_cpu_s();
    drive(&mut engine, &stops, tr, |_| {});
    let step_cpu_s = process_cpu_s() - cpu;
    let (straight, host) = engine.into_outcome();
    drop(host);

    let mid = spec.rounds / 2;
    let snapshot = tr
        .span("lifecycle.step", || {
            step_bfw_scenario(&spec, &graph, spec.seed, mid, None, None)
        })
        .expect("plain synchronous BFW supports the lifecycle verbs");
    let doc = tr.span("lifecycle.encode", || {
        snapshot.to_json_value().render_pretty()
    });
    drop(snapshot);
    let decoded = tr.span("lifecycle.decode", || EngineSnapshot::from_json(&doc));
    let resumed = decoded.ok().and_then(|mut decoded| {
        if force_failure {
            decoded
                .cursor
                .log
                .push("@0 tampered -> forced failure".to_owned());
        }
        tr.span("lifecycle.resume", || {
            resume_run_bfw_scenario(&decoded, None, None)
        })
        .ok()
    });
    let matches = resumed
        .as_ref()
        .is_some_and(|r| *r == straight && r.to_text() == straight.to_text());
    let (events, replans) = (straight.event_log.len(), replans(&straight.event_log));
    let report = RunReport::new(
        &spec,
        workload.to_string(),
        graph.node_count(),
        spec.seed,
        resumed.unwrap_or(straight),
        None,
    );
    let (text, json) = render(&report, tr);
    let wall_s = secs(start);

    checks.check(matches, || {
        "geo-churn: the resumed outcome differs from the straight run".to_owned()
    });
    checks.check(validate_run_report(&json).is_ok(), || {
        "geo-churn: the JSON report fails validation".to_owned()
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
        replans,
        event_rounds: stops.len() / 2,
        outcome: report.outcome,
        doc,
    }
}

/// Checks a pass's snapshot with `validate_engine_snapshot` (a second
/// full decode) and its outcome against the one-call `run_bfw_scenario`
/// — once per traced run, which pays for its probes anyway.
fn reference_check(text: &str, out: &PassOut, checks: &mut Checks) {
    checks.check(validate_engine_snapshot(&out.doc).is_ok(), || {
        "geo-churn: the snapshot fails validate_engine_snapshot".to_owned()
    });
    let spec = ScenarioSpec::parse(text).expect("benchmark specs parse");
    let workload: GraphSpec = spec.graph.parse().expect("benchmark graph specs parse");
    let graph = workload.build();
    let straight = run_bfw_scenario(&spec, &graph, spec.seed);
    checks.check(straight.as_ref() == Ok(&out.outcome), || {
        "geo-churn: the outcome differs from a straight run_bfw_scenario".to_owned()
    });
}

/// Runs the workload: untraced passes for the end-to-end metrics, or the
/// traced run for the per-layer ones.
pub fn run(opts: &Options) -> Outcome {
    let sizes = sizes(opts.scale);
    let text = spec_text(opts.scale, opts.seed);
    let mut checks = Checks::default();
    if !opts.trace {
        let mut tr = Tracer::new(false);
        let passes = repeat_passes(opts.seconds, 3, || {
            pass(&text, &mut tr, &mut checks, opts.force_failure).pass
        });
        return Outcome {
            metrics: end_to_end(&passes),
            pass_wall_s: passes.iter().map(|p| p.wall_s).collect(),
            checks,
            tracer: None,
        };
    }

    let baseline = pass(
        &text,
        &mut Tracer::new(false),
        &mut checks,
        opts.force_failure,
    );
    let span_cost = span_cost_s();
    let mut tr = Tracer::new(true);
    let mut samples = Samples::default();
    let mut pass_wall_s = Vec::new();
    let start = Instant::now();
    while tr.pass() == 0 || secs(start) < opts.seconds {
        tr.next_pass();
        let k = tr.pass();
        let out = pass(&text, &mut tr, &mut checks, opts.force_failure);
        pass_wall_s.push(out.pass.wall_s);
        checks.check(out.rendered == baseline.rendered, || {
            "geo-churn: the traced run's report bytes differ from the untraced run's".to_owned()
        });
        let plain_rounds = (sizes.rounds - out.event_rounds as u64) as f64;
        let round_s = tr.total_s("scenario.run_until", k) / plain_rounds;
        let event_s = tr.total_s("scenario.event_round", k);
        samples.push("scenario.loop_ns_per_round", round_s * 1e9);
        samples.push("wordgraph.replans", out.replans as f64);
        samples.push(
            "wordgraph.replan_s",
            event_s - out.event_rounds as f64 * round_s,
        );
        samples.push("scenario.events_applied", out.events as f64);
        samples.push("lifecycle.snapshot_bytes", out.doc.len() as f64);
        samples.push("lifecycle.encode_s", tr.total_s("lifecycle.encode", k));
        samples.push("lifecycle.decode_s", tr.total_s("lifecycle.decode", k));
        samples.push("lifecycle.resume_s", tr.total_s("lifecycle.resume", k));
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
    reference_check(&text, &baseline, &mut checks);
    let loop_ns = samples.median_of("scenario.loop_ns_per_round");
    let mut metrics = samples.medians();
    let graph = GraphSpec::Geo(sizes.nodes, sizes.radius_milli, opts.seed).build();
    let probe = kernel_probe(&graph, 0.5, opts.seed, sizes.rounds);
    metrics.extend(probe_metrics(&probe, loop_ns, sizes.nodes));
    Outcome {
        metrics,
        pass_wall_s,
        checks,
        tracer: Some(tr),
    }
}
