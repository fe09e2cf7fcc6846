//! The scenario pipeline the two scenario workloads share: spec text to
//! an engine at round 0, the stepping loop, report rendering, and the
//! bare-kernel probes of the traced run.

use crate::provenance::host_cores;
use crate::{
    fnv1a, mean, metric, push_trace_samples, secs, time_per_call, Metric, Samples, Tracer,
    FNV_OFFSET, THREADS,
};
use bfw_bench::GraphSpec;
use bfw_core::{Bfw, BitNetwork};
use bfw_graph::{Graph, WordGraph};
use bfw_scenario::{bfw_injector, resolved_threads, Engine, RunReport, ScenarioSpec};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// A parsed scenario with its graph and an engine ready at round 0.
pub struct Ready {
    /// The parsed spec.
    pub spec: ScenarioSpec,
    /// The spec's graph, parsed.
    pub workload: GraphSpec,
    /// The generated graph.
    pub graph: Graph,
    /// The scenario engine around a bit-kernel host.
    pub engine: Engine<BitNetwork>,
}

/// Spec text → engine at round 0, built the way `run_bfw_scenario`
/// builds a bit-kernel run: parse, graph generation, `BitNetwork::new`
/// (RCM relabel, plan build, stream carving), thread count, and
/// `Engine::new` with the BFW injector.
///
/// A traced call also builds a `WordGraph` on its own, so the plan
/// build can be told apart from stream carving inside `BitNetwork::new`.
pub fn setup(text: &str, tr: &mut Tracer) -> Ready {
    let spec = tr
        .span("spec.parse", || ScenarioSpec::parse(text))
        .expect("benchmark specs parse");
    let workload: GraphSpec = spec.graph.parse().expect("benchmark graph specs parse");
    let graph = tr.span("graph.build", || workload.build());
    if tr.is_on() {
        tr.span("wordgraph.build", || black_box(WordGraph::build(&graph)));
    }
    let host = tr.span("engine.new", || {
        let mut host = BitNetwork::new(Bfw::new(spec.p), graph.clone().into(), spec.seed);
        host.set_threads(resolved_threads(&spec));
        host
    });
    let engine = tr.span("scenario.engine_new", || {
        Engine::new(
            host,
            &graph,
            &spec.timeline,
            spec.rounds,
            spec.seed,
            spec.stability,
        )
        .with_injector(bfw_injector())
    });
    Ready {
        spec,
        workload,
        graph,
        engine,
    }
}

/// Drives `engine` through `stops` (ascending rounds, each with the span
/// name its `run_until` call is recorded under), calling `at_stop` on
/// the host after each. A traced call also times one `leaders()` query
/// per stop — the call the election monitor makes every round.
pub fn drive(
    engine: &mut Engine<BitNetwork>,
    stops: &[(u64, &'static str)],
    tr: &mut Tracer,
    mut at_stop: impl FnMut(&BitNetwork),
) {
    tr.enter("scenario.loop");
    for &(target, name) in stops {
        tr.span(name, || engine.run_until(target));
        at_stop(engine.host());
        if tr.is_on() {
            tr.span("scenario.leaders_call", || {
                black_box(engine.host().leaders())
            });
        }
    }
    tr.exit();
}

/// Renders both views of a report: the text block and the
/// `bfw/scenario-report` JSON document.
pub fn render(report: &RunReport, tr: &mut Tracer) -> (String, String) {
    let text = tr.span("report.text", || report.to_text());
    let json = tr.span("report.json", || report.to_json_value().render_pretty());
    (text, json)
}

/// Digest and sizes of the two report views one pass rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rendered {
    /// FNV-1a over the text view, then the JSON view.
    pub digest: u64,
    /// Bytes of the text view.
    pub text_bytes: usize,
    /// Bytes of the JSON view.
    pub json_bytes: usize,
}

impl Rendered {
    /// Digests a rendered report.
    pub fn new(text: &str, json: &str) -> Self {
        Rendered {
            digest: fnv1a(fnv1a(FNV_OFFSET, text.as_bytes()), json.as_bytes()),
            text_bytes: text.len(),
            json_bytes: json.len(),
        }
    }
}

/// Pushes the setup, report and tracer samples of traced pass `k`:
/// `fault.carve_s` is `BitNetwork::new` minus the stand-alone
/// `WordGraph::build` of the same graph.
pub fn push_pass_samples(
    samples: &mut Samples,
    tr: &Tracer,
    k: u32,
    graph_edges: usize,
    rendered: &Rendered,
    wall_s: f64,
    span_cost_s: f64,
) {
    let wordgraph = tr.total_s("wordgraph.build", k);
    samples.push("spec.parse_s", tr.total_s("spec.parse", k));
    samples.push("graph.build_s", tr.total_s("graph.build", k));
    samples.push("graph.edges", graph_edges as f64);
    samples.push("wordgraph.build_s", wordgraph);
    samples.push("fault.carve_s", tr.total_s("engine.new", k) - wordgraph);
    samples.push(
        "scenario.leaders_call_us",
        mean(&tr.each_s("scenario.leaders_call", k)) * 1e6,
    );
    samples.push("report.text_s", tr.total_s("report.text", k));
    samples.push("report.text_bytes", rendered.text_bytes as f64);
    samples.push("report.json_s", tr.total_s("report.json", k));
    samples.push("report.json_bytes", rendered.json_bytes as f64);
    push_trace_samples(samples, tr, k, wall_s, span_cost_s);
}

/// The per-layer metrics of a [`KernelProbe`], with the scenario loop's
/// time per round for the monitor's share and `nodes` for the computed
/// stream-table size. The cost per coin draw is the single-thread step
/// minus the single-thread propagate, per draw.
pub fn probe_metrics(probe: &KernelProbe, loop_ns: f64, nodes: usize) -> Vec<Metric> {
    let ns_per_draw = if probe.draws_per_round > 0.0 {
        (probe.serial_step_ns - probe.propagate_ns) / probe.draws_per_round
    } else {
        0.0
    };
    vec![
        metric(
            "wordgraph.edge_stream",
            f64::from(u8::from(probe.edge_stream)),
        ),
        metric("wordgraph.propagate_ns_per_round", probe.propagate_ns),
        metric(
            "fault.stream_bytes",
            (nodes * std::mem::size_of::<ChaCha8Rng>()) as f64,
        ),
        metric("bitkernel.step_ns_per_round", probe.step_ns),
        metric("bitkernel.step_1t_ns_per_round", probe.serial_step_ns),
        metric("bitkernel.coin_draws_per_round", probe.draws_per_round),
        metric("bitkernel.ns_per_coin_draw", ns_per_draw),
        metric("bitkernel.leaders_at_horizon", probe.leaders_at_horizon),
        metric("pool.step_speedup_2t", probe.serial_step_ns / probe.step_ns),
        metric("ledger.beeps_per_round", probe.beeps_per_round),
        metric("ledger.messages_per_round", probe.messages_per_round),
        metric("scenario.monitor_ns_per_round", loop_ns - probe.step_ns),
        metric("host.cores", host_cores() as f64),
    ]
}

/// What the bare-kernel probes of a traced run measured.
#[derive(Debug, Clone, Copy)]
pub struct KernelProbe {
    /// `BitNetwork::run` time per round on [`THREADS`] threads, no
    /// scenario loop.
    pub step_ns: f64,
    /// The same rounds from the same state on one thread.
    pub serial_step_ns: f64,
    /// Coin draws per round, from checkpoint RNG-position deltas.
    pub draws_per_round: f64,
    /// Alive leaders after the bare run.
    pub leaders_at_horizon: f64,
    /// Single-threaded `WordGraph::propagate_or` time per call, averaged
    /// over beeping planes captured along the run (including the
    /// self-hearing copy the kernel makes first).
    pub propagate_ns: f64,
    /// `true` when the plan is the edge-stream gather.
    pub edge_stream: bool,
    /// Beeps sent per round (complexity ledger).
    pub beeps_per_round: f64,
    /// Messages per round (complexity ledger).
    pub messages_per_round: f64,
}

/// Stops along the first single-thread bare run where the propagate
/// probe times `propagate_or` on the current beeping plane.
const PROPAGATE_STOPS: u64 = 8;

/// Words a ChaCha8 stream has produced, from its `(counter, cursor)`
/// position (a fresh stream sits at `(0, 16)`).
fn words_drawn((counter, cursor): (u64, usize)) -> u64 {
    (counter * 16 + cursor as u64).saturating_sub(16)
}

/// Bare-kernel probes on `graph` over `rounds` rounds from round 0, no
/// events. Two rounds of one single-thread run and one [`THREADS`]-thread
/// run from the same cloned state give the step times (the faster of
/// each pair, so a burst of co-tenant load on the host hits at most one
/// of them). The first single-thread run also counts coin draws from
/// checkpoints and stops [`PROPAGATE_STOPS`] times to time
/// single-threaded `propagate_or` on the current beeping plane, so the
/// propagate cost is measured under the same host conditions as the
/// step it is compared with. A final instrumented run gives the ledger
/// counts.
pub fn kernel_probe(graph: &Graph, p: f64, seed: u64, rounds: u64) -> KernelProbe {
    let fresh = BitNetwork::new(Bfw::new(p), graph.clone().into(), seed);
    let plan = WordGraph::build(graph);
    let mut heard = vec![0u64; plan.words()];

    let mut engine = fresh.clone();
    engine.set_threads(1);
    let before = engine.checkpoint();
    let mut propagate_s = Vec::new();
    let mut first_serial_s = 0.0;
    let chunk = rounds.div_ceil(PROPAGATE_STOPS).max(1);
    while engine.round() < rounds {
        let step = chunk.min(rounds - engine.round());
        let start = Instant::now();
        engine.run(step);
        first_serial_s += secs(start);
        let plane = engine.planes().1;
        propagate_s.push(time_per_call(0.02, 5, || {
            heard.copy_from_slice(plane);
            plan.propagate_or(black_box(plane), &mut heard);
            black_box(&heard);
        }));
    }
    let after = engine.checkpoint();
    let words: u64 = before
        .rng_positions
        .iter()
        .zip(&after.rng_positions)
        .map(|(&a, &b)| words_drawn(b) - words_drawn(a))
        .sum();
    // `random_bool` draws one u64, i.e. two ChaCha8 output words.
    let draws_per_round = words as f64 / 2.0 / rounds as f64;
    let leaders_at_horizon = engine.leader_count() as f64;
    drop(engine);

    let timed_run = |threads: usize| {
        let mut engine = fresh.clone();
        engine.set_threads(threads);
        let start = Instant::now();
        engine.run(rounds);
        secs(start)
    };
    let mut sharded_s = timed_run(THREADS);
    let serial_s = first_serial_s.min(timed_run(1));
    sharded_s = sharded_s.min(timed_run(THREADS));

    let mut engine = fresh;
    engine.set_threads(THREADS);
    engine.enable_instrumentation(None);
    engine.run(rounds);
    let ledger = engine
        .complexity_ledger()
        .expect("instrumentation was enabled");
    let steps = ledger.steps().max(1) as f64;
    KernelProbe {
        step_ns: sharded_s * 1e9 / rounds as f64,
        serial_step_ns: serial_s * 1e9 / rounds as f64,
        draws_per_round,
        leaders_at_horizon,
        propagate_ns: mean(&propagate_s) * 1e9,
        edge_stream: plan.uses_edge_stream(),
        beeps_per_round: ledger.beeps_sent() as f64 / steps,
        messages_per_round: ledger.messages() as f64 / steps,
    }
}
