//! `trials`: seeded all-leaders BFW elections with a stability check on
//! graphs of growing diameter (`path:64`, `cycle:128`, `grid:16x16`),
//! first through `run_trials` + `run_election` on two workers, then the
//! same graphs and count through `run_bfw_trials_bitsliced`.
//!
//! This is the Theorem 2 reproduction path. Per-trial working sets fit
//! in cache and trial lengths are heavy-tailed; WordGraph, BitEngine,
//! the scenario engine and the reports are bypassed.
//!
//! Checks: every scalar trial converges and stays stable, every lane
//! trial converges, and per graph the lane mean of converged rounds
//! agrees with the scalar mean within five standard errors (Welch).

use crate::trace::span_cost_s;
use crate::{
    end_to_end, fnv1a, mean, process_cpu_s, push_trace_samples, quantile, repeat_passes, secs,
    Checks, Options, Outcome, Pass, Samples, Scale, Tracer, FNV_OFFSET, THREADS,
};
use bfw_bench::GraphSpec;
use bfw_core::{run_bfw_trials_bitsliced, Bfw, LaneOutcome};
use bfw_graph::{algo, Graph};
use bfw_sim::{run_election, run_trials, ElectionConfig, ElectionOutcome, SimError, Topology};
use std::time::Instant;

/// Per-layer metrics the traced run measures on this workload.
pub const LAYERS: &[&str] = &[
    "spec.parse_s",
    "graph.build_s",
    "graph.edges",
    "tick.ns_per_node_round",
    "runner.rounds_per_trial_mean",
    "runner.trial_ms_p50",
    "runner.trial_ms_p99",
    "runner.trials_per_s",
    "monte_carlo.busy_share",
    "lanes.ns_per_node_round",
    "lanes.rounds_per_group_mean",
    "lanes.trials_per_s",
    "host.cores",
    "trace.spans_per_pass",
    "trace.overhead_share",
];

/// Standard errors the lane and scalar means may differ by.
const AGREEMENT_Z: f64 = 5.0;

/// BFW beep probability of every trial.
const P: f64 = 0.5;

struct Sizes {
    graphs: [&'static str; 3],
    /// Trials per graph, on each runner.
    trials: usize,
    /// Post-convergence rounds the scalar stability check runs.
    stability: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            graphs: ["path:64", "cycle:128", "grid:16x16"],
            trials: 384,
            stability: 100,
        },
        Scale::Smoke => Sizes {
            graphs: ["path:8", "cycle:12", "grid:3x3"],
            trials: 64,
            stability: 20,
        },
    }
}

/// One graph's inputs: its spec, round budget and lane-group seed.
struct Input {
    spec: &'static str,
    budget: u64,
    lane_seed: u64,
}

/// Round budget for diameter `d` on `n` nodes: 400 × D² ln n + 10⁴, far
/// above Theorem 2's O(D² log n) so only a broken kernel runs out.
fn budget(d: u32, n: usize) -> u64 {
    let d = f64::from(d.max(1));
    (400.0 * d * d * (n.max(2) as f64).ln()).ceil() as u64 + 10_000
}

/// Per-graph inputs and the seed of the first scalar trial (scalar
/// trial `i` runs on graph `i % graphs` with seed `base + i`).
fn inputs(sizes: &Sizes, seed: u64, force_failure: bool) -> (Vec<Input>, u64) {
    let base = seed.wrapping_mul(1_000_003);
    let per_graph = sizes.graphs.len() as u64 * sizes.trials as u64;
    let graphs = sizes
        .graphs
        .iter()
        .enumerate()
        .map(|(i, &spec)| {
            let graph = spec
                .parse::<GraphSpec>()
                .expect("benchmark graph specs parse")
                .build();
            let d = algo::diameter(&graph).expect("benchmark graphs are connected");
            Input {
                spec,
                budget: if force_failure {
                    1
                } else {
                    budget(d, graph.node_count())
                },
                lane_seed: base.wrapping_add(per_graph * (i as u64 + 1)),
            }
        })
        .collect();
    (graphs, base)
}

/// One graph's results in a pass.
struct GraphRun {
    nodes: usize,
    /// Scalar outcomes with each trial's own seconds.
    scalar: Vec<(Result<ElectionOutcome, SimError>, f64)>,
    lanes: Vec<LaneOutcome>,
}

struct PassOut {
    pass: Pass,
    runs: Vec<GraphRun>,
    edges: usize,
    digest: u64,
    scalar_s: f64,
    lane_s: f64,
}

/// One pass: build the graphs, run every scalar trial, then every lane
/// trial.
fn pass(inputs: &[Input], scalar_seed: u64, sizes: &Sizes, tr: &mut Tracer) -> PassOut {
    let start = Instant::now();
    let graphs: Vec<Graph> = inputs
        .iter()
        .map(|input| {
            let spec = tr
                .span("spec.parse", || input.spec.parse::<GraphSpec>())
                .expect("benchmark graph specs parse");
            tr.span("graph.build", || spec.build())
        })
        .collect();
    let setup_s = secs(start);

    // All graphs' scalar trials share one run_trials call, so the two
    // workers drain one queue instead of meeting at a barrier per graph.
    let topologies: Vec<Topology> = graphs.iter().map(|g| Topology::from(g.clone())).collect();
    let configs: Vec<ElectionConfig> = inputs
        .iter()
        .map(|input| ElectionConfig::new(input.budget).with_stability_check(sizes.stability))
        .collect();
    let count = graphs.len();
    let scalar_start = Instant::now();
    let scalar_cpu = process_cpu_s();
    let all = tr.span("runner.run_trials", || {
        run_trials(count * sizes.trials, THREADS, scalar_seed, |seed| {
            let g = (seed.wrapping_sub(scalar_seed) % count as u64) as usize;
            let trial = Instant::now();
            let outcome = run_election(Bfw::new(P), topologies[g].clone(), seed, configs[g]);
            (outcome, secs(trial))
        })
    });
    let scalar_s = secs(scalar_start);
    let scalar_cpu_s = process_cpu_s() - scalar_cpu;
    let mut scalar: Vec<Vec<_>> = (0..count).map(|_| Vec::new()).collect();
    for (i, result) in all.into_iter().enumerate() {
        scalar[i % count].push(result);
    }

    let lane_start = Instant::now();
    let lanes: Vec<_> = graphs
        .iter()
        .zip(inputs)
        .map(|(graph, input)| {
            tr.span("lanes.run_bfw_trials_bitsliced", || {
                run_bfw_trials_bitsliced(
                    &Bfw::new(P),
                    graph,
                    sizes.trials,
                    THREADS,
                    input.lane_seed,
                    input.budget,
                )
            })
        })
        .collect();
    let lane_s = secs(lane_start);
    let wall_s = secs(start);

    let mut digest = FNV_OFFSET;
    let mut node_rounds = 0.0;
    let runs: Vec<GraphRun> = graphs
        .iter()
        .zip(scalar.into_iter().zip(lanes))
        .map(|(graph, (scalar, lanes))| {
            let nodes = graph.node_count();
            for (outcome, _) in &scalar {
                if let Ok(o) = outcome {
                    node_rounds += (nodes as u64 * (o.converged_round + sizes.stability)) as f64;
                    digest = fnv1a(digest, &o.converged_round.to_le_bytes());
                    digest = fnv1a(digest, &(o.leader.index() as u64).to_le_bytes());
                }
            }
            for lane in &lanes {
                digest = fnv1a(
                    digest,
                    &lane.converged_round.unwrap_or(u64::MAX).to_le_bytes(),
                );
            }
            GraphRun {
                nodes,
                scalar,
                lanes,
            }
        })
        .collect();
    PassOut {
        pass: Pass {
            setup_s,
            wall_s,
            node_rounds,
            step_cpu_s: scalar_cpu_s,
        },
        edges: graphs.iter().map(Graph::edge_count).sum(),
        runs,
        digest,
        scalar_s,
        lane_s,
    }
}

/// Counts every trial as one check, plus one mean-agreement check per
/// graph.
fn check(out: &PassOut, sizes: &Sizes, checks: &mut Checks) {
    for (g, run) in out.runs.iter().enumerate() {
        let graph = sizes.graphs[g];
        let mut scalar_rounds = Vec::new();
        for (t, (outcome, _)) in run.scalar.iter().enumerate() {
            let ok = matches!(outcome, Ok(o) if o.stable);
            checks.check(ok, || {
                format!("trials: scalar trial {t} on {graph}: {outcome:?}")
            });
            if let Ok(o) = outcome {
                scalar_rounds.push(o.converged_round as f64);
            }
        }
        let mut lane_rounds = Vec::new();
        for (t, lane) in run.lanes.iter().enumerate() {
            let ok = lane.converged_round.is_some() && lane.leader.is_some();
            checks.check(ok, || {
                format!("trials: lane trial {t} on {graph} did not converge")
            });
            if let Some(r) = lane.converged_round {
                lane_rounds.push(r as f64);
            }
        }
        let agree = agree(&scalar_rounds, &lane_rounds);
        checks.check(agree, || {
            format!(
                "trials: on {graph} the lane mean {:.1} and scalar mean {:.1} differ by more \
                 than {AGREEMENT_Z} standard errors",
                mean(&lane_rounds),
                mean(&scalar_rounds)
            )
        });
    }
}

/// Welch agreement of two sample means within [`AGREEMENT_Z`] standard
/// errors (`false` when either side has fewer than two samples).
fn agree(a: &[f64], b: &[f64]) -> bool {
    if a.len() < 2 || b.len() < 2 {
        return false;
    }
    let var = |x: &[f64]| {
        let m = mean(x);
        x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
    };
    let se = (var(a) / a.len() as f64 + var(b) / b.len() as f64).sqrt();
    (mean(a) - mean(b)).abs() <= AGREEMENT_Z * se
}

/// Pushes the runner, Monte-Carlo and lane samples of one traced pass.
fn push_samples(out: &PassOut, samples: &mut Samples) {
    let mut trial_s = Vec::new();
    let mut rounds = Vec::new();
    let mut group_rounds = Vec::new();
    let mut lane_node_rounds = 0.0;
    let mut lane_trials = 0;
    for run in &out.runs {
        for (outcome, s) in &run.scalar {
            trial_s.push(*s);
            if let Ok(o) = outcome {
                rounds.push(o.converged_round as f64);
            }
        }
        // A group steps until its last lane converges.
        for group in run.lanes.chunks(64) {
            let r = group
                .iter()
                .map(|l| l.converged_round.unwrap_or(0))
                .max()
                .unwrap_or(0) as f64;
            group_rounds.push(r);
            lane_node_rounds += run.nodes as f64 * r;
        }
        lane_trials += run.lanes.len();
    }
    let busy_s: f64 = trial_s.iter().sum();
    samples.push(
        "tick.ns_per_node_round",
        busy_s * 1e9 / out.pass.node_rounds.max(1.0),
    );
    samples.push("runner.rounds_per_trial_mean", mean(&rounds));
    samples.push("runner.trial_ms_p50", quantile(&trial_s, 0.5) * 1e3);
    samples.push("runner.trial_ms_p99", quantile(&trial_s, 0.99) * 1e3);
    samples.push("runner.trials_per_s", trial_s.len() as f64 / out.scalar_s);
    samples.push(
        "monte_carlo.busy_share",
        busy_s / (THREADS as f64 * out.scalar_s),
    );
    samples.push(
        "lanes.ns_per_node_round",
        THREADS as f64 * out.lane_s * 1e9 / lane_node_rounds.max(1.0),
    );
    samples.push("lanes.rounds_per_group_mean", mean(&group_rounds));
    samples.push("lanes.trials_per_s", lane_trials as f64 / out.lane_s);
}

/// Runs the workload: untraced passes for the end-to-end metrics, or the
/// traced run for the per-layer ones.
pub fn run(opts: &Options) -> Outcome {
    let sizes = sizes(opts.scale);
    let (inputs, scalar_seed) = inputs(&sizes, opts.seed, opts.force_failure);
    let mut checks = Checks::default();
    if !opts.trace {
        let mut tr = Tracer::new(false);
        let passes = repeat_passes(opts.seconds, 3, || {
            let out = pass(&inputs, scalar_seed, &sizes, &mut tr);
            check(&out, &sizes, &mut checks);
            out.pass
        });
        return Outcome {
            metrics: end_to_end(&passes),
            pass_wall_s: passes.iter().map(|p| p.wall_s).collect(),
            checks,
            tracer: None,
        };
    }

    let baseline = pass(&inputs, scalar_seed, &sizes, &mut Tracer::new(false));
    check(&baseline, &sizes, &mut checks);
    let span_cost = span_cost_s();
    let mut tr = Tracer::new(true);
    let mut samples = Samples::default();
    let mut pass_wall_s = Vec::new();
    let start = Instant::now();
    while tr.pass() == 0 || secs(start) < opts.seconds {
        tr.next_pass();
        let k = tr.pass();
        let out = pass(&inputs, scalar_seed, &sizes, &mut tr);
        pass_wall_s.push(out.pass.wall_s);
        check(&out, &sizes, &mut checks);
        checks.check(out.digest == baseline.digest, || {
            "trials: the traced run's outcomes differ from the untraced run's".to_owned()
        });
        samples.push("spec.parse_s", tr.total_s("spec.parse", k));
        samples.push("graph.build_s", tr.total_s("graph.build", k));
        samples.push("graph.edges", out.edges as f64);
        push_samples(&out, &mut samples);
        push_trace_samples(&mut samples, &tr, k, out.pass.wall_s, span_cost);
    }
    let mut metrics = samples.medians();
    metrics.push(crate::metric(
        "host.cores",
        crate::provenance::host_cores() as f64,
    ));
    Outcome {
        metrics,
        pass_wall_s,
        checks,
        tracer: Some(tr),
    }
}
