//! **E21 (extension) — parallel stepping: the word-sharded bit kernel
//! across thread counts, plus the cache-aware relabeling win.**
//!
//! The bit kernel's step partitions its bitplane word range across a
//! scoped thread pool (see `bfw_sim::ShardPool`) and stays
//! byte-identical at every thread count — the `parallel_equivalence`
//! workspace tests pin that. This experiment measures what the
//! determinism contract buys in wall-clock:
//!
//! * **stepping sweep** — rounds/second of the bit kernel at
//!   `T ∈ {1, 2, 4, 8}` worker threads on the cycle and a random
//!   4-regular graph (`rr:n:4:1820`), with the speedup over the same
//!   graph's `T = 1` row;
//! * **relabel microbench** — nanoseconds per propagation round of the
//!   `heard |= A·beeps` gather with and without the RCM relabeling
//!   that `WordGraph::build` applies at plan-build time. The headline
//!   workload is a **label-scrambled cycle** (`scrambled-cycle:n:97`,
//!   see `bfw_graph::generators::scrambled_cycle`): under the scrambled
//!   labels the shift classification fails and the plan degrades to
//!   the general edge stream, while RCM recovers the banded order and
//!   snaps the plan back to a handful of word-wide ring rotations —
//!   an order-of-magnitude gather win. The random-regular row is the
//!   honest caveat: an expander has no low-bandwidth order for RCM to
//!   find, and its source bitset fits in cache at these sizes, so the
//!   relabeling neither helps nor hurts there (~1x, reported but not
//!   floored).
//!
//! Every row is labeled with the [`GraphSpec`] that rebuilds its graph.
//!
//! Speedups are a property of the **host**: the committed numbers
//! record `host_cores` (what `std::thread::available_parallelism`
//! reported), and the CI floor on the 8-thread row only applies where
//! the host actually has the cores. The relabel rows are single
//! threaded and must hold anywhere.
//!
//! Besides the stdout tables the experiment **commits its numbers**:
//! it writes the versioned `BENCH_parallel.json` at the workspace root
//! (tracked like `BENCH_tick.json`; the CI smoke asserts it validates).

use crate::report::rounded;
use crate::{ExpConfig, ExperimentResult, GraphSpec};
use bfw_core::{Bfw, BitNetwork};
use bfw_graph::{Graph, WordGraph};
use bfw_stats::Table;
use std::time::Instant;

/// One measured row of the thread sweep.
struct StepRow {
    graph: String,
    n: usize,
    threads: usize,
    rounds: u64,
    rps: f64,
    /// Throughput over the same graph's `threads = 1` row.
    speedup: f64,
}

/// One measured row of the relabel microbench.
struct RelabelRow {
    graph: String,
    n: usize,
    plan: &'static str,
    base_ns_per_round: f64,
    relabeled_ns_per_round: f64,
    /// Gather time without relabeling over gather time with it.
    speedup: f64,
}

/// Worker-thread counts the sweep visits (always including 1, the
/// speedup baseline).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Stepping-sweep sizes: `quick` keeps CI to a sub-second smoke, the
/// full run covers the CI floor's `cycle:1000000` headline.
fn sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1_000]
    } else {
        vec![100_000, 1_000_000]
    }
}

/// The sweep workloads at `n` nodes: the rotation-planned cycle and
/// the edge-stream-planned random 4-regular graph — one per plan kind,
/// so the sweep exercises both sharded gather paths.
fn workloads(n: usize) -> [GraphSpec; 2] {
    [GraphSpec::Cycle(n), GraphSpec::RandomRegular(n, 4, 0x71C)]
}

/// Rounds to time per sweep cell: long enough to measure, short enough
/// that the full `|sizes| × |workloads| × |THREAD_COUNTS|` grid stays
/// tractable at `n = 10⁶`.
fn sweep_rounds(n: usize) -> u64 {
    (100_000_000 / n as u64).clamp(500, 50_000)
}

/// Times the bit kernel on one graph at one thread count. Warmup and
/// timed rounds run from the same seed at every `threads`, so each
/// cell executes byte-identical work — the ratio is pure stepping
/// speed.
fn measure_step(graph: &Graph, threads: usize, seed: u64) -> (u64, f64) {
    let mut net = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), seed);
    net.set_threads(threads);
    net.run(16);
    let rounds = sweep_rounds(graph.node_count());
    let start = Instant::now();
    net.run(rounds);
    let secs = start.elapsed().as_secs_f64();
    (rounds, rounds as f64 / secs.max(1e-9))
}

/// Relabel-microbench sizes: the CI floor pins the
/// `scrambled-cycle:100000` row of the full run.
fn relabel_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1_000]
    } else {
        vec![100_000]
    }
}

/// The relabel workloads at `n` nodes: the scrambled cycle (headline —
/// in label order the plan falls back to the edge stream, and RCM
/// recovers the rotations plan, a plan upgrade rather than a cache
/// tweak) and the random 4-regular expander (caveat — no low-bandwidth
/// order exists, ~1x).
fn relabel_workloads(n: usize) -> [GraphSpec; 2] {
    [
        GraphSpec::ScrambledCycle(n, 97),
        GraphSpec::RandomRegular(n, 4, 0x71C),
    ]
}

/// Gather iterations for the relabel microbench at `n` nodes.
fn relabel_iters(n: usize) -> u32 {
    (20_000_000 / n as u32).clamp(50, 5_000)
}

/// Times the propagation gather on one plan: `iters` rounds of
/// `heard |= A·beeps` from a fixed pseudo-random source bitset into a
/// zeroed destination. Both plans compute the same heard set (in their
/// own label order) — the difference is memory access order alone.
fn time_gather(plan: &WordGraph, src: &[u64], iters: u32) -> f64 {
    let mut dst = vec![0u64; plan.words()];
    let start = Instant::now();
    for _ in 0..iters {
        dst.iter_mut().for_each(|w| *w = 0);
        plan.propagate_or(src, &mut dst);
    }
    let total = start.elapsed().as_secs_f64();
    std::hint::black_box(&dst);
    total / f64::from(iters) * 1e9
}

/// Measures the relabeling win on one graph: the same gather, timed on
/// the label-order plan (`build_no_relabel`) and the RCM-relabeled
/// plan (`build`).
fn measure_relabel(spec: &GraphSpec, graph: &Graph) -> RelabelRow {
    let n = graph.node_count();
    let base = WordGraph::build_no_relabel(graph);
    let relabeled = WordGraph::build(graph);
    // A fixed ~half-density source pattern; the gather cost is
    // edge-count-bound, not pattern-sensitive, but determinism keeps
    // re-runs comparable.
    let src: Vec<u64> = (0..base.words() as u64)
        .map(|w| w.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
        .collect();
    let iters = relabel_iters(n);
    // Warm both plans once before timing.
    let _ = time_gather(&base, &src, 1);
    let _ = time_gather(&relabeled, &src, 1);
    let base_ns = time_gather(&base, &src, iters);
    let relabeled_ns = time_gather(&relabeled, &src, iters);
    RelabelRow {
        graph: spec.to_string(),
        n,
        plan: relabeled.plan_kind(),
        base_ns_per_round: base_ns,
        relabeled_ns_per_round: relabeled_ns,
        speedup: base_ns / relabeled_ns.max(1e-9),
    }
}

/// Assembles the `bfw/bench-report` document. Stepping rows carry
/// `kind = "step"`, relabel rows `kind = "relabel"`; `host_cores`
/// records the parallelism the host offered, so a reader (and the CI
/// floor) can tell a genuine scaling miss from a core-starved host.
fn render_report(
    steps: &[StepRow],
    relabels: &[RelabelRow],
    host_cores: usize,
    cfg: &ExpConfig,
) -> bfw_stats::JsonValue {
    use bfw_stats::JsonValue;
    let step_rows = steps.iter().map(|row| {
        JsonValue::object([
            ("kind", JsonValue::from("step")),
            ("graph", JsonValue::from(row.graph.as_str())),
            ("n", JsonValue::from(row.n)),
            ("threads", JsonValue::from(row.threads)),
            ("rounds", JsonValue::from(row.rounds)),
            ("rps", JsonValue::from(rounded(row.rps, 1))),
            ("speedup", JsonValue::from(rounded(row.speedup, 2))),
        ])
    });
    let relabel_rows = relabels.iter().map(|row| {
        JsonValue::object([
            ("kind", JsonValue::from("relabel")),
            ("graph", JsonValue::from(row.graph.as_str())),
            ("n", JsonValue::from(row.n)),
            ("plan", JsonValue::from(row.plan)),
            (
                "base_ns_per_round",
                JsonValue::from(rounded(row.base_ns_per_round, 1)),
            ),
            (
                "relabeled_ns_per_round",
                JsonValue::from(rounded(row.relabeled_ns_per_round, 1)),
            ),
            ("speedup", JsonValue::from(rounded(row.speedup, 2))),
        ])
    });
    crate::report::bench_report(
        "E21-parallel-scale",
        cfg.quick,
        cfg.seed,
        [("host_cores", JsonValue::from(host_cores as u64))],
        step_rows.chain(relabel_rows).collect::<Vec<_>>(),
    )
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> ExperimentResult {
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut step_table =
        Table::with_columns(&["graph", "n", "threads", "rounds/s", "speedup vs T=1"]);
    let mut steps: Vec<StepRow> = Vec::new();
    for n in sizes(cfg.quick) {
        for spec in workloads(n) {
            let graph = spec.build();
            let mut baseline_rps = 0.0;
            for threads in THREAD_COUNTS {
                let (rounds, rps) = measure_step(&graph, threads, cfg.seed);
                if threads == 1 {
                    baseline_rps = rps;
                }
                steps.push(StepRow {
                    graph: spec.to_string(),
                    n,
                    threads,
                    rounds,
                    rps,
                    speedup: rps / baseline_rps.max(1e-9),
                });
            }
        }
    }
    for row in &steps {
        step_table.push_row(vec![
            row.graph.clone(),
            row.n.to_string(),
            row.threads.to_string(),
            format!("{:.0}", row.rps),
            format!("{:.2}x", row.speedup),
        ]);
    }

    let mut relabel_table = Table::with_columns(&[
        "graph",
        "n",
        "plan",
        "label-order ns/round",
        "RCM ns/round",
        "speedup",
    ]);
    let mut relabels = Vec::new();
    for n in relabel_sizes(cfg.quick) {
        for spec in relabel_workloads(n) {
            relabels.push(measure_relabel(&spec, &spec.build()));
        }
    }
    for row in &relabels {
        relabel_table.push_row(vec![
            row.graph.clone(),
            row.n.to_string(),
            row.plan.to_owned(),
            format!("{:.0}", row.base_ns_per_round),
            format!("{:.0}", row.relabeled_ns_per_round),
            format!("{:.2}x", row.speedup),
        ]);
    }

    let report = render_report(&steps, &relabels, host_cores, cfg);
    let path = crate::report::write_bench_report(cfg.report_root(), "BENCH_parallel.json", &report);

    let mut notes = vec![
        format!("wrote {}", path.display()),
        format!("host offered {host_cores} core(s); thread-sweep speedups are host properties"),
    ];
    if let Some(headline) = steps
        .iter()
        .rev()
        .find(|r| r.graph.starts_with("cycle") && r.threads == 8)
    {
        notes.push(format!(
            "{} at 8 threads: {:.0} rounds/s, {:.2}x the single-thread step",
            headline.graph, headline.rps, headline.speedup
        ));
    }
    if let Some(headline) = relabels
        .iter()
        .rev()
        .find(|r| r.graph.starts_with("scrambled-cycle"))
    {
        notes.push(format!(
            "{}: RCM recovers the {} plan and cuts the gather from {:.0} to {:.0} ns/round \
             ({:.2}x)",
            headline.graph,
            headline.plan,
            headline.base_ns_per_round,
            headline.relabeled_ns_per_round,
            headline.speedup
        ));
    }
    if let Some(caveat) = relabels.iter().rev().find(|r| r.graph.starts_with("rr:")) {
        notes.push(format!(
            "{}: {:.2}x — an expander has no low-bandwidth order for RCM to exploit \
             (reported, not floored)",
            caveat.graph, caveat.speedup
        ));
    }
    notes.push(
        "every cell executes byte-identical work (states, RNG positions, ledger counts are \
         thread-count-invariant; see the parallel_equivalence workspace tests) — the ratios \
         are pure stepping speed"
            .to_owned(),
    );

    ExperimentResult {
        id: "E21-parallel-scale",
        reproduces: "extension beyond the paper: word-sharded parallel stepping of the \
                     bit-parallel BFW kernel across worker-thread counts, and the cache-aware \
                     RCM relabeling of the propagation gather",
        tables: vec![
            ("thread sweep".to_owned(), step_table),
            ("relabel microbench".to_owned(), relabel_table),
        ],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfw_stats::JsonValue;

    #[test]
    fn quick_run_produces_sweep_and_json() {
        // Redirect the report into a scratch directory: the tracked
        // workspace-root BENCH_parallel.json holds release-build
        // timings and must not be overwritten by this debug-build
        // quick run.
        let scratch =
            std::env::temp_dir().join(format!("bfw-parallel-scale-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let mut cfg = ExpConfig::quick();
        cfg.report_dir = Some(scratch.clone());
        let result = run(&cfg);
        assert_eq!(result.id, "E21-parallel-scale");
        // 1 quick size x 2 graphs x 4 thread counts.
        let sweep = &result.tables[0].1;
        assert_eq!(sweep.row_count(), 8, "{}", sweep.to_markdown());
        let md = sweep.to_markdown();
        assert!(md.contains("cycle:1000"), "{md}");
        assert!(md.contains("rr:1000:4:1820"), "{md}");
        // 1 quick size x 2 relabel workloads.
        let relabel_md = result.tables[1].1.to_markdown();
        assert_eq!(result.tables[1].1.row_count(), 2, "{relabel_md}");
        assert!(
            relabel_md.contains("scrambled-cycle:1000:97"),
            "{relabel_md}"
        );

        let json = std::fs::read_to_string(scratch.join("BENCH_parallel.json")).unwrap();
        let summary = crate::report::validate_bench_report(&json).unwrap();
        assert_eq!(summary.experiment, "E21-parallel-scale");
        assert_eq!(summary.rows, 10);
        let value = JsonValue::parse(&json).unwrap();
        assert!(
            value
                .get("host_cores")
                .and_then(JsonValue::as_number)
                .unwrap()
                >= 1.0
        );
        let rows = value.get("rows").and_then(JsonValue::as_array).unwrap();
        // The T = 1 rows are their own baseline: speedup exactly 1.
        for row in rows {
            match row.get("kind").and_then(JsonValue::as_str) {
                Some("step") => {
                    assert!(row.get("rps").and_then(JsonValue::as_number).unwrap() > 0.0);
                    if row.get("threads").and_then(JsonValue::as_number) == Some(1.0) {
                        assert_eq!(row.get("speedup").and_then(JsonValue::as_number), Some(1.0));
                    }
                }
                Some("relabel") => {
                    assert!(
                        row.get("base_ns_per_round")
                            .and_then(JsonValue::as_number)
                            .unwrap()
                            > 0.0
                    );
                }
                other => panic!("unexpected row kind {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn rcm_recovers_rotations_on_scrambled_cycle() {
        // The headline relabel claim: in scrambled label order the
        // plan degrades to the edge stream, and RCM's relabeling
        // restores the rotations plan.
        let graph = GraphSpec::ScrambledCycle(1_000, 97).build();
        assert_eq!(
            WordGraph::build_no_relabel(&graph).plan_kind(),
            "edge-stream"
        );
        assert_eq!(WordGraph::build(&graph).plan_kind(), "rotations");
    }

    #[test]
    fn budgets_scale_sanely() {
        assert_eq!(sweep_rounds(1_000), 50_000);
        assert_eq!(sweep_rounds(1_000_000), 500);
        assert_eq!(relabel_iters(1_000), 5_000);
        assert_eq!(relabel_iters(100_000), 200);
        assert!(THREAD_COUNTS.contains(&1), "T=1 is the speedup baseline");
    }
}
