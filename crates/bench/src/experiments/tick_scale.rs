//! **E20 (extension) — kernel throughput: rounds/second for the
//! generic vs the bit-parallel BFW kernel at scale.**
//!
//! The generic [`TickEngine`](bfw_sim::TickEngine) advances one node at
//! a time; the bitplane [`BitEngine`](bfw_sim::BitEngine) advances 64
//! nodes per word operation and both are byte-identical at a fixed seed
//! (the `bit_kernel_equivalence` workspace tests pin it). This
//! experiment measures what the equivalence buys: rounds/second for
//! each kernel across `n ∈ {10³ … 10⁷}` on the cycle, the torus and a
//! random 4-regular graph (`rr:n:4:1820`), each row labeled with the
//! [`GraphSpec`] that rebuilds it, and the wall-clock seconds of the timed
//! bit-kernel segment at each size — the headline being the `n = 10⁶`
//! cycle completing in single-digit seconds where the generic engine
//! needs minutes, with the `n = 10⁷` rows pinning that the kernel
//! keeps its word-parallel throughput at ten-million-node scale.
//!
//! Timing methodology (the `instrument_overhead` bench's): build both
//! engines at the same seed, warm each up, then time a fixed block of
//! rounds per kernel — more rounds for the bit kernel so both segments
//! measure meaningfully without the generic segment dominating the
//! experiment's runtime at `n = 10⁶`.
//!
//! Besides the stdout table the experiment **commits its numbers**: it
//! writes the versioned `BENCH_tick.json` at the workspace root
//! (tracked like `BENCH_churn.json` / `BENCH_complexity.json`; the CI
//! smoke step asserts it is emitted and parses).

use crate::report::rounded;
use crate::{ExpConfig, ExperimentResult, GraphSpec};
use bfw_core::{Bfw, BitNetwork};
use bfw_graph::Graph;
use bfw_sim::Network;
use bfw_stats::Table;
use std::time::Instant;

/// One measured row of the throughput sweep.
struct Row {
    graph: String,
    n: usize,
    generic_rounds: u64,
    generic_rps: f64,
    bit_rounds: u64,
    bit_rps: f64,
    bit_seconds: f64,
    speedup: f64,
}

/// The sweep sizes: `quick` keeps CI to a sub-second smoke, the full
/// run climbs to the million-node headline.
fn sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1_000]
    } else {
        vec![1_000, 10_000, 100_000, 1_000_000, 10_000_000]
    }
}

/// The throughput workloads at `n` nodes: ring, torus and random
/// 4-regular graph (the diameter-diverse trio of the churn-scale
/// experiment).
fn workloads(n: usize) -> [GraphSpec; 3] {
    let side = (n as f64).sqrt() as usize;
    [
        GraphSpec::Cycle(n),
        GraphSpec::Torus(side, side),
        GraphSpec::RandomRegular(n, 4, 0x71C),
    ]
}

/// Rounds to time on the generic kernel: enough for a stable
/// measurement at small `n`, few enough that the `n = 10⁶` cell stays
/// tractable (the generic engine is exactly what's slow there).
fn generic_rounds(n: usize) -> u64 {
    (2_000_000 / n as u64).clamp(20, 2_000)
}

/// Rounds to time on the bit kernel: scaled up by the expected speedup
/// so the segment is long enough to time, and the `n = 10⁶` cell's
/// wall-clock — the committed `bit_seconds` — reflects a real workload
/// (thousands of rounds), not a microbenchmark.
fn bit_rounds(n: usize) -> u64 {
    (200_000_000 / n as u64).clamp(1_000, 100_000)
}

/// Times both kernels on one graph at one seed. The engines run the
/// same protocol from the same seed (warmup included), so the rounds
/// they execute are the same work — the ratio is pure kernel speed.
fn measure(spec: &GraphSpec, graph: &Graph, seed: u64) -> Row {
    let n = graph.node_count();
    let warmup = 16;

    let mut generic = Network::new(Bfw::new(0.5), graph.clone().into(), seed);
    generic.run(warmup);
    let g_rounds = generic_rounds(n);
    let start = Instant::now();
    generic.run(g_rounds);
    let g_secs = start.elapsed().as_secs_f64();
    // Free the generic engine's per-node RNG streams before carving
    // the bit engine's: at n = 10⁷ each set is gigabyte-scale, and
    // only one engine is ever timed at once.
    drop(generic);

    let mut bit = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), seed);
    bit.run(warmup);
    let b_rounds = bit_rounds(n);
    let start = Instant::now();
    bit.run(b_rounds);
    let b_secs = start.elapsed().as_secs_f64();

    let generic_rps = g_rounds as f64 / g_secs.max(1e-9);
    let bit_rps = b_rounds as f64 / b_secs.max(1e-9);
    Row {
        graph: spec.to_string(),
        n,
        generic_rounds: g_rounds,
        generic_rps,
        bit_rounds: b_rounds,
        bit_rps,
        bit_seconds: b_secs,
        speedup: bit_rps / generic_rps.max(1e-9),
    }
}

/// Assembles the `bfw/bench-report` document (see [`crate::report`]);
/// key-sorted deterministic rendering means re-runs diff cleanly, and
/// `bfw report validate` checks it back.
fn render_report(rows: &[Row], cfg: &ExpConfig) -> bfw_stats::JsonValue {
    use bfw_stats::JsonValue;
    crate::report::bench_report(
        "E20-tick-scale",
        cfg.quick,
        cfg.seed,
        [],
        rows.iter().map(|row| {
            JsonValue::object([
                ("graph", JsonValue::from(row.graph.as_str())),
                ("n", JsonValue::from(row.n)),
                ("generic_rounds", JsonValue::from(row.generic_rounds)),
                ("generic_rps", JsonValue::from(rounded(row.generic_rps, 1))),
                ("bit_rounds", JsonValue::from(row.bit_rounds)),
                ("bit_rps", JsonValue::from(rounded(row.bit_rps, 1))),
                ("bit_seconds", JsonValue::from(rounded(row.bit_seconds, 4))),
                ("speedup", JsonValue::from(rounded(row.speedup, 1))),
            ])
        }),
    )
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> ExperimentResult {
    let mut table = Table::with_columns(&[
        "graph",
        "n",
        "generic rounds/s",
        "bit rounds/s",
        "speedup",
        "bit segment (s)",
    ]);
    let mut rows = Vec::new();
    for n in sizes(cfg.quick) {
        for spec in workloads(n) {
            rows.push(measure(&spec, &spec.build(), cfg.seed));
        }
    }
    for row in &rows {
        table.push_row(vec![
            row.graph.clone(),
            row.n.to_string(),
            format!("{:.0}", row.generic_rps),
            format!("{:.0}", row.bit_rps),
            format!("{:.1}x", row.speedup),
            format!("{:.3}", row.bit_seconds),
        ]);
    }

    let report = render_report(&rows, cfg);
    let path = crate::report::write_bench_report(cfg.report_root(), "BENCH_tick.json", &report);

    let mut notes = vec![format!("wrote {}", path.display())];
    if let Some(headline) = rows.iter().rfind(|r| r.graph.starts_with("cycle")) {
        notes.push(format!(
            "{}: bit kernel sustains {:.0} rounds/s ({:.1}x the generic engine's {:.0}); \
             the {}-round timed segment took {:.2}s",
            headline.graph,
            headline.bit_rps,
            headline.speedup,
            headline.generic_rps,
            headline.bit_rounds,
            headline.bit_seconds
        ));
    }
    notes.push(
        "both kernels execute the same rounds from the same seed (byte-identical states; see \
         the bit_kernel_equivalence workspace tests) — the ratio is pure kernel speed"
            .to_owned(),
    );

    ExperimentResult {
        id: "E20-tick-scale",
        reproduces: "extension beyond the paper: throughput of the bit-parallel BFW kernel \
                     (word-wide bitplane rounds) vs the generic per-node engine",
        tables: vec![("kernel throughput".to_owned(), table)],
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
        // workspace-root BENCH_tick.json holds release-build timings
        // and must not be overwritten by this debug-build quick run.
        let scratch = std::env::temp_dir().join(format!("bfw-tick-scale-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let mut cfg = ExpConfig::quick();
        cfg.report_dir = Some(scratch.clone());
        let result = run(&cfg);
        assert_eq!(result.id, "E20-tick-scale");
        let table = &result.tables[0].1;
        // 1 quick size x 3 graphs.
        assert_eq!(table.row_count(), 3, "{}", table.to_markdown());
        let md = table.to_markdown();
        assert!(md.contains("cycle:1000"), "{md}");
        assert!(md.contains("rr:1000:4:1820"), "{md}");

        // The JSON report exists, carries the envelope, and validates.
        let json = std::fs::read_to_string(scratch.join("BENCH_tick.json")).unwrap();
        let summary = crate::report::validate_bench_report(&json).unwrap();
        assert_eq!(summary.experiment, "E20-tick-scale");
        assert_eq!(summary.rows, 3);
        let value = JsonValue::parse(&json).unwrap();
        assert_eq!(
            value.get("version").and_then(JsonValue::as_number),
            Some(1.0)
        );
        assert_eq!(
            value.get("format").and_then(JsonValue::as_str),
            Some("bfw/bench-report")
        );
        let rows = value.get("rows").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), 3);
        for row in rows {
            assert!(row.get("speedup").and_then(JsonValue::as_number).is_some());
            assert!(
                row.get("bit_seconds")
                    .and_then(JsonValue::as_number)
                    .unwrap()
                    >= 0.0
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn round_budgets_scale_sanely() {
        assert_eq!(generic_rounds(1_000), 2_000);
        assert_eq!(generic_rounds(100_000), 20);
        assert_eq!(generic_rounds(1_000_000), 20);
        assert_eq!(bit_rounds(1_000), 100_000);
        assert_eq!(bit_rounds(1_000_000), 1_000);
        assert_eq!(generic_rounds(10_000_000), 20);
        assert_eq!(bit_rounds(10_000_000), 1_000);
        // The bit segment always times more rounds than the generic one.
        for n in [1_000usize, 10_000, 100_000, 1_000_000, 10_000_000] {
            assert!(bit_rounds(n) > generic_rounds(n), "n={n}");
        }
    }
}
