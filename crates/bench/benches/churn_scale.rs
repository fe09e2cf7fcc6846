//! Churn-scale microbench: per-event cost of delta-applied topology vs
//! rebuild-per-event on the full-size (10k-node) churn workloads, and
//! of the same deltas on the bit kernel's patched plan.
//!
//! This bench **commits its numbers**: it writes `BENCH_churn.json` at
//! the workspace root with the measured per-event costs, the
//! delta-vs-rebuild speedup per topology and the bit kernel's per-event
//! cost (the CI churn-microbench smoke step asserts the file is
//! emitted). The acceptance bar for the delta layer is a ≥5x speedup on
//! a 10k-node graph under per-round churn.
//!
//! Plain `Instant` timing, as in `tick_scale`: per strategy and
//! topology, one warm-up call and two timed calls; the report keeps the
//! last call's per-event cost.

use bfw_bench::experiments::churn_scale::{measure_event_cost, workloads, EventStrategy};
use bfw_stats::JsonValue;
use std::time::Instant;

/// Events per measured run. Kept moderate: the rebuild strategy costs
/// O(n + m) per event on 10k nodes, and the bench runs every strategy
/// on three topologies.
const EVENTS: usize = 1_024;
const SEED: u64 = 7;
/// Timed calls per strategy, after one untimed warm-up call.
const TIMED_CALLS: usize = 2;

fn main() {
    let mut report: Vec<(String, [f64; 3])> = Vec::new();
    for (name, graph) in workloads(false) {
        let costs = [
            ("delta", EventStrategy::Delta),
            ("rebuild", EventStrategy::Rebuild),
            ("bit-delta", EventStrategy::BitDelta),
        ]
        .map(|(label, strategy)| {
            measure_event_cost(&graph, EVENTS, SEED, strategy);
            let mut ns_per_event = 0.0;
            for _ in 0..TIMED_CALLS {
                let start = Instant::now();
                ns_per_event = measure_event_cost(&graph, EVENTS, SEED, strategy).ns_per_event();
                println!(
                    "churn_scale/{label}/{name}: {ns_per_event:.0} ns/event, run {:?}",
                    start.elapsed()
                );
            }
            ns_per_event
        });
        report.push((name, costs));
    }
    write_report(&report);
}

/// Writes `BENCH_churn.json` at the workspace root as a
/// `bfw/bench-report` document (see `bfw_bench::report`), so
/// `bfw report validate` and the parse–render–parse fixpoint tests
/// cover it like every other tracked artifact.
fn write_report(report: &[(String, [f64; 3])]) {
    let rows = report.iter().map(|(name, [delta_ns, rebuild_ns, bit_ns])| {
        let speedup = rebuild_ns / delta_ns.max(1.0);
        JsonValue::object([
            ("graph", JsonValue::from(name.as_str())),
            ("delta_ns_per_event", JsonValue::from(delta_ns.round())),
            ("rebuild_ns_per_event", JsonValue::from(rebuild_ns.round())),
            ("speedup", JsonValue::from((speedup * 10.0).round() / 10.0)),
            ("bit_delta_ns_per_event", JsonValue::from(bit_ns.round())),
        ])
    });
    let value = bfw_bench::report::bench_report(
        "churn-scale",
        false,
        SEED,
        [("events_per_run", JsonValue::from(EVENTS))],
        rows,
    );
    // CARGO_MANIFEST_DIR is crates/bench; the report lives at the
    // workspace root next to README.md — the same default
    // ExpConfig::report_root resolves to.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root")
        .to_path_buf();
    let path = bfw_bench::report::write_bench_report(root, "BENCH_churn.json", &value);
    println!("wrote {}", path.display());
}
