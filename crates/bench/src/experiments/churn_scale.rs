//! **E16 (extension) — edge-event handling cost under per-round churn.**
//!
//! PR 1's scenario engine rebuilt the `O(n + m)` CSR topology on every
//! edge event, which capped how much churn a big graph could sustain.
//! The `TickEngine` now applies [`TopologyDelta`]s to an overlay in
//! `O(deg)` per edge (with periodic compaction), and the bit kernel
//! patches its word-packed adjacency plan instead of replanning it;
//! this experiment measures what that buys: on rings, tori and random
//! regular graphs it drives one edge event per round — the engine's
//! real churn path, each event checked against the host's live
//! topology first — through the generic engine's delta layer, through
//! the old rebuild-per-event strategy, and through the bit kernel's
//! delta path, and reports the per-event cost and the delta-vs-rebuild
//! speedup.
//!
//! Every strategy executes the identical schedule (remove edge `e`,
//! re-add edge `e`, round-robin over the initial edge list, one event
//! per simulated round) on the same seeded BFW host, so the simulated
//! executions are bit-identical and only the topology plumbing
//! differs. Each strategy runs once untimed to warm up, then once
//! timed.
//!
//! Besides the stdout table the experiment **commits its numbers**: it
//! writes the versioned `BENCH_churn.json` at the workspace root, each
//! row labeled with the [`GraphSpec`] that rebuilds its graph (the full
//! run's 10k-node rows are the tracked ones; the CI smoke step asserts
//! the file is emitted and validates).

use crate::report::rounded;
use crate::{ExpConfig, ExperimentResult, GraphSpec};
use bfw_core::{Bfw, BitNetwork};
use bfw_graph::{Graph, NodeId, Topology, TopologyDelta};
use bfw_scenario::DynamicHost;
use bfw_sim::Network;
use bfw_stats::{JsonValue, Table};
use std::time::Instant;

/// How one churn run applies edge events to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventStrategy {
    /// `O(deg)` [`TopologyDelta`] application (the TickEngine path).
    Delta,
    /// Apply the delta to a copy of the topology, rebuild the CSR from
    /// it and swap it in (the PR-1 path).
    Rebuild,
    /// The same deltas on the bit kernel, which patches its adjacency
    /// plan.
    BitDelta,
}

/// Timing of one churn run.
#[derive(Debug, Clone, Copy)]
struct ChurnMeasurement {
    /// Edge events applied.
    pub events: usize,
    /// Total nanoseconds spent applying edge events (the check against
    /// the live topology plus the update; simulation steps excluded).
    pub event_ns: u128,
}

impl ChurnMeasurement {
    /// Mean nanoseconds per edge event.
    pub fn ns_per_event(&self) -> f64 {
        self.event_ns as f64 / self.events.max(1) as f64
    }
}

/// Runs `events` rounds of per-round churn (remove / re-add, round-robin
/// over the initial edge list) on a seeded BFW host and times the edge
/// events separately from the steps.
fn measure_event_cost(
    graph: &Graph,
    events: usize,
    seed: u64,
    strategy: EventStrategy,
) -> ChurnMeasurement {
    let generic = || Network::new(Bfw::new(0.5), graph.clone().into(), seed);
    match strategy {
        EventStrategy::Delta => churn(graph, events, generic(), Network::apply_topology_delta).0,
        EventStrategy::Rebuild => churn(graph, events, generic(), rebuild_per_event(graph)).0,
        EventStrategy::BitDelta => {
            let host = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), seed);
            churn(graph, events, host, BitNetwork::apply_topology_delta).0
        }
    }
}

/// The PR-1 strategy: keep a copy of the topology, apply each delta
/// to it, and swap a freshly built CSR of it into the host.
fn rebuild_per_event(graph: &Graph) -> impl FnMut(&mut Network<Bfw>, &TopologyDelta) {
    let mut copy = Topology::from(graph.clone());
    move |host, delta| {
        copy.apply_delta(delta);
        host.set_topology(copy.to_graph().into());
    }
}

/// The churn schedule of [`measure_event_cost`] on `host`: each event
/// is checked against the host's live topology, as the scenario engine
/// checks it, and a valid one goes to `apply` as a delta and counts as
/// applied. Returns the timing and the host after the last round.
fn churn<H: DynamicHost>(
    graph: &Graph,
    events: usize,
    mut host: H,
    mut apply: impl FnMut(&mut H, &TopologyDelta),
) -> (ChurnMeasurement, H) {
    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    assert!(!edges.is_empty(), "churn needs at least one edge");
    let mut applied_events = 0;
    let mut event_ns = 0u128;
    for k in 0..events {
        let (u, v) = edges[(k / 2) % edges.len()];
        let add = k % 2 == 1; // even rounds remove, odd rounds restore
        let start = Instant::now();
        let mut delta = TopologyDelta::new();
        if add && host.topology().check_add_edge(u, v).is_ok() {
            delta.add_edge(u, v);
        } else if !add && host.topology().check_remove_edge(u, v).is_ok() {
            delta.remove_edge(u, v);
        }
        if !delta.is_empty() {
            apply(&mut host, &delta);
            applied_events += 1;
        }
        event_ns += start.elapsed().as_nanos();
        host.step();
    }
    let measurement = ChurnMeasurement {
        events: applied_events,
        event_ns,
    };
    (measurement, host)
}

/// The churn-scale workloads: ring, torus and random 4-regular graph at
/// `n` nodes (`quick` shrinks `n` for smoke tests).
fn workloads(quick: bool) -> [GraphSpec; 3] {
    let n = if quick { 1_024 } else { 10_000 };
    let side = (n as f64).sqrt() as usize;
    [
        GraphSpec::Cycle(n),
        GraphSpec::Torus(side, side),
        GraphSpec::RandomRegular(n, 4, 0x5CA1E),
    ]
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> ExperimentResult {
    let events = if cfg.quick { 512 } else { 2_048 };
    let mut table = Table::with_columns(&[
        "graph",
        "nodes",
        "edges",
        "events",
        "delta ns/event",
        "rebuild ns/event",
        "speedup",
        "bit delta ns/event",
    ]);
    let mut notes = Vec::new();
    let mut rows = Vec::new();
    for spec in workloads(cfg.quick) {
        let graph = spec.build();
        let [delta, rebuild, bit] = [
            EventStrategy::Delta,
            EventStrategy::Rebuild,
            EventStrategy::BitDelta,
        ]
        .map(|strategy| {
            measure_event_cost(&graph, events, cfg.seed, strategy);
            measure_event_cost(&graph, events, cfg.seed, strategy)
        });
        let speedup = rebuild.ns_per_event() / delta.ns_per_event();
        rows.push(JsonValue::object([
            ("graph", JsonValue::from(spec.to_string())),
            (
                "delta_ns_per_event",
                JsonValue::from(delta.ns_per_event().round()),
            ),
            (
                "rebuild_ns_per_event",
                JsonValue::from(rebuild.ns_per_event().round()),
            ),
            ("speedup", JsonValue::from(rounded(speedup, 1))),
            (
                "bit_delta_ns_per_event",
                JsonValue::from(bit.ns_per_event().round()),
            ),
        ]));
        table.push_row(vec![
            spec.to_string(),
            graph.node_count().to_string(),
            graph.edge_count().to_string(),
            events.to_string(),
            format!("{:.0}", delta.ns_per_event()),
            format!("{:.0}", rebuild.ns_per_event()),
            format!("{speedup:.1}x"),
            format!("{:.0}", bit.ns_per_event()),
        ]);
        notes.push(format!(
            "{spec}: delta-applied events are {speedup:.1}x faster than rebuild-per-event \
             ({:.0} vs {:.0} ns/event over {events} per-round events); the bit kernel's \
             patched plan takes {:.0} ns/event",
            delta.ns_per_event(),
            rebuild.ns_per_event(),
            bit.ns_per_event(),
        ));
    }
    notes.push(
        "every strategy executes the identical remove/re-add schedule on the same seeded \
         host; only the topology plumbing differs — the delta paths are the ones the scenario \
         engine uses"
            .to_owned(),
    );
    let report = crate::report::bench_report(
        "E16-churn-scale",
        cfg.quick,
        cfg.seed,
        [("events_per_run", JsonValue::from(events))],
        rows,
    );
    let path = crate::report::write_bench_report(cfg.report_root(), "BENCH_churn.json", &report);
    notes.insert(0, format!("wrote {}", path.display()));
    ExperimentResult {
        id: "E16-churn-scale",
        reproduces: "extension beyond the paper: O(deg) TopologyDelta edge events vs. \
                     O(n+m) rebuild-per-event under per-round churn",
        tables: vec![("edge-event cost".to_owned(), table)],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_rebuild_simulate_identically() {
        // The timing harness must not change the execution: after the
        // same churn schedule, every strategy leaves its host with the
        // same states and the same topology — the initial one, as the
        // schedule re-adds every edge it removes.
        let graph = GraphSpec::Cycle(64).build();
        let generic = || Network::new(Bfw::new(0.5), graph.clone().into(), 7);
        let (delta_run, delta) = churn(&graph, 100, generic(), Network::apply_topology_delta);
        let (rebuild_run, rebuild) = churn(&graph, 100, generic(), rebuild_per_event(&graph));
        let bit = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), 7);
        let (bit_run, bit) = churn(&graph, 100, bit, BitNetwork::apply_topology_delta);
        for run in [delta_run, rebuild_run, bit_run] {
            assert_eq!(run.events, 100, "round-robin schedule is always valid");
        }
        assert_eq!(delta.states(), rebuild.states());
        assert_eq!(delta.states(), bit.states());
        for topology in [delta.topology(), rebuild.topology(), bit.topology()] {
            assert_eq!(topology.to_graph(), graph);
        }
    }

    #[test]
    fn quick_run_produces_full_table() {
        // Redirect the report into a scratch directory: the tracked
        // workspace-root BENCH_churn.json holds release-build timings
        // and must not be overwritten by this debug-build quick run.
        let scratch = std::env::temp_dir().join(format!("bfw-churn-scale-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let mut cfg = ExpConfig::quick();
        cfg.trials = 1;
        cfg.report_dir = Some(scratch.clone());
        let result = run(&cfg);
        let table = &result.tables[0].1;
        assert_eq!(table.row_count(), 3, "{}", table.to_markdown());
        assert!(result.notes.len() == 5, "{:?}", result.notes);
        let json = std::fs::read_to_string(scratch.join("BENCH_churn.json")).unwrap();
        let summary = crate::report::validate_bench_report(&json).unwrap();
        assert_eq!(summary.experiment, "E16-churn-scale");
        assert_eq!(summary.rows, 3);
        let value = JsonValue::parse(&json).unwrap();
        let rows = value.get("rows").and_then(JsonValue::as_array).unwrap();
        let graphs: Vec<&str> = rows
            .iter()
            .map(|row| row.get("graph").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(graphs, ["cycle:1024", "torus:32x32", "rr:1024:4:379422"]);
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn measurement_reports_events() {
        let g = GraphSpec::Cycle(32).build();
        let m = measure_event_cost(&g, 16, 0, EventStrategy::Delta);
        assert_eq!(m.events, 16);
        assert!(m.ns_per_event() >= 0.0);
    }

    #[test]
    fn workloads_are_three_topologies() {
        let w = workloads(true).map(|spec| spec.build());
        assert!(w.iter().all(|g| g.node_count() == 1_024));
        // The random regular graph really is 4-regular.
        let rr = &w[2];
        assert!(rr.nodes().all(|u| rr.degree(u) == 4));
    }
}
