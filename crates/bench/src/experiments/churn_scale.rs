//! **E16 (extension) — edge-event handling cost under per-round churn.**
//!
//! PR 1's scenario engine rebuilt the `O(n + m)` CSR topology on every
//! edge event, which capped how much churn a big graph could sustain.
//! The `TickEngine` now applies [`TopologyDelta`]s to an overlay in
//! `O(deg)` per edge (with periodic compaction), and the bit kernel
//! patches its word-packed adjacency plan instead of replanning it;
//! this experiment measures what that buys: on rings, tori and random
//! regular graphs it drives one edge event per round — the engine's
//! real churn path, `DynamicGraph` validation included — through the
//! generic engine's delta layer, through the old rebuild-per-event
//! strategy, and through the bit kernel's delta path, and reports the
//! per-event cost and the delta-vs-rebuild speedup. The accompanying
//! `churn_scale` bench commits the 10k-node numbers to
//! `BENCH_churn.json`.
//!
//! Every strategy executes the identical schedule (remove edge `e`,
//! re-add edge `e`, round-robin over the initial edge list, one event
//! per simulated round) on the same seeded BFW host, so the simulated
//! executions are bit-identical and only the topology plumbing
//! differs.

use crate::{ExpConfig, ExperimentResult};
use bfw_core::{Bfw, BitNetwork};
use bfw_graph::{generators, DynamicGraph, Graph, NodeId, TopologyDelta};
use bfw_scenario::DynamicHost;
use bfw_sim::Network;
use bfw_stats::Table;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// How one churn run applies edge events to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventStrategy {
    /// `O(deg)` [`TopologyDelta`] application (the TickEngine path).
    Delta,
    /// Rebuild the CSR from the mirror and swap it in (the PR-1 path).
    Rebuild,
    /// The same deltas on the bit kernel, which patches its adjacency
    /// plan.
    BitDelta,
}

/// Timing of one churn run.
#[derive(Debug, Clone, Copy)]
pub struct ChurnMeasurement {
    /// Edge events applied.
    pub events: usize,
    /// Total nanoseconds spent applying edge events (mirror validation
    /// plus topology update; simulation steps excluded).
    pub event_ns: u128,
    /// Total nanoseconds spent stepping the simulation.
    pub step_ns: u128,
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
pub fn measure_event_cost(
    graph: &Graph,
    events: usize,
    seed: u64,
    strategy: EventStrategy,
) -> ChurnMeasurement {
    let generic = || Network::new(Bfw::new(0.5), graph.clone().into(), seed);
    match strategy {
        EventStrategy::Delta => {
            churn(graph, events, generic(), |host, delta, _| {
                host.apply_topology_delta(delta)
            })
            .0
        }
        EventStrategy::Rebuild => {
            churn(graph, events, generic(), |host, _, mirror| {
                host.set_topology(mirror.to_graph().into())
            })
            .0
        }
        EventStrategy::BitDelta => {
            let host = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), seed);
            churn(graph, events, host, |host, delta, _| {
                host.apply_topology_delta(delta)
            })
            .0
        }
    }
}

/// The churn schedule of [`measure_event_cost`] on `host`: each
/// validated event goes to `apply` as a delta, along with the updated
/// mirror, and counts as applied. Returns the timing and the host after
/// the last round.
fn churn<H: DynamicHost>(
    graph: &Graph,
    events: usize,
    mut host: H,
    mut apply: impl FnMut(&mut H, &TopologyDelta, &DynamicGraph),
) -> (ChurnMeasurement, H) {
    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    assert!(!edges.is_empty(), "churn needs at least one edge");
    let mut mirror = DynamicGraph::from_graph(graph);
    let mut applied_events = 0;
    let mut event_ns = 0u128;
    let mut step_ns = 0u128;
    for k in 0..events {
        let (u, v) = edges[(k / 2) % edges.len()];
        let add = k % 2 == 1; // even rounds remove, odd rounds restore
        let start = Instant::now();
        let applied = if add {
            mirror.add_edge(u, v).is_ok()
        } else {
            mirror.remove_edge(u, v).is_ok()
        };
        if applied {
            let mut delta = TopologyDelta::new();
            if add {
                delta.add_edge(u, v);
            } else {
                delta.remove_edge(u, v);
            }
            apply(&mut host, &delta, &mirror);
            applied_events += 1;
        }
        event_ns += start.elapsed().as_nanos();
        let start = Instant::now();
        host.step();
        step_ns += start.elapsed().as_nanos();
    }
    let measurement = ChurnMeasurement {
        events: applied_events,
        event_ns,
        step_ns,
    };
    (measurement, host)
}

/// The churn-scale workloads: ring, torus and random 4-regular graph at
/// `n` nodes (`quick` shrinks `n` for smoke tests and CI).
pub fn workloads(quick: bool) -> Vec<(String, Graph)> {
    let n = if quick { 1_024 } else { 10_000 };
    let side = (n as f64).sqrt() as usize;
    let mut rng = ChaCha8Rng::seed_from_u64(0x5CA1E);
    vec![
        (format!("cycle:{n}"), generators::cycle(n)),
        (
            format!("torus:{side}x{side}"),
            generators::torus(side, side),
        ),
        (
            format!("random-regular:{n}:4"),
            generators::random_regular(n, 4, &mut rng),
        ),
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
    for (name, graph) in workloads(cfg.quick) {
        let [delta, rebuild, bit] = [
            EventStrategy::Delta,
            EventStrategy::Rebuild,
            EventStrategy::BitDelta,
        ]
        .map(|strategy| measure_event_cost(&graph, events, cfg.seed, strategy));
        let speedup = rebuild.ns_per_event() / delta.ns_per_event();
        table.push_row(vec![
            name.clone(),
            graph.node_count().to_string(),
            graph.edge_count().to_string(),
            events.to_string(),
            format!("{:.0}", delta.ns_per_event()),
            format!("{:.0}", rebuild.ns_per_event()),
            format!("{speedup:.1}x"),
            format!("{:.0}", bit.ns_per_event()),
        ]);
        notes.push(format!(
            "{name}: delta-applied events are {speedup:.1}x faster than rebuild-per-event \
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
        let graph = generators::cycle(64);
        let generic = || Network::new(Bfw::new(0.5), graph.clone().into(), 7);
        let (delta_run, delta) = churn(&graph, 100, generic(), |host, delta, _| {
            host.apply_topology_delta(delta)
        });
        let (rebuild_run, rebuild) = churn(&graph, 100, generic(), |host, _, mirror| {
            host.set_topology(mirror.to_graph().into())
        });
        let bit = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), 7);
        let (bit_run, bit) = churn(&graph, 100, bit, |host, delta, _| {
            host.apply_topology_delta(delta)
        });
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
        let mut cfg = ExpConfig::quick();
        cfg.trials = 1;
        let result = run(&cfg);
        let table = &result.tables[0].1;
        assert_eq!(table.row_count(), 3, "{}", table.to_markdown());
        assert!(result.notes.len() == 4, "{:?}", result.notes);
    }

    #[test]
    fn measurement_reports_events() {
        let g = generators::cycle(32);
        let m = measure_event_cost(&g, 16, 0, EventStrategy::Delta);
        assert_eq!(m.events, 16);
        assert!(m.ns_per_event() >= 0.0);
    }

    #[test]
    fn workloads_are_three_topologies() {
        let w = workloads(true);
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|(_, g)| g.node_count() == 1_024));
        // The random regular graph really is 4-regular.
        let rr = &w[2].1;
        assert!(rr.nodes().all(|u| rr.degree(u) == 4));
    }
}
