//! **E12 — the flow theory audited at scale.**
//!
//! Ohm's law (Corollary 8), conservation (Lemma 7) and the Lipschitz
//! bound (Lemma 11) are deterministic theorems; this experiment runs
//! them as exact checks over the full workload suite and reports the
//! number of checks performed vs violations found (must be zero — any
//! violation is an implementation bug, not noise).

use crate::{ExpConfig, ExperimentResult};
use bfw_core::{flow, Bfw, FlowAuditor, InvariantChecker, InvariantReport};
use bfw_graph::{Graph, NodeId};
use bfw_sim::{Network, Topology};
use bfw_stats::Table;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Runs BFW at `p` from `seed` on `graph` for `rounds` rounds and audits
/// every round against Section 3: the flow theory along 6 random walks
/// of 12 steps drawn from `walk_seed`, and the invariants (Claim 6,
/// Lemma 9, monotonicity, plus Lemma 11 on graphs of at most 64 nodes).
/// E12 runs it over the workload suite, `bfw invariants` on one graph.
///
/// # Panics
///
/// Panics on an empty graph, which has no node to start a walk from.
pub fn audit(
    graph: Graph,
    p: f64,
    seed: u64,
    walk_seed: u64,
    rounds: u64,
) -> (FlowAuditor, InvariantReport) {
    let n = graph.node_count();
    let mut rng = ChaCha8Rng::seed_from_u64(walk_seed);
    let mut auditor = FlowAuditor::new(n);
    for _ in 0..6 {
        let start = NodeId::new(rng.random_range(0..n));
        if let Some(path) = flow::random_walk_path(&graph, start, 12, &mut rng) {
            auditor.register_path(path);
        }
    }
    let mut checker = InvariantChecker::new(&graph).with_lemma11(n <= 64);
    let mut net = Network::new(Bfw::new(p), graph.into(), seed);
    net.run_until(rounds, |v| {
        auditor.on_round(v);
        checker.on_round(v);
        false
    });
    (auditor, checker.report().clone())
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> ExperimentResult {
    let rounds: u64 = if cfg.quick { 300 } else { 2_000 };
    let mut table = Table::with_columns(&[
        "graph",
        "paths audited",
        "rounds",
        "flow checks",
        "flow violations",
        "invariant rounds",
        "invariant violations",
    ]);
    let mut total_violations = 0u64;

    for spec in crate::standard_suite(cfg.quick) {
        // FlowAuditor needs explicit adjacency; materialize cliques
        // (and compact overlays, though specs never produce them).
        let graph = match spec.topology() {
            Topology::Graph(g) => g,
            t => t.to_graph(),
        };
        let (auditor, report) = audit(graph, 0.5, cfg.seed, cfg.seed ^ 0xF10, rounds);
        total_violations += auditor.violations().len() as u64 + report.violations().len() as u64;
        table.push_row(vec![
            spec.to_string(),
            "6".to_owned(),
            rounds.to_string(),
            auditor.checks_performed().to_string(),
            auditor.violations().len().to_string(),
            report.rounds_checked().to_string(),
            report.violations().len().to_string(),
        ]);
    }

    ExperimentResult {
        id: "E12-flow-audit",
        reproduces: "Corollary 8 (Ohm's law), Lemma 7, Lemma 9, Lemma 11, Claim 6 — exact",
        tables: vec![("flow & invariant audit".to_owned(), table)],
        notes: vec![format!(
            "{total_violations} violations across the suite (expected 0) — the flow theory \
             holds deterministically on every audited execution."
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_audit_is_clean() {
        let cfg = ExpConfig::quick();
        let result = run(&cfg);
        for row in result.tables[0].1.rows() {
            assert_eq!(row[4], "0", "flow violations in {row:?}");
            assert_eq!(row[6], "0", "invariant violations in {row:?}");
        }
        assert!(result.notes[0].starts_with('0'));
    }
}
