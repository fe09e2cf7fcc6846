//! End-to-end elections across the full workload suite, spanning
//! `bfw-graph` → `bfw-sim` → `bfw-core` → `bfw-bench`.

use bfw_bench::GraphSpec;
use bfw_core::Bfw;
use bfw_graph::NodeId;
use bfw_sim::{run_election, ElectionConfig, ElectionOutcome, SimError};

fn budget_for(spec: &GraphSpec) -> u64 {
    let d = u64::from(spec.diameter().max(1));
    let n = spec.topology().node_count() as f64;
    2_000 * d * d * n.ln().ceil() as u64 + 10_000
}

#[test]
fn every_suite_workload_elects_a_stable_leader() {
    for spec in bfw_bench::standard_suite(true) {
        let budget = budget_for(&spec);
        let outcome = run_election(
            Bfw::new(0.5),
            spec.topology(),
            1234,
            ElectionConfig::new(budget).with_stability_check(2_000),
        )
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(outcome.stable, "{spec}: leader changed after convergence");
        assert!(outcome.leader.index() < outcome.node_count);
        assert!(
            outcome.total_beeps > 0,
            "{spec}: an election needs at least one beep"
        );
    }
}

#[test]
fn known_diameter_variant_elects_on_suite() {
    for spec in bfw_bench::standard_suite(true) {
        let d = spec.diameter();
        let outcome = run_election(
            Bfw::with_known_diameter(d),
            spec.topology(),
            99,
            ElectionConfig::new(budget_for(&spec)).with_stability_check(500),
        )
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(outcome.stable, "{spec}");
    }
}

#[test]
fn many_seeds_on_one_graph_all_converge() {
    let spec = GraphSpec::Cycle(16);
    for seed in 0..40u64 {
        let outcome = run_election(
            Bfw::new(0.5),
            spec.topology(),
            seed,
            ElectionConfig::new(budget_for(&spec)),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            outcome.converged_round > 0,
            "a 16-cycle cannot converge in round 0"
        );
    }
}

#[test]
fn different_seeds_elect_different_leaders() {
    // Anonymity/symmetry: on a vertex-transitive graph, the winner is
    // decided purely by the coin flips, so across seeds we must see
    // more than one distinct winner.
    let spec = GraphSpec::Cycle(12);
    let mut winners = std::collections::HashSet::new();
    for seed in 0..25u64 {
        let outcome = run_election(
            Bfw::new(0.5),
            spec.topology(),
            seed,
            ElectionConfig::new(budget_for(&spec)),
        )
        .expect("cycle elections converge");
        winners.insert(outcome.leader);
    }
    assert!(
        winners.len() > 3,
        "only {} distinct winners in 25 runs",
        winners.len()
    );
}

#[test]
fn single_node_graph_is_immediately_elected() {
    let outcome = run_election(
        Bfw::new(0.5),
        GraphSpec::Path(1).topology(),
        0,
        ElectionConfig::new(10).with_stability_check(10),
    )
    .expect("single node");
    assert_eq!(outcome.converged_round, 0);
    assert_eq!(outcome.total_beeps, 0);
    assert!(outcome.stable);
}

#[test]
fn two_node_graph_elects_one() {
    let outcome = run_election(
        Bfw::new(0.5),
        GraphSpec::Path(2).topology(),
        3,
        ElectionConfig::new(100_000).with_stability_check(1_000),
    )
    .expect("two nodes");
    assert!(outcome.stable);
}

#[test]
fn disconnected_graphs_are_rejected_at_the_boundary() {
    let g = bfw_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).expect("valid edges");
    let err = run_election(Bfw::new(0.5), g.into(), 0, ElectionConfig::new(100)).unwrap_err();
    assert_eq!(err, SimError::Disconnected);
}

#[test]
fn extreme_p_values_still_converge_on_small_graphs() {
    for p in [0.01, 0.99] {
        let outcome = run_election(
            Bfw::new(p),
            GraphSpec::Cycle(8).topology(),
            5,
            ElectionConfig::new(50_000_000),
        )
        .unwrap_or_else(|e| panic!("p={p}: {e}"));
        assert!(outcome.converged_round > 0);
    }
}

/// Fixed-seed outcomes, pinned: the convergence round `T`, the leader,
/// `total_beeps` = Σ|B_t| over t = 0..=T, and stability. `bfw run`
/// prints the same numbers, so a change to how `run_election` observes
/// rounds cannot slip past unnoticed.
#[test]
fn election_outcomes_are_pinned() {
    let pins = [
        ("cycle:32", 42, 123, 3, 1075),
        ("grid:6x6", 7, 57, 35, 516),
        ("path:20", 3, 60, 6, 356),
        ("clique:16", 1, 9, 2, 48),
        ("torus:5x5", 11, 24, 17, 180),
        ("hypercube:4", 5, 27, 5, 128),
    ];
    for (label, seed, round, leader, beeps) in pins {
        let spec: GraphSpec = label.parse().unwrap();
        let outcome = run_election(
            Bfw::new(0.5),
            spec.topology(),
            seed,
            ElectionConfig::new(1_000_000).with_stability_check(200),
        )
        .unwrap();
        let expected = ElectionOutcome {
            converged_round: round,
            leader: NodeId::new(leader),
            node_count: spec.topology().node_count(),
            total_beeps: beeps,
            stable: true,
        };
        assert_eq!(outcome, expected, "{label} seed {seed}");
    }
    let path: GraphSpec = "path:20".parse().unwrap();
    let err = run_election(Bfw::new(0.5), path.topology(), 3, ElectionConfig::new(10)).unwrap_err();
    assert_eq!(
        err,
        SimError::RoundBudgetExhausted {
            max_rounds: 10,
            leaders_remaining: 7
        }
    );
}
