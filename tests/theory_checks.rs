//! Cross-crate checks of the paper's quantitative claims: Section 3's
//! exact laws on live executions, and Section 4's stationary behaviour.

use bfw_bench::GraphSpec;
use bfw_core::{flow, theory, Bfw, FlowAuditor, InvariantChecker};
use bfw_graph::NodeId;
use bfw_sim::{Network, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[test]
fn flow_theory_exact_across_suite() {
    for spec in bfw_bench::standard_suite(true) {
        let graph = match spec.topology() {
            Topology::Graph(g) => g,
            t => t.to_graph(),
        };
        let n = graph.node_count();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut auditor = FlowAuditor::new(n);
        for _ in 0..4 {
            let start = NodeId::new(rng.random_range(0..n));
            if let Some(p) = flow::random_walk_path(&graph, start, 10, &mut rng) {
                auditor.register_path(p);
            }
        }
        let mut checker = InvariantChecker::new(&graph).with_lemma11(n <= 32);
        let mut net = Network::new(Bfw::new(0.5), graph.into(), 77);
        net.run_until(600, |v| {
            auditor.on_round(v);
            checker.on_round(v);
            false
        });
        auditor.assert_clean();
        checker.assert_clean();
    }
}

#[test]
fn surviving_leader_beeps_at_stationary_rate() {
    let p = 0.5;
    let mut net = Network::new(Bfw::new(p), GraphSpec::Cycle(16).topology(), 2024);
    net.run_until(1_000_000, |v| v.leader_count() == 1)
        .expect("cycle election converges");
    let leader = net.unique_leader().expect("converged");
    net.run(200); // drain residual waves
    let horizon = 60_000;
    let mut beeps = 0u64;
    for _ in 0..horizon {
        net.step();
        if net.state(leader).beeps() {
            beeps += 1;
        }
    }
    let rate = beeps as f64 / horizon as f64;
    let predicted = theory::stationary_beep_rate(p);
    assert!(
        (rate - predicted).abs() < 0.01,
        "measured {rate}, Eq. (16) predicts {predicted}"
    );
}

#[test]
fn leader_is_never_disturbed_after_convergence() {
    // Stronger than stability: after convergence (plus a drain period),
    // the leader must never be in B◦/F◦/W◦ — it stays a leader and its
    // own waves never return (flow theory).
    let mut net = Network::new(Bfw::new(0.5), GraphSpec::Grid(4, 4).topology(), 3);
    net.run_until(1_000_000, |v| v.leader_count() == 1)
        .expect("grid election converges");
    let leader = net.unique_leader().expect("converged");
    net.run(64);
    for _ in 0..20_000 {
        net.step();
        assert!(net.state(leader).is_leader());
        assert_eq!(net.unique_leader(), Some(leader));
    }
}

#[test]
fn lemma11_bound_is_tight_on_paths() {
    // The bound |N_beep(u) − N_beep(v)| ≤ dis(u, v) is achieved: on a
    // long path some adjacent pair must reach gap exactly 1 quickly
    // (the first beep anywhere creates it).
    let n = 10;
    let g = bfw_graph::generators::path(n);
    let mut counts = vec![0u64; n];
    let mut net = Network::new(Bfw::new(0.5), g.into(), 1);
    let mut achieved = false;
    for _ in 0..100 {
        net.step();
        for (i, &b) in net.beep_flags().iter().enumerate() {
            counts[i] += u64::from(b);
        }
        if counts.windows(2).any(|w| w[0].abs_diff(w[1]) == 1) {
            achieved = true;
            break;
        }
    }
    assert!(
        achieved,
        "gap of 1 across an edge should appear almost immediately"
    );
}

#[test]
fn theorem2_normalization_is_bounded_on_growing_cycles() {
    // rounds / (D² ln n) stays below a fixed constant across sizes —
    // the empirical content of the O(D² log n) upper bound.
    for n in [8usize, 16, 32, 48] {
        let spec = GraphSpec::Cycle(n);
        let d = spec.diameter();
        let mut worst_ratio: f64 = 0.0;
        for seed in 0..8u64 {
            let out = bfw_sim::run_election(
                Bfw::new(0.5),
                spec.topology(),
                seed,
                bfw_sim::ElectionConfig::new(100_000_000),
            )
            .expect("cycle elections converge");
            worst_ratio = worst_ratio.max(theory::theorem2_ratio(out.converged_round as f64, d, n));
        }
        assert!(
            worst_ratio < 10.0,
            "n={n}: rounds/(D² ln n) = {worst_ratio} — far above the Theorem 2 scale"
        );
    }
}
