//! Property-based tests: the paper's Section 3 theorems hold on *every*
//! execution, so we assert them on randomized graphs, seeds and paths.

use bfw_core::{flow, Bfw, BfwState, FlowAuditor, InitialConfig, InvariantChecker};
use bfw_graph::{algo, generators, Graph, NodeId};
use bfw_sim::Network;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A small random connected graph: a random tree plus extra random
/// edges.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..20, any::<u64>(), 0usize..12).prop_map(|(n, seed, extra)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tree = generators::random_tree(n, &mut rng);
        let mut b = bfw_graph::GraphBuilder::new(n);
        for (u, v) in tree.edges() {
            b.add_edge_ids(u, v).expect("tree edge in range");
        }
        for _ in 0..extra {
            let u = rand::Rng::random_range(&mut rng, 0..n as u32);
            let v = rand::Rng::random_range(&mut rng, 0..n as u32);
            if u != v {
                b.add_edge(u, v).expect("edge in range");
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Corollary 8 (Ohm's law) + Lemma 7 + Lemma 11 on random-walk
    /// paths of random connected graphs.
    #[test]
    fn ohms_law_on_random_graphs(g in arb_connected_graph(), seed in any::<u64>(), rounds in 1u64..200) {
        let n = g.node_count();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
        let mut auditor = FlowAuditor::new(n);
        for _ in 0..4 {
            let start = NodeId::new(rand::Rng::random_range(&mut rng, 0..n));
            if let Some(path) = flow::random_walk_path(&g, start, 10, &mut rng) {
                auditor.register_path(path);
            }
        }
        let mut net = Network::new(Bfw::new(0.5), g.into(), seed);
        net.run_until(rounds, |v| {
            auditor.on_round(v);
            false
        });
        prop_assert!(auditor.violations().is_empty(), "{:?}", auditor.violations());
    }

    /// Lemma 9 + Claim 6 + leader monotonicity on random executions.
    #[test]
    fn invariants_on_random_graphs(g in arb_connected_graph(), seed in any::<u64>(), p in 0.05f64..0.95) {
        let mut checker = InvariantChecker::new(&g).with_lemma11(g.node_count() <= 12);
        let mut net = Network::new(Bfw::new(p), g.into(), seed);
        net.run_until(150, |v| {
            checker.on_round(v);
            false
        });
        prop_assert!(checker.report().is_clean(), "{:?}", checker.report().violations());
    }

    /// Lemma 12: if `N_beep_t(u) > 0 = N_beep_t(v)`, then `v` beeps in
    /// some round `s ≤ t + dis(u, v)`.
    #[test]
    fn lemma12_on_random_graphs(g in arb_connected_graph(), seed in any::<u64>()) {
        let n = g.node_count();
        let rounds = 120u64;
        // first_beep[v] = first round v beeps (or None); cum[t][v] =
        // N_beep_t(v).
        let mut first_beep: Vec<Option<u64>> = vec![None; n];
        let mut cum: Vec<Vec<u64>> = Vec::new();
        let mut acc = vec![0u64; n];
        let mut net = Network::new(Bfw::new(0.5), g.clone().into(), seed);
        net.run_until(rounds, |v| {
            for (i, &b) in v.beeps.iter().enumerate() {
                if b {
                    acc[i] += 1;
                    first_beep[i].get_or_insert(v.round);
                }
            }
            cum.push(acc.clone());
            false
        });
        let dm = algo::DistanceMatrix::new(&g);

        for u in 0..n {
            for v in 0..n {
                let d = u64::from(dm.get(NodeId::new(u), NodeId::new(v)).expect("connected"));
                for t in 0..cum.len() as u64 {
                    // Only check horizons fully inside the recorded window.
                    if t + d >= cum.len() as u64 {
                        break;
                    }
                    if cum[t as usize][u] > cum[t as usize][v] {
                        let fb = first_beep[v];
                        prop_assert!(
                            matches!(fb, Some(s) if s <= t + d),
                            "node {v} has fewer beeps than {u} at t={t} but no beep by t+{d}"
                        );
                    }
                }
            }
        }
    }

    /// Once a single leader remains it never changes (Definition 1's
    /// persistence) — checked on small cliques where convergence is
    /// fast.
    #[test]
    fn single_leader_is_absorbing(n in 2usize..10, seed in any::<u64>()) {
        let mut net = Network::new(Bfw::new(0.5), bfw_sim::Topology::Clique(n), seed);
        let converged = net.run_until(20_000, |v| v.leader_count() == 1);
        prop_assert!(converged.is_some());
        let leader = net.unique_leader().expect("converged");
        for _ in 0..300 {
            net.step();
            prop_assert_eq!(net.unique_leader(), Some(leader));
        }
    }

    /// The executor's state transitions always follow Figure 1: every
    /// consecutive state pair in a trace is reachable via `delta`.
    #[test]
    fn traces_respect_figure1(g in arb_connected_graph(), seed in any::<u64>()) {
        let mut trace = Vec::new();
        let mut net = Network::new(Bfw::new(0.5), g.into(), seed);
        net.run_until(60, |v| {
            trace.push(v.states.to_vec());
            false
        });
        for pair in trace.windows(2) {
            for (i, (&prev, &next)) in pair[0].iter().zip(&pair[1]).enumerate() {
                let reachable = [
                    bfw_core::delta(prev, false, false),
                    bfw_core::delta(prev, false, true),
                    bfw_core::delta(prev, true, false),
                    bfw_core::delta(prev, true, true),
                ];
                prop_assert!(
                    reachable.contains(&next),
                    "node {i}: {prev} -> {next} is not a Figure 1 transition"
                );
            }
        }
    }

    /// Eq. (2) start: everyone waiting in round 0, and with the
    /// two-leader config exactly the chosen nodes are leaders.
    #[test]
    fn initial_configuration_matches_eq2(n in 2usize..30, seed in any::<u64>()) {
        let ends = InitialConfig::Nodes(vec![NodeId::new(0), NodeId::new(n - 1)]);
        let bfw = Bfw::new(0.5).with_initial_config(ends);
        let net = Network::new(bfw, generators::path(n).into(), seed);
        for (i, s) in net.states().iter().enumerate() {
            prop_assert!(s.is_waiting());
            let should_lead = i == 0 || i == n - 1;
            prop_assert_eq!(s.is_leader(), should_lead);
        }
        prop_assert_eq!(net.beeping_node_count(), 0);
    }
}

/// Deterministic regression: the full cycle path (closed walk) always
/// carries zero flow by Ohm's law, independent of the round.
#[test]
fn closed_walk_flow_is_zero() {
    let n = 10;
    let g = generators::cycle(n);
    let closed: Vec<NodeId> = (0..n).chain([0]).map(NodeId::new).collect();
    let mut net = Network::new(Bfw::new(0.5), g.into(), 12345);
    for _ in 0..400 {
        net.step();
        let states: Vec<BfwState> = net.states().to_vec();
        assert_eq!(
            bfw_core::path_flow(&states, &closed),
            0,
            "round {}",
            net.round()
        );
    }
}

/// Both checkers ride one `run_until` closure: auditing flow and
/// invariants simultaneously.
#[test]
fn combined_observers_clean() {
    let g = generators::grid(4, 4);
    let mut auditor = FlowAuditor::new(16);
    auditor.register_path((0..4).map(NodeId::new).collect());
    let mut checker = InvariantChecker::new(&g).with_lemma11(true);
    let mut net = Network::new(Bfw::new(0.5), g.into(), 2024);
    net.run_until(500, |v| {
        auditor.on_round(v);
        checker.on_round(v);
        false
    });
    auditor.assert_clean();
    checker.assert_clean();
    assert_eq!(checker.report().rounds_checked(), 501);
}
