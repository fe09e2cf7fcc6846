//! Workspace-level property tests: fuzzing the seams between crates.

use bfw_bench::GraphSpec;
use bfw_core::{Bfw, InvariantChecker};
use bfw_graph::{algo, generators, NodeId};
use bfw_sim::stone_age::{AsyncStoneAgeNetwork, BeepingAsStoneAge};
use bfw_sim::{run_election, ElectionConfig, Network};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy over arbitrary valid workload specs.
fn arb_spec() -> impl Strategy<Value = GraphSpec> {
    prop_oneof![
        (1usize..40).prop_map(GraphSpec::Path),
        (3usize..40).prop_map(GraphSpec::Cycle),
        (1usize..40).prop_map(GraphSpec::Clique),
        (1usize..40).prop_map(GraphSpec::Star),
        (1usize..7, 1usize..7).prop_map(|(r, c)| GraphSpec::Grid(r, c)),
        (3usize..6, 3usize..6).prop_map(|(r, c)| GraphSpec::Torus(r, c)),
        (1u32..6).prop_map(GraphSpec::Hypercube),
        (1usize..4, 0u32..4).prop_map(|(a, d)| GraphSpec::Tree(a, d)),
        (1usize..40, any::<u64>()).prop_map(|(n, s)| GraphSpec::RandomTree(n, s)),
        (2usize..12, 0usize..6).prop_map(|(k, b)| GraphSpec::Barbell(k, b)),
    ]
}

/// [`arb_spec`] plus the seeded families whose samples can be refused:
/// `rr` (no simple pairing, or a disconnected sample) and
/// `scrambled-cycle`.
fn arb_seeded_spec() -> impl Strategy<Value = GraphSpec> {
    prop_oneof![
        arb_spec(),
        (3usize..20, 1usize..5, any::<u64>()).prop_map(|(half, d, s)| GraphSpec::RandomRegular(
            2 * half,
            d,
            s
        )),
        (3usize..40, any::<u64>()).prop_map(|(n, s)| GraphSpec::ScrambledCycle(n, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every spec string round-trips through Display/FromStr and builds
    /// a connected graph whose diameter helper agrees with the exact
    /// algorithm, or — for a refused `rr` sample — an error naming it.
    #[test]
    fn spec_round_trip_and_consistency(spec in arb_seeded_spec()) {
        let text = spec.to_string();
        let parsed: GraphSpec = text.parse().expect("display output must parse");
        prop_assert_eq!(&parsed, &spec);
        let g = match spec.try_build() {
            Ok(g) => g,
            Err(e) => {
                prop_assert!(matches!(spec, GraphSpec::RandomRegular(..)), "{text}: {e}");
                prop_assert!(e.to_string().contains(&text), "{e}");
                return Ok(());
            }
        };
        prop_assert!(algo::is_connected(&g), "{text}");
        prop_assert_eq!(spec.diameter(), algo::diameter(&g).expect("connected"));
        prop_assert_eq!(spec.topology().node_count(), g.node_count());
    }

    /// Elections on arbitrary workloads converge within the Theorem 2
    /// scale and never violate the invariants.
    #[test]
    fn elections_converge_with_clean_invariants(spec in arb_spec(), seed in any::<u64>()) {
        let g = spec.build();
        if g.node_count() < 2 {
            return Ok(());
        }
        let d = u64::from(spec.diameter().max(1));
        let n = g.node_count() as f64;
        let budget = 4_000 * d * d * (n.ln().ceil() as u64).max(1) + 10_000;

        // Invariants on a prefix of the run.
        let mut checker = InvariantChecker::new(&g).with_lemma11(g.node_count() <= 16);
        let mut net = Network::new(Bfw::new(0.5), g.clone().into(), seed);
        net.run_until(120, |v| {
            checker.on_round(v);
            false
        });
        prop_assert!(checker.report().is_clean(), "{:?}", checker.report().violations());

        // Full election with stability.
        let out = run_election(
            Bfw::new(0.5),
            spec.topology(),
            seed,
            ElectionConfig::new(budget).with_stability_check(200),
        ).map_err(|e| TestCaseError::fail(format!("{spec}: {e}")))?;
        prop_assert!(out.stable);
        prop_assert!(out.leader.index() < g.node_count());
    }

    /// Random-tree workloads: the elected leader is distributed across
    /// the tree, not pinned to node 0 (anonymity sanity at the
    /// workspace level).
    #[test]
    fn winners_vary_across_seeds(tree_seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(tree_seed);
        let g = generators::random_tree(8, &mut rng);
        let mut winners = std::collections::HashSet::new();
        for seed in 0..12u64 {
            let out = run_election(
                Bfw::new(0.5),
                g.clone().into(),
                seed,
                ElectionConfig::new(1_000_000),
            ).expect("tree elections converge");
            winners.insert(out.leader);
        }
        prop_assert!(winners.len() >= 2, "12 seeds elected only {:?}", winners);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The asynchronous runtime's uniform scheduler is exactly the
    /// reference schedule drawn directly from the same ChaCha8 stream —
    /// the master seed carves n node streams, then the scheduler
    /// stream, and each activation is one `random_range(0..n)` draw
    /// with **no RNG renumbering**: crashing nodes only *rejects* the
    /// draws that land on them (they are never activated), it never
    /// shifts the stream or re-indexes the alive set.
    #[test]
    fn uniform_activation_schedule_equals_reference_stream(
        n in 3usize..20,
        seed in any::<u64>(),
        crash_bits in any::<u32>(),
        steps in 1usize..120,
    ) {
        // Reference: re-carve the scheduler stream exactly as the
        // engine does (n node streams first, then the scheduler) and
        // draw the raw uniform schedule from it.
        let mut master = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..n {
            let _node_stream = ChaCha8Rng::from_rng(&mut master);
        }
        let mut reference = ChaCha8Rng::from_rng(&mut master);

        // Crash an arbitrary proper subset of the nodes up front.
        let crashed: Vec<usize> = (0..n).filter(|i| crash_bits >> (i % 32) & 1 == 1).collect();
        let keep_alive = crashed.len() == n;

        let mut net = AsyncStoneAgeNetwork::new(
            BeepingAsStoneAge::new(Bfw::new(0.5)),
            generators::cycle(n).into(),
            seed,
        );
        for &i in &crashed {
            if keep_alive && i == 0 {
                continue; // keep at least one node alive
            }
            net.crash_node(NodeId::new(i));
        }

        let schedule: Vec<usize> = (0..steps)
            .map(|_| net.activate_next().expect("an alive node exists").index())
            .collect();

        // The engine's schedule is the reference stream with crashed
        // draws rejected — dropped, not renumbered.
        let mut expected = Vec::with_capacity(steps);
        while expected.len() < steps {
            use rand::Rng as _;
            let u = reference.random_range(0..n);
            if !net.is_crashed(NodeId::new(u)) {
                expected.push(u);
            }
        }
        prop_assert_eq!(&schedule, &expected);
        // And crash-masked nodes are never activated.
        for &u in &schedule {
            prop_assert!(!net.is_crashed(NodeId::new(u)), "crashed node {} activated", u);
        }
    }
}
