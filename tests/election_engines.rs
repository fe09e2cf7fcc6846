//! `run_election` steps the bit kernel for `Bfw` and the generic
//! engine for every other protocol. Both must give exactly the outcome
//! of the generic election loop below, `Err` values included, on a
//! seeded sample of graphs, coin probabilities, initial
//! configurations, stability windows and round budgets.

use bfw_core::{Bfw, BfwNoFreeze, InitialConfig};
use bfw_graph::{GraphSpec, NodeId};
use bfw_sim::{
    run_election, ElectionConfig, ElectionOutcome, LeaderElection, Network, SimError, Topology,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The reference: `Network::run_until` with the Σ|B_t| stop closure,
/// then the stability check, with `run_election`'s topology checks in
/// front.
fn oracle<P: LeaderElection>(
    protocol: P,
    topology: Topology,
    seed: u64,
    config: ElectionConfig,
) -> Result<ElectionOutcome, SimError> {
    if topology.node_count() == 0 {
        return Err(SimError::EmptyTopology);
    }
    if !topology.is_connected() {
        return Err(SimError::Disconnected);
    }
    let n = topology.node_count();
    let mut net = Network::new(protocol, topology, seed);
    // Σ |B_t| over the observed rounds t = 0..=T.
    let mut total_beeps = 0u64;
    let converged = net.run_until(config.max_rounds, |v| {
        total_beeps += v.beeps.iter().filter(|&&b| b).count() as u64;
        v.leader_count() == 1
    });
    let Some(converged_round) = converged else {
        return Err(SimError::RoundBudgetExhausted {
            max_rounds: config.max_rounds,
            leaders_remaining: net.leader_count(),
        });
    };
    let leader = net
        .unique_leader()
        .expect("stop predicate guarantees one leader");
    let mut stable = true;
    for _ in 0..config.stability_rounds {
        net.step();
        if net.unique_leader() != Some(leader) {
            stable = false;
            break;
        }
    }
    Ok(ElectionOutcome {
        converged_round,
        leader,
        node_count: n,
        total_beeps,
        stable,
    })
}

/// Families sampled round-robin: every `GraphSpec` family, then the
/// clique fast path `Topology::Clique`.
const FAMILIES: usize = 17;

/// A topology of family `family` with at most 64 nodes.
fn topology(family: usize, rng: &mut ChaCha8Rng) -> Topology {
    loop {
        let seed = rng.random_range(0..1000u64);
        let spec = match family {
            0 => GraphSpec::Path(rng.random_range(1..65)),
            1 => GraphSpec::Cycle(rng.random_range(3..65)),
            2 => GraphSpec::Clique(rng.random_range(1..17)),
            3 => GraphSpec::Star(rng.random_range(1..65)),
            4 => GraphSpec::Grid(rng.random_range(1..9), rng.random_range(1..9)),
            5 => GraphSpec::Torus(rng.random_range(3..9), rng.random_range(3..9)),
            6 => GraphSpec::Hypercube(rng.random_range(1..7)),
            7 => {
                // The deepest tree of each arity within 64 nodes.
                let arity = rng.random_range(1..4);
                GraphSpec::Tree(arity, [63, 5, 3][arity - 1])
            }
            8 => GraphSpec::RandomTree(rng.random_range(1..65), seed),
            9 => GraphSpec::ErdosRenyi(rng.random_range(8..65), 300, seed),
            10 => GraphSpec::Barbell(rng.random_range(2..17), rng.random_range(0..21)),
            11 => GraphSpec::Ba(rng.random_range(4..65), rng.random_range(1..4), seed),
            12 => GraphSpec::PowerLaw(rng.random_range(3..65), 2500, seed),
            13 => GraphSpec::Geo(rng.random_range(1..65), 300, seed),
            14 => GraphSpec::RandomRegular(2 * rng.random_range(3..33), 3, seed),
            15 => GraphSpec::ScrambledCycle(rng.random_range(3..65), seed),
            // `clique:n` specs resolve to the fast path; family 2 builds
            // the same graph with its edges.
            _ => return GraphSpec::Clique(rng.random_range(1..65)).topology(),
        };
        // A random-regular sample can fail to connect: draw another.
        if let Ok(graph) = spec.try_build() {
            return graph.into();
        }
    }
}

/// BFW at one of the sampled coin probabilities, or at Theorem 3's
/// `p = 1/(D + 1)`, with a sampled initial configuration.
fn protocol(topology: &Topology, rng: &mut ChaCha8Rng) -> Bfw {
    let n = topology.node_count();
    let bfw = match rng.random_range(0..4usize) {
        0 => Bfw::new(0.05),
        1 => Bfw::new(0.5),
        2 => Bfw::new(0.95),
        _ => Bfw::with_known_diameter(topology.diameter().unwrap_or(1)),
    };
    let init = match rng.random_range(0..3usize) {
        0 => InitialConfig::AllLeaders,
        1 => InitialConfig::FirstK(rng.random_range(0..n + 1)),
        _ => InitialConfig::Nodes(
            (0..n)
                .filter(|_| rng.random_bool(0.2))
                .map(NodeId::new)
                .collect(),
        ),
    };
    bfw.with_initial_config(init)
}

#[test]
fn bfw_elects_on_the_bit_kernel_exactly_as_on_the_generic_loop() {
    let mut rng = ChaCha8Rng::seed_from_u64(20);
    let (mut converged, mut unstable, mut exhausted) = (0, 0, 0);
    for case in 0..12 * FAMILIES {
        let topology = topology(case % FAMILIES, &mut rng);
        let bfw = protocol(&topology, &mut rng);
        let seed = rng.random::<u64>();
        let budget = [0, 1, 4, 16, 64, 256, 1024, 4096][rng.random_range(0..8)];
        let stability = [0, 200][rng.random_range(0..2)];
        let config = ElectionConfig::new(budget).with_stability_check(stability);
        let label = format!(
            "case {case}: {} nodes, p {}, {:?}, seed {seed}, {config:?}",
            topology.node_count(),
            bfw.p(),
            bfw.initial_config()
        );
        let expected = oracle(bfw.clone(), topology.clone(), seed, config);
        assert_eq!(
            run_election(bfw, topology, seed, config),
            expected,
            "{label}"
        );
        match expected {
            Ok(o) if o.stable => converged += 1,
            Ok(_) => unstable += 1,
            Err(_) => exhausted += 1,
        }
    }
    // The sample both converges and runs out of budget, often.
    assert!(converged >= 50, "{converged} converged");
    assert!(exhausted >= 30, "{exhausted} ran out of budget");
    assert_eq!(unstable, 0, "BFW's single leader is absorbing (Lemma 9)");
}

#[test]
fn a_protocol_without_a_bit_model_elects_on_the_generic_engine() {
    for seed in 0..8 {
        let cycle = GraphSpec::Cycle(12).topology();
        let config = ElectionConfig::new(500).with_stability_check(200);
        let protocol = BfwNoFreeze::new(0.5);
        assert_eq!(
            run_election(protocol.clone(), cycle.clone(), seed, config),
            oracle(protocol, cycle, seed, config),
            "seed {seed}"
        );
    }
}
