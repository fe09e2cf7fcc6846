//! Word-sharded parallel stepping ≡ serial stepping, pinned.
//!
//! The multi-threaded `BitEngine` claims byte-identical outcomes at
//! every thread count — same state vectors, same RNG stream positions,
//! same complexity ledger — with the speed coming purely from stepping
//! disjoint word shards concurrently. These tests pin that claim
//! across topologies (including the provenance-tagged ba and geo
//! families) and fault regimes, and pin the cache-aware RCM relabeling
//! as externally invisible: a relabeled propagation plan computes the
//! same heard sets as the original-label plan, just in its own word
//! order.
//!
//! The trailing noise phase after recovery matters: zero drift there
//! proves the per-node RNG streams sit at identical positions after
//! every sharded phase, not merely that the states happen to agree.
//! Topology deltas keep the relabeling: the bit kernel patches its plan
//! (or re-packs it under the same labels), so the planes and streams
//! never move.

use bfw_core::{Bfw, BfwState, BitNetwork};
use bfw_graph::{generators, Graph, NodeId, OverlayGraph, TopologyDelta, WordGraph};
use bfw_scenario::DynamicHost;
use bfw_sim::{ComplexityLedger, Network};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Thread counts the equivalence grid exercises: serial, even split,
/// a prime that misaligns shard boundaries, and more threads than most
/// of these graphs have words.
const THREAD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// The fault-regime schedule every run exercises: plain rounds, two-
/// channel noise, a crash, recovery, then noise again (the RNG-
/// position pin — see the module docs).
fn drive<M>(mut phase_done: M) -> Vec<Vec<BfwState>>
where
    M: FnMut(&mut dyn FnMut(&mut BitNetwork)) -> Vec<BfwState>,
{
    let mut checkpoints = Vec::new();
    checkpoints.push(phase_done(&mut |net| net.run(40)));
    checkpoints.push(phase_done(&mut |net| {
        net.set_noise(0.2, 0.05);
        net.run(30);
    }));
    checkpoints.push(phase_done(&mut |net| {
        net.set_noise(0.0, 0.0);
        net.crash_node(NodeId::new(3));
        net.run(25);
    }));
    checkpoints.push(phase_done(&mut |net| {
        net.recover_node(NodeId::new(3));
        net.run(40);
    }));
    checkpoints.push(phase_done(&mut |net| {
        net.set_noise(0.1, 0.1);
        net.run(30);
    }));
    checkpoints
}

/// Runs the full fault schedule at `threads`, returning the state
/// vector at every phase boundary.
fn run_sharded(graph: &Graph, seed: u64, threads: usize) -> Vec<Vec<BfwState>> {
    let mut net = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), seed);
    net.set_threads(threads);
    net.enable_instrumentation(None);
    drive(|apply| {
        apply(&mut net);
        net.states()
    })
}

/// Ledger counts as a comparable tuple.
fn ledger_counts(net: &BitNetwork) -> (u64, u64, u64, u64, u64) {
    let l = net.complexity_ledger().unwrap();
    (
        l.steps(),
        l.beeps_sent(),
        l.beeps_heard(),
        l.bits(),
        l.messages(),
    )
}

/// The topology grid: the diameter-diverse trio plus the two
/// provenance-tagged random families (ba preferential attachment and
/// the geometric disk graph).
fn grid() -> Vec<(&'static str, Graph)> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9E0);
    vec![
        ("cycle:100", generators::cycle(100)),
        ("torus:8x8", generators::torus(8, 8)),
        (
            "random-regular:64:4",
            generators::random_regular(64, 4, 10_000, &mut rng).unwrap(),
        ),
        (
            "ba:64:2",
            generators::preferential_attachment(64, 2, &mut rng),
        ),
        (
            "geo:64:250",
            generators::random_geometric_connected(64, 0.25, &mut rng),
        ),
    ]
}

#[test]
fn thread_counts_agree_across_topologies_and_faults() {
    for (name, graph) in &grid() {
        for seed in [7u64, 42] {
            let serial = run_sharded(graph, seed, 1);
            for threads in THREAD_COUNTS {
                let sharded = run_sharded(graph, seed, threads);
                assert_eq!(
                    serial, sharded,
                    "{name} seed {seed} threads {threads}: sharded stepping diverged \
                     (plain/noise/crash/recover/noise checkpoints)"
                );
            }
        }
    }
}

/// The fault schedule of [`drive`] with one topology phase per delta in
/// the middle, played on any scenario host; `after_delta` inspects the
/// host right after each delta. Returns the state vector at every phase
/// boundary and the final complexity ledger.
fn drive_with_churn<H: DynamicHost<State = BfwState>>(
    host: &mut H,
    deltas: &[TopologyDelta],
    after_delta: &dyn Fn(&H),
) -> (Vec<Vec<BfwState>>, Option<ComplexityLedger>) {
    let mut checkpoints = Vec::new();
    let mut phase = |host: &mut H, rounds: u64, before: &dyn Fn(&mut H)| {
        before(host);
        for _ in 0..rounds {
            host.step();
        }
        checkpoints.push(host.capture().0);
    };
    phase(host, 40, &|_| {});
    phase(host, 30, &|h| {
        h.set_perception_noise(0.2, 0.05);
    });
    phase(host, 25, &|h| {
        h.set_perception_noise(0.0, 0.0);
        h.crash(NodeId::new(3));
    });
    for delta in deltas {
        phase(host, 30, &|h| {
            h.apply_delta(delta);
            after_delta(h);
        });
    }
    phase(host, 30, &|h| h.recover(NodeId::new(3)));
    phase(host, 30, &|h| {
        h.set_perception_noise(0.1, 0.1);
    });
    (checkpoints, host.complexity_ledger().cloned())
}

/// The partition of the nodes on `side` from the rest of `live`, and
/// the heal that restores it.
fn cut_and_heal(live: &OverlayGraph, side: impl Fn(usize) -> bool) -> [TopologyDelta; 2] {
    let (mut cut, mut heal) = (TopologyDelta::new(), TopologyDelta::new());
    for (u, v) in live.to_graph().edges() {
        if side(u.index()) != side(v.index()) {
            cut.remove_edge(u, v);
            heal.add_edge(u, v);
        }
    }
    [cut, heal]
}

#[test]
fn large_geometric_graph_agrees_across_threads_replans_and_kernels() {
    // 4096 nodes (64 words) at mean degree ≈ 20: the edge-stream plan
    // mixes dense and packed blocks, unlike the one- and two-word
    // geometric rows of the grid above.
    let mut rng = ChaCha8Rng::seed_from_u64(0x4096);
    let graph = generators::random_geometric_connected(4096, 0.04, &mut rng);
    // One edge added and one removed, then two partitions, each healed:
    // four scattered nodes, whose cut the bit kernel keeps patching,
    // and every 24th node, whose cut re-packs its plan.
    let mut churn = TopologyDelta::new();
    let non_neighbor = (1..4096)
        .map(NodeId::new)
        .find(|&v| !graph.has_edge(NodeId::new(0), v))
        .unwrap();
    churn.add_edge(NodeId::new(0), non_neighbor);
    let first = graph.edges().next().unwrap();
    churn.remove_edge(first.0, first.1);
    let mut live = OverlayGraph::from_graph(graph.clone());
    live.apply(&churn);
    let [small_cut, small_heal] = cut_and_heal(&live, |u| u % 1024 == 5);
    let [large_cut, large_heal] = cut_and_heal(&live, |u| u % 24 == 0);
    let deltas = [churn, small_cut, small_heal, large_cut, large_heal];

    // The phases exercise what they claim on the plan the kernel builds.
    let mut plan = WordGraph::build(&graph);
    let mut live = OverlayGraph::from_graph(graph.clone());
    let mut patched = Vec::new();
    for delta in &deltas {
        live.apply(delta);
        plan.apply_delta(delta, &live);
        patched.push(plan.patched_edges());
    }
    assert!(
        patched[1] > patched[0],
        "the small cut is patched: {patched:?}"
    );
    assert_eq!(patched[3], 0, "the large cut re-packs: {patched:?}");

    let mut generic = Network::new(Bfw::new(0.5), graph.clone().into(), 11);
    generic.enable_instrumentation(None);
    let expected = drive_with_churn(&mut generic, &deltas, &|_| {});
    assert!(expected.1.as_ref().is_some_and(|l| l.steps() == 305));
    let labels = |net: &BitNetwork| net.relabeling().map(|r| r.perm().to_vec());
    for threads in [1usize, 2, 7] {
        let mut net = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), 11);
        net.set_threads(threads);
        net.enable_instrumentation(None);
        let built = labels(&net);
        assert!(built.is_some(), "the geometric plan is relabeled");
        let unchanged = |net: &BitNetwork| {
            assert!(
                labels(net) == built,
                "threads {threads}: a delta moved the labeling"
            );
        };
        assert!(
            expected == drive_with_churn(&mut net, &deltas, &unchanged),
            "threads {threads}: the bit kernel diverged from the generic engine \
             (plain/noise/crash/churn/cut/heal/cut/heal/recover/noise checkpoints or ledger)"
        );
    }
}

#[test]
fn ledgers_are_identical_across_thread_counts() {
    let graph = generators::torus(6, 6);
    let mut serial = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), 3);
    serial.enable_instrumentation(Some(32));
    serial.set_noise(0.1, 0.02);
    serial.run(50);
    let expected = ledger_counts(&serial);
    assert!(expected.0 == 50 && expected.1 > 0 && expected.4 > 0);
    for threads in THREAD_COUNTS {
        let mut net = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), 3);
        net.set_threads(threads);
        net.enable_instrumentation(Some(32));
        net.set_noise(0.1, 0.02);
        net.run(50);
        assert_eq!(expected, ledger_counts(&net), "threads {threads}");
    }
}

#[test]
fn sharded_stepping_elects_the_same_leader() {
    // The end-to-end outcome: an election driven at 7 threads lands on
    // the same leader, in the same round count, as the serial run.
    let graph = generators::cycle(64);
    let run = |threads: usize| {
        let mut net = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), 9);
        net.set_threads(threads);
        let mut rounds = 0u64;
        while net.leader_count() != 1 && rounds < 1_000_000 {
            net.step();
            rounds += 1;
        }
        (net.unique_leader().expect("election converges"), rounds)
    };
    let serial = run(1);
    for threads in [2usize, 7, 16] {
        assert_eq!(serial, run(threads), "threads {threads}");
    }
}

/// Sets bit `u` of a node bitset.
fn set_bit(words: &mut [u64], u: usize) {
    words[u / 64] |= 1u64 << (u % 64);
}

/// Reads bit `u` of a node bitset.
fn get_bit(words: &[u64], u: usize) -> bool {
    words[u / 64] >> (u % 64) & 1 == 1
}

/// One relabel-transparency check: the relabeled plan's heard set,
/// mapped back to original labels, equals the original-label plan's.
fn relabel_is_invisible(graph: &Graph, beepers: &[usize]) {
    let plain = WordGraph::build_no_relabel(graph);
    let relabeled = WordGraph::build(graph);

    let mut src_plain = vec![0u64; plain.words()];
    let mut src_rel = vec![0u64; relabeled.words()];
    for &u in beepers {
        set_bit(&mut src_plain, u);
        let i = relabeled.relabeling().map_or(u, |r| r.to_internal(u));
        set_bit(&mut src_rel, i);
    }

    let mut dst_plain = vec![0u64; plain.words()];
    let mut dst_rel = vec![0u64; relabeled.words()];
    plain.propagate_or(&src_plain, &mut dst_plain);
    relabeled.propagate_or(&src_rel, &mut dst_rel);

    for u in 0..graph.node_count() {
        let i = relabeled.relabeling().map_or(u, |r| r.to_internal(u));
        assert_eq!(
            get_bit(&dst_plain, u),
            get_bit(&dst_rel, i),
            "node {u} heard differently under relabeling ({})",
            relabeled.plan_kind()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property: for random connected graphs and random beep sets, the
    /// RCM-relabeled propagation plan computes exactly the heard set
    /// of the original-label plan.
    #[test]
    fn relabeled_propagation_matches_original_labels(
        n in 2usize..160,
        edge_prob in 0.02f64..0.3,
        graph_seed in any::<u64>(),
        beep_mask in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(graph_seed);
        // At low edge_prob small graphs may never connect within the
        // retry budget — fall back to a cycle (still a fresh topology
        // per case via the beep mask).
        let graph = generators::erdos_renyi_connected(n, edge_prob, 64, &mut rng)
            .unwrap_or_else(|| generators::cycle(n));
        // A pseudo-random ~half-density beep set carved from the mask.
        let beepers: Vec<usize> = (0..graph.node_count())
            .filter(|u| beep_mask.rotate_left((*u % 64) as u32) & 1 == 1)
            .collect();
        relabel_is_invisible(&graph, &beepers);
    }

    /// Property: random thread counts never change the states an
    /// election run reaches on a random geometric graph.
    #[test]
    fn random_thread_counts_preserve_states(
        threads in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD15C);
        let graph = generators::random_geometric_connected(96, 0.2, &mut rng);
        let mut serial = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), seed);
        let mut sharded = BitNetwork::new(Bfw::new(0.5), graph.into(), seed);
        sharded.set_threads(threads);
        serial.run(60);
        sharded.run(60);
        prop_assert_eq!(serial.states(), sharded.states());
    }
}
