//! Bit kernel ≡ generic engine, pinned.
//!
//! The bitplane `BitEngine` claims byte-identical outcomes to the
//! generic `TickEngine` at a fixed seed — same states, same RNG stream
//! positions, same complexity ledger — with the speed coming purely
//! from word-wide execution. These tests pin that claim three ways:
//! state-vector equality across topologies and fault regimes, a frozen
//! constant trace (so a change to the RNG carving or draw order fails
//! even if it changes *both* engines in lockstep), and ledger equality.
//! The 64-lane Monte-Carlo path has its own documented RNG mapping
//! (`bernoulli_words`) — bitsliced trials agree with scalar trials in
//! distribution, not draw-for-draw — pinned here by frozen output
//! words and a statistical cross-check.
//!
//! If any pin ever breaks intentionally, re-pin with a written
//! justification here.

use bfw_core::{run_bfw_trials_bitsliced, Bfw, BfwLaneEngine, BfwState, BitNetwork};
use bfw_graph::{generators, Graph, NodeId, TopologyDelta};
use bfw_scenario::DynamicHost;
use bfw_sim::{bernoulli_words, run_trials, ComplexityLedger, Network, Topology};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The fault-regime schedule every equivalence run exercises: plain
/// rounds, then two-channel noise, then a crash, then recovery with
/// noise off again (zero-probability channels draw nothing, so the
/// streams must re-align bit-for-bit).
fn drive<S: Clone + PartialEq + std::fmt::Debug>(
    mut step: impl FnMut(Phase) -> Vec<S>,
) -> Vec<Vec<S>> {
    vec![
        step(Phase::Plain(40)),
        step(Phase::Noise {
            fn_rate: 0.2,
            fp_rate: 0.05,
            rounds: 30,
        }),
        step(Phase::Crash(NodeId::new(3), 25)),
        step(Phase::Recover(NodeId::new(3), 40)),
    ]
}

enum Phase {
    Plain(u64),
    Noise {
        fn_rate: f64,
        fp_rate: f64,
        rounds: u64,
    },
    Crash(NodeId, u64),
    Recover(NodeId, u64),
}

fn run_generic(graph: &Graph, seed: u64) -> Vec<Vec<BfwState>> {
    let mut net = Network::new(Bfw::new(0.5), graph.clone().into(), seed);
    drive(|phase| {
        match phase {
            Phase::Plain(rounds) => net.run(rounds),
            Phase::Noise {
                fn_rate,
                fp_rate,
                rounds,
            } => {
                net.set_noise(fn_rate, fp_rate);
                net.run(rounds);
            }
            Phase::Crash(u, rounds) => {
                net.set_noise(0.0, 0.0);
                net.crash_node(u);
                net.run(rounds);
            }
            Phase::Recover(u, rounds) => {
                net.recover_node(u);
                net.run(rounds);
            }
        }
        net.states().to_vec()
    })
}

fn run_bit(graph: &Graph, seed: u64) -> Vec<Vec<BfwState>> {
    let mut net = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), seed);
    drive(|phase| {
        match phase {
            Phase::Plain(rounds) => net.run(rounds),
            Phase::Noise {
                fn_rate,
                fp_rate,
                rounds,
            } => {
                net.set_noise(fn_rate, fp_rate);
                net.run(rounds);
            }
            Phase::Crash(u, rounds) => {
                net.set_noise(0.0, 0.0);
                net.crash_node(u);
                net.run(rounds);
            }
            Phase::Recover(u, rounds) => {
                net.recover_node(u);
                net.run(rounds);
            }
        }
        net.states()
    })
}

#[test]
fn bit_kernel_matches_generic_across_topologies_and_faults() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE0);
    let graphs: Vec<(&str, Graph)> = vec![
        ("cycle:100", generators::cycle(100)),
        ("torus:8x8", generators::torus(8, 8)),
        (
            "random-regular:64:4",
            generators::random_regular(64, 4, 10_000, &mut rng).unwrap(),
        ),
        ("path:65", generators::path(65)),
        ("clique:40", generators::complete(40)),
        ("star:50", generators::star(50)),
    ];
    for (name, graph) in &graphs {
        for seed in [7u64, 42] {
            let generic = run_generic(graph, seed);
            let bit = run_bit(graph, seed);
            assert_eq!(
                generic, bit,
                "{name} seed {seed}: kernels diverged (plain/noise/crash/recover checkpoints)"
            );
        }
    }
}

#[test]
fn bit_kernel_elects_the_same_leader() {
    for seed in [1u64, 9, 77] {
        let graph = generators::cycle(64);
        let mut generic = Network::new(Bfw::new(0.5), graph.clone().into(), seed);
        let mut bit = BitNetwork::new(Bfw::new(0.5), graph.into(), seed);
        let mut rounds = 0u64;
        while generic.leader_count() > 1 && rounds < 1_000_000 {
            generic.step();
            bit.step();
            rounds += 1;
            assert_eq!(generic.leader_count(), bit.leader_count(), "round {rounds}");
        }
        assert_eq!(generic.leader_count(), 1, "seed {seed}");
        let leader = bit.unique_leader().expect("bit kernel agrees");
        assert!(generic.state(leader).is_leader(), "seed {seed}");
    }
}

/// Renders a state vector as the paper's symbols (`W• B◦ …`) — compact
/// enough to pin as a constant.
fn symbols(states: &[BfwState]) -> String {
    states
        .iter()
        .map(|s| s.symbol())
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn bit_kernel_trace_is_pinned() {
    // Frozen trace: cycle(12), seed 42, p = 0.5 — the configuration
    // after 10 and 40 plain rounds. Both kernels must reproduce these
    // exact symbols; a change to the RNG carving, the draw order, or
    // the plane algebra fails here even if it changes both kernels the
    // same way.
    let graph = generators::cycle(12);
    let mut net = BitNetwork::new(Bfw::new(0.5), graph.clone().into(), 42);
    net.run(10);
    let at_10 = symbols(&net.states());
    net.run(30);
    let at_40 = symbols(&net.states());

    let mut generic = Network::new(Bfw::new(0.5), graph.into(), 42);
    generic.run(10);
    assert_eq!(symbols(generic.states()), at_10);
    generic.run(30);
    assert_eq!(symbols(generic.states()), at_40);

    assert_eq!(at_10, "W• W• W◦ W• W◦ F◦ F◦ W• F◦ W• F◦ W◦");
    assert_eq!(at_40, "W◦ B◦ F◦ W• F◦ B◦ B◦ F• B◦ W◦ W◦ W◦");
}

#[test]
fn ledgers_are_identical_across_kernels() {
    let graph = generators::torus(6, 6);
    let mut generic = Network::new(Bfw::new(0.5), graph.clone().into(), 3);
    let mut bit = BitNetwork::new(Bfw::new(0.5), graph.into(), 3);
    generic.enable_instrumentation(Some(32));
    bit.enable_instrumentation(Some(32));
    generic.set_noise(0.1, 0.02);
    bit.set_noise(0.1, 0.02);
    generic.run(50);
    bit.run(50);
    let g = generic.complexity_ledger().unwrap();
    let b = bit.complexity_ledger().unwrap();
    assert_eq!(g.steps(), b.steps());
    assert_eq!(g.beeps_sent(), b.beeps_sent());
    assert_eq!(g.beeps_heard(), b.beeps_heard());
    assert_eq!(g.bits(), b.bits());
    assert_eq!(g.messages(), b.messages());
    assert_eq!(g.state_bytes_per_node(), b.state_bytes_per_node());
    assert!(g.steps() == 50 && g.beeps_sent() > 0 && g.messages() > 0);
}

/// A clique under churn: the bit kernel has no adjacency plan (an
/// any-beep fill) until the first delta, which builds one mid-run in
/// original labels and moves the instrumented degree cache off its
/// uniform fast path.
fn churn_clique<H: DynamicHost<State = BfwState>>(
    mut host: H,
) -> (Vec<Vec<BfwState>>, Option<ComplexityLedger>) {
    host.enable_instrumentation(None);
    let mut cut = TopologyDelta::new();
    for v in 1..40 {
        cut.remove_edge(NodeId::new(0), NodeId::new(v));
    }
    cut.remove_edge(NodeId::new(5), NodeId::new(66));
    let mut heal = TopologyDelta::new();
    heal.add_edge(NodeId::new(7), NodeId::new(0));
    let mut checkpoints = Vec::new();
    for delta in [None, Some(&cut), Some(&heal)] {
        if let Some(delta) = delta {
            host.apply_delta(delta);
        }
        for _ in 0..25 {
            host.step();
        }
        checkpoints.push(host.capture().0);
    }
    (checkpoints, host.complexity_ledger().cloned())
}

#[test]
fn clique_churn_agrees_across_kernels() {
    let generic = churn_clique(Network::new(Bfw::new(0.5), Topology::Clique(70), 3));
    let bit = churn_clique(BitNetwork::new(Bfw::new(0.5), Topology::Clique(70), 3));
    assert!(generic.1.as_ref().is_some_and(|l| l.steps() == 75));
    assert!(generic == bit, "the kernels diverged on the churned clique");
}

#[test]
fn bernoulli_words_output_is_pinned() {
    // The documented RNG-stream mapping of the 64-lane Monte-Carlo
    // path: from a fresh ChaCha8 stream, the first three full-need
    // draws at p = 0.5 and one at p = 0.25. Frozen so the bitsliced
    // threshold scan can never drift silently.
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let a = bernoulli_words(&mut rng, 0.5, u64::MAX);
    let b = bernoulli_words(&mut rng, 0.5, u64::MAX);
    let c = bernoulli_words(&mut rng, 0.5, u64::MAX);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let d = bernoulli_words(&mut rng, 0.25, u64::MAX);
    assert_eq!(a, 0x50a5d1772bb8f271);
    assert_eq!(b, 0xf81abf77026dc805);
    assert_eq!(c, 0xb565d4c52149c72d);
    assert_eq!(d, 0x10a0d11323a06230);
    // p = 0.25 accepts a subset of what p = 0.5 accepts on the same
    // stream prefix only where the first scanned bit agrees; the pin
    // itself is the contract, this is just a sanity bound.
    assert!(d.count_ones() < a.count_ones() + 16);
}

#[test]
fn bitsliced_trials_agree_with_scalar_trials_statistically() {
    // Lane trials use a different (word-batched) RNG mapping, so they
    // match scalar trials in distribution, not draw-for-draw: compare
    // mean convergence rounds on cycle(32) across 256 trials.
    let graph = generators::cycle(32);
    let bfw = Bfw::new(0.5);
    let lanes = run_bfw_trials_bitsliced(&bfw, &graph, 256, 4, 11, 1_000_000);
    let lane_mean = lanes
        .iter()
        .map(|o| o.converged_round.expect("converges") as f64)
        .sum::<f64>()
        / 256.0;
    let scalar: Vec<u64> = run_trials(256, 4, 11, |seed| {
        let mut net = Network::new(Bfw::new(0.5), generators::cycle(32).into(), seed);
        let mut rounds = 0u64;
        while net.leader_count() > 1 {
            net.step();
            rounds += 1;
        }
        rounds
    });
    let scalar_mean = scalar.iter().sum::<u64>() as f64 / 256.0;
    let ratio = lane_mean / scalar_mean;
    assert!(
        (0.8..1.25).contains(&ratio),
        "lane mean {lane_mean:.1} vs scalar mean {scalar_mean:.1} (ratio {ratio:.3})"
    );
}

#[test]
fn bitsliced_driver_is_thread_count_invariant() {
    let graph = generators::torus(4, 4);
    let bfw = Bfw::new(0.5);
    let one = run_bfw_trials_bitsliced(&bfw, &graph, 130, 1, 5, 1_000_000);
    for threads in [2usize, 3, 8] {
        assert_eq!(
            one,
            run_bfw_trials_bitsliced(&bfw, &graph, 130, threads, 5, 1_000_000),
            "{threads} threads"
        );
    }
    // Group g covers trials 64g.. and is one lane engine seeded
    // base + 64g; the last group carries only the 2 leftover lanes.
    assert_eq!(one.len(), 130);
    let group =
        |seed, lanes| BfwLaneEngine::new(&bfw, &graph, seed, lanes).run_to_convergence(1_000_000);
    assert_eq!(one[..64], group(5, 64)[..]);
    assert_eq!(one[64..128], group(5 + 64, 64)[..]);
    assert_eq!(one[128..], group(5 + 128, 2)[..]);
    assert!(run_bfw_trials_bitsliced(&bfw, &graph, 0, 4, 5, 1_000_000).is_empty());
}

proptest! {
    /// Bitplane pack/unpack round-trips every BFW state (exhaustive in
    /// effect — proptest samples the full 6-element space many times —
    /// and extended with the heard/coin inputs to cross-check the word
    /// algebra against the scalar δ on arbitrary bit positions).
    #[test]
    fn pack_unpack_round_trips(idx in 0usize..6, bit in 0usize..64) {
        use bfw_sim::{BitModel, PlaneWord};
        let bfw = Bfw::new(0.5);
        let state = BfwState::ALL[idx];
        let (l, b, f) = BitModel::pack(&bfw, &state);
        prop_assert_eq!(bfw.unpack(l, b, f), state);
        // The round-trip holds at any bit position of a plane word.
        let planes = PlaneWord {
            leader: u64::from(l) << bit,
            beeping: u64::from(b) << bit,
            frozen: u64::from(f) << bit,
        };
        let back = bfw.unpack(
            planes.leader >> bit & 1 == 1,
            planes.beeping >> bit & 1 == 1,
            planes.frozen >> bit & 1 == 1,
        );
        prop_assert_eq!(back, state);
    }

    /// The word algebra agrees with the scalar δ at every bit position.
    #[test]
    fn advance_word_matches_delta(
        idx in 0usize..6,
        heard in any::<bool>(),
        coin in any::<bool>(),
        bit in 0usize..64,
    ) {
        use bfw_sim::{BitModel, PlaneWord};
        let bfw = Bfw::new(0.5);
        let state = BfwState::ALL[idx];
        let (l, b, f) = BitModel::pack(&bfw, &state);
        let planes = PlaneWord {
            leader: u64::from(l) << bit,
            beeping: u64::from(b) << bit,
            frozen: u64::from(f) << bit,
        };
        let heard_w = u64::from(heard) << bit;
        let mask = bfw.coin_mask(planes, heard_w);
        let coin_w = u64::from(coin) << bit & mask;
        let next = bfw.advance_word(planes, heard_w, coin_w);
        let bit_state = bfw.unpack(
            next.leader >> bit & 1 == 1,
            next.beeping >> bit & 1 == 1,
            next.frozen >> bit & 1 == 1,
        );
        let scalar = bfw_core::delta(state, heard, coin && mask >> bit & 1 == 1);
        prop_assert_eq!(bit_state, scalar);
    }
}
