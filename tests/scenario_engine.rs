//! Workspace tests for the scenario engine: determinism of the whole
//! TOML → engine → report pipeline, and edge events checked against
//! the host's live topology.

use bfw_core::{Bfw, BitNetwork, RecoveringProtocol, RecoveryConfig};
use bfw_graph::{generators, GraphSpec, NodeId, Topology};
use bfw_scenario::{
    bfw_injector, run_bfw_scenario, DynamicHost, Engine, InjectKind, ProtocolKind, ScenarioEvent,
    ScenarioOutcome, ScenarioSpec, Timeline,
};
use bfw_sim::stone_age::{AsyncStoneAgeNetwork, BeepingAsStoneAge, StoneAgeNetwork};
use bfw_sim::{BeepingProtocol, LeaderElection, Network, NodeCtx};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// The shipped example scenario, exercised exactly as the CLI would.
const RING_CHURN: &str = include_str!("../examples/scenarios/ring_churn.toml");

#[test]
fn shipped_ring_churn_scenario_is_byte_deterministic() {
    let spec = ScenarioSpec::parse(RING_CHURN).expect("shipped scenario must parse");
    assert_eq!(spec.graph, "cycle:32");
    let graph = spec.build_graph().unwrap();
    let a = run_bfw_scenario(&spec, &graph, 42).unwrap();
    let b = run_bfw_scenario(&spec, &graph, 42).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.to_text(), b.to_text());
    // The scenario's crash is answered after the rejoin.
    assert!(!a.recoveries.is_empty(), "{}", a.to_text());
}

#[test]
fn same_toml_same_seed_same_event_trace() {
    let toml = r#"
[scenario]
name = "trace determinism"
graph = "er:20:300:5"
rounds = 12000
stability = 30

[[event]]
every = 1000
start = 2000
count = 5
kind = "crash-random"

[[event]]
every = 1000
start = 2400
count = 5
kind = "recover-random"

[[event]]
rate = 0.0005
kind = "remove-edge"
u = 0
v = 1
"#;
    let parse_and_run = |seed| {
        let spec = ScenarioSpec::parse(toml).unwrap();
        run_bfw_scenario(&spec, &spec.build_graph().unwrap(), seed).unwrap()
    };
    let a = parse_and_run(3);
    let b = parse_and_run(3);
    assert_eq!(
        a.event_log, b.event_log,
        "event traces must be bit-identical"
    );
    assert_eq!(a, b);
    // A different seed must at least move the random-target choices.
    let c = parse_and_run(4);
    assert_ne!(a.event_log, c.event_log);
}

/// The edge set a scenario run should keep, written independently of
/// the engine: normalized `(min, max)` pairs, and the partition backlog
/// in cut order.
struct EdgeModel {
    n: usize,
    edges: BTreeSet<(u32, u32)>,
    backlog: Vec<(u32, u32)>,
}

impl EdgeModel {
    /// Applies one edge event and returns the note its log line must
    /// carry.
    fn apply(&mut self, event: &ScenarioEvent) -> String {
        let n = self.n;
        let key = |u: NodeId, v: NodeId| (u.min(v).as_u32(), u.max(v).as_u32());
        let skip = |u: NodeId, v: NodeId| {
            [u, v]
                .into_iter()
                .find(|w| w.index() >= n)
                .map(|w| format!("skipped (node {w} out of range for graph with {n} nodes)"))
                .or_else(|| (u == v).then(|| format!("skipped (self-loop at node {u})")))
        };
        match event {
            &ScenarioEvent::AddEdge(u, v) => {
                if let Some(note) = skip(u, v) {
                    return note;
                }
                let (a, b) = key(u, v);
                if self.edges.insert((a, b)) {
                    format!("added edge ({u}, {v})")
                } else {
                    format!("skipped (duplicate edge ({a}, {b}))")
                }
            }
            &ScenarioEvent::RemoveEdge(u, v) => {
                if let Some(note) = skip(u, v) {
                    return note;
                }
                let (a, b) = key(u, v);
                if self.edges.remove(&(a, b)) {
                    format!("removed edge ({u}, {v})")
                } else {
                    format!("skipped (missing edge ({a}, {b}))")
                }
            }
            ScenarioEvent::Partition { side } => {
                let members: BTreeSet<u32> = side
                    .iter()
                    .filter(|u| u.index() < n)
                    .map(|u| u.as_u32())
                    .collect();
                let ignored = side.iter().filter(|u| u.index() >= n).count();
                let cut: Vec<(u32, u32)> = self
                    .edges
                    .iter()
                    .copied()
                    .filter(|(a, b)| members.contains(a) != members.contains(b))
                    .collect();
                for e in &cut {
                    self.edges.remove(e);
                }
                self.backlog.extend(&cut);
                match ignored {
                    0 => format!("cut {} edge(s)", cut.len()),
                    k => format!(
                        "cut {} edge(s), ignored {k} out-of-range node id(s)",
                        cut.len()
                    ),
                }
            }
            ScenarioEvent::Heal => {
                let mut restored = 0;
                for e in std::mem::take(&mut self.backlog) {
                    restored += usize::from(self.edges.insert(e));
                }
                format!("restored {restored} edge(s)")
            }
            other => panic!("not an edge event: {other}"),
        }
    }
}

/// A random edge event on `n` nodes: ids run to `n + 1`, so some are
/// out of range, and `u == v` draws self-loops.
fn random_edge_event(rng: &mut ChaCha8Rng, n: usize) -> ScenarioEvent {
    let kind = rng.random_range(0..8u32);
    let len = rng.random_range(0..n / 2 + 2);
    let mut node = || NodeId::new(rng.random_range(0..n + 2));
    match kind {
        0..=2 => ScenarioEvent::AddEdge(node(), node()),
        3..=5 => ScenarioEvent::RemoveEdge(node(), node()),
        6 => ScenarioEvent::Partition {
            side: (0..len).map(|_| node()).collect(),
        },
        _ => ScenarioEvent::Heal,
    }
}

/// Runs `events` (one per round from round 1) on `host` and checks
/// every log line, the reported edge count and the host's final edge
/// set against an [`EdgeModel`] of `topology`.
fn check_edge_events<H: DynamicHost>(
    host: H,
    topology: &Topology,
    events: &[ScenarioEvent],
    seed: u64,
) -> ScenarioOutcome {
    let graph = topology.to_graph();
    let mut model = EdgeModel {
        n: graph.node_count(),
        edges: graph
            .edges()
            .map(|(u, v)| (u.as_u32(), v.as_u32()))
            .collect(),
        backlog: Vec::new(),
    };
    let mut timeline = Timeline::new();
    for (i, event) in events.iter().enumerate() {
        timeline = timeline.at(i as u64 + 1, event.clone());
    }
    let horizon = events.len() as u64 + 1;
    let mut engine = Engine::new(host, &graph, &timeline, horizon, seed, 5);
    engine.run_until(horizon);
    let (outcome, host) = engine.into_outcome();
    let expected: Vec<String> = events
        .iter()
        .enumerate()
        .map(|(i, event)| format!("@{} {event} -> {}", i + 1, model.apply(event)))
        .collect();
    assert_eq!(outcome.event_log, expected, "seed {seed} on {graph:?}");
    assert_eq!(outcome.final_edges, model.edges.len(), "seed {seed}");
    let live: BTreeSet<(u32, u32)> = host
        .topology()
        .to_graph()
        .edges()
        .map(|(u, v)| (u.as_u32(), v.as_u32()))
        .collect();
    assert_eq!(live, model.edges, "seed {seed}: the host's final edge set");
    assert_eq!(host.topology().edge_count(), model.edges.len());
    outcome
}

#[test]
fn edge_events_follow_the_live_topology_on_every_kernel() {
    let id = NodeId::new;
    // The re-cut case: (1, 5) is cut, added back and cut again, so it
    // sits in the backlog twice and the heal restores it once.
    let recut = vec![
        ScenarioEvent::Partition {
            side: vec![id(5), id(6), id(9)],
        },
        ScenarioEvent::AddEdge(id(1), id(5)),
        ScenarioEvent::Partition { side: vec![id(5)] },
        ScenarioEvent::Heal,
        ScenarioEvent::AddEdge(id(5), id(1)),
        ScenarioEvent::Heal,
    ];
    let mut cases = vec![(GraphSpec::Grid(4, 4).topology(), recut)];
    let mut rng = ChaCha8Rng::seed_from_u64(0xED6E);
    for k in 0..48 {
        let topology = match k % 4 {
            0 => GraphSpec::Cycle(rng.random_range(3..10)).topology(),
            1 => GraphSpec::Grid(3, rng.random_range(2..5)).topology(),
            2 => GraphSpec::ErdosRenyi(9, 400, k).topology(),
            // The clique form answers edge queries without an edge list.
            _ => Topology::Clique(rng.random_range(2..7)),
        };
        let n = topology.node_count();
        let events = (0..rng.random_range(1..40usize))
            .map(|_| random_edge_event(&mut rng, n))
            .collect();
        cases.push((topology, events));
    }
    for (seed, (topology, events)) in cases.into_iter().enumerate() {
        let seed = seed as u64;
        let generic = check_edge_events(
            Network::new(Bfw::new(0.5), topology.clone(), seed),
            &topology,
            &events,
            seed,
        );
        let mut bit = BitNetwork::new(Bfw::new(0.5), topology.clone(), seed);
        bit.set_threads(2);
        let bit = check_edge_events(bit, &topology, &events, seed);
        assert_eq!(
            generic, bit,
            "generic and bit kernels diverged at seed {seed}"
        );
    }
}

/// Beeps every round — any beep from a crashed node is immediately
/// visible in the flags.
#[derive(Debug, Clone)]
struct Siren;

impl BeepingProtocol for Siren {
    type State = ();
    fn initial_state(&self, _ctx: NodeCtx) {}
    fn beeps(&self, _s: &()) -> bool {
        true
    }
    fn transition(&self, _s: &(), _heard: bool, _rng: &mut dyn rand::RngCore) {}
}

impl LeaderElection for Siren {
    fn is_leader(&self, _s: &()) -> bool {
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Crash-masked nodes never beep, across random crash/recover
    /// interleavings of an always-beeping protocol.
    #[test]
    fn crashed_nodes_never_beep(
        n in 3usize..16,
        schedule in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..30),
        seed in any::<u64>(),
    ) {
        let mut net = Network::new(Siren, generators::cycle(n).into(), seed);
        for (target, crash) in schedule {
            let u = NodeId::new((target % n as u64) as usize);
            if crash {
                net.crash_node(u);
            } else {
                net.recover_node(u);
            }
            net.step();
            for i in 0..n {
                let id = NodeId::new(i);
                if net.is_crashed(id) {
                    prop_assert!(!net.beep_flags()[i], "crashed node {i} beeped");
                } else {
                    prop_assert!(net.beep_flags()[i], "alive siren {i} silent");
                }
            }
        }
    }

    /// The engine's re-election metric: after a crash of the unique
    /// leader and a later rejoin, a cycle always re-elects within the
    /// horizon, and the measured latency is consistent.
    #[test]
    fn crash_rejoin_always_re_elects_on_cycles(seed in 0u64..24) {
        let n = 8;
        let graph = generators::cycle(n);
        let timeline = Timeline::new()
            .at(4_000, ScenarioEvent::CrashLeader)
            .at(4_300, ScenarioEvent::RecoverAll);
        let net = Network::new(Bfw::new(0.5), graph.clone().into(), seed);
        let outcome = Engine::new(net, &graph, &timeline, 40_000, seed, 50)
            .with_injector(bfw_injector())
            .run();
        prop_assert_eq!(outcome.pending_disruption, None, "{}", outcome.to_text());
        prop_assert_eq!(outcome.final_leaders.len(), 1);
        prop_assert!(!outcome.recoveries.is_empty());
        for r in &outcome.recoveries {
            prop_assert!(r.recovered_at >= r.disrupted_at);
            prop_assert!(r.recovered_at <= 40_000);
        }
    }
}

#[test]
fn partition_heal_merges_leaders_but_can_wipe_them_out() {
    // Partition a ring before convergence: each half elects its own
    // leader. Healing merges the halves — and exposes a hazard the
    // fixed-graph theory rules out: Lemma 9 ("some leader survives")
    // is proved for configurations reachable from Eq. (2) on a *static*
    // graph, and a freshly healed cut is not such a configuration. The
    // duel after healing therefore usually leaves one leader, but with
    // positive probability both are eliminated (waves arriving through
    // the restored edges defeat the freeze's directionality). Both
    // outcomes must occur across seeds; more than one survivor is
    // impossible once the duel resolves.
    let n = 16;
    let graph = generators::cycle(n);
    let mut survived = 0;
    let mut wiped_out = 0;
    for seed in 0..12u64 {
        let timeline = Timeline::new()
            .at(
                50,
                ScenarioEvent::Partition {
                    side: (0..n / 2).map(NodeId::new).collect(),
                },
            )
            .at(20_000, ScenarioEvent::Heal);
        let net = Network::new(Bfw::new(0.5), graph.clone().into(), seed);
        let outcome = Engine::new(net, &graph, &timeline, 60_000, seed, 100)
            .with_injector(bfw_injector())
            .run();
        assert_eq!(outcome.final_edges, n, "heal must restore the ring");
        match outcome.final_leaders.len() {
            0 => wiped_out += 1,
            1 => {
                survived += 1;
                assert_eq!(outcome.pending_disruption, None, "{}", outcome.to_text());
            }
            more => panic!("{more} leaders after the duel: {}", outcome.to_text()),
        }
    }
    assert!(survived > 0, "healing should usually re-elect");
    assert!(
        wiped_out > 0,
        "expected at least one seed to show the heal-merge wipeout hazard"
    );
}

/// The partition-heal timeline of
/// `partition_heal_merges_leaders_but_can_wipe_them_out`, as a spec for
/// either protocol stack.
fn heal_wipeout_spec(n: usize, protocol: ProtocolKind) -> ScenarioSpec {
    ScenarioSpec {
        name: "heal wipeout".to_owned(),
        graph: format!("cycle:{n}"),
        p: 0.5,
        rounds: 60_000,
        stability: 100,
        seed: 0,
        protocol,
        heartbeat: None,
        timeout: None,
        grace: None,
        runtime: Default::default(),
        scheduler: None,
        kernel: Default::default(),
        threads: None,
        trace: None,
        timeline: Timeline::new()
            .at(
                50,
                ScenarioEvent::Partition {
                    side: (0..n / 2).map(NodeId::new).collect(),
                },
            )
            .at(20_000, ScenarioEvent::Heal),
    }
}

#[test]
fn wipeout_seeds_recover_under_bfw_recovery() {
    // Re-run the exact seeds of
    // `partition_heal_merges_leaders_but_can_wipe_them_out` under
    // `bfw+recovery`: every seed — in particular the ones where plain
    // BFW loses every leader in the post-heal duel — must end with a
    // unique leader and no unanswered disruption, and the heal must be
    // answered within the recovery layer's detection bound plus an
    // election allowance.
    let n = 16;
    let graph = generators::cycle(n);
    // The timeline contains a partition (a distance-stretching event),
    // so run_bfw_scenario sizes the recovery timing to the worst-case
    // eccentricity bound n - 1; recompute it here for the latency
    // bound.
    let config = RecoveryConfig::for_diameter((n - 1) as u32);
    let detection = RecoveringProtocol::bfw(0.5, config).detection_bound_rounds();
    // Post-heal duel + Theorem 2 re-election at the halved rate: give
    // each a generous deterministic allowance on top of detection.
    let bound = detection + 20_000;
    let mut plain_wipeouts = 0;
    for seed in 0..12u64 {
        let plain =
            run_bfw_scenario(&heal_wipeout_spec(n, ProtocolKind::Bfw), &graph, seed).unwrap();
        if plain.final_leaders.is_empty() {
            plain_wipeouts += 1;
        }
        let healed = run_bfw_scenario(
            &heal_wipeout_spec(n, ProtocolKind::BfwRecovery),
            &graph,
            seed,
        )
        .unwrap();
        assert_eq!(
            healed.final_leaders.len(),
            1,
            "seed {seed}: bfw+recovery must end with a unique leader\n{}",
            healed.to_text()
        );
        assert_eq!(
            healed.pending_disruption,
            None,
            "seed {seed}: every disruption must be answered\n{}",
            healed.to_text()
        );
        let heal_recovery = healed
            .recoveries
            .iter()
            .find(|r| r.disrupted_at == 20_000)
            .unwrap_or_else(|| {
                panic!(
                    "seed {seed}: no recovery for the heal\n{}",
                    healed.to_text()
                )
            });
        assert!(
            heal_recovery.latency() <= bound,
            "seed {seed}: heal answered after {} rounds (bound {bound})\n{}",
            heal_recovery.latency(),
            healed.to_text()
        );
    }
    assert!(
        plain_wipeouts >= 1,
        "the pinned seeds must still exhibit the plain-BFW wipeout hazard"
    );
}

#[test]
fn injected_phantom_waves_are_flushed_under_bfw_recovery() {
    // Mirror of `injected_phantom_waves_defeat_re_election_as_section5_predicts`:
    // same injection, same seed, but with the recovery layer. The
    // phantom wave circulates only until the heartbeat silence is
    // detected; the epoch-fenced restart flushes it and re-elects.
    let spec = ScenarioSpec::parse(
        "[scenario]\nname = \"phantom\"\ngraph = \"cycle:9\"\nrounds = 9000\nstability = 20\n\
         protocol = \"bfw+recovery\"\n\
         [[event]]\nat = 5000\nkind = \"inject-phantom\"\nwaves = 1\n",
    )
    .unwrap();
    let outcome = run_bfw_scenario(&spec, &spec.build_graph().unwrap(), 11).unwrap();
    assert_eq!(
        outcome.final_leaders.len(),
        1,
        "the phantom wave must be flushed\n{}",
        outcome.to_text()
    );
    assert_eq!(outcome.pending_disruption, None, "{}", outcome.to_text());
    let r = outcome.recoveries.last().expect("a recovery is recorded");
    assert_eq!(r.disrupted_at, 5_000);
    assert!(r.recovered_at > 5_000 && r.recovered_at < 9_000, "{r:?}");
}

#[test]
fn recovery_protocol_runs_on_the_stone_age_runtime() {
    // The wrapper is itself a BeepingProtocol, so the BeepingAsStoneAge
    // adapter must reproduce its executions bit-for-bit on the
    // stone-age runtime — heartbeat slots and all.
    let protocol = RecoveringProtocol::bfw(0.5, RecoveryConfig::for_diameter(5));
    let graph = generators::cycle(10);
    let mut beeping = Network::new(protocol.clone(), graph.clone().into(), 21);
    let mut stone = StoneAgeNetwork::new(BeepingAsStoneAge::new(protocol), graph.into(), 21);
    for _ in 0..20 {
        beeping.run(500);
        stone.run(500);
        assert_eq!(beeping.states(), stone.states());
    }
    assert_eq!(beeping.leader_count(), 1);
    assert_eq!(stone.leader_count(), 1);
}

#[test]
fn noise_bursts_drive_both_runtimes_identically() {
    // Before the TickEngine refactor, NoiseBurst events were "skipped
    // (runtime has no noise model)" on the stone-age runtime. The noise
    // model now lives in the shared fault layer, so the same scenario
    // must (a) apply the burst on a stone-age host and (b) produce a
    // bit-identical outcome to the beeping host, because the
    // BeepingAsStoneAge adapter reproduces beeping executions
    // draw-for-draw even under noise.
    let n = 10;
    let seed = 9;
    let graph = generators::cycle(n);
    let timeline = Timeline::new()
        .at(
            2_000,
            ScenarioEvent::NoiseBurst {
                fn_rate: 0.3,
                fp_rate: 0.1,
                rounds: 400,
            },
        )
        .at(5_000, ScenarioEvent::CrashLeader)
        .at(5_200, ScenarioEvent::RecoverAll);
    let stone = StoneAgeNetwork::new(
        BeepingAsStoneAge::new(Bfw::new(0.5)),
        graph.clone().into(),
        seed,
    );
    let stone_outcome = Engine::new(stone, &graph, &timeline, 20_000, seed, 50).run();
    assert!(
        stone_outcome.event_log[0].contains("noise on for 400 round(s)"),
        "stone-age runtime must accept noise bursts: {:?}",
        stone_outcome.event_log
    );
    assert!(
        stone_outcome.event_log[1].contains("noise-burst ends"),
        "{:?}",
        stone_outcome.event_log
    );

    let beeping = Network::new(Bfw::new(0.5), graph.clone().into(), seed);
    let beeping_outcome = Engine::new(beeping, &graph, &timeline, 20_000, seed, 50).run();
    assert_eq!(stone_outcome, beeping_outcome);
}

#[test]
fn stone_age_host_survives_edge_churn_and_partitions() {
    // The stone-age runtime shares the delta-applied dynamic topology:
    // edge churn, partition and heal must all land (no skips) and the
    // healed ring must end with every edge restored.
    let n = 12;
    let seed = 4;
    let graph = generators::cycle(n);
    let timeline = Timeline::new()
        .at(
            1_000,
            ScenarioEvent::AddEdge(NodeId::new(0), NodeId::new(6)),
        )
        .at(
            2_000,
            ScenarioEvent::RemoveEdge(NodeId::new(0), NodeId::new(6)),
        )
        .at(
            3_000,
            ScenarioEvent::Partition {
                side: (0..n / 2).map(NodeId::new).collect(),
            },
        )
        .at(4_000, ScenarioEvent::Heal);
    let stone = StoneAgeNetwork::new(
        BeepingAsStoneAge::new(Bfw::new(0.5)),
        graph.clone().into(),
        seed,
    );
    let outcome = Engine::new(stone, &graph, &timeline, 30_000, seed, 50).run();
    assert!(outcome.event_log[0].contains("added edge (0, 6)"));
    assert!(outcome.event_log[1].contains("removed edge (0, 6)"));
    assert!(outcome.event_log[2].contains("cut 2 edge(s)"));
    assert!(outcome.event_log[3].contains("restored 2 edge(s)"));
    assert_eq!(outcome.final_edges, n, "heal must restore the ring");
    assert!(outcome.final_leaders.len() <= 1);
}

#[test]
fn injected_phantom_waves_defeat_re_election_as_section5_predicts() {
    // Inject the Section 5 leaderless wave after convergence: the wave
    // circulates forever, no leader ever returns, and the monitor
    // reports the disruption as permanently pending.
    let spec = ScenarioSpec::parse(
        "[scenario]\nname = \"phantom\"\ngraph = \"cycle:9\"\nrounds = 9000\nstability = 20\n\
         [[event]]\nat = 5000\nkind = \"inject-phantom\"\nwaves = 1\n",
    )
    .unwrap();
    let outcome = run_bfw_scenario(&spec, &spec.build_graph().unwrap(), 11).unwrap();
    assert!(outcome.final_leaders.is_empty(), "{}", outcome.to_text());
    assert_eq!(outcome.pending_disruption, Some(5_000));
}

/// The shipped async example scenario, exercised exactly as the CLI
/// would (the CI determinism smoke runs the same file through the
/// binary).
const ASYNC_STORM: &str = include_str!("../examples/scenarios/async_storm.toml");

#[test]
fn shipped_async_storm_scenario_is_byte_deterministic() {
    let spec = ScenarioSpec::parse(ASYNC_STORM).expect("shipped scenario must parse");
    assert_eq!(spec.runtime, bfw_scenario::RuntimeKind::Async);
    assert_eq!(spec.scheduler, Some(bfw_sim::Scheduler::Uniform));
    let graph = spec.build_graph().unwrap();
    let a = run_bfw_scenario(&spec, &graph, 42).unwrap();
    let b = run_bfw_scenario(&spec, &graph, 42).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.to_text(), b.to_text());
    assert_eq!(a.rounds_run, 160_000, "horizon read in activations");
    // The storm's early crash-leader lands while duel leaders are
    // alive, so the async runtime demonstrably answers fault events.
    assert!(
        a.event_log[0].contains("crashed leader"),
        "{:?}",
        a.event_log
    );
}

#[test]
fn async_runtime_with_recovery_protocol_is_a_hard_spec_error() {
    // Mirrors the recovery-timing negative parser tests: the recovery
    // layer multiplexes slots over round parity, which does not exist
    // under asynchronous activation.
    let e = ScenarioSpec::parse(
        "[scenario]\ngraph = \"cycle:8\"\nruntime = \"async\"\nprotocol = \"bfw+recovery\"",
    )
    .unwrap_err();
    assert!(e.to_string().contains("synchronous rounds"), "{e}");
    assert!(
        e.to_string().contains("did you mean protocol = \"bfw\"?"),
        "{e}"
    );

    // Unknown scheduler values are hard errors with hints, and the
    // scheduler key itself needs the async runtime.
    let e = ScenarioSpec::parse(
        "[scenario]\ngraph = \"cycle:8\"\nruntime = \"async\"\nscheduler = \"replya\"",
    )
    .unwrap_err();
    assert!(
        e.to_string()
            .contains("unknown scheduler 'replya' (did you mean 'replay'?)"),
        "{e}"
    );
    let e = ScenarioSpec::parse("[scenario]\ngraph = \"cycle:8\"\nscheduler = \"uniform\"")
        .unwrap_err();
    assert!(
        e.to_string()
            .contains("scheduler requires runtime = \"async\""),
        "{e}"
    );
}

#[test]
fn async_host_drives_the_full_fault_vocabulary() {
    // One asynchronous scenario through every event family: explicit
    // crash + recover, edge churn, partition + heal, a noise burst and
    // a Section 5 phantom injection must all land (no "skipped"), with
    // positions read in activations.
    let n = 9;
    let spec = ScenarioSpec {
        name: "async vocabulary".to_owned(),
        graph: format!("cycle:{n}"),
        p: 0.5,
        rounds: 40_000,
        stability: 200,
        seed: 0,
        protocol: ProtocolKind::Bfw,
        heartbeat: None,
        timeout: None,
        grace: None,
        runtime: bfw_scenario::RuntimeKind::Async,
        scheduler: Some(bfw_sim::Scheduler::Replay),
        kernel: Default::default(),
        threads: None,
        trace: None,
        timeline: Timeline::new()
            .at(1_000, ScenarioEvent::CrashNode(NodeId::new(3)))
            .at(2_000, ScenarioEvent::RecoverNode(NodeId::new(3)))
            .at(
                3_000,
                ScenarioEvent::AddEdge(NodeId::new(0), NodeId::new(4)),
            )
            .at(
                4_000,
                ScenarioEvent::RemoveEdge(NodeId::new(0), NodeId::new(4)),
            )
            .at(
                5_000,
                ScenarioEvent::Partition {
                    side: (0..n / 2).map(NodeId::new).collect(),
                },
            )
            .at(6_000, ScenarioEvent::Heal)
            .at(
                7_000,
                ScenarioEvent::NoiseBurst {
                    fn_rate: 0.1,
                    fp_rate: 0.02,
                    rounds: 1_000,
                },
            )
            .at(
                20_000,
                ScenarioEvent::InjectState(InjectKind::PhantomWaves { waves: 1 }),
            ),
    };
    let graph = generators::cycle(n);
    let outcome = run_bfw_scenario(&spec, &graph, 7).unwrap();
    let expectations = [
        "crashed node 3",
        "recovered node 3",
        "added edge (0, 4)",
        "removed edge (0, 4)",
        "cut 2 edge(s)",
        "restored 2 edge(s)",
        "noise on for 1000 round(s)",
        "noise-burst ends",
        "injected phantom-waves(1)",
    ];
    for (line, want) in outcome.event_log.iter().zip(expectations) {
        assert!(
            line.contains(want),
            "{want:?} missing: {:?}",
            outcome.event_log
        );
    }
    assert_eq!(outcome.rounds_run, 40_000);
    assert_eq!(outcome.final_edges, n, "heal must restore the ring");
    // Section 5 holds asynchronously too: the injected leaderless wave
    // can never mint a new leader (only wipe itself out), so the run
    // ends with zero leaders.
    assert!(outcome.final_leaders.is_empty(), "{}", outcome.to_text());
    // And byte-determinism survives the whole vocabulary.
    assert_eq!(outcome, run_bfw_scenario(&spec, &graph, 7).unwrap());
}

#[test]
fn async_schedulers_drive_distinct_but_deterministic_runs() {
    let mk = |scheduler| {
        let mut net = AsyncStoneAgeNetwork::new(
            BeepingAsStoneAge::new(Bfw::new(0.5)),
            generators::cycle(10).into(),
            3,
        );
        net.set_scheduler(scheduler);
        net.run(400);
        format!("{:?}", net.states())
    };
    for s in [
        bfw_sim::Scheduler::Uniform,
        bfw_sim::Scheduler::Weighted,
        bfw_sim::Scheduler::Replay,
    ] {
        assert_eq!(mk(s), mk(s), "{s} must be deterministic");
    }
    // On a cycle every degree is equal, so uniform and weighted draw
    // different streams yet both remain valid; replay is a fixed sweep.
    // At least two of the three must differ somewhere.
    let outcomes: std::collections::HashSet<String> = [
        bfw_sim::Scheduler::Uniform,
        bfw_sim::Scheduler::Weighted,
        bfw_sim::Scheduler::Replay,
    ]
    .into_iter()
    .map(mk)
    .collect();
    assert!(outcomes.len() >= 2, "schedulers must matter");
}

#[test]
fn a_fully_crashed_async_network_keeps_time_but_adds_no_ledger_step() {
    let mut net = AsyncStoneAgeNetwork::new(
        BeepingAsStoneAge::new(Bfw::new(0.5)),
        generators::cycle(5).into(),
        9,
    );
    net.enable_instrumentation(None);
    for _ in 0..7 {
        net.step();
    }
    let steps = |net: &AsyncStoneAgeNetwork<_>| net.complexity_ledger().unwrap().steps();
    assert_eq!(steps(&net), 7, "one ledger step per live activation");
    for i in 0..5 {
        net.crash_node(NodeId::new(i));
    }
    // Everything but the step counter: states, crash mask, noise, node
    // streams and the scheduler half.
    let frozen = |net: &AsyncStoneAgeNetwork<_>| {
        let mut checkpoint = net.checkpoint();
        checkpoint.steps = 0;
        (net.states().to_vec(), checkpoint)
    };
    let before = frozen(&net);
    let ledger = net.complexity_ledger().unwrap().clone();
    // A stalled activation: time passes, nobody moves, nothing is drawn
    // and the ledger adds no step.
    for k in 1..=4 {
        net.step();
        assert_eq!(DynamicHost::round(&net), 7 + k);
        assert_eq!(net.complexity_ledger(), Some(&ledger));
    }
    assert_eq!(frozen(&net), before);
    // A scripted activation of a crashed node changes nothing at all,
    // not even the clock.
    net.activate(NodeId::new(2));
    assert_eq!(DynamicHost::round(&net), 11);
    assert_eq!(net.complexity_ledger(), Some(&ledger));
    assert_eq!(frozen(&net), before);
}

#[test]
fn recovery_survives_the_lowest_noise_sweep_point() {
    // The ROADMAP's open noise-on-heartbeat gap, pinned as a
    // regression: at the lowest E17 `--noise` sweep point the
    // self-healing stack must still reach 0 permanently-leaderless
    // runs across all three wipeout classes (noise inflates latency
    // and flaps — measured by `bfw experiment recovery --noise` — but
    // must not break safety).
    let (fn_rate, fp_rate) = bfw_bench::experiments::recovery::NOISE_SWEEP[0];
    for (label, spec) in
        bfw_bench::experiments::recovery::noisy_wipeout_specs(12, 40_000, fn_rate, fp_rate)
    {
        let graph = spec.build_graph().unwrap();
        for seed in 0..8u64 {
            let outcome = run_bfw_scenario(&spec, &graph, seed).unwrap();
            assert!(
                !outcome.final_leaders.is_empty(),
                "{label} seed {seed}: permanently leaderless under the lowest \
                 noise sweep point\n{}",
                outcome.to_text()
            );
        }
    }
}
