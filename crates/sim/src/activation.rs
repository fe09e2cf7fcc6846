//! Asynchronous activation: which node moves next.
//!
//! The paper is careful to claim BFW only for *synchronous* weak
//! models; the asynchronous stone-age runtime exists to probe why (see
//! [`AsyncStoneAgeNetwork`](crate::stone_age::AsyncStoneAgeNetwork)).
//! It is not a separate engine: one activation is one tick of the
//! shared [`TickEngine`](crate::TickEngine) that moves a single node,
//! so crashes, perception noise, dynamic topology, checkpoints and
//! complexity accounting behave exactly as under synchronous rounds.
//! What asynchrony adds is the choice of that node, and it lives here:
//! the [`Scheduler`] rules and the [`SchedulerState`] the asynchronous
//! model owns — the scheduler's ChaCha8 stream, the replay permutation
//! and its sweep cursor.
//!
//! Determinism contract: the master stream carves `n` node streams in
//! index order, then one scheduler stream (`FaultLayer::with_scheduler`)
//! — the carving order the `activation_engine_equivalence` workspace
//! test pins. The [uniform](Scheduler::Uniform) scheduler rejects draws
//! that land on crashed nodes instead of renumbering the alive set, so
//! the scheduler stream itself never shifts when the crash mask
//! changes.

use crate::fault::FaultLayer;
use crate::snapshot::SchedulerCheckpoint;
use crate::Topology;
use bfw_graph::NodeId;
use rand::Rng as _;
use rand_chacha::ChaCha8Rng;

/// How the asynchronous runtime picks the next node to activate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// One uniformly random alive node per step — the randomized fair
    /// scheduler common in self-stabilization work. Draws landing on a
    /// crashed node are rejected and redrawn from the same stream
    /// (never renumbered), so crashing a node perturbs the schedule of
    /// the survivors as little as possible.
    #[default]
    Uniform,
    /// Degree-weighted random: an alive node is activated with
    /// probability proportional to `deg(u) + 1` in the current
    /// topology — a contention model where well-connected nodes are
    /// scheduled more often. Costs `O(n + m)` per draw.
    Weighted,
    /// Seeded adversarial replay: a fixed ChaCha-derived permutation of
    /// the nodes, swept cyclically (crashed nodes are skipped within
    /// the sweep). The permutation is drawn once from the scheduler
    /// stream when this scheduler is installed, so the same seed
    /// replays the same adversarial order forever — the deterministic
    /// round-robin adversary of asynchronous lower bounds.
    Replay,
}

impl std::fmt::Display for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scheduler::Uniform => "uniform",
            Scheduler::Weighted => "weighted",
            Scheduler::Replay => "replay",
        })
    }
}

/// The scheduler half of an asynchronous model: the installed
/// [`Scheduler`], its ChaCha8 stream, the replay permutation and sweep
/// cursor, a scripted pick waiting for the next tick, and the node the
/// last tick moved.
#[derive(Debug, Clone)]
pub(crate) struct SchedulerState {
    kind: Scheduler,
    rng: ChaCha8Rng,
    replay_order: Vec<NodeId>,
    replay_cursor: usize,
    weight_scratch: Vec<u64>,
    scripted: Option<usize>,
    last: Option<usize>,
}

impl SchedulerState {
    /// The [uniform](Scheduler::Uniform) scheduler on `rng`, the stream
    /// carved after the node streams.
    pub(crate) fn new(rng: ChaCha8Rng) -> Self {
        SchedulerState {
            kind: Scheduler::Uniform,
            rng,
            replay_order: Vec::new(),
            replay_cursor: 0,
            weight_scratch: Vec::new(),
            scripted: None,
            last: None,
        }
    }

    /// The installed scheduler.
    pub(crate) fn kind(&self) -> Scheduler {
        self.kind
    }

    /// The node the last tick activated (`None` for a stalled tick).
    pub(crate) fn last(&self) -> Option<usize> {
        self.last
    }

    /// Installs `kind` for the following picks over `n` nodes.
    /// Installing [`Scheduler::Replay`] draws the replay permutation
    /// from the scheduler stream at this point (a Fisher–Yates shuffle)
    /// and resets the sweep cursor, so the adversarial order is a pure
    /// function of the seed and the moment of installation.
    pub(crate) fn install(&mut self, kind: Scheduler, n: usize) {
        self.kind = kind;
        self.replay_order.clear();
        self.replay_cursor = 0;
        if kind == Scheduler::Replay {
            let mut order: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            for i in (1..n).rev() {
                let j = self.rng.random_range(0..i + 1);
                order.swap(i, j);
            }
            self.replay_order = order;
        }
    }

    /// Makes node `u` the next pick, bypassing the rule (a scripted
    /// activation; the caller has checked that `u` is alive).
    pub(crate) fn script(&mut self, u: usize) {
        self.scripted = Some(u);
    }

    /// Picks the node the next activation moves: the scripted one if
    /// any, else an alive node by the installed rule. Returns `None`,
    /// without a draw, when every node is crashed. Crash-masked nodes
    /// are never picked by a rule.
    pub(crate) fn pick(&mut self, topology: &Topology, faults: &FaultLayer) -> Option<usize> {
        self.last = match self.scripted.take() {
            Some(u) => Some(u),
            None if faults.alive_count() == 0 => None,
            None => Some(self.pick_alive(topology, faults)),
        };
        self.last
    }

    fn pick_alive(&mut self, topology: &Topology, faults: &FaultLayer) -> usize {
        let n = faults.flags().len();
        match self.kind {
            Scheduler::Uniform => loop {
                let u = self.rng.random_range(0..n);
                if !faults.is_crashed(u) {
                    break u;
                }
            },
            Scheduler::Weighted => {
                // Weight alive node u by deg(u) + 1 in the current
                // topology (the +1 keeps isolated nodes schedulable).
                let mut weights = std::mem::take(&mut self.weight_scratch);
                weights.clear();
                weights.resize(n, 0);
                let mut total = 0u64;
                for (i, w) in weights.iter_mut().enumerate() {
                    if faults.is_crashed(i) {
                        continue;
                    }
                    let mut deg = 0u64;
                    topology.for_each_neighbor(NodeId::new(i), |_| deg += 1);
                    *w = deg + 1;
                    total += *w;
                }
                let mut r = self.rng.random_range(0..total);
                let mut chosen = 0;
                for (i, &w) in weights.iter().enumerate() {
                    if r < w {
                        chosen = i;
                        break;
                    }
                    r -= w;
                }
                self.weight_scratch = weights;
                chosen
            }
            Scheduler::Replay => {
                assert!(
                    !self.replay_order.is_empty(),
                    "replay scheduler installed without a permutation"
                );
                loop {
                    let u = self.replay_order[self.replay_cursor];
                    self.replay_cursor = (self.replay_cursor + 1) % self.replay_order.len();
                    if !faults.is_crashed(u.index()) {
                        break u.index();
                    }
                }
            }
        }
    }

    /// The scheduler stream position and replay-sweep cursor. The
    /// replay permutation itself is not captured: it is a pure function
    /// of the seed and the installation point.
    pub(crate) fn checkpoint(&self) -> SchedulerCheckpoint {
        SchedulerCheckpoint {
            rng_position: self.rng.position(),
            replay_cursor: self.replay_cursor,
        }
    }

    /// Restores a [`checkpoint`](Self::checkpoint) onto a state built
    /// from the same seed with the checkpointed run's scheduler already
    /// [installed](Self::install): the stream is fast-forwarded to its
    /// checkpointed position (already past the permutation draws) and
    /// the sweep cursor is restored.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint carries a replay cursor while no replay
    /// permutation is installed.
    pub(crate) fn restore(&mut self, cp: &SchedulerCheckpoint) {
        self.rng.set_position(cp.rng_position.0, cp.rng_position.1);
        self.replay_cursor = if self.replay_order.is_empty() {
            assert_eq!(
                cp.replay_cursor, 0,
                "a replay cursor needs the replay scheduler installed"
            );
            0
        } else {
            cp.replay_cursor % self.replay_order.len()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stone_age::{AsyncStoneAgeNetwork, BeepingAsStoneAge};
    use crate::{BeepingProtocol, LeaderElection, NodeCtx};
    use bfw_graph::{generators, TopologyDelta};

    /// Beeps forever; "leaders" are all nodes (crash masking visible).
    #[derive(Debug, Clone)]
    struct Siren;

    impl BeepingProtocol for Siren {
        type State = u32;
        fn initial_state(&self, _ctx: NodeCtx) -> u32 {
            0
        }
        fn beeps(&self, _s: &u32) -> bool {
            true
        }
        fn transition(&self, s: &u32, _heard: bool, _rng: &mut dyn rand::RngCore) -> u32 {
            s + 1
        }
    }

    impl LeaderElection for Siren {
        fn is_leader(&self, _s: &u32) -> bool {
            true
        }
    }

    fn siren_net(n: usize, seed: u64) -> AsyncStoneAgeNetwork<BeepingAsStoneAge<Siren>> {
        AsyncStoneAgeNetwork::new(
            BeepingAsStoneAge::new(Siren),
            generators::cycle(n).into(),
            seed,
        )
    }

    #[test]
    fn crashed_nodes_are_never_scheduled() {
        for scheduler in [Scheduler::Uniform, Scheduler::Weighted, Scheduler::Replay] {
            let mut net = siren_net(6, 3);
            net.set_scheduler(scheduler);
            net.crash_node(NodeId::new(2));
            net.crash_node(NodeId::new(5));
            for _ in 0..200 {
                let u = net.activate_next().unwrap();
                assert!(!net.is_crashed(u), "{scheduler}: activated crashed {u}");
            }
            assert_eq!(*net.state(NodeId::new(2)), 0, "{scheduler}");
            assert_eq!(*net.state(NodeId::new(5)), 0, "{scheduler}");
            assert_eq!(net.round(), 200);
            assert_eq!(net.alive_count(), 4);
            assert_eq!(net.leader_count(), 4, "crashed sirens are not leaders");
        }
    }

    #[test]
    fn all_crashed_network_stalls_but_time_passes() {
        let mut net = siren_net(3, 0);
        for i in 0..3 {
            net.crash_node(NodeId::new(i));
        }
        assert_eq!(net.activate_next(), None);
        net.run(10); // stalls, never spins
        assert_eq!(net.round(), 11, "stalled steps still count");
        assert!(net.states().iter().all(|&s| s == 0), "nobody transitioned");
        // Explicit activation of a crashed node is an uncounted no-op.
        net.activate(NodeId::new(1));
        assert_eq!(net.round(), 11);
        assert!(net.leaders().is_empty());
        assert_eq!(net.unique_leader(), None);
    }

    #[test]
    fn recover_reboots_into_initial_state_and_reschedules() {
        let mut net = siren_net(4, 7);
        net.run(40);
        net.crash_node(NodeId::new(1));
        let frozen = *net.state(NodeId::new(1));
        net.run(40);
        assert_eq!(*net.state(NodeId::new(1)), frozen, "crashed node is inert");
        net.recover_node(NodeId::new(1));
        assert_eq!(*net.state(NodeId::new(1)), 0, "fresh initial state");
        net.run(200);
        assert!(*net.state(NodeId::new(1)) > 0, "rejoined the schedule");
        // Recovering an alive node is a no-op.
        let s0 = *net.state(NodeId::new(0));
        net.recover_node(NodeId::new(0));
        assert_eq!(*net.state(NodeId::new(0)), s0);
    }

    #[test]
    fn replay_scheduler_sweeps_a_fixed_permutation() {
        let mut net = siren_net(5, 11);
        net.set_scheduler(Scheduler::Replay);
        let first: Vec<NodeId> = (0..5).map(|_| net.activate_next().unwrap()).collect();
        let second: Vec<NodeId> = (0..5).map(|_| net.activate_next().unwrap()).collect();
        assert_eq!(first, second, "the permutation replays cyclically");
        let mut sorted: Vec<usize> = first.iter().map(|u| u.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4], "each sweep covers every node");

        // Same seed, same installation point ⇒ same permutation.
        let mut again = siren_net(5, 11);
        again.set_scheduler(Scheduler::Replay);
        let replay: Vec<NodeId> = (0..5).map(|_| again.activate_next().unwrap()).collect();
        assert_eq!(first, replay);
    }

    #[test]
    fn weighted_scheduler_prefers_high_degree_nodes() {
        // Star: the hub has degree n - 1, each leaf degree 1. Under
        // degree weighting the hub is activated far more often than any
        // single leaf.
        let mut net =
            AsyncStoneAgeNetwork::new(BeepingAsStoneAge::new(Siren), generators::star(9).into(), 5);
        net.set_scheduler(Scheduler::Weighted);
        net.run(900);
        let hub = *net.state(NodeId::new(0)) as f64;
        let leaf_mean: f64 = (1..9)
            .map(|i| *net.state(NodeId::new(i)) as f64)
            .sum::<f64>()
            / 8.0;
        assert!(
            hub > 2.0 * leaf_mean,
            "hub activated {hub} times vs leaf mean {leaf_mean}"
        );
    }

    #[test]
    fn schedulers_are_seed_deterministic() {
        for scheduler in [Scheduler::Uniform, Scheduler::Weighted, Scheduler::Replay] {
            let run = |seed| {
                let mut net = siren_net(8, seed);
                net.set_scheduler(scheduler);
                net.run(100);
                net.states().to_vec()
            };
            assert_eq!(run(5), run(5), "{scheduler}");
            assert_ne!(run(5), run(6), "{scheduler}");
        }
    }

    #[test]
    fn scheduler_display_names_are_stable() {
        assert_eq!(Scheduler::Uniform.to_string(), "uniform");
        assert_eq!(Scheduler::Weighted.to_string(), "weighted");
        assert_eq!(Scheduler::Replay.to_string(), "replay");
        assert_eq!(Scheduler::default(), Scheduler::Uniform);
    }

    #[test]
    fn topology_delta_changes_the_observation_graph() {
        // CountTwo-style check through the adapter: after adding a
        // chord, the activated node observes its new neighbor.
        let mut net = siren_net(4, 2);
        let mut delta = TopologyDelta::new();
        delta.add_edge(NodeId::new(0), NodeId::new(2));
        net.apply_topology_delta(&delta);
        assert_eq!(net.topology().to_graph().edge_count(), 5);
        net.set_topology(generators::cycle(4).into());
        assert_eq!(net.topology().to_graph().edge_count(), 4);
    }

    #[test]
    fn set_states_and_set_node_state_refresh_caches() {
        let mut net = siren_net(3, 0);
        net.set_states(vec![7, 7, 7]);
        assert_eq!(net.states(), &[7, 7, 7]);
        net.set_node_state(NodeId::new(1), 9);
        assert_eq!(*net.state(NodeId::new(1)), 9);
    }

    #[test]
    #[should_panic(expected = "preserve the node count")]
    fn set_topology_validates_node_count() {
        let mut net = siren_net(3, 0);
        net.set_topology(generators::cycle(4).into());
    }
}
