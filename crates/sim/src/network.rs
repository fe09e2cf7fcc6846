use crate::fault::FaultLayer;
use crate::instrument::{fanout_mask, RoundSample};
use crate::tick::{LeaderModel, TickEngine, TickModel};
use crate::{BeepingProtocol, LeaderElection, NodeCtx, Topology};
use bfw_graph::NodeId;

/// Synchronous executor of a [`BeepingProtocol`] on a [`Topology`]: the
/// beeping-model adapter over the shared [`TickEngine`].
///
/// The executor implements the beeping model exactly as defined in
/// Section 1.1 of the paper: in round `t`, the set of beeping nodes is
/// `B_t = {u : state(u) ∈ Q_b}`; node `u`'s next state is sampled from
/// `δ⊤` iff `u ∈ B_t` or some neighbor of `u` is in `B_t`, and from `δ⊥`
/// otherwise. All nodes update simultaneously.
///
/// Every node draws from its own ChaCha stream derived deterministically
/// from the run seed, so executions are reproducible and independent of
/// iteration order. Crash masking, dynamic topology and the two-channel
/// perception-noise model are inherited from the engine and therefore
/// behave identically in the stone-age runtime.
///
/// # Example
///
/// ```
/// use bfw_sim::{Network, Topology};
/// use bfw_graph::generators;
/// # use bfw_sim::{BeepingProtocol, NodeCtx};
/// # #[derive(Debug, Clone)]
/// # struct Silent;
/// # impl BeepingProtocol for Silent {
/// #     type State = u8;
/// #     fn initial_state(&self, _ctx: NodeCtx) -> u8 { 0 }
/// #     fn beeps(&self, _s: &u8) -> bool { false }
/// #     fn transition(&self, s: &u8, _h: bool, _r: &mut dyn rand::RngCore) -> u8 { s + 1 }
/// # }
///
/// let mut net = Network::new(Silent, generators::path(5).into(), 7);
/// net.run(10);
/// assert_eq!(net.round(), 10);
/// assert!(net.states().iter().all(|&s| s == 10));
/// ```
pub type Network<P> = TickEngine<BeepingModel<P>>;

/// The beeping communication model: nodes emit boolean beeps; a node
/// perceives the single signal "I beeped or some neighbor beeped".
///
/// This is the [`TickModel`] behind [`Network`]; it owns the protocol
/// and the per-round beep/heard caches, nothing else.
#[derive(Debug, Clone)]
pub struct BeepingModel<P: BeepingProtocol> {
    pub(crate) protocol: P,
    pub(crate) beeps: Vec<bool>,
    heard: Vec<bool>,
    /// Per-node degrees, maintained only while instrumentation is on
    /// (see [`TickModel::refresh_sampler_caches`]): message accounting
    /// charges each emitter `deg(u)` messages every round, and a dense
    /// `u32` dot product halves the memory traffic of walking the CSR
    /// offsets. Empty means "not instrumented" or "regular graph".
    degrees: Vec<u32>,
    /// `Some(d)` when every node has degree `d` (cycles, tori, cliques,
    /// hypercubes — most of the experiment workloads): message
    /// accounting then collapses to `emitters × d` and the sampler's
    /// only per-node work is two vectorized boolean counts.
    uniform_degree: Option<u64>,
}

impl<P: BeepingProtocol> BeepingModel<P> {
    pub(crate) fn new(protocol: P) -> Self {
        BeepingModel {
            protocol,
            beeps: Vec::new(),
            heard: Vec::new(),
            degrees: Vec::new(),
            uniform_degree: None,
        }
    }

    /// What the pending beeps transmit: `beeps` holds B_t, already
    /// crash-masked by `refresh_node` / `advance`. One beep carries one
    /// bit; each beep is delivered to every neighbor of its emitter.
    fn emission_sample(&self, topology: &Topology) -> RoundSample {
        let (emitters, messages) = if let Some(d) = self.uniform_degree {
            let emitters = self.beeps.iter().filter(|&&b| b).count() as u64;
            (emitters, emitters * d)
        } else if self.degrees.len() == self.beeps.len() && !self.beeps.is_empty() {
            // Irregular graph: fused branchless pass — the all-ones /
            // all-zeros select mask turns `deg(u) if beeping` into an
            // AND, which the autovectorizer handles where a widening
            // bool × u32 multiply defeats it.
            let mut emitters = 0u64;
            let mut messages = 0u64;
            for (&d, &b) in self.degrees.iter().zip(&self.beeps) {
                let select = 0u32.wrapping_sub(u32::from(b));
                emitters += u64::from(b);
                messages += u64::from(d & select);
            }
            (emitters, messages)
        } else {
            fanout_mask(topology, &self.beeps)
        };
        RoundSample {
            emitters,
            heard: 0,
            bits: emitters,
            messages,
        }
    }

    /// The alive nodes whose post-noise `heard` flag is set this round;
    /// crashed nodes perceive nothing. Fault-free runs (the
    /// instrumented hot path) take the vectorizable count.
    fn perceived_count(&self, faults: &FaultLayer) -> u64 {
        if faults.alive_count() == self.heard.len() {
            return self.heard.iter().filter(|&&h| h).count() as u64;
        }
        self.heard
            .iter()
            .zip(faults.flags())
            .filter(|&(&h, &crashed)| h && !crashed)
            .count() as u64
    }
}

impl<P: BeepingProtocol> TickModel for BeepingModel<P> {
    type State = P::State;

    fn initial_state(&self, ctx: NodeCtx) -> P::State {
        self.protocol.initial_state(ctx)
    }

    fn init_caches(&mut self, n: usize) {
        self.beeps = vec![false; n];
        self.heard = vec![false; n];
    }

    fn refresh_node(&mut self, i: usize, state: &P::State, crashed: bool) {
        self.beeps[i] = self.protocol.beeps(state) && !crashed;
    }

    fn advance(
        &mut self,
        topology: &Topology,
        states: &mut [P::State],
        faults: &mut FaultLayer,
        sample: Option<&mut RoundSample>,
    ) -> bool {
        let emitted = sample.is_some().then(|| self.emission_sample(topology));
        topology.compute_heard(&self.beeps, &mut self.heard);
        if faults.has_noise() {
            // Unreliable perception (extension): a listener misses a
            // real beep with probability `fn`, and hears a phantom beep
            // during silence with probability `fp`. A beeping node
            // always registers its own beep; crashed nodes perceive
            // nothing and draw nothing.
            for i in 0..self.heard.len() {
                if self.beeps[i] || faults.is_crashed(i) {
                    continue;
                }
                self.heard[i] = faults.filter_signal(i, self.heard[i]);
            }
        }
        for (i, state) in states.iter_mut().enumerate() {
            if faults.is_crashed(i) {
                continue;
            }
            *state = self
                .protocol
                .transition(state, self.heard[i], faults.rng(i));
        }
        if let (Some(sample), Some(emitted)) = (sample, emitted) {
            *sample = RoundSample {
                heard: self.perceived_count(faults),
                ..emitted
            };
        }
        for (i, s) in states.iter().enumerate() {
            self.beeps[i] = self.protocol.beeps(s) && !faults.is_crashed(i);
        }
        true
    }

    fn refresh_sampler_caches(&mut self, topology: &Topology) {
        self.degrees.clear();
        self.uniform_degree = None;
        match topology {
            Topology::Clique(n) => {
                self.uniform_degree = Some((*n as u64).saturating_sub(1));
            }
            Topology::Graph(g) => {
                // Static CSR graphs answer regularity in one offsets
                // scan (shared with the word-packed adjacency view);
                // only irregular ones pay for the dense degree cache.
                match g.uniform_degree() {
                    Some(d) => self.uniform_degree = Some(d as u64),
                    None => {
                        self.degrees.extend(g.nodes().map(|u| g.degree(u) as u32));
                    }
                }
            }
            graph_backed => {
                let n = topology.node_count();
                self.degrees.reserve(n);
                for i in 0..n {
                    self.degrees
                        .push(graph_backed.degree(NodeId::new(i)) as u32);
                }
                if let Some((&first, rest)) = self.degrees.split_first() {
                    if rest.iter().all(|&d| d == first) {
                        self.uniform_degree = Some(u64::from(first));
                        self.degrees = Vec::new();
                    }
                }
            }
        }
    }
}

impl<P: LeaderElection> LeaderModel for BeepingModel<P> {
    fn is_leader(&self, state: &P::State) -> bool {
        self.protocol.is_leader(state)
    }
}

impl<P: BeepingProtocol> TickEngine<BeepingModel<P>> {
    /// Creates a network in round 0 with every node in its initial
    /// state.
    ///
    /// `seed` determines the entire execution: node `i` draws from a
    /// ChaCha8 stream carved deterministically out of `seed`.
    pub fn new(protocol: P, topology: Topology, seed: u64) -> Self {
        let faults = FaultLayer::new(topology.node_count(), seed);
        TickEngine::from_model(BeepingModel::new(protocol), topology, faults)
    }

    /// Creates a network in round 0 from an **explicit** configuration,
    /// bypassing the protocol's initial state.
    ///
    /// This is the entry point for self-stabilization studies: the
    /// paper's Section 5 discusses why BFW cannot recover from
    /// *arbitrary* configurations (leaderless persistent waves exist —
    /// see `bfw_core::adversarial`), and this constructor lets those
    /// configurations be built and executed.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the topology's node count.
    pub fn with_states(protocol: P, topology: Topology, seed: u64, states: Vec<P::State>) -> Self {
        let faults = FaultLayer::new(topology.node_count(), seed);
        TickEngine::from_parts(BeepingModel::new(protocol), topology, faults, states)
    }

    /// Enables **unreliable hearing** — an extension beyond the paper's
    /// model: each round, a *listening* node that would hear a beep
    /// misses it independently with probability `q` (a node always
    /// registers its own beep). `q = 0` restores the exact beeping
    /// model, including bit-identical RNG streams.
    ///
    /// The paper's Section 3 guarantees (wave directionality, Lemma 9)
    /// assume reliable hearing; the `noise` experiment measures how
    /// they degrade.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1)`.
    pub fn with_hearing_noise(mut self, q: f64) -> Self {
        self.set_noise(q, self.spurious_beep_prob());
        self
    }

    /// Returns the protocol driving this network.
    pub fn protocol(&self) -> &P {
        &self.model.protocol
    }

    /// Returns the beep flags of the current round (`u ∈ B_t`), indexed
    /// by node.
    pub fn beep_flags(&self) -> &[bool] {
        &self.model.beeps
    }

    /// Returns how many nodes beep in the current round (`|B_t|`).
    pub fn beeping_node_count(&self) -> usize {
        self.model.beeps.iter().filter(|&&b| b).count()
    }

    /// Returns a borrowed snapshot of the current round, as handed to
    /// the [`run_until`](Self::run_until) predicate.
    pub fn view(&self) -> RoundView<'_, P> {
        RoundView {
            round: self.round,
            protocol: &self.model.protocol,
            states: &self.states,
            beeps: &self.model.beeps,
            crashed: self.faults.flags(),
        }
    }

    /// Advances until `stop(&view)` returns `true` (checked *before*
    /// each step, including round 0) or until `max_rounds` is reached.
    ///
    /// The predicate sees every round's view, so per-round bookkeeping
    /// that needs the states (invariant checks, traces) lives in the
    /// caller's closure. A predicate that always returns `false` sees
    /// every round from the current one through `max_rounds`. Elections
    /// need only leader and beep counts, so
    /// [`run_election`](crate::run_election) drives them through
    /// [`elect_on`](crate::elect_on) instead, on whichever engine the
    /// protocol elects on.
    ///
    /// Returns the round at which the predicate fired, or `None` if the
    /// budget ran out.
    pub fn run_until<F>(&mut self, max_rounds: u64, mut stop: F) -> Option<u64>
    where
        F: FnMut(&RoundView<'_, P>) -> bool,
    {
        loop {
            if stop(&self.view()) {
                return Some(self.round);
            }
            if self.round >= max_rounds {
                return None;
            }
            self.step();
        }
    }
}

/// Immutable snapshot of a round, handed to the
/// [`Network::run_until`] predicate.
#[derive(Debug)]
pub struct RoundView<'a, P: BeepingProtocol> {
    /// The round number `t`.
    pub round: u64,
    /// The protocol (for interpreting states).
    pub protocol: &'a P,
    /// Per-node states in round `t`.
    pub states: &'a [P::State],
    /// Per-node beep flags: `beeps[u] ⇔ u ∈ B_t`.
    pub beeps: &'a [bool],
    /// Per-node crash flags (all `false` unless a scenario crashed
    /// nodes; a crashed node's state is its last state before the
    /// crash).
    pub crashed: &'a [bool],
}

impl<P: LeaderElection> RoundView<'_, P> {
    /// Returns the number of alive leaders in this round.
    pub fn leader_count(&self) -> usize {
        self.states
            .iter()
            .zip(self.crashed)
            .filter(|(s, &c)| !c && self.protocol.is_leader(s))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfw_graph::{generators, NodeId, TopologyDelta};
    use rand::Rng;

    /// Deterministic "wave" protocol: state counts rounds since a beep
    /// was heard; node 0 beeps once at round 0.
    #[derive(Debug, Clone)]
    struct OneShot;

    #[derive(Debug, Clone, PartialEq)]
    enum OneShotState {
        Origin,
        Idle,
        Beeped,
    }

    impl BeepingProtocol for OneShot {
        type State = OneShotState;

        fn initial_state(&self, ctx: NodeCtx) -> OneShotState {
            if ctx.node.index() == 0 {
                OneShotState::Origin
            } else {
                OneShotState::Idle
            }
        }

        fn beeps(&self, s: &OneShotState) -> bool {
            matches!(s, OneShotState::Origin)
        }

        fn transition(
            &self,
            s: &OneShotState,
            heard: bool,
            _rng: &mut dyn rand::RngCore,
        ) -> OneShotState {
            match (s, heard) {
                (OneShotState::Origin, _) => OneShotState::Beeped,
                (OneShotState::Idle, true) => OneShotState::Beeped,
                (s, _) => s.clone(),
            }
        }
    }

    impl LeaderElection for OneShot {
        fn is_leader(&self, s: &OneShotState) -> bool {
            matches!(s, OneShotState::Origin)
        }
    }

    #[test]
    fn round_zero_state() {
        let net = Network::new(OneShot, generators::path(4).into(), 0);
        assert_eq!(net.round(), 0);
        assert_eq!(net.beeping_node_count(), 1);
        assert_eq!(net.leader_count(), 1);
        assert_eq!(net.unique_leader(), Some(NodeId::new(0)));
        assert_eq!(net.leaders(), vec![NodeId::new(0)]);
    }

    #[test]
    fn beep_reaches_neighbors_only() {
        let mut net = Network::new(OneShot, generators::path(4).into(), 0);
        net.step();
        // Node 0 transitioned out; node 1 heard and became Beeped; nodes
        // 2, 3 heard nothing.
        assert_eq!(*net.state(NodeId::new(0)), OneShotState::Beeped);
        assert_eq!(*net.state(NodeId::new(1)), OneShotState::Beeped);
        assert_eq!(*net.state(NodeId::new(2)), OneShotState::Idle);
        assert_eq!(*net.state(NodeId::new(3)), OneShotState::Idle);
        assert_eq!(net.leader_count(), 0);
        assert_eq!(net.unique_leader(), None);
    }

    #[test]
    fn run_until_fires_at_round_zero() {
        let mut net = Network::new(OneShot, generators::path(3).into(), 0);
        let r = net.run_until(100, |v| v.leader_count() == 1);
        assert_eq!(r, Some(0));
        assert_eq!(net.round(), 0);
    }

    #[test]
    fn run_until_exhausts_budget() {
        let mut net = Network::new(OneShot, generators::path(3).into(), 0);
        let r = net.run_until(5, |_| false);
        assert_eq!(r, None);
        assert_eq!(net.round(), 5);
    }

    #[test]
    fn clique_topology_runs() {
        let mut net = Network::new(OneShot, Topology::Clique(64), 1);
        net.step();
        // Every node heard node 0 and became Beeped.
        assert!(net.states().iter().all(|s| *s == OneShotState::Beeped));
    }

    /// Randomized protocol used to check determinism and stream
    /// independence.
    #[derive(Debug, Clone)]
    struct CoinFlipper;

    impl BeepingProtocol for CoinFlipper {
        type State = u32;

        fn initial_state(&self, _ctx: NodeCtx) -> u32 {
            0
        }

        fn beeps(&self, _s: &u32) -> bool {
            false
        }

        fn transition(&self, s: &u32, _heard: bool, rng: &mut dyn rand::RngCore) -> u32 {
            s.wrapping_mul(31).wrapping_add(rng.random_range(0..1000))
        }
    }

    #[test]
    fn same_seed_same_execution() {
        let mk = || {
            let mut net = Network::new(CoinFlipper, generators::cycle(10).into(), 99);
            net.run(50);
            net.states().to_vec()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut net = Network::new(CoinFlipper, generators::cycle(10).into(), seed);
            net.run(10);
            net.states().to_vec()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn node_streams_are_independent() {
        // With one shared stream, two nodes would draw identical values
        // in lockstep only if the iteration interleaves perfectly; with
        // per-node streams the sequences must differ between nodes.
        let mut net = Network::new(CoinFlipper, generators::path(2).into(), 5);
        net.run(20);
        assert_ne!(net.state(NodeId::new(0)), net.state(NodeId::new(1)));
    }

    #[test]
    fn view_exposes_round_data() {
        let net = Network::new(OneShot, generators::path(3).into(), 0);
        let view = net.view();
        assert_eq!(view.round, 0);
        assert_eq!(view.states.len(), 3);
        assert_eq!(view.beeps, &[true, false, false]);
    }

    #[test]
    fn with_states_overrides_initial_configuration() {
        let states = vec![OneShotState::Idle, OneShotState::Origin, OneShotState::Idle];
        let net = Network::with_states(OneShot, generators::path(3).into(), 0, states);
        assert_eq!(*net.state(NodeId::new(1)), OneShotState::Origin);
        assert_eq!(net.beeping_node_count(), 1);
        assert_eq!(net.unique_leader(), Some(NodeId::new(1)));
    }

    #[test]
    #[should_panic(expected = "one state per node")]
    fn with_states_validates_length() {
        let _ = Network::with_states(OneShot, generators::path(3).into(), 0, vec![]);
    }

    #[test]
    fn zero_noise_preserves_exact_model() {
        let run = |noisy: bool| {
            let mut net = Network::new(CoinFlipper, generators::cycle(8).into(), 3);
            if noisy {
                net = net.with_hearing_noise(0.0);
            }
            net.run(50);
            net.states().to_vec()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn noise_changes_hearing() {
        // With q close to 1, the wave from node 0 almost never
        // propagates on a path; with q = 0 it always reaches node 1.
        let mut missed = 0;
        for seed in 0..50u64 {
            let mut net =
                Network::new(OneShot, generators::path(3).into(), seed).with_hearing_noise(0.95);
            net.step();
            if *net.state(NodeId::new(1)) == OneShotState::Idle {
                missed += 1;
            }
        }
        assert!(
            missed > 30,
            "only {missed} of 50 beeps were dropped at q = 0.95"
        );
    }

    #[test]
    fn beeping_node_always_hears_itself_under_noise() {
        // AlwaysBeep-like check: Origin transitions via δ⊤ regardless of
        // noise because its own beep cannot be missed.
        for seed in 0..20u64 {
            let mut net =
                Network::new(OneShot, generators::path(2).into(), seed).with_hearing_noise(0.99);
            net.step();
            assert_eq!(*net.state(NodeId::new(0)), OneShotState::Beeped);
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn noise_probability_validated() {
        let _ = Network::new(OneShot, generators::path(2).into(), 0).with_hearing_noise(1.0);
    }

    /// Every node beeps in every round — exercises crash masking.
    #[derive(Debug, Clone)]
    struct AlwaysBeep;

    impl BeepingProtocol for AlwaysBeep {
        type State = u32;
        fn initial_state(&self, _ctx: NodeCtx) -> u32 {
            0
        }
        fn beeps(&self, _s: &u32) -> bool {
            true
        }
        fn transition(&self, s: &u32, _h: bool, _r: &mut dyn rand::RngCore) -> u32 {
            s + 1
        }
    }

    #[test]
    fn crashed_node_never_beeps_and_never_transitions() {
        let mut net = Network::new(AlwaysBeep, generators::cycle(5).into(), 0);
        net.crash_node(NodeId::new(2));
        assert!(net.is_crashed(NodeId::new(2)));
        assert_eq!(net.alive_count(), 4);
        for _ in 0..10 {
            assert!(!net.beep_flags()[2], "crashed node must stay silent");
            net.step();
        }
        // Frozen at its pre-crash state while the others advanced.
        assert_eq!(*net.state(NodeId::new(2)), 0);
        assert_eq!(*net.state(NodeId::new(1)), 10);
    }

    #[test]
    fn recover_node_reboots_with_initial_state() {
        let mut net = Network::new(AlwaysBeep, generators::cycle(5).into(), 0);
        net.run(7);
        net.crash_node(NodeId::new(3));
        net.run(5);
        net.recover_node(NodeId::new(3));
        assert!(!net.is_crashed(NodeId::new(3)));
        // Fresh initial state (0), beeping again.
        assert_eq!(*net.state(NodeId::new(3)), 0);
        assert!(net.beep_flags()[3]);
        // Recovering an alive node is a no-op.
        net.recover_node(NodeId::new(0));
        assert_eq!(*net.state(NodeId::new(0)), 12);
    }

    #[test]
    fn crashed_leader_is_not_counted() {
        let mut net = Network::new(OneShot, generators::path(4).into(), 0);
        assert_eq!(net.leader_count(), 1);
        net.crash_node(NodeId::new(0));
        assert_eq!(net.leader_count(), 0);
        assert_eq!(net.unique_leader(), None);
        assert!(net.leaders().is_empty());
        assert_eq!(net.view().leader_count(), 0);
    }

    #[test]
    fn crash_silences_the_wave_source() {
        // Crashing node 0 before stepping prevents its beep from ever
        // reaching node 1.
        let mut net = Network::new(OneShot, generators::path(3).into(), 0);
        net.crash_node(NodeId::new(0));
        net.run(5);
        assert_eq!(*net.state(NodeId::new(1)), OneShotState::Idle);
    }

    #[test]
    fn set_topology_changes_hearing() {
        // On a path 0-1-2, node 2 never hears node 0's one-shot beep;
        // after rewiring to a triangle it would. Rewire before stepping.
        let mut net = Network::new(OneShot, generators::path(3).into(), 0);
        net.set_topology(generators::cycle(3).into());
        net.step();
        assert_eq!(*net.state(NodeId::new(2)), OneShotState::Beeped);
    }

    #[test]
    fn apply_topology_delta_changes_hearing() {
        // Same rewiring as `set_topology_changes_hearing`, but through
        // the O(deg) delta path: add the chord (0, 2) to the path.
        let mut net = Network::new(OneShot, generators::path(3).into(), 0);
        let mut delta = TopologyDelta::new();
        delta.add_edge(NodeId::new(0), NodeId::new(2));
        net.apply_topology_delta(&delta);
        net.step();
        assert_eq!(*net.state(NodeId::new(2)), OneShotState::Beeped);
        assert_eq!(net.topology().to_graph().edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "preserve the node count")]
    fn set_topology_validates_node_count() {
        let mut net = Network::new(OneShot, generators::path(3).into(), 0);
        net.set_topology(generators::path(4).into());
    }

    #[test]
    fn set_node_state_updates_beep_flag() {
        let mut net = Network::new(OneShot, generators::path(3).into(), 0);
        net.set_node_state(NodeId::new(2), OneShotState::Origin);
        assert_eq!(net.beeping_node_count(), 2);
        net.set_states(vec![OneShotState::Idle; 3]);
        assert_eq!(net.beeping_node_count(), 0);
    }

    #[test]
    fn spurious_beeps_wake_silent_networks() {
        // All-idle network: without noise nothing ever happens; with a
        // high false-positive rate, nodes hear phantom beeps and
        // transition.
        let mut woke = 0;
        for seed in 0..20u64 {
            let mut net = Network::with_states(
                OneShot,
                generators::path(3).into(),
                seed,
                vec![OneShotState::Idle; 3],
            );
            net.set_noise(0.0, 0.8);
            net.run(5);
            if net.states().contains(&OneShotState::Beeped) {
                woke += 1;
            }
        }
        assert!(woke > 15, "only {woke}/20 runs saw a phantom beep");
    }

    #[test]
    fn noise_reset_restores_silence() {
        let mut net = Network::new(CoinFlipper, generators::cycle(4).into(), 1);
        net.set_noise(0.3, 0.3);
        assert_eq!(net.hearing_failure_prob(), 0.3);
        assert_eq!(net.spurious_beep_prob(), 0.3);
        net.set_noise(0.0, 0.0);
        assert_eq!(net.hearing_failure_prob(), 0.0);
        assert_eq!(net.spurious_beep_prob(), 0.0);
    }

    #[test]
    #[should_panic(expected = "spurious-beep probability")]
    fn spurious_probability_validated() {
        let mut net = Network::new(OneShot, generators::path(2).into(), 0);
        net.set_noise(0.0, 1.0);
    }
}
