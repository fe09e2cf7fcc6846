//! The BFW protocol (Section 1.2), its Theorem 3 variant and ablations.

use crate::bit::BitNetwork;
use crate::state::{delta, BfwState};
use bfw_graph::NodeId;
use bfw_sim::{
    elect_on, BeepingProtocol, ElectionConfig, ElectionOutcome, LeaderElection, NodeCtx, SimError,
    Topology,
};
use rand::{Rng, RngCore};

/// Which nodes start as leaders (`W•`) — everyone else starts as a
/// waiting non-leader (`W◦`).
///
/// The paper's analysis assumes Eq. (2): all nodes waiting and at least
/// one leader in round 0. [`InitialConfig::AllLeaders`] is the paper's
/// default (every node initialized as a leader); the other variants are
/// used by the experiments (e.g. two leaders at the ends of a path for
/// the Section 5 tightness study) and are valid initial configurations
/// for all of Section 3's deterministic results.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum InitialConfig {
    /// Every node starts in `W•` (the paper's initialization).
    #[default]
    AllLeaders,
    /// The first `k` nodes (by index) start in `W•`, the rest in `W◦`.
    FirstK(usize),
    /// Exactly the listed nodes start in `W•`.
    Nodes(Vec<NodeId>),
}

impl InitialConfig {
    /// Returns `true` if `node` starts as a leader under this
    /// configuration.
    pub fn is_initial_leader(&self, node: NodeId) -> bool {
        match self {
            InitialConfig::AllLeaders => true,
            InitialConfig::FirstK(k) => node.index() < *k,
            InitialConfig::Nodes(nodes) => nodes.contains(&node),
        }
    }

    /// Returns `true` if the configuration gives at least one leader to
    /// a graph of `n` nodes (Eq. (2)'s requirement `W•_0 ≠ ∅`).
    pub fn has_leader(&self, n: usize) -> bool {
        match self {
            InitialConfig::AllLeaders => n > 0,
            InitialConfig::FirstK(k) => *k >= 1 && n > 0,
            InitialConfig::Nodes(nodes) => nodes.iter().any(|u| u.index() < n),
        }
    }
}

/// **Algorithm BFW** (Figure 1) — the paper's six-state uniform
/// leader-election protocol for the beeping model.
///
/// The protocol is *uniform* and *anonymous*: the transition function
/// depends on nothing but the node's current state, whether it heard a
/// beep, and a fresh `Bernoulli(p)` coin (consulted only in `W•` during
/// silence). With the default [`InitialConfig::AllLeaders`], nodes are
/// fully interchangeable.
///
/// # Example
///
/// ```
/// use bfw_core::{Bfw, BfwState};
/// use bfw_sim::{BeepingProtocol, LeaderElection, NodeCtx};
/// use bfw_graph::NodeId;
///
/// let bfw = Bfw::new(0.5);
/// let ctx = NodeCtx { node: NodeId::new(3), node_count: 100 };
/// let s0 = bfw.initial_state(ctx);
/// assert_eq!(s0, BfwState::LeaderWaiting);
/// assert!(bfw.is_leader(&s0));
/// assert!(!bfw.beeps(&s0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bfw {
    p: f64,
    init: InitialConfig,
}

impl Bfw {
    /// Creates BFW with beep probability `p` and the paper's
    /// all-leaders initialization.
    ///
    /// The paper suggests `p = 1/2` as the canonical uniform choice
    /// (one random bit per round).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in the open interval `(0, 1)` — the paper
    /// requires a constant `p ∈ (0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p < 1.0 && p.is_finite(),
            "BFW requires p in the open interval (0, 1), got {p}"
        );
        Bfw {
            p,
            init: InitialConfig::AllLeaders,
        }
    }

    /// The Theorem 3 variant: `p = 1/(D+1)` for (approximately) known
    /// diameter `D`, converging in `O(D log n)` rounds w.h.p. at the
    /// cost of uniformity.
    ///
    /// # Panics
    ///
    /// Never panics: `1/(D+1) ∈ (0, 1)` for every `D ≥ 1`; `D = 0` is
    /// mapped to `p = 1/2` (a single node needs no election).
    pub fn with_known_diameter(diameter: u32) -> Self {
        if diameter == 0 {
            Bfw::new(0.5)
        } else {
            Bfw::new(1.0 / (f64::from(diameter) + 1.0))
        }
    }

    /// Replaces the initial configuration (see [`InitialConfig`]).
    pub fn with_initial_config(mut self, init: InitialConfig) -> Self {
        self.init = init;
        self
    }

    /// Returns the beep probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Returns the initial configuration.
    pub fn initial_config(&self) -> &InitialConfig {
        &self.init
    }
}

impl BeepingProtocol for Bfw {
    type State = BfwState;

    fn initial_state(&self, ctx: NodeCtx) -> BfwState {
        if self.init.is_initial_leader(ctx.node) {
            BfwState::LeaderWaiting
        } else {
            BfwState::Waiting
        }
    }

    fn beeps(&self, state: &BfwState) -> bool {
        state.beeps()
    }

    fn transition(&self, state: &BfwState, heard: bool, rng: &mut dyn RngCore) -> BfwState {
        // Draw the coin lazily: only δ⊥(W•) is randomized, so BFW uses
        // at most one random bit per round (exactly one when p = 1/2).
        let coin = if *state == BfwState::LeaderWaiting && !heard {
            rng.random_bool(self.p)
        } else {
            false
        };
        delta(*state, heard, coin)
    }
}

impl LeaderElection for Bfw {
    fn is_leader(&self, state: &BfwState) -> bool {
        state.is_leader()
    }

    /// Elects on the bit kernel: [`BitNetwork`] reproduces
    /// `Network<Bfw>` byte-for-byte at a fixed seed, at about 64 nodes
    /// per word operation.
    fn elect(
        self,
        topology: Topology,
        seed: u64,
        config: ElectionConfig,
    ) -> Result<ElectionOutcome, SimError> {
        elect_on(BitNetwork::new(self, topology, seed), config)
    }
}

/// **Ablation:** BFW without the frozen states (a 4-state protocol).
///
/// DESIGN.md calls out the one-round freeze as the design choice that
/// makes beep waves directional (Claim 6 / Lemma 7 depend on it). This
/// protocol removes it: after beeping, a node returns directly to
/// waiting. Waves then reflect, a leader can be hit by its own wave and
/// eliminate itself, and *all* leaders can disappear — violating
/// Lemma 9. The `ablation` experiment demonstrates this empirically; do
/// not use this protocol for anything but that comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BfwNoFreeze {
    p: f64,
    init: InitialConfig,
}

/// States of the [`BfwNoFreeze`] ablation (no frozen states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoFreezeState {
    /// Waiting leader.
    LeaderWaiting,
    /// Beeping leader.
    LeaderBeeping,
    /// Waiting non-leader.
    Waiting,
    /// Beeping non-leader.
    Beeping,
}

impl NoFreezeState {
    /// Returns `true` for the two leader states.
    pub const fn is_leader(self) -> bool {
        matches!(
            self,
            NoFreezeState::LeaderWaiting | NoFreezeState::LeaderBeeping
        )
    }

    /// Returns `true` for the two beeping states.
    pub const fn beeps(self) -> bool {
        matches!(self, NoFreezeState::LeaderBeeping | NoFreezeState::Beeping)
    }
}

impl BfwNoFreeze {
    /// Creates the ablated protocol with beep probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in the open interval `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p < 1.0 && p.is_finite(),
            "BfwNoFreeze requires p in the open interval (0, 1), got {p}"
        );
        BfwNoFreeze {
            p,
            init: InitialConfig::AllLeaders,
        }
    }

    /// Replaces the initial configuration.
    pub fn with_initial_config(mut self, init: InitialConfig) -> Self {
        self.init = init;
        self
    }

    /// Returns the beep probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl BeepingProtocol for BfwNoFreeze {
    type State = NoFreezeState;

    fn initial_state(&self, ctx: NodeCtx) -> NoFreezeState {
        if self.init.is_initial_leader(ctx.node) {
            NoFreezeState::LeaderWaiting
        } else {
            NoFreezeState::Waiting
        }
    }

    fn beeps(&self, state: &NoFreezeState) -> bool {
        state.beeps()
    }

    fn transition(
        &self,
        state: &NoFreezeState,
        heard: bool,
        rng: &mut dyn RngCore,
    ) -> NoFreezeState {
        match (state, heard) {
            (NoFreezeState::LeaderWaiting, false) => {
                if rng.random_bool(self.p) {
                    NoFreezeState::LeaderBeeping
                } else {
                    NoFreezeState::LeaderWaiting
                }
            }
            (NoFreezeState::LeaderWaiting, true) => NoFreezeState::Beeping,
            // No freeze: return straight to waiting after a beep.
            (NoFreezeState::LeaderBeeping, _) => NoFreezeState::LeaderWaiting,
            (NoFreezeState::Beeping, _) => NoFreezeState::Waiting,
            (NoFreezeState::Waiting, true) => NoFreezeState::Beeping,
            (NoFreezeState::Waiting, false) => NoFreezeState::Waiting,
        }
    }
}

impl LeaderElection for BfwNoFreeze {
    fn is_leader(&self, state: &NoFreezeState) -> bool {
        state.is_leader()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfw_graph::generators;
    use bfw_sim::{run_election, ElectionConfig, Network};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ctx(i: usize, n: usize) -> NodeCtx {
        NodeCtx {
            node: NodeId::new(i),
            node_count: n,
        }
    }

    #[test]
    #[should_panic(expected = "open interval")]
    fn rejects_p_zero() {
        let _ = Bfw::new(0.0);
    }

    #[test]
    #[should_panic(expected = "open interval")]
    fn rejects_p_one() {
        let _ = Bfw::new(1.0);
    }

    #[test]
    #[should_panic(expected = "open interval")]
    fn rejects_p_nan() {
        let _ = Bfw::new(f64::NAN);
    }

    #[test]
    fn uniform_protocol_ignores_identity() {
        let bfw = Bfw::new(0.5);
        // Same initial state for every node and every network size.
        for (i, n) in [(0, 1), (5, 10), (999, 1000)] {
            assert_eq!(bfw.initial_state(ctx(i, n)), BfwState::LeaderWaiting);
        }
    }

    #[test]
    fn initial_config_variants() {
        let first2 = InitialConfig::FirstK(2);
        assert!(first2.is_initial_leader(NodeId::new(0)));
        assert!(first2.is_initial_leader(NodeId::new(1)));
        assert!(!first2.is_initial_leader(NodeId::new(2)));
        assert!(first2.has_leader(5));
        assert!(!InitialConfig::FirstK(0).has_leader(5));

        let ends = InitialConfig::Nodes(vec![NodeId::new(0), NodeId::new(4)]);
        assert!(ends.is_initial_leader(NodeId::new(4)));
        assert!(!ends.is_initial_leader(NodeId::new(2)));
        assert!(ends.has_leader(5));
        assert!(!ends.has_leader(0));
        assert!(InitialConfig::AllLeaders.has_leader(1));
        assert!(!InitialConfig::AllLeaders.has_leader(0));
        assert!(!InitialConfig::Nodes(vec![NodeId::new(9)]).has_leader(5));
        assert_eq!(InitialConfig::default(), InitialConfig::AllLeaders);
    }

    #[test]
    fn with_known_diameter_matches_theorem3() {
        assert!((Bfw::with_known_diameter(9).p() - 0.1).abs() < 1e-12);
        assert!((Bfw::with_known_diameter(1).p() - 0.5).abs() < 1e-12);
        assert!((Bfw::with_known_diameter(0).p() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transition_consumes_randomness_only_in_quiet_leader_waiting() {
        // Two rngs stay in lockstep if the protocol draws the same
        // number of values; check that non-randomized states draw none.
        let bfw = Bfw::new(0.5);
        for s in BfwState::ALL {
            for heard in [false, true] {
                if s == BfwState::LeaderWaiting && !heard {
                    continue; // the one randomized transition
                }
                let mut a = ChaCha8Rng::seed_from_u64(7);
                let mut b = ChaCha8Rng::seed_from_u64(7);
                let _ = bfw.transition(&s, heard, &mut a);
                // If no randomness was consumed, the streams still agree.
                assert_eq!(a.next_u64(), b.next_u64(), "state {s}, heard {heard}");
            }
        }
    }

    #[test]
    fn randomized_transition_matches_p() {
        let bfw = Bfw::new(0.25);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let trials = 100_000;
        let mut beeps = 0;
        for _ in 0..trials {
            if bfw.transition(&BfwState::LeaderWaiting, false, &mut rng) == BfwState::LeaderBeeping
            {
                beeps += 1;
            }
        }
        let rate = beeps as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn small_cycle_elects_leader() {
        let out = run_election(
            Bfw::new(0.5),
            generators::cycle(8).into(),
            1,
            ElectionConfig::new(50_000).with_stability_check(500),
        )
        .unwrap();
        assert!(out.stable);
        assert!(out.converged_round < 50_000);
    }

    #[test]
    fn two_leader_initialization_on_path() {
        let n = 11;
        let bfw = Bfw::new(0.5).with_initial_config(InitialConfig::Nodes(vec![
            NodeId::new(0),
            NodeId::new(n - 1),
        ]));
        let net = Network::new(bfw, generators::path(n).into(), 3);
        assert_eq!(net.leader_count(), 2);
        assert_eq!(net.state(NodeId::new(0)), &BfwState::LeaderWaiting);
        assert_eq!(net.state(NodeId::new(5)), &BfwState::Waiting);
    }

    #[test]
    fn no_freeze_states_and_panics() {
        assert!(NoFreezeState::LeaderBeeping.is_leader());
        assert!(NoFreezeState::LeaderBeeping.beeps());
        assert!(!NoFreezeState::Waiting.beeps());
        let p = BfwNoFreeze::new(0.5);
        assert_eq!(p.p(), 0.5);
    }

    #[test]
    #[should_panic(expected = "open interval")]
    fn no_freeze_rejects_bad_p() {
        let _ = BfwNoFreeze::new(1.5);
    }

    #[test]
    fn no_freeze_can_lose_all_leaders() {
        // The ablation violates Lemma 9: on small cycles, waves reflect
        // and eliminate everyone with positive probability. Scan seeds
        // until we witness a zero-leader round (must happen quickly).
        let mut witnessed = false;
        'outer: for seed in 0..200u64 {
            let mut net = Network::new(BfwNoFreeze::new(0.5), generators::cycle(6).into(), seed);
            for _ in 0..300 {
                net.step();
                if net.leader_count() == 0 {
                    witnessed = true;
                    break 'outer;
                }
            }
        }
        assert!(
            witnessed,
            "no-freeze ablation should be able to lose every leader"
        );
    }

    #[test]
    fn bfw_never_loses_all_leaders_short_runs() {
        // Contrast with the ablation: Lemma 9 holds for the real
        // protocol (checked deterministically over many seeds).
        for seed in 0..50u64 {
            let mut net = Network::new(Bfw::new(0.5), generators::cycle(6).into(), seed);
            for _ in 0..300 {
                net.step();
                assert!(net.leader_count() >= 1, "seed {seed} round {}", net.round());
            }
        }
    }
}
