use crate::{BitEngine, BitModel, LeaderElection, Network, SimError, Topology};
use bfw_graph::NodeId;

/// Configuration for a single leader-election run.
///
/// # Example
///
/// ```
/// use bfw_sim::ElectionConfig;
///
/// let cfg = ElectionConfig::new(10_000).with_stability_check(100);
/// assert_eq!(cfg.max_rounds, 10_000);
/// assert_eq!(cfg.stability_rounds, 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectionConfig {
    /// Round budget: the run fails with
    /// [`SimError::RoundBudgetExhausted`] if more than one leader
    /// remains after this many rounds.
    pub max_rounds: u64,
    /// After convergence, keep running this many extra rounds and verify
    /// the leader stays unique and unchanged (Definition 1 demands the
    /// single-leader configuration persists). Zero disables the check.
    pub stability_rounds: u64,
}

impl ElectionConfig {
    /// Creates a config with the given round budget and no stability
    /// check.
    pub fn new(max_rounds: u64) -> Self {
        ElectionConfig {
            max_rounds,
            stability_rounds: 0,
        }
    }

    /// Enables the post-convergence stability check for `rounds` rounds.
    pub fn with_stability_check(mut self, rounds: u64) -> Self {
        self.stability_rounds = rounds;
        self
    }
}

/// Result of a completed leader-election run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElectionOutcome {
    /// First round with exactly one leader (the `T` of Definition 1).
    pub converged_round: u64,
    /// The elected node.
    pub leader: NodeId,
    /// Number of nodes.
    pub node_count: usize,
    /// Total beeps emitted up to (and including) the convergence round —
    /// an energy measure.
    pub total_beeps: u64,
    /// `true` if the stability check ran and the leader stayed unique
    /// and unchanged throughout; `true` vacuously when the check was
    /// disabled.
    pub stable: bool,
}

/// An engine an election can step: the reads and the one move of
/// [`elect_on`]'s loop. [`Network`] implements it for every
/// [`LeaderElection`] protocol and [`BitEngine`] for every
/// [`BitModel`]; both count only alive nodes as leaders and beepers.
pub trait ElectionHost {
    /// Returns the number of nodes.
    fn node_count(&self) -> usize;
    /// Returns the current round number (0 before any step).
    fn round(&self) -> u64;
    /// Advances one synchronous round.
    fn step(&mut self);
    /// Returns the number of alive leaders.
    fn leader_count(&self) -> usize;
    /// Returns how many alive nodes beep in the current round (`|B_t|`).
    fn beeping_node_count(&self) -> usize;
    /// Returns the unique alive leader, or `None` if there are zero or
    /// several.
    fn unique_leader(&self) -> Option<NodeId>;
}

impl<P: LeaderElection> ElectionHost for Network<P> {
    fn node_count(&self) -> usize {
        Network::node_count(self)
    }
    fn round(&self) -> u64 {
        Network::round(self)
    }
    fn step(&mut self) {
        Network::step(self)
    }
    fn leader_count(&self) -> usize {
        Network::leader_count(self)
    }
    fn beeping_node_count(&self) -> usize {
        Network::beeping_node_count(self)
    }
    fn unique_leader(&self) -> Option<NodeId> {
        Network::unique_leader(self)
    }
}

impl<M: BitModel> ElectionHost for BitEngine<M> {
    fn node_count(&self) -> usize {
        BitEngine::node_count(self)
    }
    fn round(&self) -> u64 {
        BitEngine::round(self)
    }
    fn step(&mut self) {
        BitEngine::step(self)
    }
    fn leader_count(&self) -> usize {
        BitEngine::leader_count(self)
    }
    fn beeping_node_count(&self) -> usize {
        BitEngine::beeping_node_count(self)
    }
    fn unique_leader(&self) -> Option<NodeId> {
        BitEngine::unique_leader(self)
    }
}

/// Runs one complete leader election and reports the outcome.
///
/// Steps the network until exactly one node is in the leader set, then
/// (optionally) verifies stability for `config.stability_rounds` more
/// rounds.
///
/// The protocol picks the engine through
/// [`LeaderElection::elect`]: `bfw-core`'s `Bfw` elects on its bit
/// kernel (`BitNetwork`), every other protocol on the generic
/// [`Network`]. Both run the same loop ([`elect_on`]), and the bit
/// kernel reproduces `Network<Bfw>` byte-for-byte at a fixed seed, so
/// the outcome — `Err` included — is identical on either engine.
///
/// # Errors
///
/// * [`SimError::EmptyTopology`] — no nodes;
/// * [`SimError::Disconnected`] — leader election is only defined on
///   connected graphs;
/// * [`SimError::RoundBudgetExhausted`] — more than one leader after
///   `config.max_rounds` rounds.
///
/// The `bfw-core` crate's `Bfw` protocol is the canonical
/// [`LeaderElection`] input; see its crate-level example.
pub fn run_election<P: LeaderElection>(
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
    protocol.elect(topology, seed, config)
}

/// The election loop behind [`run_election`], on any engine: observes
/// rounds from the host's current one, adding up Σ |B_t|, stops at the
/// first round `T` with exactly one leader, then steps
/// `config.stability_rounds` more rounds while that leader stays the
/// only one.
///
/// It checks nothing about the topology; call [`run_election`] unless
/// you are implementing [`LeaderElection::elect`].
///
/// # Errors
///
/// [`SimError::RoundBudgetExhausted`] — more than one leader (or none)
/// when the host reaches round `config.max_rounds`.
pub fn elect_on<H: ElectionHost>(
    mut host: H,
    config: ElectionConfig,
) -> Result<ElectionOutcome, SimError> {
    // Σ |B_t| over the observed rounds t = 0..=T.
    let mut total_beeps = 0u64;
    let converged_round = loop {
        total_beeps += host.beeping_node_count() as u64;
        let leaders = host.leader_count();
        if leaders == 1 {
            break host.round();
        }
        if host.round() >= config.max_rounds {
            return Err(SimError::RoundBudgetExhausted {
                max_rounds: config.max_rounds,
                leaders_remaining: leaders,
            });
        }
        host.step();
    };
    let leader = host
        .unique_leader()
        .expect("the loop stops at exactly one leader");
    let stable = (0..config.stability_rounds).all(|_| {
        host.step();
        host.unique_leader() == Some(leader)
    });
    Ok(ElectionOutcome {
        converged_round,
        leader,
        node_count: host.node_count(),
        total_beeps,
        stable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BeepingProtocol, NodeCtx};
    use bfw_graph::{generators, Graph};

    /// Toy deterministic election: nodes count down from their id; the
    /// largest id converges last and wins.
    #[derive(Debug, Clone)]
    struct Countdown;

    impl BeepingProtocol for Countdown {
        type State = u32;

        fn initial_state(&self, ctx: NodeCtx) -> u32 {
            ctx.node.index() as u32
        }

        fn beeps(&self, _s: &u32) -> bool {
            false
        }

        fn transition(&self, s: &u32, _h: bool, _r: &mut dyn rand::RngCore) -> u32 {
            s.saturating_sub(1)
        }
    }

    impl LeaderElection for Countdown {
        fn is_leader(&self, s: &u32) -> bool {
            *s > 0
        }
    }

    #[test]
    fn election_converges_and_reports() {
        let out = run_election(
            Countdown,
            generators::path(5).into(),
            0,
            ElectionConfig::new(100).with_stability_check(0),
        )
        .unwrap();
        // Leaders at round t: nodes with id > t; single leader at round 3.
        assert_eq!(out.converged_round, 3);
        assert_eq!(out.leader, NodeId::new(4));
        assert_eq!(out.node_count, 5);
        assert_eq!(out.total_beeps, 0);
        assert!(out.stable);
    }

    #[test]
    fn stability_check_catches_unstable_protocol() {
        // Countdown's "leader" disappears entirely one round after
        // convergence (node 4 reaches 0 at round 4), so the stability
        // check must fail.
        let out = run_election(
            Countdown,
            generators::path(5).into(),
            0,
            ElectionConfig::new(100).with_stability_check(5),
        )
        .unwrap();
        assert!(!out.stable);
    }

    #[test]
    fn empty_topology_rejected() {
        let g = Graph::from_edges(0, []).unwrap();
        let err = run_election(Countdown, g.into(), 0, ElectionConfig::new(10)).unwrap_err();
        assert_eq!(err, SimError::EmptyTopology);
    }

    #[test]
    fn disconnected_topology_rejected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let err = run_election(Countdown, g.into(), 0, ElectionConfig::new(10)).unwrap_err();
        assert_eq!(err, SimError::Disconnected);
    }

    #[test]
    fn budget_exhaustion_reported() {
        /// Every node is a leader forever.
        #[derive(Debug, Clone)]
        struct Stubborn;
        impl BeepingProtocol for Stubborn {
            type State = ();
            fn initial_state(&self, _ctx: NodeCtx) {}
            fn beeps(&self, _s: &()) -> bool {
                false
            }
            fn transition(&self, _s: &(), _h: bool, _r: &mut dyn rand::RngCore) {}
        }
        impl LeaderElection for Stubborn {
            fn is_leader(&self, _s: &()) -> bool {
                true
            }
        }
        let err = run_election(
            Stubborn,
            generators::path(3).into(),
            0,
            ElectionConfig::new(5),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::RoundBudgetExhausted {
                max_rounds: 5,
                leaders_remaining: 3
            }
        );
    }

    #[test]
    fn single_node_converges_immediately() {
        let out = run_election(
            Countdown,
            generators::path(1).into(),
            0,
            ElectionConfig::new(10),
        );
        // Node 0 starts at state 0 — never a leader — so there is no
        // round with exactly one leader... the budget runs out.
        assert!(out.is_err());
        // With a 2-node path, node 1 is the unique leader at round 0.
        let out = run_election(
            Countdown,
            generators::path(2).into(),
            0,
            ElectionConfig::new(10),
        )
        .unwrap();
        assert_eq!(out.converged_round, 0);
    }
}
