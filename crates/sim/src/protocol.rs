use crate::{ElectionConfig, ElectionOutcome, SimError, Topology};
use bfw_graph::NodeId;
use rand::RngCore;

/// Per-node construction context passed to
/// [`BeepingProtocol::initial_state`].
///
/// A *uniform* protocol in the paper's sense (Section 1.1) must ignore
/// everything in this struct: its initial state may not depend on the
/// node's identity nor on the size of the graph. The context exists so
/// that the *non-uniform* baselines (which the paper's Table 1 compares
/// against) can receive unique identifiers and `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCtx {
    /// The node being initialized. Protocols that use this as an
    /// identifier are not anonymous.
    pub node: NodeId,
    /// Number of nodes in the network. Protocols that use this are not
    /// uniform.
    pub node_count: usize,
}

/// A protocol for the beeping model: the probabilistic state machine
/// `M = (Q_ℓ, Q_b, q_s, δ⊥, δ⊤)` of the paper's Section 1.1.
///
/// * `Q_b` is encoded by [`beeps`](Self::beeps) returning `true`;
/// * `q_s` is [`initial_state`](Self::initial_state);
/// * [`transition`](Self::transition) is `δ⊤` when `heard` is `true` and
///   `δ⊥` otherwise. The executor computes `heard` exactly as the model
///   prescribes: a node "hears" in round `t` iff it beeps itself or at
///   least one neighbor beeps in round `t`.
///
/// Implementations should be cheap to clone and `Send + Sync` so that
/// Monte-Carlo runs can share them across threads.
pub trait BeepingProtocol {
    /// Per-node protocol state (a member of `Q_ℓ ∪ Q_b`).
    type State: Clone + PartialEq + std::fmt::Debug;

    /// Returns the initial state of a node. Uniform anonymous protocols
    /// ignore `ctx`.
    fn initial_state(&self, ctx: NodeCtx) -> Self::State;

    /// Returns `true` if `state` belongs to the beeping set `Q_b`.
    fn beeps(&self, state: &Self::State) -> bool;

    /// Samples the next state: `δ⊤(state)` if `heard`, else `δ⊥(state)`.
    ///
    /// By the model's definition, when `self.beeps(state)` is `true` the
    /// executor always passes `heard = true` (a beeping node hears its
    /// own beep).
    fn transition(&self, state: &Self::State, heard: bool, rng: &mut dyn RngCore) -> Self::State;
}

/// A beeping protocol that designates a leader subset `L ⊆ Q` of its
/// states (Definition 1 of the paper).
///
/// Eventual leader election is solved when, from some round `T` on,
/// exactly one node's state lies in `L`.
pub trait LeaderElection: BeepingProtocol {
    /// Returns `true` if `state` belongs to the leader set `L`.
    fn is_leader(&self, state: &Self::State) -> bool;

    /// Runs one election from round 0 on the engine this protocol
    /// elects on; [`run_election`](crate::run_election) checks the
    /// topology, then calls this.
    ///
    /// The default hands [`elect_on`](crate::elect_on) the generic
    /// `Network::new(self, topology, seed)`. Override it only with an
    /// engine that reproduces that network byte-for-byte at every seed
    /// (the same leaders and beeps in every round), so the outcome
    /// cannot depend on the engine: `bfw-core`'s `Bfw` elects on its
    /// bit kernel this way.
    ///
    /// # Errors
    ///
    /// [`SimError::RoundBudgetExhausted`] — see
    /// [`elect_on`](crate::elect_on).
    fn elect(
        self,
        topology: Topology,
        seed: u64,
        config: ElectionConfig,
    ) -> Result<ElectionOutcome, SimError>
    where
        Self: Sized,
    {
        crate::elect_on(crate::Network::new(self, topology, seed), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A protocol that alternates beep/listen deterministically; used to
    /// exercise the trait plumbing.
    #[derive(Debug, Clone)]
    struct Blinker;

    impl BeepingProtocol for Blinker {
        type State = bool;

        fn initial_state(&self, ctx: NodeCtx) -> bool {
            // Odd nodes start beeping (non-uniform on purpose for the
            // test).
            ctx.node.index() % 2 == 1
        }

        fn beeps(&self, state: &bool) -> bool {
            *state
        }

        fn transition(&self, state: &bool, _heard: bool, _rng: &mut dyn RngCore) -> bool {
            !state
        }
    }

    impl LeaderElection for Blinker {
        fn is_leader(&self, state: &bool) -> bool {
            *state
        }
    }

    #[test]
    fn trait_methods_work_through_generics() {
        fn exercise<P: LeaderElection>(p: &P, ctx: NodeCtx) -> (bool, bool) {
            let s = p.initial_state(ctx);
            (p.beeps(&s), p.is_leader(&s))
        }
        let ctx = NodeCtx {
            node: NodeId::new(3),
            node_count: 10,
        };
        assert_eq!(exercise(&Blinker, ctx), (true, true));
        let ctx0 = NodeCtx {
            node: NodeId::new(0),
            node_count: 10,
        };
        assert_eq!(exercise(&Blinker, ctx0), (false, false));
    }

    #[test]
    fn transition_through_dyn_rng() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let next = Blinker.transition(&true, true, &mut rng);
        assert!(!next);
    }
}
