//! Slot-synchronized execution for phase-multiplexed protocols.
//!
//! Protocols that multiplex logical channels over round parity (the
//! recovery layer in `bfw-core` alternates election and heartbeat
//! slots) carry a slot-parity bit in their per-node state. Under a
//! plain [`Network`](crate::Network) that bit is correct only while
//! every node has run since round 0: a node recovered mid-run, or a
//! configuration injected by a scenario, would restart at parity 0 and
//! desynchronize from the rest of the network — silently corrupting
//! both channels.
//!
//! [`SlotSyncedModel`] closes that hole: it is a [`TickModel`] that
//! wraps the beeping model and keeps the **global round counter** as
//! the single authority for slot parity. Every state that enters the
//! engine from outside the round loop — fresh initial states, states of
//! recovering nodes, scenario-injected configurations — has its parity
//! stamped from the global round via the [`SlotAware`] seam, so the
//! network can never split into disagreeing slot phases.

use crate::fault::FaultLayer;
use crate::instrument::RoundSample;
use crate::network::BeepingModel;
use crate::tick::{LeaderModel, TickEngine, TickModel};
use crate::{BeepingProtocol, LeaderElection, NodeCtx, Topology};

/// A protocol state that carries a round clock (slot parity and
/// restart-window position), settable by the runtime (implemented by
/// `bfw-core`'s `RecoveryState`).
pub trait SlotAware {
    /// Overwrites the state's round clock with the global round this
    /// state will act in next. Implementations typically keep the low
    /// bit as the slot parity and low bits modulo a power of two as a
    /// schedule position, so a wrapping 32-bit clock is sufficient.
    fn sync_clock(&mut self, round: u64);
}

/// The [`TickModel`] executing a slot-multiplexed beeping protocol with
/// the global round as the slot-parity authority: every state entering
/// the engine from outside the round loop (initial, recovered,
/// injected) has its round clock stamped via [`SlotAware`], so the
/// network can never split into disagreeing slot phases.
#[derive(Debug, Clone)]
pub struct SlotSyncedModel<P: BeepingProtocol>
where
    P::State: SlotAware,
{
    inner: BeepingModel<P>,
    round: u64,
}

impl<P: BeepingProtocol> TickModel for SlotSyncedModel<P>
where
    P::State: SlotAware,
{
    type State = P::State;

    fn initial_state(&self, ctx: NodeCtx) -> P::State {
        let mut state = self.inner.protocol.initial_state(ctx);
        state.sync_clock(self.round);
        state
    }

    fn init_caches(&mut self, n: usize) {
        self.inner.init_caches(n);
    }

    fn refresh_node(&mut self, i: usize, state: &P::State, crashed: bool) {
        self.inner.refresh_node(i, state, crashed);
    }

    fn adopt_state(&self, state: &mut P::State) {
        state.sync_clock(self.round);
    }

    // Slot multiplexing changes what the bits mean, not how many cross
    // the channel: the wrapped beeping model samples the round.
    fn advance(
        &mut self,
        topology: &Topology,
        states: &mut [P::State],
        faults: &mut FaultLayer,
        sample: Option<&mut RoundSample>,
    ) -> bool {
        let moved = self.inner.advance(topology, states, faults, sample);
        self.round += 1;
        moved
    }

    fn refresh_sampler_caches(&mut self, topology: &Topology) {
        self.inner.refresh_sampler_caches(topology);
    }
}

impl<P: LeaderElection> LeaderModel for SlotSyncedModel<P>
where
    P::State: SlotAware,
{
    fn is_leader(&self, state: &P::State) -> bool {
        self.inner.protocol.is_leader(state)
    }
}

impl<P: BeepingProtocol> TickEngine<SlotSyncedModel<P>>
where
    P::State: SlotAware,
{
    /// Creates a slot-synchronized network in round 0 with every node
    /// in its initial state (mirrors [`Network::new`](crate::Network)).
    pub fn new(protocol: P, topology: Topology, seed: u64) -> Self {
        let faults = FaultLayer::new(topology.node_count(), seed);
        TickEngine::from_model(
            SlotSyncedModel {
                inner: BeepingModel::new(protocol),
                round: 0,
            },
            topology,
            faults,
        )
    }

    /// Creates a slot-synchronized network from an explicit
    /// configuration (mirrors
    /// [`Network::with_states`](crate::Network)). The states' slot
    /// parity is stamped for round 0.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the topology's node count.
    pub fn with_states(
        protocol: P,
        topology: Topology,
        seed: u64,
        mut states: Vec<P::State>,
    ) -> Self {
        for s in &mut states {
            s.sync_clock(0);
        }
        let faults = FaultLayer::new(topology.node_count(), seed);
        TickEngine::from_parts(
            SlotSyncedModel {
                inner: BeepingModel::new(protocol),
                round: 0,
            },
            topology,
            faults,
            states,
        )
    }

    /// Returns the protocol driving this network.
    pub fn protocol(&self) -> &P {
        &self.model.inner.protocol
    }
}
