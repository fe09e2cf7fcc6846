//! The runtime abstraction the engine drives.
//!
//! [`DynamicHost`] is the seam between the scenario engine and the
//! simulators in `bfw-sim`: anything that can step rounds, apply
//! topology deltas, mask nodes and report leaders can be perturbed by a
//! [`Timeline`](crate::Timeline). The beeping [`Network`], the
//! [`StoneAgeNetwork`], the recovery layer's network and the
//! asynchronous [`AsyncStoneAgeNetwork`] are all model adapters over
//! the shared [`TickEngine`], so a **single blanket impl** covers every
//! scalar runtime; the bit-parallel [`BitEngine`] gets its impl from
//! the same delegation. One scenario drives all models, and every fault
//! hook — crashes, topology deltas, perception noise — behaves
//! identically across them by construction.
//!
//! [`Network`]: bfw_sim::Network
//! [`StoneAgeNetwork`]: bfw_sim::stone_age::StoneAgeNetwork
//! [`AsyncStoneAgeNetwork`]: bfw_sim::stone_age::AsyncStoneAgeNetwork

use bfw_graph::{NodeId, Topology, TopologyDelta};
use bfw_sim::{
    BitEngine, BitModel, ComplexityLedger, EngineCheckpoint, FlightRecorder, LeaderModel,
    TickEngine,
};

/// A runtime the scenario engine can perturb mid-run.
///
/// "Round" is the host's own notion of time: synchronous hosts step
/// whole rounds, the asynchronous
/// [`AsyncStoneAgeNetwork`](bfw_sim::stone_age::AsyncStoneAgeNetwork)
/// steps single activations — so a timeline driving an asynchronous
/// host has its positions interpreted **in activations**.
pub trait DynamicHost {
    /// Per-node protocol state (for [`InjectState`] events).
    ///
    /// [`InjectState`]: crate::ScenarioEvent::InjectState
    type State: Clone;

    /// Number of nodes (fixed for the lifetime of the run; crashes mask
    /// nodes rather than removing them).
    fn node_count(&self) -> usize;

    /// Completed rounds.
    fn round(&self) -> u64;

    /// Advances one round (one activation on an asynchronous host).
    fn step(&mut self);

    /// Applies a batch of edge mutations to the communication graph in
    /// `O(deg)` per edge (the delta must be valid against the host's
    /// current edge set). Every engine edits an overlay of its
    /// topology; the bit kernel also patches its adjacency plan, and
    /// re-packs it in `O(n + m)` only once the patch outgrows a quarter
    /// of the plan.
    fn apply_delta(&mut self, delta: &TopologyDelta);

    /// Crashes a node (idempotent).
    fn crash(&mut self, u: NodeId);

    /// Recovers a crashed node into a fresh protocol-initial state
    /// (no-op on alive nodes).
    fn recover(&mut self, u: NodeId);

    /// Returns `true` if `u` is crashed.
    fn is_crashed(&self, u: NodeId) -> bool;

    /// Sets perception noise (false-negative, false-positive). Returns
    /// `false` if this runtime has no noise model (the event is then
    /// recorded as skipped).
    fn set_perception_noise(&mut self, false_negative: f64, false_positive: f64) -> bool;

    /// Replaces the whole configuration.
    fn set_states(&mut self, states: Vec<Self::State>);

    /// Identifiers of all alive leaders.
    fn leaders(&self) -> Vec<NodeId>;

    /// The alive leader when there is exactly one, `None` for zero or
    /// several — all the election monitor needs each round, without
    /// materializing the leader list.
    fn unique_leader(&self) -> Option<NodeId>;

    /// The host's **live** communication graph, in original labels:
    /// the one edge set a scenario run keeps. The engine checks every
    /// edge event against it before forwarding the delta, collects a
    /// partition's cut from it, and reads the final edge count off it;
    /// a snapshot materializes it.
    fn topology(&self) -> &Topology;

    /// Per-node states in original label order, and the engine
    /// checkpoint: crash mask, noise channels, per-node RNG stream
    /// positions and the async scheduler half. Everything a snapshot
    /// needs from the host.
    fn capture(&self) -> (Vec<Self::State>, EngineCheckpoint);

    /// Restores what [`capture`](Self::capture) returned. On the async
    /// engine the scheduler must already be installed: the checkpoint
    /// fast-forwards its stream.
    fn restore(&mut self, checkpoint: &EngineCheckpoint, states: Vec<Self::State>);

    /// Turns on complexity instrumentation (see
    /// [`bfw_sim::instrument`]), with a flight recorder of
    /// `recorder_capacity` events when one is given.
    fn enable_instrumentation(&mut self, recorder_capacity: Option<usize>);

    /// Returns `true` when the host's complexity instrumentation is on.
    /// The engine uses this to skip all trace bookkeeping — leader-set
    /// diffing, ledger snapshots — on untraced runs.
    fn instrumentation_enabled(&self) -> bool;

    /// Returns the host's accumulated complexity counters, if
    /// instrumentation is on.
    fn complexity_ledger(&self) -> Option<&ComplexityLedger>;

    /// Returns the host's flight recorder, if one is attached.
    fn flight_recorder(&self) -> Option<&FlightRecorder>;

    /// Records an event into the host's flight recorder, stamped with
    /// the host's own notion of time (rounds or activations). A no-op
    /// without a recorder — the engine calls this for every applied
    /// scenario event on an instrumented host.
    fn record_trace_event(&mut self, kind: &str, detail: String);
}

/// Every [`DynamicHost`] method, answered by the engine's inherent
/// method for the same job. Both engines embed the shared fault layer,
/// so each supports perception noise, and each exposes its current
/// topology, checkpoint and instrumentation seam.
macro_rules! shared_host_methods {
    ($engine:ident) => {
        type State = M::State;

        fn node_count(&self) -> usize {
            $engine::node_count(self)
        }

        fn round(&self) -> u64 {
            $engine::round(self)
        }

        fn step(&mut self) {
            $engine::step(self);
        }

        fn apply_delta(&mut self, delta: &TopologyDelta) {
            $engine::apply_topology_delta(self, delta);
        }

        fn crash(&mut self, u: NodeId) {
            $engine::crash_node(self, u);
        }

        fn recover(&mut self, u: NodeId) {
            $engine::recover_node(self, u);
        }

        fn is_crashed(&self, u: NodeId) -> bool {
            $engine::is_crashed(self, u)
        }

        fn set_perception_noise(&mut self, false_negative: f64, false_positive: f64) -> bool {
            $engine::set_noise(self, false_negative, false_positive);
            true
        }

        fn set_states(&mut self, states: Vec<M::State>) {
            $engine::set_states(self, states);
        }

        fn leaders(&self) -> Vec<NodeId> {
            $engine::leaders(self)
        }

        fn unique_leader(&self) -> Option<NodeId> {
            $engine::unique_leader(self)
        }

        fn topology(&self) -> &Topology {
            $engine::topology(self)
        }

        fn capture(&self) -> (Vec<M::State>, EngineCheckpoint) {
            (Vec::from(self.states()), $engine::checkpoint(self))
        }

        fn restore(&mut self, checkpoint: &EngineCheckpoint, states: Vec<M::State>) {
            $engine::restore_checkpoint(self, checkpoint, states);
        }

        fn enable_instrumentation(&mut self, recorder_capacity: Option<usize>) {
            $engine::enable_instrumentation(self, recorder_capacity);
        }

        fn instrumentation_enabled(&self) -> bool {
            $engine::instrumentation_enabled(self)
        }

        fn complexity_ledger(&self) -> Option<&ComplexityLedger> {
            $engine::complexity_ledger(self)
        }

        fn flight_recorder(&self) -> Option<&FlightRecorder> {
            $engine::flight_recorder(self)
        }

        fn record_trace_event(&mut self, kind: &str, detail: String) {
            $engine::record_trace_event(self, kind, detail);
        }
    };
}

impl<M: LeaderModel> DynamicHost for TickEngine<M> {
    shared_host_methods!(TickEngine);
}

impl<M: BitModel> DynamicHost for BitEngine<M> {
    shared_host_methods!(BitEngine);
}
