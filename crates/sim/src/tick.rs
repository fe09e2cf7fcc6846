//! The shared tick engine: one fault substrate and one step loop for
//! every scalar runtime.
//!
//! The paper's point is that a single minimalist protocol family runs
//! unchanged across weak models; this module is the executor-side
//! mirror of that claim. [`TickEngine`] owns everything that is *not*
//! model-specific — the topology (including delta-applied dynamic
//! topology), the crash bitmask, the per-node ChaCha streams, the
//! two-channel perception-noise model, the tick counter, checkpoints
//! and the instrumentation seam — and a [`TickModel`] contributes only
//! what a communication model actually defines: what one tick does.
//! For the beeping [`Network`](crate::Network), the stone-age
//! [`StoneAgeNetwork`](crate::stone_age::StoneAgeNetwork) and the
//! recovery layer's [`SlotSyncedModel`](crate::SlotSyncedModel) a tick
//! is one synchronous round; for the asynchronous
//! [`AsyncStoneAgeNetwork`](crate::stone_age::AsyncStoneAgeNetwork) it
//! is one scheduler pick and one activation. All of them are thin
//! aliases over this engine, so crash masking, topology swapping, noise
//! and complexity accounting each exist in exactly one place and behave
//! identically across models. (The bit-parallel
//! [`BitEngine`](crate::BitEngine) is the one other kernel.)
//!
//! Determinism contract: node `i` draws from a ChaCha8 stream carved
//! deterministically out of the run seed, exactly as the pre-engine
//! runtimes did (see the `tick_engine_equivalence` and
//! `activation_engine_equivalence` workspace tests for the pinned
//! traces). Zero-probability noise channels draw nothing.

use crate::fault::FaultLayer;
use crate::instrument::{ComplexityLedger, FlightRecorder, Instrumentation, RoundSample};
use crate::snapshot::{EngineCheckpoint, SchedulerCheckpoint};
use crate::{NodeCtx, Topology};
use bfw_graph::{NodeId, TopologyDelta};

/// A communication model, pluggable into [`TickEngine`].
///
/// A model owns the protocol and its emission caches (beep flags,
/// displayed symbols, …) and defines what one tick does; the engine
/// owns everything else. Implementations:
/// [`BeepingModel`](crate::BeepingModel),
/// [`StoneAgeModel`](crate::stone_age::StoneAgeModel) and
/// [`SlotSyncedModel`](crate::SlotSyncedModel) (a tick is one
/// synchronous round), and
/// [`AsyncStoneAgeModel`](crate::stone_age::AsyncStoneAgeModel) (a tick
/// is one activation of one scheduler-picked node).
pub trait TickModel {
    /// Per-node protocol state.
    type State: Clone + PartialEq + std::fmt::Debug;

    /// Returns the protocol's initial state for one node.
    fn initial_state(&self, ctx: NodeCtx) -> Self::State;

    /// Sizes the model's per-node emission caches for `n` nodes.
    fn init_caches(&mut self, n: usize);

    /// Refreshes node `i`'s emission cache after its state or crash
    /// flag changed.
    fn refresh_node(&mut self, i: usize, state: &Self::State, crashed: bool);

    /// Normalizes an externally supplied state before it is installed
    /// (the engine calls this from
    /// [`set_node_state`](TickEngine::set_node_state) and
    /// [`set_states`](TickEngine::set_states)). The default is a no-op;
    /// models whose states carry engine-global bookkeeping — e.g. the
    /// recovery layer's slot parity, which must match the global round
    /// — override it so scenario state injection cannot desynchronize
    /// a node.
    fn adopt_state(&self, _state: &mut Self::State) {}

    /// Executes one tick in place: perceive the cached emissions over
    /// `topology` (honoring the crash mask and noise channels in
    /// `faults`), transition the nodes the tick moves using their RNG
    /// streams, and refresh the emission caches.
    ///
    /// `sample` is given on an instrumented engine: the model then
    /// writes what the tick transmitted and perceived into it (see
    /// [`crate::instrument`] for the accounting conventions), reading
    /// only caches it maintains anyway — never drawing from an RNG
    /// stream. A model that does not sample leaves it all-zero.
    ///
    /// Returns `false` when the tick could move no node at all (an
    /// asynchronous model whose nodes are all crashed): the engine
    /// still counts the tick, but records no ledger step.
    fn advance(
        &mut self,
        topology: &Topology,
        states: &mut [Self::State],
        faults: &mut FaultLayer,
        sample: Option<&mut RoundSample>,
    ) -> bool;

    /// Rebuilds any topology-derived caches the sampler keeps (e.g. the
    /// beeping model's per-node degree cache for message accounting).
    /// The engine calls this when instrumentation is switched on, and
    /// after every topology mutation **while instrumentation is on** —
    /// never on the uninstrumented path, so churn stays `O(deg)` per
    /// edge when nobody is counting. The default is a no-op.
    fn refresh_sampler_caches(&mut self, _topology: &Topology) {}

    /// The model's own half of the engine checkpoint: the asynchronous
    /// scheduler's. Synchronous models have none (the default).
    fn scheduler_checkpoint(&self) -> Option<SchedulerCheckpoint> {
        None
    }

    /// Restores what [`scheduler_checkpoint`](Self::scheduler_checkpoint)
    /// returned.
    ///
    /// # Panics
    ///
    /// The default panics on a scheduler half: synchronous models have
    /// no scheduler.
    fn restore_scheduler(&mut self, checkpoint: Option<&SchedulerCheckpoint>) {
        assert!(
            checkpoint.is_none(),
            "synchronous engines have no scheduler state"
        );
    }
}

/// A [`TickModel`] whose protocol designates a leader subset of its
/// states — the seam the scenario engine's election metrics need.
pub trait LeaderModel: TickModel {
    /// Returns `true` if `state` belongs to the protocol's leader set.
    fn is_leader(&self, state: &Self::State) -> bool;
}

/// Executor generic over the communication model, one tick at a time.
///
/// Use the model-specific aliases and constructors —
/// [`Network`](crate::Network) for the beeping model,
/// [`StoneAgeNetwork`](crate::stone_age::StoneAgeNetwork) for the
/// stone-age model,
/// [`AsyncStoneAgeNetwork`](crate::stone_age::AsyncStoneAgeNetwork) for
/// its asynchronous variant; everything documented here is shared
/// verbatim by all of them. "Round" is the engine's tick count: rounds
/// for the synchronous models, activations for the asynchronous one.
#[derive(Debug, Clone)]
pub struct TickEngine<M: TickModel> {
    pub(crate) model: M,
    pub(crate) topology: Topology,
    pub(crate) states: Vec<M::State>,
    pub(crate) faults: FaultLayer,
    pub(crate) round: u64,
    pub(crate) instr: Instrumentation,
}

impl<M: TickModel> TickEngine<M> {
    /// Builds an engine in round 0 from a model, an explicit
    /// configuration and the fault layer carved for it (see
    /// [`FaultLayer::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the topology's node count.
    pub(crate) fn from_parts(
        mut model: M,
        topology: Topology,
        faults: FaultLayer,
        states: Vec<M::State>,
    ) -> Self {
        let n = topology.node_count();
        assert_eq!(states.len(), n, "one state per node is required");
        model.init_caches(n);
        for (i, s) in states.iter().enumerate() {
            model.refresh_node(i, s, false);
        }
        TickEngine {
            model,
            topology,
            states,
            faults,
            round: 0,
            instr: Instrumentation::off(),
        }
    }

    /// Builds an engine in round 0 with every node in the model's
    /// initial state.
    pub(crate) fn from_model(model: M, topology: Topology, faults: FaultLayer) -> Self {
        let n = topology.node_count();
        let states = (0..n)
            .map(|i| {
                model.initial_state(NodeCtx {
                    node: NodeId::new(i),
                    node_count: n,
                })
            })
            .collect();
        Self::from_parts(model, topology, faults, states)
    }

    /// Returns the number of nodes.
    pub fn node_count(&self) -> usize {
        self.states.len()
    }

    /// Returns the current round number (0 before any step).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Returns the topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Returns the current state of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn state(&self, u: NodeId) -> &M::State {
        &self.states[u.index()]
    }

    /// Returns all node states, indexed by node.
    pub fn states(&self) -> &[M::State] {
        &self.states
    }

    /// Advances one tick: a synchronous round, or one asynchronous
    /// activation.
    pub fn step(&mut self) {
        let mut sample = self.instr.is_on().then(RoundSample::default);
        let moved = self.model.advance(
            &self.topology,
            &mut self.states,
            &mut self.faults,
            sample.as_mut(),
        );
        if let (true, Some(sample)) = (moved, sample) {
            self.instr
                .record_step(sample, self.states.len(), std::mem::size_of::<M::State>());
        }
        self.round += 1;
    }

    /// Advances `rounds` ticks.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Replaces the communication topology mid-run (the scenario
    /// engine's partition hook and the rebuild-per-event baseline).
    /// States, RNG streams and the round counter are untouched; the new
    /// adjacency takes effect from the next [`step`](Self::step). For
    /// incremental edge churn prefer
    /// [`apply_topology_delta`](Self::apply_topology_delta).
    ///
    /// # Panics
    ///
    /// Panics if the new topology's node count differs from the
    /// network's.
    pub fn set_topology(&mut self, topology: Topology) {
        assert_eq!(
            topology.node_count(),
            self.states.len(),
            "topology mutation must preserve the node count"
        );
        self.topology = topology;
        if self.instr.is_on() {
            self.model.refresh_sampler_caches(&self.topology);
        }
    }

    /// Applies a batch of edge mutations to the topology in `O(deg)`
    /// per edge instead of rebuilding the CSR — the scenario engine's
    /// edge-churn hook. The first delta converts the topology into its
    /// delta-overlay form (one `O(n + m)` conversion; cliques are
    /// materialized); subsequent deltas are incremental with periodic
    /// compaction.
    ///
    /// # Panics
    ///
    /// Panics if the delta removes an absent edge or adds a present one
    /// (see [`bfw_graph::OverlayGraph::apply`]).
    pub fn apply_topology_delta(&mut self, delta: &TopologyDelta) {
        self.topology.apply_delta(delta);
        if self.instr.is_on() {
            self.model.refresh_sampler_caches(&self.topology);
        }
    }

    /// Crashes node `u`: from now on it emits nothing, ignores its
    /// environment and performs no transitions (its RNG stream is
    /// paused, not consumed). Crashing an already-crashed node is a
    /// no-op.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn crash_node(&mut self, u: NodeId) {
        let i = u.index();
        self.faults.crash(i);
        self.model.refresh_node(i, &self.states[i], true);
    }

    /// Recovers node `u` with a **fresh protocol-initial state** (for
    /// BFW: `W•` — the recovering node rejoins as a leader candidate, as
    /// a newly booted device would). No-op on nodes that are not
    /// crashed.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn recover_node(&mut self, u: NodeId) {
        let i = u.index();
        if !self.faults.recover(i) {
            return;
        }
        self.states[i] = self.model.initial_state(NodeCtx {
            node: u,
            node_count: self.states.len(),
        });
        self.model.refresh_node(i, &self.states[i], false);
    }

    /// Returns `true` if `u` is currently crashed.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn is_crashed(&self, u: NodeId) -> bool {
        self.faults.is_crashed(u.index())
    }

    /// Returns the crash flags, indexed by node.
    pub fn crash_flags(&self) -> &[bool] {
        self.faults.flags()
    }

    /// Returns the number of non-crashed nodes.
    pub fn alive_count(&self) -> usize {
        self.faults.alive_count()
    }

    /// Sets both perception-noise probabilities at once: a perceived
    /// signal is lost with probability `false_negative` and hallucinated
    /// with probability `false_positive`. In the beeping model the
    /// signal is "some neighbor beeped"; in the stone-age model it is
    /// the presence of each non-quiescent symbol (see
    /// [`StoneAgeModel`](crate::stone_age::StoneAgeModel)).
    ///
    /// This is the mutation hook used by the scenario engine's
    /// `NoiseBurst` events; `(0, 0)` restores the exact model (the next
    /// rounds draw no extra randomness).
    ///
    /// # Panics
    ///
    /// Panics if either probability is not in `[0, 1)`.
    pub fn set_noise(&mut self, false_negative: f64, false_positive: f64) {
        self.faults.set_noise(false_negative, false_positive);
    }

    /// Returns the false-negative (lost-signal) probability — for the
    /// beeping model, the hearing-failure probability (0 for the exact
    /// model).
    pub fn hearing_failure_prob(&self) -> f64 {
        self.faults.false_negative()
    }

    /// Returns the false-positive (hallucinated-signal) probability —
    /// for the beeping model, the spurious-beep probability (0 for the
    /// exact model).
    pub fn spurious_beep_prob(&self) -> f64 {
        self.faults.false_positive()
    }

    /// Overwrites the state of node `u` (the scenario engine's
    /// state-injection hook).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_node_state(&mut self, u: NodeId, state: M::State) {
        let i = u.index();
        let mut state = state;
        self.model.adopt_state(&mut state);
        self.states[i] = state;
        self.model
            .refresh_node(i, &self.states[i], self.faults.is_crashed(i));
    }

    /// Replaces the whole configuration (crashed nodes keep their crash
    /// mask and stay silent).
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the node count.
    pub fn set_states(&mut self, states: Vec<M::State>) {
        assert_eq!(
            states.len(),
            self.states.len(),
            "one state per node is required"
        );
        self.states = states;
        for s in &mut self.states {
            self.model.adopt_state(s);
        }
        for (i, s) in self.states.iter().enumerate() {
            self.model.refresh_node(i, s, self.faults.is_crashed(i));
        }
    }

    /// Captures the engine's checkpoint — round counter, crash mask,
    /// noise channels, per-node RNG stream positions and the model's
    /// scheduler half, if it has one (see [`EngineCheckpoint`]). Node
    /// states and topology are captured separately through
    /// [`states`](Self::states) and [`topology`](Self::topology).
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let n = self.states.len();
        EngineCheckpoint {
            steps: self.round,
            crashed: self.faults.flags().to_vec(),
            false_negative: self.faults.false_negative(),
            false_positive: self.faults.false_positive(),
            rng_positions: (0..n).map(|i| self.faults.rng_position(i)).collect(),
            scheduler: self.model.scheduler_checkpoint(),
        }
    }

    /// Restores a checkpoint taken by [`checkpoint`](Self::checkpoint)
    /// on an engine built from the **same seed** (stream keys are
    /// re-carved from the seed; only positions are restored). The crash
    /// mask is installed before `states`, so the model's emission
    /// caches refresh against the restored flags; the caller installs
    /// the checkpointed topology separately (before or after — the next
    /// [`step`](Self::step) reads both). An asynchronous engine must
    /// have the checkpointed run's scheduler installed first: the
    /// installation re-draws the replay permutation, and the restore
    /// then fast-forwards the scheduler stream past it.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's node count or `states.len()` differs
    /// from the engine's, or if the checkpoint's scheduler half does not
    /// fit the model (present on a synchronous engine, missing on an
    /// asynchronous one).
    pub fn restore_checkpoint(&mut self, cp: &EngineCheckpoint, states: Vec<M::State>) {
        let n = self.states.len();
        assert_eq!(cp.node_count(), n, "checkpoint node count must match");
        self.model.restore_scheduler(cp.scheduler.as_ref());
        self.faults.set_noise(cp.false_negative, cp.false_positive);
        for i in 0..n {
            self.faults
                .restore_node(i, cp.crashed[i], cp.rng_positions[i]);
        }
        self.set_states(states);
        self.round = cp.steps;
    }

    /// Turns complexity accounting on: from the next
    /// [`step`](Self::step) the engine accumulates a
    /// [`ComplexityLedger`] (one entry per tick that moved a node), and —
    /// when `recorder_capacity` is given —
    /// retains the last that many [`TraceEvent`](crate::TraceEvent)s in
    /// a [`FlightRecorder`]. Instrumentation is purely passive (no RNG
    /// draws, no reordering), so enabling it never changes an
    /// execution; disabled engines pay one branch per step.
    pub fn enable_instrumentation(&mut self, recorder_capacity: Option<usize>) {
        self.instr.enable(recorder_capacity);
        self.model.refresh_sampler_caches(&self.topology);
    }

    /// Returns `true` if complexity accounting is on.
    pub fn instrumentation_enabled(&self) -> bool {
        self.instr.is_on()
    }

    /// Returns the accumulated complexity counters, if instrumentation
    /// is on.
    pub fn complexity_ledger(&self) -> Option<&ComplexityLedger> {
        self.instr.ledger()
    }

    /// Returns the flight recorder, if one was attached.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.instr.recorder()
    }

    /// Records an event into the flight recorder, stamped with the
    /// current round (no-op unless a recorder is attached).
    pub fn record_trace_event(&mut self, kind: &str, detail: impl Into<String>) {
        let round = self.round;
        self.instr.record_event(round, kind, detail);
    }
}

impl<M: LeaderModel> TickEngine<M> {
    /// Returns the number of **alive** nodes whose state lies in the
    /// leader set (a crashed node cannot act as a leader).
    pub fn leader_count(&self) -> usize {
        self.states
            .iter()
            .zip(self.faults.flags())
            .filter(|(s, &c)| !c && self.model.is_leader(s))
            .count()
    }

    /// Returns the identifiers of all current (alive) leaders.
    pub fn leaders(&self) -> Vec<NodeId> {
        self.states
            .iter()
            .zip(self.faults.flags())
            .enumerate()
            .filter(|(_, (s, &c))| !c && self.model.is_leader(s))
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Returns the unique (alive) leader, or `None` if there are zero or
    /// several leaders.
    pub fn unique_leader(&self) -> Option<NodeId> {
        let mut found = None;
        for (i, (s, &c)) in self.states.iter().zip(self.faults.flags()).enumerate() {
            if !c && self.model.is_leader(s) {
                if found.is_some() {
                    return None;
                }
                found = Some(NodeId::new(i));
            }
        }
        found
    }
}
