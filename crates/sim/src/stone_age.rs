//! The stone-age model (Emek & Wattenhofer, PODC 2013), synchronous
//! and asynchronous, as two model adapters over the shared
//! [`TickEngine`]: [`StoneAgeNetwork`] steps every node once per tick,
//! [`AsyncStoneAgeNetwork`] one scheduler-picked node per tick.
//!
//! In the stone-age model, each node displays a symbol from a finite
//! alphabet `Σ`. When activated, a node observes, for every symbol
//! `σ ∈ Σ`, the number of neighbors currently displaying `σ` — but only
//! up to a fixed threshold `b ≥ 1` ("one-two-many" counting). The
//! paper remarks (Section 1) that BFW "can also be implemented in a
//! synchronous version of the stone-age model"; this module provides
//! that synchronous runtime and the [`BeepingAsStoneAge`] adapter that
//! proves the claim executable: with alphabet `{silent, beep}` and
//! `b = 1`, the adapter reproduces beeping-model executions
//! bit-for-bit (see the `model_equivalence` integration test) — now
//! including crash masking and perception noise, because both live in
//! the engine's shared fault layer rather than in either runtime.
//!
//! # Perception noise
//!
//! The engine's two noise channels act on the **presence bit** of each
//! non-quiescent symbol channel: for an alive node `u` and each symbol
//! `σ ≥ 1` that `u` is not itself displaying, an observed `σ` (clamped
//! count ≥ 1) is lost with probability `fn` (the count reads 0) and an
//! unobserved `σ` is hallucinated with probability `fp` (the count
//! reads 1). Symbol 0 is the conventional quiescent symbol and is
//! noise-free, and a node's own displayed symbol cannot be missed or
//! hallucinated — the stone-age analogue of "a node always registers
//! its own beep". Under the [`BeepingAsStoneAge`] adapter this
//! reproduces the beeping noise model draw-for-draw.
//!
//! # Example
//!
//! ```
//! use bfw_sim::stone_age::{StoneAgeNetwork, BeepingAsStoneAge};
//! use bfw_sim::{BeepingProtocol, NodeCtx};
//! use bfw_graph::generators;
//!
//! #[derive(Debug, Clone)]
//! struct AlwaysBeep;
//! impl BeepingProtocol for AlwaysBeep {
//!     type State = ();
//!     fn initial_state(&self, _ctx: NodeCtx) {}
//!     fn beeps(&self, _s: &()) -> bool { true }
//!     fn transition(&self, _s: &(), heard: bool, _r: &mut dyn rand::RngCore) {
//!         assert!(heard);
//!     }
//! }
//!
//! let adapter = BeepingAsStoneAge::new(AlwaysBeep);
//! let mut net = StoneAgeNetwork::new(adapter, generators::cycle(6).into(), 3);
//! net.step();
//! assert_eq!(net.round(), 1);
//! ```

use crate::activation::{Scheduler, SchedulerState};
use crate::fault::FaultLayer;
use crate::instrument::{bits_per_symbol, fanout, RoundSample};
use crate::snapshot::SchedulerCheckpoint;
use crate::tick::{LeaderModel, TickEngine, TickModel};
use crate::{BeepingProtocol, LeaderElection, NodeCtx, Topology};
use bfw_graph::NodeId;
use rand::RngCore;

/// A protocol for the synchronous stone-age model.
///
/// Symbols are represented as `usize` indices in
/// `0..`[`alphabet_size`](Self::alphabet_size). By convention symbol 0
/// is the quiescent symbol (exempt from perception noise).
pub trait StoneAgeProtocol {
    /// Per-node state.
    type State: Clone + PartialEq + std::fmt::Debug;

    /// Number of symbols in the display alphabet `Σ`.
    fn alphabet_size(&self) -> usize;

    /// The counting threshold `b ≥ 1`: observations are clamped to
    /// `min(count, b)`.
    fn counting_threshold(&self) -> u8 {
        1
    }

    /// Returns the initial state of a node.
    fn initial_state(&self, ctx: NodeCtx) -> Self::State;

    /// Returns the symbol a node in `state` displays.
    fn displayed_symbol(&self, state: &Self::State) -> usize;

    /// Samples the next state given the clamped per-symbol neighbor
    /// counts: `observed[σ] = min(#neighbors displaying σ, b)`.
    fn transition(
        &self,
        state: &Self::State,
        observed: &[u8],
        rng: &mut dyn RngCore,
    ) -> Self::State;
}

/// Synchronous executor of a [`StoneAgeProtocol`] on a [`Topology`]:
/// the stone-age adapter over the shared [`TickEngine`].
///
/// Mirrors [`Network`](crate::Network): all nodes observe the displayed
/// symbols of round `t` and transition simultaneously to round `t + 1`.
/// Crash masking, dynamic topology (including
/// [`apply_topology_delta`](TickEngine::apply_topology_delta)) and
/// perception noise ([`set_noise`](TickEngine::set_noise)) come from
/// the engine and behave identically to the beeping runtime.
pub type StoneAgeNetwork<P> = TickEngine<StoneAgeModel<P>>;

/// The stone-age communication model: nodes display alphabet symbols; a
/// node perceives per-symbol neighbor counts clamped at the threshold.
///
/// This is the [`TickModel`] behind [`StoneAgeNetwork`]; it owns the
/// protocol, the displayed-symbol cache and the observation scratch.
#[derive(Debug, Clone)]
pub struct StoneAgeModel<P: StoneAgeProtocol> {
    protocol: P,
    symbols: Vec<usize>,
    observed: Vec<u8>,
}

impl<P: StoneAgeProtocol> StoneAgeModel<P> {
    fn new(protocol: P) -> Self {
        StoneAgeModel {
            protocol,
            symbols: Vec::new(),
            observed: Vec::new(),
        }
    }

    fn tally(&mut self, v: usize, b: u8, sigma: usize) {
        let s = self.symbols[v];
        assert!(
            s < sigma,
            "displayed symbol {s} outside alphabet of size {sigma}"
        );
        if self.observed[s] < b {
            self.observed[s] += 1;
        }
    }

    /// Applies the presence-bit noise channels to node `u`'s
    /// observation vector (see the module docs).
    fn apply_noise(&mut self, u: usize, faults: &mut FaultLayer) {
        apply_presence_noise(self.symbols[u], &mut self.observed, u, faults);
    }
}

/// The presence-bit noise rule shared by the synchronous and
/// asynchronous stone-age models: for each non-quiescent symbol `s ≥ 1`
/// that node `u` is not itself displaying (`own`), the observed
/// presence bit passes through the fault layer's two noise channels —
/// lost with probability `fn`, hallucinated with probability `fp`.
/// Symbol 0 is the conventional quiescent symbol and is noise-free, and
/// a node's own displayed symbol cannot be missed or hallucinated.
fn apply_presence_noise(own: usize, observed: &mut [u8], u: usize, faults: &mut FaultLayer) {
    for (s, slot) in observed.iter_mut().enumerate().skip(1) {
        if s == own {
            continue;
        }
        let present = *slot > 0;
        let filtered = faults.filter_signal(u, present);
        if filtered != present {
            *slot = u8::from(filtered);
        }
    }
}

impl<P: StoneAgeProtocol> TickModel for StoneAgeModel<P> {
    type State = P::State;

    fn initial_state(&self, ctx: NodeCtx) -> P::State {
        self.protocol.initial_state(ctx)
    }

    fn init_caches(&mut self, n: usize) {
        self.symbols = vec![0; n];
    }

    fn refresh_node(&mut self, i: usize, state: &P::State, _crashed: bool) {
        // Crash visibility is enforced at observation time (a crashed
        // node's symbol is skipped), so the cache always mirrors the
        // state.
        self.symbols[i] = self.protocol.displayed_symbol(state);
    }

    // Unlike the beeping model, `symbols` always mirrors the states even
    // for crashed nodes (crash visibility is enforced at observation
    // time), so the sampler re-checks alive-ness. A transmission is any
    // alive node displaying a non-quiescent symbol; each carries
    // ⌈log₂ |Σ|⌉ bits. The per-symbol observation scratch is reused
    // across nodes, so per-node perception events are not recorded: the
    // ledger's `beeps_heard` column reads 0 for stone-age runs.
    fn advance(
        &mut self,
        topology: &Topology,
        states: &mut [P::State],
        faults: &mut FaultLayer,
        sample: Option<&mut RoundSample>,
    ) -> bool {
        let sigma = self.protocol.alphabet_size();
        let b = self.protocol.counting_threshold();
        assert!(b >= 1, "counting threshold must be at least 1");
        if let Some(sample) = sample {
            let (emitters, messages) =
                fanout(topology, |i| self.symbols[i] != 0 && !faults.is_crashed(i));
            *sample = RoundSample {
                emitters,
                heard: 0,
                bits: emitters * bits_per_symbol(sigma),
                messages,
            };
        }
        self.observed.resize(sigma, 0);
        let noisy = faults.has_noise();
        match topology {
            Topology::Clique(_) => {
                // Count each symbol globally once (alive nodes only),
                // then per node subtract its own contribution —
                // O(n·|Σ|) instead of O(n²).
                let mut totals = vec![0usize; sigma];
                for (u, &s) in self.symbols.iter().enumerate() {
                    assert!(
                        s < sigma,
                        "displayed symbol {s} outside alphabet of size {sigma}"
                    );
                    if !faults.is_crashed(u) {
                        totals[s] += 1;
                    }
                }
                for (u, state) in states.iter_mut().enumerate() {
                    if faults.is_crashed(u) {
                        continue;
                    }
                    for (s, &total) in totals.iter().enumerate() {
                        let count = total - usize::from(self.symbols[u] == s);
                        self.observed[s] = count.min(b as usize) as u8;
                    }
                    if noisy {
                        self.apply_noise(u, faults);
                    }
                    *state = self
                        .protocol
                        .transition(state, &self.observed, faults.rng(u));
                }
            }
            graph_backed => {
                for (u, state) in states.iter_mut().enumerate() {
                    if faults.is_crashed(u) {
                        continue;
                    }
                    self.observed.fill(0);
                    graph_backed.for_each_neighbor(NodeId::new(u), |v| {
                        if !faults.is_crashed(v.index()) {
                            self.tally(v.index(), b, sigma);
                        }
                    });
                    if noisy {
                        self.apply_noise(u, faults);
                    }
                    *state = self
                        .protocol
                        .transition(state, &self.observed, faults.rng(u));
                }
            }
        }
        for (symbol, state) in self.symbols.iter_mut().zip(states.iter()) {
            *symbol = self.protocol.displayed_symbol(state);
        }
        true
    }
}

impl<P: StoneAgeLeaderElection> LeaderModel for StoneAgeModel<P> {
    fn is_leader(&self, state: &P::State) -> bool {
        self.protocol.is_leader(state)
    }
}

impl<P: StoneAgeProtocol> TickEngine<StoneAgeModel<P>> {
    /// Creates a network in round 0.
    ///
    /// Seeding matches [`Network::new`](crate::Network::new): the same
    /// `seed` gives every node the same ChaCha stream in both runtimes.
    pub fn new(protocol: P, topology: Topology, seed: u64) -> Self {
        let faults = FaultLayer::new(topology.node_count(), seed);
        TickEngine::from_model(StoneAgeModel::new(protocol), topology, faults)
    }

    /// Returns the protocol.
    pub fn protocol(&self) -> &P {
        &self.model.protocol
    }

    /// Returns the symbols currently displayed, indexed by node.
    pub fn displayed_symbols(&self) -> &[usize] {
        &self.model.symbols
    }
}

/// Leader designation for stone-age protocols (the analogue of
/// [`LeaderElection`] trait of the beeping runtime).
pub trait StoneAgeLeaderElection: StoneAgeProtocol {
    /// Returns `true` if `state` belongs to the leader set.
    fn is_leader(&self, state: &Self::State) -> bool;
}

/// Runs any [`BeepingProtocol`] inside the stone-age runtime.
///
/// The adapter displays symbol [`SYM_BEEP`](Self::SYM_BEEP) when the
/// wrapped protocol beeps and [`SYM_SILENT`](Self::SYM_SILENT)
/// otherwise, and reconstructs the beeping model's hearing predicate as
/// `heard = beeps(own state) ∨ observed[SYM_BEEP] ≥ 1`. Threshold
/// `b = 1` suffices — this is exactly the paper's claim that BFW needs
/// no counting beyond "at least one".
#[derive(Debug, Clone)]
pub struct BeepingAsStoneAge<P> {
    inner: P,
}

impl<P> BeepingAsStoneAge<P> {
    /// Symbol displayed by silent nodes.
    pub const SYM_SILENT: usize = 0;
    /// Symbol displayed by beeping nodes.
    pub const SYM_BEEP: usize = 1;

    /// Wraps a beeping protocol.
    pub fn new(inner: P) -> Self {
        BeepingAsStoneAge { inner }
    }

    /// Returns the wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: BeepingProtocol> StoneAgeProtocol for BeepingAsStoneAge<P> {
    type State = P::State;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn counting_threshold(&self) -> u8 {
        1
    }

    fn initial_state(&self, ctx: NodeCtx) -> P::State {
        self.inner.initial_state(ctx)
    }

    fn displayed_symbol(&self, state: &P::State) -> usize {
        if self.inner.beeps(state) {
            Self::SYM_BEEP
        } else {
            Self::SYM_SILENT
        }
    }

    fn transition(&self, state: &P::State, observed: &[u8], rng: &mut dyn RngCore) -> P::State {
        let heard = self.inner.beeps(state) || observed[Self::SYM_BEEP] >= 1;
        self.inner.transition(state, heard, rng)
    }
}

impl<P: LeaderElection> StoneAgeLeaderElection for BeepingAsStoneAge<P> {
    fn is_leader(&self, state: &Self::State) -> bool {
        self.inner.is_leader(state)
    }
}

/// **Asynchronous** executor of a [`StoneAgeProtocol`]: nodes are
/// activated one at a time by a pluggable [`Scheduler`] (uniformly
/// random by default — the randomized fair scheduler common in
/// self-stabilization work; the original stone-age model of Emek &
/// Wattenhofer is asynchronous). One tick of the shared [`TickEngine`]
/// is one scheduler pick and one activation, so
/// [`round`](TickEngine::round) counts activations.
///
/// The paper is careful to claim BFW only for a *synchronous* version
/// of the stone-age model. This executor exists to probe why: under
/// asynchronous activation a displayed beep persists until its node is
/// next activated, wave timing desynchronizes, and the freeze no
/// longer shields a leader from its own (now smeared-out) wave. The
/// `async` experiments use it exploratorily; no correctness claim from
/// the paper applies here. Since it is the same engine as the
/// synchronous runtimes, crashes, perception noise, delta-applied
/// dynamic topology, checkpoints, instrumentation and scenario
/// timelines (with positions read in activations) all work here too.
/// When every node is crashed a tick stalls: time passes, nobody moves,
/// nothing is drawn and the complexity ledger adds no step.
pub type AsyncStoneAgeNetwork<P> = TickEngine<AsyncStoneAgeModel<P>>;

/// The asynchronous stone-age communication model: one activated node
/// observes the *current* displayed symbols of its alive neighbors
/// (clamped at the counting threshold) and transitions.
///
/// This is the [`TickModel`] behind [`AsyncStoneAgeNetwork`]; it owns
/// the protocol, the displayed-symbol cache, the observation scratch
/// and the scheduler. Perception noise acts on the same per-symbol
/// presence bits as in the synchronous [`StoneAgeModel`] (see the
/// module docs): for the activated node, each non-quiescent symbol it
/// is not itself displaying can be lost or hallucinated; symbol 0 and
/// the node's own symbol are noise-free.
#[derive(Debug, Clone)]
pub struct AsyncStoneAgeModel<P: StoneAgeProtocol> {
    protocol: P,
    symbols: Vec<usize>,
    observed: Vec<u8>,
    scheduler: SchedulerState,
}

impl<P: StoneAgeProtocol> TickModel for AsyncStoneAgeModel<P> {
    type State = P::State;

    fn initial_state(&self, ctx: NodeCtx) -> P::State {
        self.protocol.initial_state(ctx)
    }

    fn init_caches(&mut self, n: usize) {
        self.symbols = vec![0; n];
    }

    fn refresh_node(&mut self, i: usize, state: &P::State, _crashed: bool) {
        // As in the synchronous model, crash visibility is enforced at
        // observation time (a crashed node's symbol is skipped), so the
        // cache always mirrors the state.
        self.symbols[i] = self.protocol.displayed_symbol(state);
    }

    // In the asynchronous (pull-style) model the activated node reads
    // each alive neighbor's display: every such read is one message.
    // The node itself is the only possible transmitter of the
    // activation — it counts as an emitter if it displayed a
    // non-quiescent symbol when activated, carrying ⌈log₂ |Σ|⌉ bits —
    // and it perceived a signal if its post-noise observation holds
    // any non-quiescent symbol.
    fn advance(
        &mut self,
        topology: &Topology,
        states: &mut [P::State],
        faults: &mut FaultLayer,
        sample: Option<&mut RoundSample>,
    ) -> bool {
        let Some(u) = self.scheduler.pick(topology, faults) else {
            return false;
        };
        let sigma = self.protocol.alphabet_size();
        let b = self.protocol.counting_threshold();
        assert!(b >= 1, "counting threshold must be at least 1");
        let own = self.symbols[u];
        self.observed.clear();
        self.observed.resize(sigma, 0);
        let mut reads = 0u64;
        topology.for_each_neighbor(NodeId::new(u), |v| {
            let s = self.symbols[v.index()];
            assert!(s < sigma, "displayed symbol {s} outside alphabet");
            if !faults.is_crashed(v.index()) {
                reads += 1;
                if self.observed[s] < b {
                    self.observed[s] += 1;
                }
            }
        });
        if faults.has_noise() {
            apply_presence_noise(own, &mut self.observed, u, faults);
        }
        states[u] = self
            .protocol
            .transition(&states[u], &self.observed, faults.rng(u));
        self.symbols[u] = self.protocol.displayed_symbol(&states[u]);
        if let Some(sample) = sample {
            let emitters = u64::from(own != 0);
            *sample = RoundSample {
                emitters,
                heard: u64::from(self.observed.iter().skip(1).any(|&c| c > 0)),
                bits: emitters * bits_per_symbol(sigma),
                messages: reads,
            };
        }
        true
    }

    fn scheduler_checkpoint(&self) -> Option<SchedulerCheckpoint> {
        Some(self.scheduler.checkpoint())
    }

    fn restore_scheduler(&mut self, checkpoint: Option<&SchedulerCheckpoint>) {
        let checkpoint = checkpoint.expect("asynchronous checkpoints carry scheduler state");
        self.scheduler.restore(checkpoint);
    }
}

impl<P: StoneAgeLeaderElection> LeaderModel for AsyncStoneAgeModel<P> {
    fn is_leader(&self, state: &P::State) -> bool {
        self.protocol.is_leader(state)
    }
}

impl<P: StoneAgeProtocol> TickEngine<AsyncStoneAgeModel<P>> {
    /// Creates a network with zero activations performed, under the
    /// default uniform scheduler.
    ///
    /// Seeding carves the node streams exactly as
    /// [`StoneAgeNetwork::new`] does, then one scheduler stream — the
    /// carving order the `activation_engine_equivalence` workspace test
    /// pins.
    pub fn new(protocol: P, topology: Topology, seed: u64) -> Self {
        let (faults, scheduler) = FaultLayer::with_scheduler(topology.node_count(), seed);
        let model = AsyncStoneAgeModel {
            protocol,
            symbols: Vec::new(),
            observed: Vec::new(),
            scheduler: SchedulerState::new(scheduler),
        };
        TickEngine::from_model(model, topology, faults)
    }

    /// Returns the protocol.
    pub fn protocol(&self) -> &P {
        &self.model.protocol
    }

    /// Returns the symbols currently displayed, indexed by node.
    pub fn displayed_symbols(&self) -> &[usize] {
        &self.model.symbols
    }

    /// Returns the installed scheduler.
    pub fn scheduler(&self) -> Scheduler {
        self.model.scheduler.kind()
    }

    /// Installs a scheduler for all subsequent activations.
    ///
    /// Installing [`Scheduler::Replay`] draws the replay permutation
    /// from the scheduler stream at this point (a Fisher–Yates shuffle)
    /// and resets the sweep cursor, so the adversarial order is a pure
    /// function of the seed and the moment of installation.
    pub fn set_scheduler(&mut self, scheduler: Scheduler) {
        let n = self.node_count();
        self.model.scheduler.install(scheduler, n);
    }

    /// [Steps](TickEngine::step) once and returns the node the
    /// scheduler activated, or `None` for a stalled step (every node
    /// crashed). Crash-masked nodes are never activated, under any
    /// scheduler.
    pub fn activate_next(&mut self) -> Option<NodeId> {
        self.step();
        self.model.scheduler.last().map(NodeId::new)
    }

    /// Activates a specific node (for externally scripted adversarial
    /// schedules) as one step: it observes the *current* emissions of
    /// its alive neighbors and transitions; everyone else is untouched
    /// and the scheduler draws nothing. A crashed node performs no
    /// transition and the activation is not counted.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn activate(&mut self, u: NodeId) {
        if self.is_crashed(u) {
            return;
        }
        self.model.scheduler.script(u.index());
        self.step();
    }

    /// Activations performed so far: the asynchronous name of
    /// [`round`](TickEngine::round).
    pub fn activations(&self) -> u64 {
        self.round()
    }

    /// Performs `count` scheduler-chosen activations, stalled ones
    /// included: the asynchronous name of [`run`](TickEngine::run).
    pub fn run_activations(&mut self, count: u64) {
        self.run(count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;
    use bfw_graph::generators;
    use rand::Rng;

    /// Counts neighbors displaying symbol 1, clamped at b = 2.
    #[derive(Debug, Clone)]
    struct CountTwo;

    impl StoneAgeProtocol for CountTwo {
        type State = u8; // last observation of symbol 1

        fn alphabet_size(&self) -> usize {
            2
        }

        fn counting_threshold(&self) -> u8 {
            2
        }

        fn initial_state(&self, ctx: NodeCtx) -> u8 {
            // Node 0 displays symbol 0 forever; others display symbol 1.
            if ctx.node.index() == 0 {
                200 // sentinel: display symbol 0
            } else {
                100 // sentinel: display symbol 1
            }
        }

        fn displayed_symbol(&self, s: &u8) -> usize {
            usize::from(*s < 200)
        }

        fn transition(&self, s: &u8, observed: &[u8], _rng: &mut dyn RngCore) -> u8 {
            if *s >= 200 {
                // Track the clamped observation in 200 + x for node 0.
                200 + observed[1]
            } else {
                100
            }
        }
    }

    #[test]
    fn counting_clamps_at_threshold() {
        // Star with 5 leaves, all displaying symbol 1: the hub observes
        // min(5, 2) = 2.
        let mut net = StoneAgeNetwork::new(CountTwo, generators::star(6).into(), 0);
        net.step();
        assert_eq!(*net.state(NodeId::new(0)), 202);

        // Path: hub observes exactly 1 neighbor.
        let mut net = StoneAgeNetwork::new(CountTwo, generators::path(2).into(), 0);
        net.step();
        assert_eq!(*net.state(NodeId::new(0)), 201);
    }

    /// Randomized beeping protocol for equivalence testing: beep with
    /// probability 1/2 unless heard, then stay silent 1 round.
    #[derive(Debug, Clone)]
    struct RandomBeeper;

    impl BeepingProtocol for RandomBeeper {
        type State = i8; // 1 = beeping, 0 = idle, -1 = muted

        fn initial_state(&self, _ctx: NodeCtx) -> i8 {
            0
        }

        fn beeps(&self, s: &i8) -> bool {
            *s == 1
        }

        fn transition(&self, s: &i8, heard: bool, rng: &mut dyn RngCore) -> i8 {
            match (*s, heard) {
                (1, _) => -1,
                (-1, _) => 0,
                (0, true) => 0,
                (0, false) => i8::from(rng.random_bool(0.5)),
                _ => unreachable!(),
            }
        }
    }

    impl LeaderElection for RandomBeeper {
        fn is_leader(&self, s: &i8) -> bool {
            *s == 1
        }
    }

    #[test]
    fn adapter_reproduces_beeping_execution_exactly() {
        let g = generators::grid(4, 5);
        for seed in [0u64, 1, 42, 1234] {
            let mut beeping = Network::new(RandomBeeper, g.clone().into(), seed);
            let mut stone =
                StoneAgeNetwork::new(BeepingAsStoneAge::new(RandomBeeper), g.clone().into(), seed);
            for _ in 0..200 {
                beeping.step();
                stone.step();
                assert_eq!(beeping.states(), stone.states(), "seed {seed}");
            }
        }
    }

    #[test]
    fn adapter_reproduces_clique_execution() {
        for seed in [7u64, 8] {
            let mut beeping = Network::new(RandomBeeper, Topology::Clique(12), seed);
            let mut stone = StoneAgeNetwork::new(
                BeepingAsStoneAge::new(RandomBeeper),
                Topology::Clique(12),
                seed,
            );
            for _ in 0..100 {
                beeping.step();
                stone.step();
                assert_eq!(beeping.states(), stone.states());
            }
        }
    }

    #[test]
    fn adapter_reproduces_noisy_execution_exactly() {
        // Both noise channels on: the shared fault layer must draw in
        // the same per-node pattern in both runtimes, so the traces
        // stay bit-identical even under perception noise.
        let g = generators::grid(3, 4);
        for seed in [0u64, 5, 21] {
            let mut beeping = Network::new(RandomBeeper, g.clone().into(), seed);
            let mut stone =
                StoneAgeNetwork::new(BeepingAsStoneAge::new(RandomBeeper), g.clone().into(), seed);
            beeping.set_noise(0.2, 0.1);
            stone.set_noise(0.2, 0.1);
            for _ in 0..150 {
                beeping.step();
                stone.step();
                assert_eq!(beeping.states(), stone.states(), "seed {seed}");
            }
        }
    }

    #[test]
    fn stone_age_noise_drops_and_hallucinates_observations() {
        // Hub of a path(2) observes its one displaying neighbor; with
        // fn ≈ 1 the observation is almost always lost.
        let mut lost = 0;
        for seed in 0..30u64 {
            let mut net = StoneAgeNetwork::new(CountTwo, generators::path(2).into(), seed);
            net.set_noise(0.95, 0.0);
            net.step();
            if *net.state(NodeId::new(0)) == 200 {
                lost += 1;
            }
        }
        assert!(lost > 20, "only {lost}/30 observations were dropped");

        // An isolated pair of silent-displaying nodes: with fp ≈ 1 the
        // hub hallucinates symbol 1 although nobody displays it.
        #[derive(Debug, Clone)]
        struct AllZero;
        impl StoneAgeProtocol for AllZero {
            type State = u8;
            fn alphabet_size(&self) -> usize {
                2
            }
            fn initial_state(&self, _ctx: NodeCtx) -> u8 {
                0
            }
            fn displayed_symbol(&self, _s: &u8) -> usize {
                0
            }
            fn transition(&self, _s: &u8, observed: &[u8], _rng: &mut dyn RngCore) -> u8 {
                observed[1]
            }
        }
        let mut ghosts = 0;
        for seed in 0..30u64 {
            let mut net = StoneAgeNetwork::new(AllZero, generators::path(2).into(), seed);
            net.set_noise(0.0, 0.95);
            net.step();
            if *net.state(NodeId::new(0)) == 1 {
                ghosts += 1;
            }
        }
        assert!(ghosts > 20, "only {ghosts}/30 runs hallucinated a symbol");
    }

    #[test]
    fn stone_age_zero_noise_draws_nothing() {
        let run = |noisy: bool| {
            let mut net = StoneAgeNetwork::new(
                BeepingAsStoneAge::new(RandomBeeper),
                generators::cycle(8).into(),
                3,
            );
            if noisy {
                net.set_noise(0.0, 0.0);
            }
            net.run(50);
            net.states().to_vec()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn adapter_exposes_inner() {
        let a = BeepingAsStoneAge::new(RandomBeeper);
        let _: &RandomBeeper = a.inner();
        let _: RandomBeeper = a.into_inner();
    }

    #[test]
    fn leader_count_through_adapter() {
        let net = StoneAgeNetwork::new(
            BeepingAsStoneAge::new(RandomBeeper),
            generators::path(5).into(),
            0,
        );
        assert_eq!(net.leader_count(), 0);
        assert_eq!(net.node_count(), 5);
        assert_eq!(net.displayed_symbols(), &[0, 0, 0, 0, 0]);
    }

    #[test]
    fn async_activation_touches_one_node() {
        let adapter = BeepingAsStoneAge::new(RandomBeeper);
        let mut net = AsyncStoneAgeNetwork::new(adapter, generators::cycle(6).into(), 4);
        let before = net.states().to_vec();
        net.activate(NodeId::new(2));
        let after = net.states();
        let changed: Vec<usize> = (0..6).filter(|&i| before[i] != after[i]).collect();
        assert!(changed.is_empty() || changed == [2], "{changed:?}");
        assert_eq!(net.round(), 1);
    }

    #[test]
    fn async_scheduler_is_seed_deterministic() {
        let run = |seed| {
            let adapter = BeepingAsStoneAge::new(RandomBeeper);
            let mut net = AsyncStoneAgeNetwork::new(adapter, generators::cycle(8).into(), seed);
            net.run(200);
            net.states().to_vec()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn async_leader_count_works() {
        let adapter = BeepingAsStoneAge::new(RandomBeeper);
        let mut net = AsyncStoneAgeNetwork::new(adapter, generators::cycle(8).into(), 1);
        assert_eq!(net.leader_count(), 0);
        net.run(500);
        assert_eq!(net.node_count(), 8);
        // RandomBeeper's "leaders" are the currently-beeping nodes;
        // count is whatever it is, but never exceeds n.
        assert!(net.leader_count() <= 8);
    }

    #[test]
    fn crashed_node_is_invisible_and_inert() {
        // All nodes display symbol 1 except node 0 (CountTwo). Crash a
        // leaf of the star: the hub then observes one fewer displayer.
        let mut net = StoneAgeNetwork::new(CountTwo, generators::star(3).into(), 0);
        net.crash_node(NodeId::new(2));
        assert!(net.is_crashed(NodeId::new(2)));
        net.step();
        // Hub saw only leaf 1 (leaf 2 crashed): clamped count 1.
        assert_eq!(*net.state(NodeId::new(0)), 201);
        // Crashed node did not transition.
        assert_eq!(*net.state(NodeId::new(2)), 100);
        net.recover_node(NodeId::new(2));
        assert!(!net.is_crashed(NodeId::new(2)));
        net.step();
        assert_eq!(*net.state(NodeId::new(0)), 202);
    }

    #[test]
    fn clique_fast_path_ignores_crashed_nodes() {
        let mut graph_net = StoneAgeNetwork::new(CountTwo, generators::complete(5).into(), 0);
        let mut clique_net = StoneAgeNetwork::new(CountTwo, Topology::Clique(5), 0);
        for net in [&mut graph_net, &mut clique_net] {
            net.crash_node(NodeId::new(3));
            net.crash_node(NodeId::new(4));
            net.step();
        }
        assert_eq!(graph_net.states(), clique_net.states());
        // Node 0 observed 2 alive displayers of symbol 1 (nodes 1, 2).
        assert_eq!(*graph_net.state(NodeId::new(0)), 202);
    }

    #[test]
    fn stone_age_set_topology_swaps_adjacency() {
        let mut net = StoneAgeNetwork::new(CountTwo, generators::path(3).into(), 0);
        // On the path 0-1-2 the hub (node 0) has one neighbor; after
        // rewiring to a star centered at 0 it has two.
        net.set_topology(generators::star(3).into());
        net.step();
        assert_eq!(*net.state(NodeId::new(0)), 202);
    }

    #[test]
    fn stone_age_apply_delta_edits_adjacency() {
        use bfw_graph::TopologyDelta;
        let mut net = StoneAgeNetwork::new(CountTwo, generators::path(3).into(), 0);
        // Same rewiring as above, through the O(deg) delta path: add the
        // chord (0, 2) so the hub gains a second displaying neighbor.
        let mut delta = TopologyDelta::new();
        delta.add_edge(NodeId::new(0), NodeId::new(2));
        net.apply_topology_delta(&delta);
        net.step();
        assert_eq!(*net.state(NodeId::new(0)), 202);
    }

    #[test]
    fn async_clique_counts_neighbors_not_self() {
        // In a clique of 2, an activated node observes exactly its one
        // peer's symbol.
        #[derive(Debug, Clone)]
        struct RecordObs;
        impl StoneAgeProtocol for RecordObs {
            type State = u8;
            fn alphabet_size(&self) -> usize {
                2
            }
            fn initial_state(&self, ctx: NodeCtx) -> u8 {
                // Node 0 displays symbol 1; node 1 displays symbol 0.
                u8::from(ctx.node.index() == 0)
            }
            fn displayed_symbol(&self, s: &u8) -> usize {
                usize::from(*s == 1)
            }
            fn transition(&self, s: &u8, observed: &[u8], _rng: &mut dyn RngCore) -> u8 {
                // Keep own display, but record what was seen in bit 1.
                (s & 1) | (observed[1] << 1)
            }
        }
        let mut net = AsyncStoneAgeNetwork::new(RecordObs, Topology::Clique(2), 0);
        net.activate(NodeId::new(1));
        // Node 1 saw node 0's symbol (1).
        assert_eq!(net.states()[1] & 0b10, 0b10);
        net.activate(NodeId::new(0));
        // Node 0 saw node 1's symbol (0): bit not set.
        assert_eq!(net.states()[0] & 0b10, 0);
    }
}
