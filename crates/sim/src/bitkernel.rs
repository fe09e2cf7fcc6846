//! Bit-parallel fast path for the beeping model: bitplane states,
//! word-wide propagation and batched Bernoulli draws.
//!
//! The generic [`TickEngine`](crate::TickEngine) steps node-by-node over
//! a `Vec<State>`; that caps experiments near `10^4` nodes. This module
//! exploits what the paper's minimalism actually buys: a BFW node's
//! state is **3 bits** (leader? beeping? frozen?) and its perception is
//! **1 bit** (some neighbor beeped), so 64 nodes fit in one machine word
//! and a whole round is a few bitwise passes:
//!
//! 1. **Emission** — `emit = beeping & alive`, word-wide.
//! 2. **Propagation** — `heard = emit | A·emit` via the word-packed
//!    adjacency view ([`bfw_graph::WordGraph`]): rotation plans on
//!    shift-structured graphs (cycles, tori), a cache-aware relabeled
//!    edge stream elsewhere, an any-beep fill on cliques. When the
//!    plan relabels, the engine stores all bitsets in internal order
//!    and translates node ids at its public boundary.
//! 3. **Noise** — [`FaultLayer`] filters the heard words (only when a
//!    channel is active).
//! 4. **Transition** — the model's boolean plane algebra, one word (64
//!    nodes) at a time; crashed nodes are merged back unchanged.
//!
//! # RNG-stream mapping (the determinism contract)
//!
//! [`BitEngine`] reproduces the generic engine **byte-identically** at a
//! fixed seed. The generic engine gives node `i` its own ChaCha8 stream
//! (carved out of the run seed in index order, see [`FaultLayer`]) and
//! draws from it *lazily* — a BFW node draws one coin only in state `W•`
//! with a silent neighborhood, and noise channels draw only per
//! filtered signal. Per-node streams make cross-node draw order
//! irrelevant, so the bit engine keeps the exact same carving and the
//! exact same lazy draw conditions — it just *finds* the drawing nodes
//! word-wide (the coin mask and noise candidates are bitwise
//! expressions) and then draws per set bit in index order. Equivalence
//! is pinned by the `bit_kernel_equivalence` workspace tests.
//!
//! The *word-batched* mapping the 64-lane Monte-Carlo path uses — one
//! ChaCha8 output word per 64 **lanes** via [`bernoulli_words`] — is a
//! different stream discipline and is documented there; it never enters
//! this engine.

use crate::fault::{filter_heard_chunk, FaultLayer};
use crate::instrument::{ComplexityLedger, FlightRecorder, Instrumentation, RoundSample};
use crate::pool::{shard_bounds, ShardPool};
use crate::snapshot::EngineCheckpoint;
use crate::{NodeCtx, Topology};
use bfw_graph::{words_for, NodeId, Relabeling, TopologyDelta, WordGraph};
use rand::Rng as _;
use rand::RngCore;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

/// One word of 64 node states, decomposed into the three BFW bitplanes.
///
/// The plane layout (bit `b` of each word is node `64w + b`):
///
/// | state | leader | beeping | frozen |
/// |-------|--------|---------|--------|
/// | `W•`  | 1      | 0       | 0      |
/// | `B•`  | 1      | 1       | 0      |
/// | `F•`  | 1      | 0       | 1      |
/// | `W◦`  | 0      | 0       | 0      |
/// | `B◦`  | 0      | 1       | 0      |
/// | `F◦`  | 0      | 0       | 1      |
///
/// `beeping & frozen` is never set; *waiting* is the derived plane
/// `!beeping & !frozen`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlaneWord {
    /// Leader bit — the paper's leader set `L = {W•, B•, F•}`.
    pub leader: u64,
    /// Beeping bit — the paper's beeping set `Q_b = {B•, B◦}`.
    pub beeping: u64,
    /// Frozen bit — `{F•, F◦}`.
    pub frozen: u64,
}

/// A protocol expressible as boolean algebra over [`PlaneWord`]s — the
/// model seam of [`BitEngine`], mirroring what
/// [`TickModel`](crate::TickModel) is to the generic engine.
///
/// The contract ties the bit path to the scalar protocol it
/// accelerates: `pack`/`unpack` must round-trip every state, and
/// `advance_word` restricted to one bit must equal the scalar
/// transition with the same heard flag and coin (`coin_mask` tells the
/// engine which nodes consume a coin — exactly the states whose scalar
/// transition would draw one, so the lazy per-node RNG draws line up).
///
/// `Sync` is a supertrait because the word-sharded step shares the
/// model across worker threads; bit models are stateless plane algebra,
/// so this costs implementors nothing.
pub trait BitModel: Sync {
    /// Per-node protocol state (the scalar form).
    type State: Clone + PartialEq + std::fmt::Debug;

    /// Returns the protocol's initial state for one node.
    fn initial_state(&self, ctx: NodeCtx) -> Self::State;

    /// Decomposes a state into its `(leader, beeping, frozen)` bits.
    fn pack(&self, state: &Self::State) -> (bool, bool, bool);

    /// Recomposes a state from its plane bits.
    ///
    /// # Panics
    ///
    /// Panics on bit combinations no state maps to (`beeping & frozen`).
    fn unpack(&self, leader: bool, beeping: bool, frozen: bool) -> Self::State;

    /// Probability of the one Bernoulli coin the protocol draws.
    fn coin_probability(&self) -> f64;

    /// Bitmask of the nodes whose transition consumes a coin this round
    /// — must match the scalar protocol's lazy draw condition bit for
    /// bit (garbage above the node count is tolerated; the engine masks
    /// with the alive set).
    fn coin_mask(&self, planes: PlaneWord, heard: u64) -> u64;

    /// One synchronous transition of 64 nodes: the plane algebra of the
    /// protocol's `δ` table. `coin` is only meaningful on
    /// [`coin_mask`](Self::coin_mask) bits.
    fn advance_word(&self, planes: PlaneWord, heard: u64, coin: u64) -> PlaneWord;
}

/// Bit-parallel synchronous executor of a [`BitModel`] — the fast-path
/// sibling of [`Network`](crate::Network) with the same observable
/// behavior (states, leaders, complexity ledger, RNG streams) at ~64
/// nodes per instruction.
///
/// The BFW instantiation lives in `bfw-core` (`BitNetwork =
/// BitEngine<Bfw>`), which also carries the runnable example; the
/// `bit_kernel_equivalence` workspace tests pin its byte-identity with
/// the generic [`Network`](crate::Network).
#[derive(Debug, Clone)]
pub struct BitEngine<M: BitModel> {
    model: M,
    topology: Topology,
    /// Word-packed adjacency; `None` on the clique (any-beep fill).
    plan: Option<WordGraph>,
    n: usize,
    words: usize,
    leader: Vec<u64>,
    beeping: Vec<u64>,
    frozen: Vec<u64>,
    emit: Vec<u64>,
    heard: Vec<u64>,
    faults: FaultLayer,
    round: u64,
    instr: Instrumentation,
    /// Sampler caches, maintained only while instrumentation is on —
    /// the same discipline as the generic beeping model's. `degrees` is
    /// in internal label order when the plan relabels.
    degrees: Vec<u32>,
    uniform_degree: Option<u64>,
    /// Word-shard fan-out for [`step`](Self::step); with one shard
    /// (the default) the step body runs once over every word.
    pool: ShardPool,
}

fn build_plan(topology: &Topology) -> Option<WordGraph> {
    match topology {
        Topology::Clique(_) => None,
        Topology::Graph(g) => Some(WordGraph::build(g)),
        Topology::Overlay(ov) => Some(WordGraph::build(&ov.to_graph())),
    }
}

/// What every word range of a round reads: the model, the adjacency
/// plan, the frozen emission bitset, the alive mask and the noise
/// channels (`None` when both are off).
struct RoundReads<'a, M> {
    model: &'a M,
    plan: Option<&'a WordGraph>,
    emit: &'a [u64],
    alive: &'a [u64],
    noise: Option<(f64, f64)>,
}

/// The words `lo..lo + heard.len()` of a round's writable state, and
/// the RNG streams of exactly their nodes.
struct WordRange<'a> {
    lo: usize,
    heard: &'a mut [u64],
    leader: &'a mut [u64],
    beeping: &'a mut [u64],
    frozen: &'a mut [u64],
    rngs: &'a mut [ChaCha8Rng],
}

impl<'a> WordRange<'a> {
    /// Splits off the first `words` words; the node streams split at
    /// the same boundary.
    fn split_at(self, words: usize) -> (Self, Self) {
        let (heard, heard_rest) = self.heard.split_at_mut(words);
        let (leader, leader_rest) = self.leader.split_at_mut(words);
        let (beeping, beeping_rest) = self.beeping.split_at_mut(words);
        let (frozen, frozen_rest) = self.frozen.split_at_mut(words);
        let nodes = (words * 64).min(self.rngs.len());
        let (rngs, rngs_rest) = self.rngs.split_at_mut(nodes);
        (
            WordRange {
                lo: self.lo,
                heard,
                leader,
                beeping,
                frozen,
                rngs,
            },
            WordRange {
                lo: self.lo + words,
                heard: heard_rest,
                leader: leader_rest,
                beeping: beeping_rest,
                frozen: frozen_rest,
                rngs: rngs_rest,
            },
        )
    }
}

/// Propagation, noise and transition of one round over one word range
/// — the engine's only step body. Node `64w + b` of the range draws
/// from `range.rngs[64w + b]`, so the draws land on the same streams at
/// the same positions however the words are split.
fn step_range<M: BitModel>(reads: &RoundReads<'_, M>, range: WordRange<'_>) {
    let WordRange {
        lo,
        heard,
        leader,
        beeping,
        frozen,
        rngs,
    } = range;
    let hi = lo + heard.len();
    let emit = &reads.emit[lo..hi];
    let alive = &reads.alive[lo..hi];
    if let Some(plan) = reads.plan {
        heard.copy_from_slice(emit);
        plan.propagate_or_range(reads.emit, heard, lo);
    }
    if let Some((fneg, fpos)) = reads.noise {
        filter_heard_chunk(rngs, alive, emit, heard, fneg, fpos);
    }
    let p = reads.model.coin_probability();
    for (w, &alive) in alive.iter().enumerate() {
        let planes = PlaneWord {
            leader: leader[w],
            beeping: beeping[w],
            frozen: frozen[w],
        };
        let heard = heard[w];
        let mut coin = 0u64;
        let mut draws = reads.model.coin_mask(planes, heard) & alive;
        while draws != 0 {
            let b = draws.trailing_zeros() as usize;
            draws &= draws - 1;
            if rngs[w * 64 + b].random_bool(p) {
                coin |= 1u64 << b;
            }
        }
        let next = reads.model.advance_word(planes, heard, coin);
        // Crashed nodes keep their pre-crash state, bit-wise.
        leader[w] = (next.leader & alive) | (planes.leader & !alive);
        beeping[w] = (next.beeping & alive) | (planes.beeping & !alive);
        frozen[w] = (next.frozen & alive) | (planes.frozen & !alive);
    }
}

impl<M: BitModel> BitEngine<M> {
    /// Builds an engine in round 0 with every node in the model's
    /// initial state. Seeding is identical to the generic engine: node
    /// `i` draws from the `i`-th ChaCha8 stream carved out of `seed`.
    pub fn new(model: M, topology: Topology, seed: u64) -> Self {
        let n = topology.node_count();
        let states: Vec<M::State> = (0..n)
            .map(|i| {
                model.initial_state(NodeCtx {
                    node: NodeId::new(i),
                    node_count: n,
                })
            })
            .collect();
        Self::with_states(model, topology, seed, states)
    }

    /// Builds an engine in round 0 from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the topology's node count.
    pub fn with_states(model: M, topology: Topology, seed: u64, states: Vec<M::State>) -> Self {
        let n = topology.node_count();
        assert_eq!(states.len(), n, "one state per node is required");
        let words = words_for(n);
        let mut engine = BitEngine {
            plan: build_plan(&topology),
            model,
            topology,
            n,
            words,
            leader: vec![0; words],
            beeping: vec![0; words],
            frozen: vec![0; words],
            emit: vec![0; words],
            heard: vec![0; words],
            faults: FaultLayer::new(n, seed),
            round: 0,
            instr: Instrumentation::off(),
            degrees: Vec::new(),
            uniform_degree: None,
            pool: ShardPool::new(1),
        };
        // Adopt the plan's internal label order: the fault layer's
        // storage moves, but node `i` keeps the `i`-th carved stream
        // (streams never renumber — see `FaultLayer::permute`).
        if let Some(r) = engine.plan.as_ref().and_then(|p| p.relabeling()) {
            let perm = r.perm().to_vec();
            engine.faults.permute(&perm);
        }
        for (i, s) in states.iter().enumerate() {
            engine.write_state(i, s);
        }
        engine
    }

    /// The active node relabeling (internal vs original labels), if the
    /// adjacency plan uses one. All public node-indexed APIs speak
    /// original labels; only [`Self::planes`] exposes internal order.
    pub fn relabeling(&self) -> Option<&Relabeling> {
        self.plan.as_ref().and_then(|p| p.relabeling())
    }

    /// Internal storage index of original node `i`.
    #[inline]
    fn int(&self, i: usize) -> usize {
        match self.plan.as_ref().and_then(|p| p.relabeling()) {
            Some(r) => r.to_internal(i),
            None => i,
        }
    }

    /// Original label of internal storage index `j`.
    #[inline]
    fn orig(&self, j: usize) -> usize {
        match self.plan.as_ref().and_then(|p| p.relabeling()) {
            Some(r) => r.to_original(j),
            None => j,
        }
    }

    /// Sets the number of worker threads for [`Self::step`], clamped to
    /// the bitset word count (more shards than words cannot help).
    /// Thread count never changes results: every per-node draw comes
    /// from that node's own stream, so `threads = 1` and `threads = N`
    /// are byte-identical (states, RNG positions, ledger).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads > 0, "at least one worker thread is required");
        self.pool = ShardPool::new(threads.min(self.words).max(1));
    }

    /// The effective worker-thread count (after clamping).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Returns the number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Returns the current round number (0 before any step).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Returns the topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Recomposes the scalar state of node `u` from the planes.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn state(&self, u: NodeId) -> M::State {
        assert!(u.index() < self.n, "node {u} out of range");
        let i = self.int(u.index());
        let (w, b) = (i >> 6, i & 63);
        self.model.unpack(
            self.leader[w] >> b & 1 == 1,
            self.beeping[w] >> b & 1 == 1,
            self.frozen[w] >> b & 1 == 1,
        )
    }

    /// Materializes the full scalar configuration, indexed by node —
    /// the equivalence seam against [`TickEngine::states`].
    ///
    /// [`TickEngine::states`]: crate::TickEngine::states
    pub fn states(&self) -> Vec<M::State> {
        (0..self.n).map(|i| self.state(NodeId::new(i))).collect()
    }

    /// Borrows the three state planes `(leader, beeping, frozen)`.
    ///
    /// Bit order is the engine's *internal* label order — identical to
    /// original labels unless [`Self::relabeling`] is `Some`.
    pub fn planes(&self) -> (&[u64], &[u64], &[u64]) {
        (&self.leader, &self.beeping, &self.frozen)
    }

    /// Writes the state of *original* node `i`.
    fn write_state(&mut self, i: usize, state: &M::State) {
        let (l, b, f) = self.model.pack(state);
        let i = self.int(i);
        let (w, bit) = (i >> 6, 1u64 << (i & 63));
        for (plane, set) in [
            (&mut self.leader, l),
            (&mut self.beeping, b),
            (&mut self.frozen, f),
        ] {
            if set {
                plane[w] |= bit;
            } else {
                plane[w] &= !bit;
            }
        }
    }

    /// Advances one synchronous round (see the module docs for the
    /// four word-wide passes and the RNG contract).
    ///
    /// Emission is computed over the whole bitset (a cheap word-wide
    /// `AND`); propagation, noise, coins and advance then run as one
    /// word-range body (`step_range`). With one thread that body covers
    /// every word; with [`Self::set_threads`] above one, each shard runs
    /// it concurrently on *its own destination word range*. After
    /// emission freezes, every remaining pass reads shared state only
    /// from the immutable `emit` bitset and writes only its own words,
    /// and every Bernoulli draw comes from the drawing node's own
    /// ChaCha8 stream — so no barrier is needed inside the region and
    /// every thread count is byte-identical.
    pub fn step(&mut self) {
        let alive = self.faults.alive_words();
        for (e, (&b, &a)) in self.emit.iter_mut().zip(self.beeping.iter().zip(alive)) {
            *e = b & a;
        }

        let mut sample = self.instr.is_on().then(|| self.emission_sample());

        if self.plan.is_none() {
            // Clique: everyone (the generic path fills crashed
            // nodes too; they are masked out downstream) hears iff
            // anyone beeps.
            let fill = if self.emit.iter().any(|&w| w != 0) {
                u64::MAX
            } else {
                0
            };
            self.heard.fill(fill);
            if let Some(last) = self.heard.last_mut() {
                if !self.n.is_multiple_of(64) {
                    *last &= (1u64 << (self.n % 64)) - 1;
                }
            }
        }

        let pool = self.pool;
        let words = self.words;
        let (alive, fneg, fpos, rngs) = self.faults.shard_parts_mut();
        let reads = RoundReads {
            model: &self.model,
            plan: self.plan.as_ref(),
            emit: &self.emit,
            alive,
            noise: (fneg > 0.0 || fpos > 0.0).then_some((fneg, fpos)),
        };
        let whole = WordRange {
            lo: 0,
            heard: &mut self.heard,
            leader: &mut self.leader,
            beeping: &mut self.beeping,
            frozen: &mut self.frozen,
            rngs,
        };
        if pool.threads() == 1 {
            step_range(&reads, whole);
        } else {
            let mut shards = Vec::with_capacity(pool.threads());
            let mut rest = whole;
            for (lo, hi) in shard_bounds(words, pool.threads()) {
                let (range, tail) = rest.split_at(hi - lo);
                shards.push(Mutex::new(Some(range)));
                rest = tail;
            }
            debug_assert_eq!(shards.len(), pool.threads(), "threads are clamped to words");
            pool.run(|k| {
                let range = shards[k].lock().expect("shard lock is uncontended").take();
                step_range(&reads, range.expect("each shard runs once"));
            });
        }

        if let Some(sample) = &mut sample {
            // Post-noise perception events of alive nodes — the
            // beeping model's perceived count, as a popcount.
            sample.heard = self
                .heard
                .iter()
                .zip(self.faults.alive_words())
                .map(|(&h, &a)| u64::from((h & a).count_ones()))
                .sum();
            self.instr
                .record_step(*sample, self.n, std::mem::size_of::<M::State>());
        }
        self.round += 1;
    }

    /// Advances `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Popcount-based emission sample: one bit per beep, `deg(u)`
    /// messages per emitter (fixed-stride on regular graphs).
    fn emission_sample(&self) -> RoundSample {
        let emitters: u64 = self.emit.iter().map(|w| u64::from(w.count_ones())).sum();
        let messages = if let Some(d) = self.uniform_degree {
            emitters * d
        } else {
            let mut messages = 0u64;
            for (w, &word) in self.emit.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    messages += u64::from(self.degrees[w * 64 + b]);
                }
            }
            messages
        };
        RoundSample {
            emitters,
            heard: 0,
            bits: emitters,
            messages,
        }
    }

    fn refresh_sampler_caches(&mut self) {
        self.degrees.clear();
        self.uniform_degree = None;
        match &self.topology {
            Topology::Clique(n) => {
                self.uniform_degree = Some((*n as u64).saturating_sub(1));
            }
            Topology::Graph(g) => match g.uniform_degree() {
                Some(d) => self.uniform_degree = Some(d as u64),
                None => self.degrees.extend(g.nodes().map(|u| g.degree(u) as u32)),
            },
            other => {
                let n = other.node_count();
                self.degrees
                    .extend((0..n).map(|i| other.degree(NodeId::new(i)) as u32));
                if let Some((&first, rest)) = self.degrees.split_first() {
                    if rest.iter().all(|&d| d == first) {
                        self.uniform_degree = Some(u64::from(first));
                        self.degrees = Vec::new();
                    }
                }
            }
        }
        // The emission sampler walks the emit bitset in internal order,
        // so the degree cache must live in internal order too.
        if !self.degrees.is_empty() {
            if let Some(r) = self.plan.as_ref().and_then(|p| p.relabeling()) {
                let mut internal = vec![0u32; self.n];
                for (i, &d) in self.degrees.iter().enumerate() {
                    internal[r.to_internal(i)] = d;
                }
                self.degrees = internal;
            }
        }
    }

    /// Applies a batch of edge mutations: the topology's `O(deg)`
    /// overlay edit, then the adjacency plan's patch — the plan and its
    /// node labeling stay, and only the destinations whose neighborhood
    /// changed get new in-edges (see [`WordGraph::apply_delta`]), so
    /// planes and RNG streams never move. An instrumented engine
    /// re-reads only the edited endpoints' degrees.
    ///
    /// # Panics
    ///
    /// Panics if the delta removes an absent edge or adds a present one.
    pub fn apply_topology_delta(&mut self, delta: &TopologyDelta) {
        self.topology.apply_delta(delta);
        let Topology::Overlay(live) = &self.topology else {
            unreachable!("a topology with a delta applied is an overlay")
        };
        match &mut self.plan {
            Some(plan) => plan.apply_delta(delta, live),
            // A clique's any-beep fill ends at its first delta. The
            // planes are in original labels, so the new plan must be too.
            None => self.plan = Some(WordGraph::build_no_relabel(&live.to_graph())),
        }
        if self.instr.is_on() {
            if let Some(d) = self.uniform_degree.take() {
                self.degrees = vec![d as u32; self.n];
            }
            for &(u, v) in delta.removed().iter().chain(delta.added()) {
                for x in [u, v] {
                    let i = self.int(x.index());
                    self.degrees[i] = self.topology.degree(x) as u32;
                }
            }
        }
    }

    /// Crashes node `u`: it emits nothing, perceives nothing, never
    /// transitions, and its RNG stream pauses. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn crash_node(&mut self, u: NodeId) {
        assert!(u.index() < self.n, "node {u} out of range");
        let i = self.int(u.index());
        self.faults.crash(i);
    }

    /// Recovers node `u` with a fresh protocol-initial state (no-op on
    /// alive nodes) — same reboot semantics as the generic engine.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn recover_node(&mut self, u: NodeId) {
        assert!(u.index() < self.n, "node {u} out of range");
        let i = self.int(u.index());
        if !self.faults.recover(i) {
            return;
        }
        let fresh = self.model.initial_state(NodeCtx {
            node: u,
            node_count: self.n,
        });
        self.write_state(u.index(), &fresh);
    }

    /// Returns `true` if `u` is currently crashed.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn is_crashed(&self, u: NodeId) -> bool {
        assert!(u.index() < self.n, "node {u} out of range");
        self.faults.is_crashed(self.int(u.index()))
    }

    /// Returns the number of non-crashed nodes.
    pub fn alive_count(&self) -> usize {
        self.faults.alive_count()
    }

    /// Sets both perception-noise probabilities (see
    /// [`TickEngine::set_noise`](crate::TickEngine::set_noise)).
    ///
    /// # Panics
    ///
    /// Panics if either probability is not in `[0, 1)`.
    pub fn set_noise(&mut self, false_negative: f64, false_positive: f64) {
        self.faults.set_noise(false_negative, false_positive);
    }

    /// Overwrites the state of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_node_state(&mut self, u: NodeId, state: M::State) {
        assert!(u.index() < self.n, "node {u} out of range");
        self.write_state(u.index(), &state);
    }

    /// Replaces the whole configuration (crashed nodes keep their crash
    /// mask and stay silent).
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the node count.
    pub fn set_states(&mut self, states: Vec<M::State>) {
        assert_eq!(states.len(), self.n, "one state per node is required");
        for (i, s) in states.iter().enumerate() {
            self.write_state(i, s);
        }
    }

    /// Returns the number of alive nodes in the leader plane.
    pub fn leader_count(&self) -> usize {
        self.leader
            .iter()
            .zip(self.faults.alive_words())
            .map(|(&l, &a)| (l & a).count_ones() as usize)
            .sum()
    }

    /// Returns how many alive nodes beep in the current round (`|B_t|`;
    /// a crashed node is silent) — the generic engine's
    /// [`beeping_node_count`](crate::Network::beeping_node_count).
    pub fn beeping_node_count(&self) -> usize {
        self.beeping
            .iter()
            .zip(self.faults.alive_words())
            .map(|(&b, &a)| (b & a).count_ones() as usize)
            .sum()
    }

    /// Returns the identifiers of all current (alive) leaders, in
    /// ascending (original-label) order.
    pub fn leaders(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (w, (&l, &a)) in self
            .leader
            .iter()
            .zip(self.faults.alive_words())
            .enumerate()
        {
            let mut bits = l & a;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.push(NodeId::new(self.orig(w * 64 + b)));
            }
        }
        out.sort_unstable();
        out
    }

    /// Returns the unique (alive) leader, or `None` if there are zero
    /// or several.
    pub fn unique_leader(&self) -> Option<NodeId> {
        let mut found = None;
        for (w, (&l, &a)) in self
            .leader
            .iter()
            .zip(self.faults.alive_words())
            .enumerate()
        {
            let live = l & a;
            if live == 0 {
                continue;
            }
            if found.is_some() || live.count_ones() > 1 {
                return None;
            }
            found = Some(NodeId::new(
                self.orig(w * 64 + live.trailing_zeros() as usize),
            ));
        }
        found
    }

    /// Captures the engine's checkpoint in **original node-label
    /// order**, translating out of the plan's internal storage order —
    /// so a bit-kernel checkpoint is byte-identical to the generic
    /// engine's at the same round (the kernel-invariance of the
    /// snapshot format). See [`EngineCheckpoint`].
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let mut crashed = vec![false; self.n];
        let mut rng_positions = vec![(0u64, 0usize); self.n];
        for j in 0..self.n {
            let i = self.orig(j);
            crashed[i] = self.faults.is_crashed(j);
            rng_positions[i] = self.faults.rng_position(j);
        }
        EngineCheckpoint {
            steps: self.round,
            crashed,
            false_negative: self.faults.false_negative(),
            false_positive: self.faults.false_positive(),
            rng_positions,
            scheduler: None,
        }
    }

    /// Restores a checkpoint (taken on *either* kernel) onto an engine
    /// built from the same seed and the checkpointed topology: crash
    /// flags and RNG positions are translated into the current plan's
    /// storage order (streams follow nodes, never slots).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's node count or `states.len()` differs
    /// from the engine's, or if the checkpoint carries a scheduler
    /// half.
    pub fn restore_checkpoint(&mut self, cp: &EngineCheckpoint, states: Vec<M::State>) {
        assert_eq!(cp.node_count(), self.n, "checkpoint node count must match");
        assert!(
            cp.scheduler.is_none(),
            "synchronous engines have no scheduler state"
        );
        self.faults.set_noise(cp.false_negative, cp.false_positive);
        for i in 0..self.n {
            let j = self.int(i);
            self.faults
                .restore_node(j, cp.crashed[i], cp.rng_positions[i]);
        }
        self.set_states(states);
        self.round = cp.steps;
    }

    /// Turns complexity accounting on (same passive probe as the
    /// generic engine; see
    /// [`TickEngine::enable_instrumentation`](crate::TickEngine::enable_instrumentation)).
    pub fn enable_instrumentation(&mut self, recorder_capacity: Option<usize>) {
        self.instr.enable(recorder_capacity);
        self.refresh_sampler_caches();
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

/// Draws 64 **bitsliced** Bernoulli(`p`) samples from one RNG stream,
/// but only for the lanes selected by `need`; unselected lanes come
/// back 0 and cost nothing extra.
///
/// This is the batched draw of the 64-lane Monte-Carlo path: one
/// `next_u64()` decides one *bit of precision* for all undecided lanes
/// simultaneously, instead of one call per lane.
///
/// # The mapping (pinned by `bit_kernel_equivalence`)
///
/// A scalar `rng.random_bool(p)` is `(next_u64() >> 11) < T` with the
/// 53-bit threshold `T = ⌊p · 2^53⌋`. The bitsliced form runs the same
/// comparison MSB-first across lanes: for precision bit `k = 52, …, 0`,
/// one `next_u64()` word `r` supplies bit `k` of every lane's sample,
/// and comparing against bit `k` of `T` decides lanes whose prefix
/// stops matching — if `T`'s bit is 1, lanes with sample bit 0 are
/// decided *true*; if 0, lanes with sample bit 1 are decided *false*.
/// The loop stops as soon as every selected lane is decided (~2 words
/// expected); lanes still undecided after bit 0 equal `T` exactly and
/// are *false* (strict `<`). `need == 0` draws nothing, so skipped
/// groups leave the stream untouched.
///
/// The draw count depends only on `(p, need, stream position)` — never
/// on other streams — so lane executions stay deterministic and
/// order-independent, the same property the per-node streams give the
/// engines. It is **not** the scalar mapping: a lane-packed trial and a
/// `run_trials`-driven trial of the same index consume their streams
/// differently and agree only in distribution.
pub fn bernoulli_words(rng: &mut impl RngCore, p: f64, need: u64) -> u64 {
    assert!((0.0..1.0).contains(&p), "probability must be in [0, 1)");
    if need == 0 {
        return 0;
    }
    let threshold = (p * (1u64 << 53) as f64) as u64;
    let mut decided_true = 0u64;
    let mut undecided = need;
    for k in (0..53).rev() {
        let r = rng.next_u64();
        if threshold >> k & 1 == 1 {
            decided_true |= undecided & !r;
            undecided &= r;
        } else {
            undecided &= !r;
        }
        if undecided == 0 {
            break;
        }
    }
    // Lanes that matched every threshold bit are equal to T: false.
    decided_true & need
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn bernoulli_words_extremes_and_masking() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(bernoulli_words(&mut rng, 0.0, u64::MAX), 0);
        let w = bernoulli_words(&mut rng, 0.999999, u64::MAX);
        assert!(w.count_ones() > 48, "{w:b}");
        // Unselected lanes never come back set.
        let need = 0x00ff_00ff_00ff_00ff;
        let w = bernoulli_words(&mut rng, 0.5, need);
        assert_eq!(w & !need, 0);
    }

    #[test]
    fn bernoulli_words_zero_need_draws_nothing() {
        use rand::RngCore as _;
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(bernoulli_words(&mut a, 0.5, 0), 0);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bernoulli_words_distribution() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for p in [0.1, 0.5, 0.9] {
            let mut ones = 0u64;
            let rounds = 2000;
            for _ in 0..rounds {
                ones += u64::from(bernoulli_words(&mut rng, p, u64::MAX).count_ones());
            }
            let rate = ones as f64 / (rounds * 64) as f64;
            assert!((rate - p).abs() < 0.01, "p={p} rate={rate}");
        }
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1)")]
    fn bernoulli_words_validates_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let _ = bernoulli_words(&mut rng, 1.0, 1);
    }
}
