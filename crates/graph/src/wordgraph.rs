//! Word-packed adjacency view for bit-parallel beep propagation.
//!
//! The beeping model's whole communication step is `heard(v) = OR over
//! N(v) of beeps(u)` — a boolean sparse matrix–vector product. When node
//! flags live in `u64` bitsets (one bit per node), that product runs
//! word-wide: 64 nodes per instruction instead of one. [`WordGraph`] is
//! the adjacency structure specialised for that product, built from a
//! [`Graph`] and then *patched*, never rebuilt, as edges come and go
//! (see "Topology changes" below).
//!
//! Two execution plans are chosen at build time:
//!
//! * **Rotations** — when every directed edge `u → v` falls into a small
//!   number of *shift classes* `d = (v − u) mod n` (cycles have 2, tori
//!   6, hypercubes `log n`), propagation is a handful of `n`-bit ring
//!   rotations of the emission bitset, each `OR`ed into the result. A
//!   class that does not cover every node (e.g. the row-wrap edges of a
//!   torus) carries a source mask. This is `O(classes · n / 64)` with
//!   perfect memory locality.
//! * **EdgeStream** — the general fallback: a destination-major pull
//!   stream. The in-edges of each destination word are grouped by
//!   source word into *blocks*, and each block is stored in one of two
//!   encodings, chosen per block from the input:
//!   - a **dense** block (at least 8 edges, and at least 1.5 edges per
//!     source node that has one) keeps a bitset of its present sources
//!     plus one destination mask per present source, in source order.
//!     Propagation walks only the sources that beep,
//!     `src[src_word] & present`, and ORs in the mask at each one's rank
//!     among the present bits;
//!   - every other block keeps one packed `u32` per directed edge
//!     (`src_word << 12 | src_bit << 6 | dst_bit`), in source order, and
//!     propagation tests each edge's source bit branch-free, keeping the
//!     destination word in a register and storing it once.
//!
//!   On unit-disk graphs a source typically reaches several nodes of a
//!   destination word, so almost every edge lands in a dense block and
//!   costs nothing unless its source beeps; scale-free, random and tree
//!   graphs stay mostly packed.
//!
//! Before falling back, the builder computes a **Reverse Cuthill–McKee
//! relabeling** ([`crate::algo::reverse_cuthill_mckee`]) and retries the
//! shift classification under the new labels — a structured topology
//! whose labels were scrambled snaps back to the rotation fast path,
//! and everything else gets a near-banded edge stream whose source
//! reads hit hot cache lines. The permutation is recorded in
//! [`WordGraph::relabeling`]: bitsets handed to [`propagate_or`] live in
//! the *internal* (relabeled) space, and callers translate node ids at
//! their public boundary so the relabeling stays externally invisible.
//!
//! # Topology changes: patch, don't replan
//!
//! A churning graph keeps the plan and the labeling chosen at build
//! time. [`WordGraph::apply_delta`] marks *dirty* the destinations
//! whose live neighborhood differs from the base plan's and stores
//! exactly their live in-edges as a **patch**, in the same dense and
//! packed block encoding, built by the same encoder and read by the
//! same gather. [`propagate_or`] runs the base gather, resets each
//! dirty destination to the bit it held before that gather, and ORs in
//! the patch gather — exact for additions and removals alike. An event
//! reads the live neighbors of the dirty nodes in the words it touches,
//! `O(deg)` per dirty node, and re-encodes the patch in one linear
//! pass; a heal that restores the base leaves the patch empty. Once the
//! patch carries more than a quarter of the base plan's in-edges, the
//! base is re-packed from the live graph under the kept labeling, with
//! no RCM, so bitsets in internal label order stay valid across every
//! change.
//!
//! Invariant shared with all callers: in the last word of an `n`-bit
//! bitset, bits `>= n` are zero. [`WordGraph::propagate_or`] preserves
//! it and relies on it.
//!
//! [`propagate_or`]: WordGraph::propagate_or

use crate::algo::reverse_cuthill_mckee;
use crate::{Graph, NodeId, OverlayGraph, TopologyDelta};
use std::collections::{BTreeMap, BTreeSet};

/// Number of `u64` words needed for an `n`-bit node bitset.
#[inline]
pub fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// Above this many distinct shift classes the rotation plan stops paying
/// for itself and construction falls back to the edge stream. Cycles
/// need 2, tori 6, hypercubes `2 log n` (12 covers n = 64); a
/// random-regular graph blows past the cap immediately.
const MAX_SHIFT_CLASSES: usize = 12;

/// Packed edge-stream entries reserve 20 bits for the source word
/// index, so the stream plan handles up to `2^26` nodes.
const MAX_STREAM_NODES: usize = 1 << 26;

/// A block (the edges from one source word into one destination word)
/// is stored dense when it has at least this many edges and at least
/// 1.5 edges per present source; below that, one packed `u32` per edge
/// is both smaller and cheaper to stream.
const DENSE_MIN_EDGES: usize = 8;

/// A patched plan re-packs its base once the patch carries more than
/// `1 / REPACK_DIVISOR` of the base plan's in-edges: the patch gather
/// then costs every round a sizeable share of what one re-pack costs
/// once.
const REPACK_DIVISOR: usize = 4;

/// One packed edge-stream entry: the directed edge from internal node
/// `src` into internal node `dst`, `src_word << 12 | src_bit << 6 |
/// dst_bit`.
#[inline]
fn pack(src: usize, dst: usize) -> u32 {
    ((src >> 6) as u32) << 12 | ((src & 63) as u32) << 6 | (dst & 63) as u32
}

/// One shift class of the rotation plan: every directed edge `u → v`
/// with `(v − u) mod n == shift`.
#[derive(Debug, Clone)]
struct Rotation {
    /// Ring-rotation amount, `1..n`.
    shift: usize,
    /// Bitset of source nodes that have an out-edge in this class, or
    /// `None` when all `n` nodes do (the mask load is skipped).
    mask: Option<Vec<u64>>,
}

#[derive(Debug, Clone)]
enum Plan {
    Rotations(Vec<Rotation>),
    EdgeStream(EdgeStream),
}

/// The edge-stream encoding: per destination row, its dense blocks and
/// its packed sparse edges (see the module docs). A base plan has one
/// row per destination word; a patch has one per dirty word.
#[derive(Debug, Clone, Default)]
struct EdgeStream {
    /// `blocks[block_offsets[w]..block_offsets[w + 1]]` feed row `w`;
    /// length `rows + 1`.
    block_offsets: Vec<usize>,
    blocks: Vec<DenseBlock>,
    /// Destination masks of every dense block, one per present source.
    masks: Vec<u64>,
    /// `entries[offsets[w]..offsets[w + 1]]` feed row `w`; length
    /// `rows + 1`.
    offsets: Vec<usize>,
    /// Packed directed edges of the sparse blocks (see [`pack`]), in
    /// source order within each row.
    entries: Vec<u32>,
}

/// The live graph's departures from a [`WordGraph`]'s base plan (see
/// [`WordGraph::apply_delta`]).
#[derive(Debug, Clone, Default)]
struct Patch {
    /// Directed edges whose presence differs from the base plan, as
    /// keys `dst << 32 | src` in internal labels. Every valid add or
    /// remove toggles one, so a heal that restores the base empties the
    /// set. A node is dirty while it heads a key.
    toggled: BTreeSet<u64>,
    /// Per destination word holding a dirty node: its dirty mask and
    /// the live in-edges of those nodes, packed and sorted — the
    /// encoder's input form.
    rows: BTreeMap<usize, (u64, Vec<u32>)>,
    /// Live in-edges over all `rows`.
    edges: usize,
    /// The encoded rows: `stream` row `k` feeds destination word
    /// `words[k]`, whose dirty nodes are `dirty[k]`.
    words: Vec<usize>,
    dirty: Vec<u64>,
    stream: EdgeStream,
}

/// The edges from source word `src_word` into one destination word,
/// stored per source: source bit `b` of `present` owns
/// `masks[base + rank]`, where `rank` counts the present bits below `b`.
#[derive(Debug, Clone)]
struct DenseBlock {
    present: u64,
    src_word: usize,
    base: usize,
}

/// A node relabeling attached to a [`WordGraph`]: the plan's bitsets
/// are indexed by *internal* labels, callers' public ids by *original*
/// labels.
#[derive(Debug, Clone)]
pub struct Relabeling {
    /// `perm[original] = internal`.
    perm: Vec<u32>,
    /// `inv[internal] = original`.
    inv: Vec<u32>,
}

impl Relabeling {
    fn new(perm: Vec<u32>) -> Self {
        let mut inv = vec![0u32; perm.len()];
        for (orig, &int) in perm.iter().enumerate() {
            inv[int as usize] = orig as u32;
        }
        Relabeling { perm, inv }
    }

    /// Internal label of original node `u`.
    #[inline]
    pub fn to_internal(&self, u: usize) -> usize {
        self.perm[u] as usize
    }

    /// Original label of internal node `i`.
    #[inline]
    pub fn to_original(&self, i: usize) -> usize {
        self.inv[i] as usize
    }

    /// The forward permutation, `perm[original] = internal`.
    #[inline]
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// The inverse permutation, `inv[internal] = original`.
    #[inline]
    pub fn inv(&self) -> &[u32] {
        &self.inv
    }
}

/// A word-packed adjacency view of a [`Graph`], optimised for the
/// bit-parallel product `heard |= A · beeps` over `u64` bitsets.
///
/// # Example
///
/// ```
/// use bfw_graph::{generators, WordGraph};
///
/// let g = generators::cycle(100);
/// let wg = WordGraph::build(&g);
/// let mut emit = vec![0u64; wg.words()];
/// emit[0] = 1; // node 0 beeps
/// let mut heard = emit.clone(); // nodes hear themselves
/// wg.propagate_or(&emit, &mut heard);
/// // Neighbors 1 and 99 now hear the beep.
/// assert_eq!(heard[0] & 0b11, 0b11);
/// assert_eq!(heard[1] >> 35 & 1, 1); // bit 99
/// ```
#[derive(Debug, Clone)]
pub struct WordGraph {
    n: usize,
    words: usize,
    /// The base plan, packed at build time or at the last re-pack.
    plan: Plan,
    relabel: Option<Relabeling>,
    /// Directed edges the base plan carries.
    base_edges: usize,
    patch: Patch,
}

impl WordGraph {
    /// Builds the view: rotation plan when the directed edges fall into
    /// at most 12 shift classes, otherwise an RCM relabeling is
    /// computed, the classification retried under the new labels, and
    /// failing that the (relabeled) edge-stream plan is used. When a
    /// relabeling is active ([`Self::relabeling`] is `Some`) the bitsets
    /// passed to [`Self::propagate_or`] are in internal label space.
    pub fn build(graph: &Graph) -> Self {
        Self::build_inner(graph, true)
    }

    /// Builds the view without ever relabeling — original labels, edge
    /// stream fallback as-is. Used to benchmark what the relabeling
    /// buys; engines should prefer [`Self::build`].
    pub fn build_no_relabel(graph: &Graph) -> Self {
        Self::build_inner(graph, false)
    }

    fn build_inner(graph: &Graph, relabel: bool) -> Self {
        let (plan, relab) = if let Some(classes) = classify_shifts(graph, None) {
            (Plan::Rotations(build_rotations(graph, classes, None)), None)
        } else if relabel {
            let relab = Relabeling::new(reverse_cuthill_mckee(graph));
            let plan = match classify_shifts(graph, Some(&relab)) {
                Some(classes) => Plan::Rotations(build_rotations(graph, classes, Some(&relab))),
                None => Plan::EdgeStream(EdgeStream::build(graph, Some(&relab))),
            };
            (plan, Some(relab))
        } else {
            (Plan::EdgeStream(EdgeStream::build(graph, None)), None)
        };
        let n = graph.node_count();
        WordGraph {
            n,
            words: words_for(n),
            plan,
            relabel: relab,
            base_edges: 2 * graph.edge_count(),
            patch: Patch::default(),
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of `u64` words per node bitset, `ceil(n / 64)`.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// `true` when the rotation plan was selected (cycles, tori, …).
    pub fn uses_rotations(&self) -> bool {
        matches!(self.plan, Plan::Rotations(_))
    }

    /// `true` when the destination-major edge-stream plan was selected.
    pub fn uses_edge_stream(&self) -> bool {
        matches!(self.plan, Plan::EdgeStream(_))
    }

    /// Short name of the selected plan, for reports.
    pub fn plan_kind(&self) -> &'static str {
        match self.plan {
            Plan::Rotations(_) => "rotations",
            Plan::EdgeStream(_) => "edge-stream",
        }
    }

    /// The active node relabeling, or `None` when the plan runs in
    /// original labels. Fixed at build time: [`Self::apply_delta`]
    /// never changes it.
    #[inline]
    pub fn relabeling(&self) -> Option<&Relabeling> {
        self.relabel.as_ref()
    }

    /// Directed in-edges the patch carries on top of the base plan: 0
    /// right after a build, a re-pack, or a heal that restores the base.
    pub fn patched_edges(&self) -> usize {
        self.patch.edges
    }

    /// Applies `delta`, already applied to `live`, so that the plan
    /// describes `live` from now on. The base plan and the labeling
    /// stay; every node whose live neighborhood now differs from the
    /// base's is dirty, and the patch holds exactly the dirty nodes'
    /// live in-edges (see the module docs). The adjacency work is
    /// reading the live neighbors of the dirty nodes in the words the
    /// delta touches, `O(deg)` per dirty node; the patch is then
    /// re-encoded in one pass over its packed edges. Once the patch
    /// carries more than a quarter of the base plan's in-edges, the
    /// base is re-packed from `live` under the kept labeling and the
    /// patch empties. A graph with more nodes than a patch addresses
    /// (`2^26`) re-packs on every delta.
    ///
    /// # Panics
    ///
    /// Panics if `live` has a different node count, or if a graph with
    /// more than `2^26` nodes leaves the rotation plan.
    pub fn apply_delta(&mut self, delta: &TopologyDelta, live: &OverlayGraph) {
        assert_eq!(live.node_count(), self.n, "delta changes the node count");
        if self.n > MAX_STREAM_NODES {
            // A patch packs source words in 20 bits, as the stream does.
            self.repack(live);
            return;
        }
        let relab = self.relabel.as_ref();
        let internal = |u: NodeId| relab.map_or(u.index(), |r| r.to_internal(u.index()));
        let orig = |v: usize| NodeId::new(relab.map_or(v, |r| r.to_original(v)));
        let mut flips = Vec::with_capacity(2 * delta.len());
        for &(u, v) in delta.removed().iter().chain(delta.added()) {
            let (u, v) = (internal(u) as u64, internal(v) as u64);
            flips.extend([u << 32 | v, v << 32 | u]);
        }
        // In key order, the toggles walk the set's leaves in order.
        flips.sort_unstable();
        for &key in &flips {
            if !self.patch.toggled.insert(key) {
                self.patch.toggled.remove(&key);
            }
        }
        let mut words: Vec<usize> = flips.iter().map(|&key| (key >> 38) as usize).collect();
        words.dedup();

        // Size the touched rows from live degrees first, so that a delta
        // ending in a re-pack reads no adjacency for the patch.
        let mut edges = self.patch.edges;
        let mut touched = Vec::with_capacity(words.len());
        for w in words {
            let dirty = self.patch.dirty_in(w);
            edges -= self.patch.rows.get(&w).map_or(0, |(_, row)| row.len());
            edges += nodes_in(w, dirty)
                .map(|v| live.degree(orig(v)))
                .sum::<usize>();
            touched.push((w, dirty));
        }
        if edges * REPACK_DIVISOR > self.base_edges {
            self.repack(live);
            return;
        }
        for (w, dirty) in touched {
            if dirty == 0 {
                self.patch.rows.remove(&w);
                continue;
            }
            let mut row = Vec::new();
            for v in nodes_in(w, dirty) {
                row.extend(live.neighbors(orig(v)).map(|u| pack(internal(u), v)));
            }
            row.sort_unstable();
            self.patch.rows.insert(w, (dirty, row));
        }
        self.patch.edges = edges;
        self.patch.encode();
    }

    /// Re-packs the base plan from `live` under the kept labeling, with
    /// no RCM, and empties the patch.
    fn repack(&mut self, live: &OverlayGraph) {
        let graph = live.to_graph();
        let relab = self.relabel.as_ref();
        self.plan = match classify_shifts(&graph, relab) {
            Some(classes) => Plan::Rotations(build_rotations(&graph, classes, relab)),
            None => Plan::EdgeStream(EdgeStream::build(&graph, relab)),
        };
        self.base_edges = 2 * graph.edge_count();
        self.patch = Patch::default();
    }

    /// ORs every emitter's neighborhood into `dst`:
    /// `dst[v] |= OR over u in N(v) of src[u]` for all `v`, bitset-wise.
    ///
    /// `src` and `dst` are `n`-bit bitsets (`self.words()` words each)
    /// with bits `>= n` clear in the last word; the call preserves that
    /// invariant. Self-hearing is the caller's job (copy `src` into
    /// `dst` first). When [`Self::relabeling`] is `Some`, both bitsets
    /// are indexed by internal labels.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` has the wrong length.
    pub fn propagate_or(&self, src: &[u64], dst: &mut [u64]) {
        assert_eq!(src.len(), self.words, "src has wrong word count");
        assert_eq!(dst.len(), self.words, "dst has wrong word count");
        self.propagate_or_range(src, dst, 0);
    }

    /// Ranged [`Self::propagate_or`]: fills only the destination words
    /// `lo..lo + dst_chunk.len()` (reading `src` wherever the plan
    /// needs), writing into `dst_chunk[w - lo]`. Disjoint chunks
    /// covering `0..words` compose to exactly `propagate_or` — this is
    /// the word-sharded entry point used by the parallel engine.
    ///
    /// # Panics
    ///
    /// Panics if `src` has the wrong length or the chunk overruns the
    /// word range.
    pub fn propagate_or_range(&self, src: &[u64], dst_chunk: &mut [u64], lo: usize) {
        assert_eq!(src.len(), self.words, "src has wrong word count");
        let hi = lo + dst_chunk.len();
        assert!(hi <= self.words, "dst chunk overruns word range");
        let patch = &self.patch;
        let rows =
            patch.words.partition_point(|&w| w < lo)..patch.words.partition_point(|&w| w < hi);
        // The dirty destinations' bits before the base gather; the patch
        // gather ORs their live in-edges into these.
        let mut fixed: Vec<u64> = rows
            .clone()
            .map(|k| dst_chunk[patch.words[k] - lo] & patch.dirty[k])
            .collect();
        match &self.plan {
            Plan::Rotations(rotations) => {
                for rot in rotations {
                    rotate_or_into(dst_chunk, lo, src, rot.mask.as_deref(), rot.shift, self.n);
                }
            }
            Plan::EdgeStream(stream) => {
                stream.gather_dense(src, dst_chunk, lo);
                stream.gather_packed(src, dst_chunk, lo);
            }
        }
        if !fixed.is_empty() {
            patch.stream.gather_dense(src, &mut fixed, rows.start);
            patch.stream.gather_packed(src, &mut fixed, rows.start);
            for (k, fix) in rows.zip(fixed) {
                let out = &mut dst_chunk[patch.words[k] - lo];
                *out = *out & !patch.dirty[k] | fix;
            }
        }
    }
}

impl Patch {
    /// The dirty nodes of destination word `w`, as a mask.
    fn dirty_in(&self, w: usize) -> u64 {
        let w = w as u64;
        self.toggled
            .range(w << 38..(w + 1) << 38)
            .fold(0, |mask, &key| mask | 1 << (key >> 32 & 63))
    }

    /// Encodes the rows into `words`, `dirty` and `stream`.
    fn encode(&mut self) {
        self.words.clear();
        self.dirty.clear();
        let mut bounds = vec![0];
        let mut entries = Vec::with_capacity(self.edges);
        for (&w, (dirty, row)) in &self.rows {
            self.words.push(w);
            self.dirty.push(*dirty);
            entries.extend_from_slice(row);
            bounds.push(entries.len());
        }
        self.stream = EdgeStream::encode(&bounds, entries);
    }
}

/// The nodes of word `w` whose bits are set in `mask`, ascending.
fn nodes_in(w: usize, mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            64 * w + b
        })
    })
}

/// Classifies every directed edge by its shift `(v − u) mod n` (labels
/// mapped through `relab` when given). Returns the sorted distinct
/// shifts, or `None` as soon as more than [`MAX_SHIFT_CLASSES`] appear
/// (the scan bails out early).
fn classify_shifts(graph: &Graph, relab: Option<&Relabeling>) -> Option<Vec<usize>> {
    let n = graph.node_count();
    if n == 0 || graph.edge_count() == 0 {
        return Some(Vec::new());
    }
    let map = |u: usize| match relab {
        Some(r) => r.to_internal(u),
        None => u,
    };
    let mut shifts = BTreeMap::new();
    for u in graph.nodes() {
        for &v in graph.neighbors(u) {
            let d = (map(v.index()) + n - map(u.index())) % n;
            shifts.insert(d, ());
            if shifts.len() > MAX_SHIFT_CLASSES {
                return None;
            }
        }
    }
    Some(shifts.into_keys().collect())
}

fn build_rotations(
    graph: &Graph,
    classes: Vec<usize>,
    relab: Option<&Relabeling>,
) -> Vec<Rotation> {
    let n = graph.node_count();
    let words = words_for(n);
    classes
        .into_iter()
        .map(|shift| {
            let mut mask = vec![0u64; words];
            let mut covered = 0usize;
            for u_int in 0..n {
                let target_int = (u_int + shift) % n;
                let (u, target) = match relab {
                    Some(r) => (r.to_original(u_int), r.to_original(target_int)),
                    None => (u_int, target_int),
                };
                if graph.has_edge(NodeId::new(u), NodeId::new(target)) {
                    mask[u_int >> 6] |= 1u64 << (u_int & 63);
                    covered += 1;
                }
            }
            Rotation {
                shift,
                mask: (covered < n).then_some(mask),
            }
        })
        .collect()
}

impl EdgeStream {
    /// Builds a base plan's stream: a count and a fill pass over the
    /// edges pack them per destination word, then [`Self::encode`]
    /// compresses them.
    ///
    /// The fill pass walks sources in internal label order, so each
    /// destination word's bucket comes out grouped by source word, then
    /// source bit — no sort needed — and each block is one run of it.
    fn build(graph: &Graph, relab: Option<&Relabeling>) -> Self {
        let n = graph.node_count();
        assert!(
            n <= MAX_STREAM_NODES,
            "edge-stream plan packs src words in 20 bits: n = {n} > {MAX_STREAM_NODES}"
        );
        let words = words_for(n);
        let internal = |v: NodeId| relab.map_or(v.index(), |r| r.to_internal(v.index()));
        let mut bounds = vec![0usize; words + 1];
        for u in graph.nodes() {
            for &v in graph.neighbors(u) {
                bounds[(internal(v) >> 6) + 1] += 1;
            }
        }
        for w in 1..bounds.len() {
            bounds[w] += bounds[w - 1];
        }
        let mut entries = vec![0u32; bounds[words]];
        let mut cursor = bounds.clone();
        for ui in 0..n {
            let u = relab.map_or(ui, |r| r.to_original(ui));
            for &v in graph.neighbors(NodeId::new(u)) {
                let vi = internal(v);
                let slot = &mut cursor[vi >> 6];
                entries[*slot] = pack(ui, vi);
                *slot += 1;
            }
        }
        Self::encode(&bounds, entries)
    }

    /// Encodes packed edges grouped by destination row —
    /// `entries[bounds[w]..bounds[w + 1]]` feed row `w`, in source
    /// order — into dense blocks and packed runs: two passes classify
    /// the blocks and compress the stream in place.
    fn encode(bounds: &[usize], mut entries: Vec<u32>) -> Self {
        let rows = bounds.len() - 1;
        // Classify the blocks, sizing the masks exactly: the build never
        // holds a grown buffer and its copy at once.
        let mut blocks = Vec::new();
        let mut block_offsets = vec![0];
        let mut dense_lens = Vec::new();
        let mut dense_sources = 0;
        for w in 0..rows {
            for run in entries[bounds[w]..bounds[w + 1]].chunk_by(|a, b| a >> 12 == b >> 12) {
                if let Some(present) = dense_present(run) {
                    blocks.push(DenseBlock {
                        present,
                        src_word: (run[0] >> 12) as usize,
                        base: dense_sources,
                    });
                    dense_lens.push(run.len());
                    dense_sources += present.count_ones() as usize;
                }
            }
            block_offsets.push(blocks.len());
        }
        // Fill the masks, one per source of each dense run (its edges
        // are grouped by source bit), and shift the packed edges of the
        // other runs down over the runs taken out.
        let mut masks = Vec::with_capacity(dense_sources);
        let mut offsets = vec![0];
        let (mut kept, mut next) = (0, 0);
        for w in 0..rows {
            let mut i = bounds[w];
            while i < bounds[w + 1] {
                if next < block_offsets[w + 1]
                    && blocks[next].src_word == (entries[i] >> 12) as usize
                {
                    let run = &entries[i..i + dense_lens[next]];
                    masks.extend(
                        run.chunk_by(|a, b| a >> 6 == b >> 6)
                            .map(|source| source.iter().fold(0u64, |m, &e| m | 1 << (e & 63))),
                    );
                    i += run.len();
                    next += 1;
                } else {
                    entries[kept] = entries[i];
                    kept += 1;
                    i += 1;
                }
            }
            offsets.push(kept);
        }
        entries.truncate(kept);
        entries.shrink_to_fit();
        EdgeStream {
            block_offsets,
            blocks,
            masks,
            offsets,
            entries,
        }
    }

    // The two passes of the ranged gather behind
    // `WordGraph::propagate_or_range`. Each stays out of line so that
    // its loop gets the registers to itself: inlined together, the
    // packed loop reloads `src` from the stack on every edge.

    /// ORs the dense blocks of rows `lo..` into `dst_chunk`.
    #[inline(never)]
    fn gather_dense(&self, src: &[u64], dst_chunk: &mut [u64], lo: usize) {
        for (w, out) in (lo..).zip(dst_chunk.iter_mut()) {
            for block in &self.blocks[self.block_offsets[w]..self.block_offsets[w + 1]] {
                let mut live = src[block.src_word] & block.present;
                while live != 0 {
                    // The present sources below the lowest live one.
                    let below = block.present & ((live & live.wrapping_neg()) - 1);
                    *out |= self.masks[block.base + below.count_ones() as usize];
                    live &= live - 1;
                }
            }
        }
    }

    /// ORs the packed edges of rows `lo..` into `dst_chunk`.
    #[inline(never)]
    fn gather_packed(&self, src: &[u64], dst_chunk: &mut [u64], lo: usize) {
        for (w, out) in (lo..).zip(dst_chunk.iter_mut()) {
            let mut acc = *out;
            for &e in &self.entries[self.offsets[w]..self.offsets[w + 1]] {
                let bit = src[(e >> 12) as usize] >> ((e >> 6) & 63) & 1;
                acc |= bit << (e & 63);
            }
            *out = acc;
        }
    }
}

/// The present-source bitset of `run` — one block's packed edges — when
/// the block is stored dense: at least [`DENSE_MIN_EDGES`] edges and at
/// least 1.5 edges per present source.
fn dense_present(run: &[u32]) -> Option<u64> {
    if run.len() < DENSE_MIN_EDGES {
        return None;
    }
    let present = run.iter().fold(0u64, |m, &e| m | 1 << (e >> 6 & 63));
    (2 * run.len() >= 3 * present.count_ones() as usize).then_some(present)
}

/// ORs the `n`-bit ring rotation of `src` (optionally masked) by
/// `shift` bits into the destination chunk covering words
/// `lo..lo + dst_chunk.len()`: bit `i` of the masked source lands on
/// bit `(i + shift) mod n`.
///
/// Decomposes into a word-level left shift by `shift` (bits that stay
/// below `n`) plus a word-level right shift by `n − shift` (bits that
/// wrap); both are plain two-word funnel shifts. Relies on bits `>= n`
/// of `src`'s last word being zero and leaves the destination's clear.
fn rotate_or_into(
    dst_chunk: &mut [u64],
    lo: usize,
    src: &[u64],
    mask: Option<&[u64]>,
    shift: usize,
    n: usize,
) {
    debug_assert!(shift > 0 && shift < n);
    let words = src.len();
    let hi = lo + dst_chunk.len();
    let read = |w: usize| -> u64 {
        match mask {
            Some(m) => src[w] & m[w],
            None => src[w],
        }
    };
    // Bits >= n of the last word must stay clear after the left shift.
    let tail_bits = n - 64 * (words - 1);
    let tail_mask = if tail_bits == 64 {
        u64::MAX
    } else {
        (1u64 << tail_bits) - 1
    };

    // Part 1: bits i in 0..n-shift go to i+shift (word-level shl).
    let (q, r) = (shift / 64, (shift % 64) as u32);
    for w in (q.max(lo)..hi).rev() {
        let lo_word = read(w - q);
        let out = if r == 0 {
            lo_word
        } else {
            let carry = if w > q {
                read(w - q - 1) >> (64 - r)
            } else {
                0
            };
            (lo_word << r) | carry
        };
        dst_chunk[w - lo] |= if w == words - 1 { out & tail_mask } else { out };
    }

    // Part 2: bits i in n-shift..n wrap to i-(n-shift) (word-level shr).
    let e = n - shift;
    let (qe, re) = (e / 64, (e % 64) as u32);
    for w in lo..hi.min(words.saturating_sub(qe)) {
        let hi_word = read(w + qe);
        let out = if re == 0 {
            hi_word
        } else {
            let carry = if w + qe + 1 < words {
                read(w + qe + 1) << (64 - re)
            } else {
                0
            };
            (hi_word >> re) | carry
        };
        dst_chunk[w - lo] |= out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Reference propagation straight off the CSR lists.
    fn naive(graph: &Graph, emit: &[bool]) -> Vec<bool> {
        let mut heard = emit.to_vec();
        for u in graph.nodes() {
            if emit[u.index()] {
                for &v in graph.neighbors(u) {
                    heard[v.index()] = true;
                }
            }
        }
        heard
    }

    /// Packs original-label flags into the plan's (possibly relabeled)
    /// bitset space.
    fn pack(flags: &[bool], wg: &WordGraph) -> Vec<u64> {
        let mut words = vec![0u64; wg.words()];
        for (i, &b) in flags.iter().enumerate() {
            if b {
                let j = wg.relabeling().map_or(i, |r| r.to_internal(i));
                words[j >> 6] |= 1u64 << (j & 63);
            }
        }
        words
    }

    /// Unpacks the plan's bitset back to original-label flags.
    fn unpack(words: &[u64], n: usize, wg: &WordGraph) -> Vec<bool> {
        (0..n)
            .map(|i| {
                let j = wg.relabeling().map_or(i, |r| r.to_internal(i));
                words[j >> 6] >> (j & 63) & 1 == 1
            })
            .collect()
    }

    fn check_one(graph: &Graph, wg: &WordGraph, seed: u64) {
        let n = graph.node_count();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for density in [0.0, 0.02, 0.5, 1.0] {
            let emit: Vec<bool> = (0..n).map(|_| rng.random_bool(density)).collect();
            let words = pack(&emit, wg);
            let mut heard = words.clone();
            wg.propagate_or(&words, &mut heard);
            assert_eq!(unpack(&heard, n, wg), naive(graph, &emit), "n={n}");
            if !n.is_multiple_of(64) && n > 0 {
                assert_eq!(
                    heard[wg.words() - 1] >> (n % 64),
                    0,
                    "bits >= n must stay clear"
                );
            }
            // Ranged propagation over chunks cut at random word
            // boundaries (empty chunks included) must compose to the
            // whole-range call.
            for _ in 0..4 {
                let mut cuts: Vec<usize> = (0..rng.random_range(1usize..8))
                    .map(|_| rng.random_range(0..wg.words() + 1))
                    .collect();
                cuts.extend([0, wg.words()]);
                cuts.sort_unstable();
                let mut composed = words.clone();
                for cut in cuts.windows(2) {
                    wg.propagate_or_range(&words, &mut composed[cut[0]..cut[1]], cut[0]);
                }
                assert_eq!(composed, heard, "cuts={cuts:?} n={n}");
            }
        }
    }

    /// Dense blocks, edges stored in dense blocks, and packed sparse
    /// entries of an edge-stream plan.
    fn stream_shape(wg: &WordGraph) -> (usize, usize, usize) {
        let Plan::EdgeStream(stream) = &wg.plan else {
            panic!("expected the edge-stream plan, got {}", wg.plan_kind());
        };
        let dense_edges = stream.masks.iter().map(|m| m.count_ones() as usize).sum();
        (stream.blocks.len(), dense_edges, stream.entries.len())
    }

    fn check_against_naive(graph: &Graph, seed: u64) {
        check_one(graph, &WordGraph::build(graph), seed);
        check_one(graph, &WordGraph::build_no_relabel(graph), seed + 1);
    }

    #[test]
    fn cycle_uses_rotations_and_matches_naive() {
        for n in [3, 5, 63, 64, 65, 127, 128, 129, 1000] {
            let g = generators::cycle(n);
            let wg = WordGraph::build(&g);
            assert!(wg.uses_rotations(), "cycle({n})");
            assert!(wg.relabeling().is_none(), "cycle({n}) needs no relabel");
            check_against_naive(&g, 7 + n as u64);
        }
    }

    #[test]
    fn torus_uses_rotations_and_matches_naive() {
        for (r, c) in [(3, 3), (4, 5), (8, 8), (5, 13)] {
            let g = generators::torus(r, c);
            let wg = WordGraph::build(&g);
            assert!(wg.uses_rotations(), "torus({r},{c})");
            check_against_naive(&g, (r * 31 + c) as u64);
        }
    }

    #[test]
    fn path_uses_masked_rotations() {
        let g = generators::path(130);
        let wg = WordGraph::build(&g);
        assert!(wg.uses_rotations());
        check_against_naive(&g, 11);
    }

    #[test]
    fn scrambled_cycle_relabels_back_to_rotations() {
        // Same cycle as `cycle_uses_rotations…` but with labels sent
        // through a multiplicative scramble: the original labels blow
        // the shift-class cap, and RCM must recover a banded order that
        // re-enables the rotation plan.
        let n = 257usize;
        let mut scramble: Vec<u32> = (0..n as u32).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(97);
        for i in (1..n).rev() {
            scramble.swap(i, rng.random_range(0..i + 1));
        }
        let edges: Vec<(u32, u32)> = (0..n)
            .map(|i| (scramble[i], scramble[(i + 1) % n]))
            .collect();
        let g = Graph::from_edges(n, edges).unwrap();
        let wg = WordGraph::build(&g);
        assert!(wg.relabeling().is_some(), "scramble must trigger RCM");
        assert!(wg.uses_rotations(), "relabeled cycle must rotate");
        assert!(WordGraph::build_no_relabel(&g).uses_edge_stream());
        check_against_naive(&g, 41);
    }

    #[test]
    fn random_regular_uses_relabeled_edge_stream() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let g = generators::random_regular(96, 4, 10_000, &mut rng).unwrap();
        assert_eq!(g.uniform_degree(), Some(4));
        let wg = WordGraph::build(&g);
        assert!(!wg.uses_rotations());
        assert!(wg.uses_edge_stream());
        assert!(wg.relabeling().is_some(), "expander still gets RCM order");
        assert_eq!(wg.plan_kind(), "edge-stream");
        check_against_naive(&g, 13);
    }

    #[test]
    fn irregular_graph_uses_edge_stream() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let g = generators::erdos_renyi(80, 0.08, &mut rng);
        if !WordGraph::build(&g).uses_rotations() {
            check_against_naive(&g, 17);
        }
    }

    #[test]
    fn geometric_graph_mixes_dense_and_sparse_blocks() {
        // A unit-disk graph with mean degree ≈ 20, like the churn
        // benchmark's: most (source word, destination word) blocks
        // qualify as dense, the thin ones at the band's edges do not.
        let mut rng = ChaCha8Rng::seed_from_u64(0x6e0);
        let g = generators::random_geometric_connected(4096, 0.04, &mut rng);
        let wg = WordGraph::build(&g);
        let (blocks, dense_edges, sparse) = stream_shape(&wg);
        assert!(blocks > 0 && sparse > 0, "blocks {blocks}, sparse {sparse}");
        assert_eq!(dense_edges + sparse, 2 * g.edge_count());
        assert!(dense_edges > sparse, "dense {dense_edges}, sparse {sparse}");
        check_against_naive(&g, 37);
    }

    #[test]
    fn preferential_attachment_is_mostly_sparse() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xba);
        let g = generators::preferential_attachment(3000, 3, &mut rng);
        let wg = WordGraph::build(&g);
        let (_, dense_edges, sparse) = stream_shape(&wg);
        assert_eq!(dense_edges + sparse, 2 * g.edge_count());
        assert!(sparse > dense_edges, "dense {dense_edges}, sparse {sparse}");
        check_against_naive(&g, 43);
    }

    #[test]
    fn dense_rule_is_per_block() {
        // Nodes 0..4 and 64..67 form a complete bipartite graph: the
        // blocks between words 0 and 1 carry 12 edges from 4 (resp. 3)
        // sources — dense. Nodes 96..104 and 128..136 form a matching:
        // the blocks between words 1 and 2 carry 8 edges from 8 sources
        // — packed.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for u in 0..4 {
            edges.extend((64..67).map(|v| (u, v)));
        }
        edges.extend((0..8).map(|i| (96 + i, 128 + i)));
        let g = Graph::from_edges(192, edges).unwrap();
        let wg = WordGraph::build_no_relabel(&g);
        let Plan::EdgeStream(stream) = &wg.plan else {
            panic!("expected the edge-stream plan, got {}", wg.plan_kind());
        };
        assert_eq!(stream.block_offsets, [0, 1, 2, 2]);
        assert_eq!(stream.blocks[0].present, 0b111);
        assert_eq!(stream.blocks[1].present, 0b1111);
        assert_eq!(
            stream.masks,
            [0b1111, 0b1111, 0b1111, 0b111, 0b111, 0b111, 0b111]
        );
        assert_eq!(stream.offsets, [0, 0, 8, 16]);
        check_against_naive(&g, 47);
    }

    #[test]
    fn star_matches_naive() {
        // Hub degree n-1: shift classes exceed the cap even after
        // relabeling — the stress case for the edge-stream plan.
        let g = generators::star(100);
        let wg = WordGraph::build(&g);
        assert!(!wg.uses_rotations());
        check_against_naive(&g, 23);
    }

    #[test]
    fn empty_and_singleton() {
        for n in [0, 1] {
            let g = Graph::from_edges(n, []).unwrap();
            let wg = WordGraph::build(&g);
            assert_eq!(wg.words(), words_for(n));
            let src = vec![if n == 0 { 0 } else { 1 }; wg.words()];
            let mut dst = src.clone();
            wg.propagate_or(&src, &mut dst);
            assert_eq!(dst, src);
        }
    }

    #[test]
    fn single_edge_two_nodes() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        check_against_naive(&g, 29);
    }

    #[test]
    fn hypercube_fits_rotation_cap() {
        let g = generators::hypercube(5); // 32 nodes, 10 shift classes
        let wg = WordGraph::build(&g);
        assert!(wg.uses_rotations());
        check_against_naive(&g, 31);
    }

    #[test]
    fn relabeling_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::random_regular(130, 4, 10_000, &mut rng).unwrap();
        let wg = WordGraph::build(&g);
        let r = wg.relabeling().expect("relabeled");
        for u in 0..130 {
            assert_eq!(r.to_original(r.to_internal(u)), u);
            assert_eq!(r.perm()[u] as usize, r.to_internal(u));
            assert_eq!(r.inv()[r.to_internal(u)] as usize, u);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random unit-disk graphs, from nearly empty to dense, under
        /// random beep sets: the edge-stream plan matches the CSR
        /// reference, whole and over random ranged splits.
        #[test]
        fn geometric_streams_match_naive(
            n in 1usize..700,
            radius_milli in 10u32..300,
            graph_seed in any::<u64>(),
            emit_seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(graph_seed);
            let g = generators::random_geometric(n, f64::from(radius_milli) / 1000.0, &mut rng);
            check_against_naive(&g, emit_seed);
        }
    }

    /// One patched-plan check: `wg`, patched along with `live`, must
    /// propagate exactly like a fresh build of `live` — compared in
    /// original labels, from random emit sets and an arbitrary starting
    /// `dst` — and ranged calls over random cuts, empty chunks
    /// included, must compose to the whole call.
    fn check_patched(wg: &WordGraph, live: &OverlayGraph, rng: &mut ChaCha8Rng) {
        let fresh = WordGraph::build(&live.to_graph());
        let n = live.node_count();
        for density in [0.02, 0.5] {
            let emit: Vec<bool> = (0..n).map(|_| rng.random_bool(density)).collect();
            let start: Vec<bool> = (0..n).map(|_| rng.random_bool(0.3)).collect();
            let mut expected = pack(&start, &fresh);
            fresh.propagate_or(&pack(&emit, &fresh), &mut expected);
            let src = pack(&emit, wg);
            let mut heard = pack(&start, wg);
            wg.propagate_or(&src, &mut heard);
            assert_eq!(unpack(&heard, n, wg), unpack(&expected, n, &fresh), "n={n}");
            if !n.is_multiple_of(64) {
                assert_eq!(heard[wg.words() - 1] >> (n % 64), 0, "bits >= n stay clear");
            }
            for _ in 0..3 {
                let mut cuts: Vec<usize> = (0..rng.random_range(1usize..6))
                    .map(|_| rng.random_range(0..wg.words() + 1))
                    .collect();
                cuts.extend([0, wg.words()]);
                cuts.sort_unstable();
                let mut composed = pack(&start, wg);
                for cut in cuts.windows(2) {
                    wg.propagate_or_range(&src, &mut composed[cut[0]..cut[1]], cut[0]);
                }
                assert_eq!(composed, heard, "cuts={cuts:?} n={n}");
            }
        }
    }

    /// Drives random delta sequences through [`WordGraph::apply_delta`]
    /// and an [`OverlayGraph`] in parallel, checking the plan against a
    /// fresh build after every delta: a cut and its heal, single adds
    /// and removes, remove-then-re-add pairs, then one batch
    /// large enough to re-pack the base and compact the overlay, and
    /// single edits on the re-packed base.
    fn churn_matches_fresh_builds(graph: Graph, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = graph.node_count();
        let mut wg = WordGraph::build(&graph);
        let labels = wg.relabeling().map(|r| r.perm().to_vec());
        let mut live = OverlayGraph::from_graph(graph);
        let mut check_rng = ChaCha8Rng::seed_from_u64(!seed);
        let mut apply = |wg: &mut WordGraph, live: &mut OverlayGraph, delta: &TopologyDelta| {
            live.apply(delta);
            wg.apply_delta(delta, live);
            assert_eq!(wg.relabeling().map(|r| r.perm().to_vec()), labels);
            check_patched(wg, live, &mut check_rng);
        };
        let node = |rng: &mut ChaCha8Rng| NodeId::new(rng.random_range(0..n));
        let absent = |live: &OverlayGraph, rng: &mut ChaCha8Rng| loop {
            let (u, v) = (node(rng), node(rng));
            if u != v && !live.has_edge(u, v) {
                return (u, v);
            }
        };
        let present = |live: &OverlayGraph, rng: &mut ChaCha8Rng| {
            let edges: Vec<_> = live.to_graph().edges().collect();
            edges[rng.random_range(0..edges.len())]
        };
        let single = |add: bool, (u, v): (NodeId, NodeId)| {
            let mut delta = TopologyDelta::new();
            if add {
                delta.add_edge(u, v);
            } else {
                delta.remove_edge(u, v);
            }
            delta
        };

        // A cut and its heal, from the unpatched plan: unless a re-pack
        // moved the base in between, the heal restores it exactly.
        let side: Vec<bool> = (0..n).map(|_| rng.random_bool(0.03)).collect();
        let (mut cut, mut heal) = (TopologyDelta::new(), TopologyDelta::new());
        for (u, v) in live.to_graph().edges() {
            if side[u.index()] != side[v.index()] {
                cut.remove_edge(u, v);
                heal.add_edge(u, v);
            }
        }
        let base = wg.base_edges;
        apply(&mut wg, &mut live, &cut);
        assert!(cut.is_empty() || wg.base_edges != base || !wg.patch.words.is_empty());
        apply(&mut wg, &mut live, &heal);
        if wg.base_edges == base {
            assert!(wg.patch.toggled.is_empty() && wg.patch.words.is_empty());
        }

        for k in 0..6 {
            let delta = if k % 2 == 0 || live.edge_count() == 0 {
                single(true, absent(&live, &mut rng))
            } else {
                single(false, present(&live, &mut rng))
            };
            apply(&mut wg, &mut live, &delta);
        }
        for _ in 0..2 {
            let edge = present(&live, &mut rng);
            apply(&mut wg, &mut live, &single(false, edge));
            apply(&mut wg, &mut live, &single(true, edge));
            let mut both = single(false, edge);
            both.add_edge(edge.0, edge.1);
            apply(&mut wg, &mut live, &both);
        }

        // One batch past the re-pack rule, and past the overlay's own
        // compaction threshold of max(n / 4, 16) edits.
        let mut bulk = TopologyDelta::new();
        let mut added = Vec::new();
        for _ in 0..n / 3 + 8 {
            let (u, v) = absent(&live, &mut rng);
            if !added.contains(&(u.min(v), u.max(v))) {
                added.push((u.min(v), u.max(v)));
                bulk.add_edge(u, v);
            }
        }
        apply(&mut wg, &mut live, &bulk);
        assert_eq!(wg.patched_edges(), 0, "the batch must re-pack the base");
        assert_eq!(
            live.pending_edits(),
            0,
            "the batch must compact the overlay"
        );
        for k in 0..4 {
            let delta = if k % 2 == 0 {
                single(false, present(&live, &mut rng))
            } else {
                single(true, absent(&live, &mut rng))
            };
            apply(&mut wg, &mut live, &delta);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Property: a patched plan equals a fresh build of the live
        /// graph, on random geometric, scale-free, cycle (rotations
        /// plan) and torus graphs, through random delta sequences.
        #[test]
        fn patched_plan_equals_a_fresh_build(
            family in 0usize..4,
            n in 24usize..400,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let graph = match family {
                0 => generators::random_geometric(n, 0.15, &mut rng),
                1 => generators::preferential_attachment(n, 2, &mut rng),
                2 => generators::cycle(n),
                _ => generators::torus(n / 16 + 3, 13),
            };
            churn_matches_fresh_builds(graph, seed);
        }
    }

    #[test]
    fn uniform_degree_detection() {
        assert_eq!(generators::cycle(9).uniform_degree(), Some(2));
        assert_eq!(generators::complete(5).uniform_degree(), Some(4));
        assert_eq!(generators::path(9).uniform_degree(), None);
        assert_eq!(Graph::from_edges(0, []).unwrap().uniform_degree(), None);
        assert_eq!(Graph::from_edges(3, []).unwrap().uniform_degree(), Some(0));
    }
}
