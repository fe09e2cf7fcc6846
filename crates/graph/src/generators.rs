//! Generators for the graph families used in the BFW experiments.
//!
//! Deterministic families (paths, cycles, cliques, stars, grids, tori,
//! hypercubes, trees, barbells, …) take only size parameters; randomized
//! families (Erdős–Rényi, random geometric, random trees) additionally
//! take an `&mut impl Rng` so experiments stay reproducible under seeded
//! generators.
//!
//! All generators produce *connected* graphs (Erdős–Rényi offers both a
//! raw and a rejection-sampled connected variant), because the beeping
//! model — and leader election in particular — is defined on connected
//! graphs.
//!
//! # Example
//!
//! ```
//! use bfw_graph::{generators, algo};
//!
//! let g = generators::grid(4, 6);
//! assert_eq!(g.node_count(), 24);
//! assert!(algo::is_connected(&g));
//! assert_eq!(algo::diameter(&g), Some(3 + 5));
//! ```

use crate::algo;
use crate::{Graph, GraphBuilder};
use rand::Rng;

/// Returns the path graph `P_n`: nodes `0..n`, edges `{i, i+1}`.
///
/// The path is the paper's worst-case topology (diameter `D = n − 1`),
/// used by the Theorem 2 D-scaling experiment (E4) and the Section 5
/// tightness discussion (E7).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path requires at least one node");
    let edges = (0..n.saturating_sub(1)).map(|i| (i as u32, i as u32 + 1));
    Graph::from_edges(n, edges).expect("path edges are valid by construction")
}

/// Returns the cycle graph `C_n` (`n >= 3`): a path with the extra edge
/// `{n−1, 0}`. Diameter `⌊n/2⌋`.
///
/// # Panics
///
/// Panics if `n < 3` (smaller cycles are not simple graphs).
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires at least three nodes");
    let edges = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32));
    Graph::from_edges(n, edges).expect("cycle edges are valid by construction")
}

/// Returns the complete graph `K_n` (diameter 1 for `n >= 2`).
///
/// The clique is the single-hop setting of Gilbert–Newport \[17\] and the
/// fixed-D family of the Theorem 2 n-scaling experiment (E3).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "complete graph requires at least one node");
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u as u32, v as u32));
        }
    }
    Graph::from_edges(n, edges).expect("complete-graph edges are valid by construction")
}

/// Returns the star `S_n`: node 0 is the hub, nodes `1..n` are leaves.
/// Diameter 2 for `n >= 3`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n > 0, "star requires at least one node");
    let edges = (1..n).map(|leaf| (0u32, leaf as u32));
    Graph::from_edges(n, edges).expect("star edges are valid by construction")
}

/// Returns the `rows × cols` grid (4-neighbor lattice).
/// Diameter `(rows − 1) + (cols − 1)`.
///
/// # Panics
///
/// Panics if `rows == 0` or `cols == 0`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid requires positive dimensions");
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c)));
            }
        }
    }
    Graph::from_edges(rows * cols, edges).expect("grid edges are valid by construction")
}

/// Returns the `rows × cols` torus (grid with wrap-around edges).
///
/// # Panics
///
/// Panics if `rows < 3` or `cols < 3` (smaller wrap-arounds create
/// duplicate or self edges).
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(
        rows >= 3 && cols >= 3,
        "torus requires both dimensions >= 3"
    );
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut b = GraphBuilder::with_edge_capacity(rows * cols, 2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(idx(r, c), idx(r, (c + 1) % cols))
                .expect("torus edges are valid by construction");
            b.add_edge(idx(r, c), idx((r + 1) % rows, c))
                .expect("torus edges are valid by construction");
        }
    }
    b.build()
}

/// Returns the hypercube `Q_dim` on `2^dim` nodes; two nodes are adjacent
/// iff their indices differ in exactly one bit. Diameter `dim`.
///
/// # Panics
///
/// Panics if `dim == 0` or `dim >= 31`.
pub fn hypercube(dim: u32) -> Graph {
    assert!(dim > 0 && dim < 31, "hypercube dimension must be in 1..31");
    let n = 1usize << dim;
    let mut edges = Vec::with_capacity(n * dim as usize / 2);
    for u in 0..n {
        for bit in 0..dim {
            let v = u ^ (1 << bit);
            if u < v {
                edges.push((u as u32, v as u32));
            }
        }
    }
    Graph::from_edges(n, edges).expect("hypercube edges are valid by construction")
}

/// Returns the balanced `arity`-ary tree of the given `depth` (a depth of
/// 0 is a single root). Diameter `2 · depth`.
///
/// # Panics
///
/// Panics if `arity == 0`.
pub fn balanced_tree(arity: usize, depth: u32) -> Graph {
    assert!(arity > 0, "balanced tree requires arity >= 1");
    // Number of nodes: 1 + arity + arity^2 + ... + arity^depth.
    let mut edges = Vec::new();
    let mut level_start = 0usize;
    let mut level_size = 1usize;
    let mut next = 1usize;
    for _ in 0..depth {
        for parent in level_start..level_start + level_size {
            for _ in 0..arity {
                edges.push((parent as u32, next as u32));
                next += 1;
            }
        }
        level_start += level_size;
        level_size *= arity;
    }
    Graph::from_edges(next, edges).expect("tree edges are valid by construction")
}

/// Returns a uniformly random labelled tree on `n` nodes via a random
/// Prüfer sequence.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n > 0, "random tree requires at least one node");
    if n == 1 {
        return Graph::from_edges(1, []).expect("single node graph is valid");
    }
    if n == 2 {
        return Graph::from_edges(2, [(0, 1)]).expect("two-node tree is valid");
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1u32; n];
    for &x in &prufer {
        degree[x] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    // Standard Prüfer decoding with a pointer-and-leaf scan.
    let mut ptr = 0usize;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for &x in &prufer {
        edges.push((leaf as u32, x as u32));
        degree[x] -= 1;
        if degree[x] == 1 && x < ptr {
            leaf = x;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    edges.push((leaf as u32, (n - 1) as u32));
    Graph::from_edges(n, edges).expect("Prüfer decoding yields a valid tree")
}

/// Returns an Erdős–Rényi graph `G(n, p)`: every pair is an edge
/// independently with probability `edge_prob`.
///
/// The result may be disconnected; use [`erdos_renyi_connected`] for
/// leader-election workloads.
///
/// # Panics
///
/// Panics if `n == 0` or `edge_prob` is not in `[0, 1]`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, edge_prob: f64, rng: &mut R) -> Graph {
    assert!(n > 0, "Erdős–Rényi requires at least one node");
    assert!(
        (0.0..=1.0).contains(&edge_prob),
        "edge probability must be in [0, 1]"
    );
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(edge_prob) {
                edges.push((u as u32, v as u32));
            }
        }
    }
    Graph::from_edges(n, edges).expect("sampled edges are valid by construction")
}

/// Returns a *connected* Erdős–Rényi graph by rejection sampling.
///
/// Retries up to `max_tries` times and returns `None` if no connected
/// sample was found — callers should pick `edge_prob` above the
/// connectivity threshold `ln n / n` to make rejection rare.
///
/// # Panics
///
/// Panics if `n == 0` or `edge_prob` is not in `[0, 1]`.
pub fn erdos_renyi_connected<R: Rng + ?Sized>(
    n: usize,
    edge_prob: f64,
    max_tries: usize,
    rng: &mut R,
) -> Option<Graph> {
    for _ in 0..max_tries {
        let g = erdos_renyi(n, edge_prob, rng);
        if algo::is_connected(&g) {
            return Some(g);
        }
    }
    None
}

/// Returns a random `d`-regular simple graph on `n` nodes via the
/// configuration (pairing) model with rejection: `d` stubs per node are
/// shuffled and paired; a pairing producing a self-loop or duplicate
/// edge is discarded and re-sampled.
///
/// A uniformly shuffled pairing is simple with probability
/// `≈ exp(-(d²-1)/4)`: about one in 42 for `d = 4`, but one in
/// 7·10⁶ for `d = 8`. So the search gives up after `max_tries`
/// pairings and returns `None`. The result is a uniform random regular
/// graph conditioned on simplicity; it may be disconnected (small `n`,
/// or `d ≤ 2`).
///
/// # Panics
///
/// Panics if `n·d` is odd, `d >= n` or `d == 0`.
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    max_tries: usize,
    rng: &mut R,
) -> Option<Graph> {
    assert!(d > 0, "degree must be positive");
    assert!(d < n, "degree must be below the node count");
    assert!(
        (n * d).is_multiple_of(2),
        "n·d must be even for a d-regular graph"
    );
    let mut stubs: Vec<u32> = (0..n as u32)
        .flat_map(|u| std::iter::repeat_n(u, d))
        .collect();
    'attempt: for _ in 0..max_tries {
        // Fisher–Yates shuffle, then pair consecutive stubs.
        for i in (1..stubs.len()).rev() {
            stubs.swap(i, rng.random_range(0..i + 1));
        }
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * d / 2);
        for pair in stubs.chunks_exact(2) {
            let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            if a == b {
                continue 'attempt;
            }
            edges.push((a, b));
        }
        edges.sort_unstable();
        if edges.windows(2).any(|w| w[0] == w[1]) {
            continue 'attempt;
        }
        return Some(Graph::from_edges(n, edges).expect("pairing checked simple"));
    }
    None
}

/// Returns a cycle whose node labels are shuffled (Fisher–Yates over
/// `rng`): still a ring, but in label order its adjacency is scattered,
/// so a word-packed plan built without relabeling falls back to the
/// general edge stream.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn scrambled_cycle<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n >= 3, "cycle requires at least three nodes");
    let mut scramble: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        scramble.swap(i, rng.random_range(0..i + 1));
    }
    let edges: Vec<(u32, u32)> = (0..n)
        .map(|i| (scramble[i], scramble[(i + 1) % n]))
        .collect();
    Graph::from_edges(n, edges).expect("scrambled cycle edges are in range")
}

/// Returns a Barabási–Albert preferential-attachment graph: a star on
/// `m + 1` seed nodes, then each new node attaches to `m` distinct
/// existing nodes chosen with probability proportional to degree (the
/// classic repeated-endpoints trick: sampling uniformly from the list
/// of all edge endpoints *is* degree-proportional sampling).
///
/// Connected by construction (every node attaches to earlier nodes),
/// with the heavy-tailed degree distribution the scale-free scenario
/// workloads need; `m + (n − m − 1)·m` edges in total.
///
/// # Panics
///
/// Panics if `m == 0` or `n <= m`.
pub fn preferential_attachment<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(m > 0, "preferential attachment requires m >= 1");
    assert!(n > m, "preferential attachment requires n > m");
    // Seed: a star on m + 1 nodes, so every early node has nonzero
    // degree and the first preferential choice is well-defined.
    let mut edges: Vec<(u32, u32)> = (1..=m).map(|v| (0u32, v as u32)).collect();
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * m * n);
    for &(u, v) in &edges {
        endpoints.push(u);
        endpoints.push(v);
    }
    let mut chosen: Vec<u32> = Vec::with_capacity(m);
    for u in (m + 1)..n {
        chosen.clear();
        while chosen.len() < m {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &v in &chosen {
            edges.push((v, u as u32));
            endpoints.push(v);
            endpoints.push(u as u32);
        }
    }
    Graph::from_edges(n, edges).expect("attachment edges are valid by construction")
}

/// Returns a connected graph with an (approximately) power-law degree
/// sequence via the *erased* configuration model: degrees are sampled
/// from `P(d) ∝ d^(−gamma)` truncated to `2..=⌊√n⌋`, stubs are shuffled
/// and paired, self-loops and duplicate pairings are erased, and any
/// disconnected components are deterministically bridged (smallest
/// node of each component to the smallest node of the first).
///
/// Erasure and bridging perturb the realized degree sequence slightly —
/// the standard trade-off for a simple *and* connected sample, which is
/// what the leader-election workloads require.
///
/// # Panics
///
/// Panics if `n < 3` or `gamma` is not finite and `> 1`.
pub fn power_law_configuration<R: Rng + ?Sized>(n: usize, gamma: f64, rng: &mut R) -> Graph {
    assert!(n >= 3, "power-law graph requires at least three nodes");
    assert!(
        gamma.is_finite() && gamma > 1.0,
        "power-law exponent must be finite and > 1"
    );
    let d_max = ((n as f64).sqrt() as usize).max(2);
    let weights: Vec<f64> = (2..=d_max).map(|d| (d as f64).powf(-gamma)).collect();
    let total: f64 = weights.iter().sum();

    let mut degrees: Vec<usize> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut x = rng.random::<f64>() * total;
        let mut sampled = d_max;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                sampled = i + 2;
                break;
            }
            x -= *w;
        }
        degrees.push(sampled);
    }
    // The stub count must be even to pair up.
    if degrees.iter().sum::<usize>() % 2 == 1 {
        degrees[0] += 1;
    }

    let mut stubs: Vec<u32> = degrees
        .iter()
        .enumerate()
        .flat_map(|(u, &d)| std::iter::repeat_n(u as u32, d))
        .collect();
    // Fisher–Yates shuffle, then pair consecutive stubs, erasing
    // self-loops and (after sorting) duplicate edges.
    for i in (1..stubs.len()).rev() {
        stubs.swap(i, rng.random_range(0..i + 1));
    }
    let mut edges: Vec<(u32, u32)> = stubs
        .chunks_exact(2)
        .filter(|pair| pair[0] != pair[1])
        .map(|pair| (pair[0].min(pair[1]), pair[0].max(pair[1])))
        .collect();
    edges.sort_unstable();
    edges.dedup();

    // Bridge components: union-find over the kept edges, then connect
    // each later component's smallest node to the first component's
    // smallest node (cross-component, so never a duplicate edge).
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..n).collect();
    for &(u, v) in &edges {
        let (ru, rv) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
        if ru != rv {
            parent[ru.max(rv)] = ru.min(rv);
        }
    }
    let anchor = find(&mut parent, 0);
    for u in 1..n {
        let root = find(&mut parent, u);
        if root != anchor {
            edges.push((anchor.min(u) as u32, anchor.max(u) as u32));
            parent[root] = anchor;
        }
    }
    Graph::from_edges(n, edges).expect("erased pairing is simple by construction")
}

/// Returns a random geometric graph: `n` points uniform in the unit
/// square, an edge between points at Euclidean distance `<= radius`.
///
/// May be disconnected for small radii.
///
/// Candidate pairs come from a uniform grid of `radius`-sized cells
/// (each point only checks the 3×3 cell block around it), so
/// construction is `O(n + edges)` expected instead of all-pairs — the
/// difference between seconds and hours at `n = 10⁶`. The edge *set*
/// is exactly the all-pairs one and is emitted in sorted `(u, v)`
/// order, so the result is independent of the bucketing.
///
/// # Panics
///
/// Panics if `n == 0` or `radius` is negative or non-finite.
pub fn random_geometric<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> Graph {
    assert!(n > 0, "random geometric graph requires at least one node");
    assert!(
        radius.is_finite() && radius >= 0.0,
        "radius must be non-negative and finite"
    );
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
        .collect();
    let r2 = radius * radius;
    // Grid-bucket the unit square at cell size `radius` (clamped so
    // tiny radii don't explode the grid): any pair within `radius`
    // lies in the same or an adjacent cell.
    let side = if radius > 0.0 {
        ((1.0 / radius) as usize + 1).min(n.isqrt() + 1)
    } else {
        1
    };
    let cell_of = |p: (f64, f64)| -> (usize, usize) {
        let clamp = |x: f64| ((x * side as f64) as usize).min(side - 1);
        (clamp(p.0), clamp(p.1))
    };
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); side * side];
    for (u, &p) in points.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        buckets[cy * side + cx].push(u as u32);
    }
    let mut edges = Vec::new();
    for (u, &p) in points.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        for ny in cy.saturating_sub(1)..=(cy + 1).min(side - 1) {
            for nx in cx.saturating_sub(1)..=(cx + 1).min(side - 1) {
                for &v in &buckets[ny * side + nx] {
                    if v as usize <= u {
                        continue;
                    }
                    let q = points[v as usize];
                    let (dx, dy) = (p.0 - q.0, p.1 - q.1);
                    if dx * dx + dy * dy <= r2 {
                        edges.push((u as u32, v));
                    }
                }
            }
        }
    }
    edges.sort_unstable();
    Graph::from_edges(n, edges).expect("geometric edges are valid by construction")
}

/// Returns a connected random geometric (unit-disk) graph: `n` points
/// uniform in the unit square, an edge between points at Euclidean
/// distance `<= radius`, and — when the disk graph is disconnected —
/// one bridge edge per extra component, from that component's smallest
/// node to the smallest node of the anchor component.
///
/// The beeping model's motivating topology (wireless broadcast): nodes
/// hear exactly their radio range. The bridging keeps leader-election
/// workloads well-posed at small radii while changing at most
/// `components − 1` edges. Point placement draws `2n` values from
/// `rng` in node order, so the layout is seed-stable.
///
/// # Panics
///
/// Panics if `n == 0` or `radius` is negative or non-finite.
pub fn random_geometric_connected<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> Graph {
    let disk = random_geometric(n, radius, rng);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(disk.edge_count());
    for u in disk.nodes() {
        for &v in disk.neighbors(u) {
            if u.index() < v.index() {
                edges.push((u.index() as u32, v.index() as u32));
            }
        }
    }
    // Union-find over the disk edges (path-halving find), then bridge
    // each later component's smallest node to the anchor component's.
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..n).collect();
    for &(u, v) in &edges {
        let (ru, rv) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
        if ru != rv {
            parent[ru.max(rv)] = ru.min(rv);
        }
    }
    let anchor = find(&mut parent, 0);
    for u in 1..n {
        let root = find(&mut parent, u);
        if root != anchor {
            edges.push((anchor.min(u) as u32, anchor.max(u) as u32));
            parent[root] = anchor;
        }
    }
    Graph::from_edges(n, edges).expect("disk edges plus cross-component bridges stay simple")
}

/// Returns the barbell graph: two cliques `K_k` joined by a path of
/// `bridge_len` intermediate nodes (`bridge_len == 0` joins the cliques
/// by a single edge).
///
/// A classic low-conductance topology: waves must funnel through the
/// bridge.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn barbell(k: usize, bridge_len: usize) -> Graph {
    assert!(k >= 2, "barbell requires cliques of at least two nodes");
    let n = 2 * k + bridge_len;
    let mut edges = Vec::new();
    let left = 0..k;
    let right_start = k + bridge_len;
    for u in left.clone() {
        for v in (u + 1)..k {
            edges.push((u as u32, v as u32));
        }
    }
    for u in right_start..n {
        for v in (u + 1)..n {
            edges.push((u as u32, v as u32));
        }
    }
    // Bridge path: k-1 -> k -> k+1 -> ... -> right_start.
    let mut prev = k - 1;
    for b in k..right_start {
        edges.push((prev as u32, b as u32));
        prev = b;
    }
    edges.push((prev as u32, right_start as u32));
    Graph::from_edges(n, edges).expect("barbell edges are valid by construction")
}

/// Returns the lollipop graph: a clique `K_k` with a pendant path of
/// `tail_len` nodes attached to node `k − 1`.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn lollipop(k: usize, tail_len: usize) -> Graph {
    assert!(k >= 2, "lollipop requires a clique of at least two nodes");
    let n = k + tail_len;
    let mut edges = Vec::new();
    for u in 0..k {
        for v in (u + 1)..k {
            edges.push((u as u32, v as u32));
        }
    }
    for t in 0..tail_len {
        edges.push(((k - 1 + t) as u32, (k + t) as u32));
    }
    Graph::from_edges(n, edges).expect("lollipop edges are valid by construction")
}

/// Returns a caterpillar: a spine path of `spine` nodes, each with
/// `legs_per_node` pendant leaves.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs_per_node: usize) -> Graph {
    assert!(spine > 0, "caterpillar requires a non-empty spine");
    let n = spine * (1 + legs_per_node);
    let mut edges = Vec::new();
    for s in 0..spine.saturating_sub(1) {
        edges.push((s as u32, (s + 1) as u32));
    }
    let mut next = spine;
    for s in 0..spine {
        for _ in 0..legs_per_node {
            edges.push((s as u32, next as u32));
            next += 1;
        }
    }
    Graph::from_edges(n, edges).expect("caterpillar edges are valid by construction")
}

/// Returns the complete bipartite graph `K_{a,b}`; diameter 2 when both
/// sides have at least two nodes.
///
/// # Panics
///
/// Panics if `a == 0` or `b == 0`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    assert!(
        a > 0 && b > 0,
        "complete bipartite requires both sides non-empty"
    );
    let mut edges = Vec::with_capacity(a * b);
    for u in 0..a {
        for v in 0..b {
            edges.push((u as u32, (a + v) as u32));
        }
    }
    Graph::from_edges(a + b, edges).expect("bipartite edges are valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(algo::diameter(&g), Some(4));
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn path_single_node() {
        let g = path(1);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(algo::diameter(&g), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn path_zero_panics() {
        let _ = path(0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(algo::diameter(&g), Some(3));
        let g = cycle(7);
        assert_eq!(algo::diameter(&g), Some(3));
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn cycle_too_small_panics() {
        let _ = cycle(2);
    }

    #[test]
    fn complete_shape() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(algo::diameter(&g), Some(1));
        assert_eq!(algo::diameter(&complete(1)), Some(0));
    }

    #[test]
    fn star_shape() {
        let g = star(9);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.degree(crate::NodeId::new(0)), 8);
        assert_eq!(algo::diameter(&g), Some(2));
        assert_eq!(algo::diameter(&star(2)), Some(1));
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        // edges: 3*3 horizontal + 2*4 vertical = 17.
        assert_eq!(g.edge_count(), 17);
        assert_eq!(algo::diameter(&g), Some(5));
    }

    #[test]
    fn grid_degenerate_is_path() {
        assert_eq!(grid(1, 7), path(7));
    }

    #[test]
    fn torus_shape() {
        let g = torus(3, 5);
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 30);
        assert!(algo::is_connected(&g));
        // Every node has degree 4.
        assert!(g.nodes().all(|u| g.degree(u) == 4));
        assert_eq!(algo::diameter(&g), Some(1 + 2));
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert_eq!(algo::diameter(&g), Some(4));
        assert!(g.nodes().all(|u| g.degree(u) == 4));
    }

    #[test]
    fn balanced_tree_shape() {
        let g = balanced_tree(2, 3);
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 14);
        assert_eq!(algo::diameter(&g), Some(6));
        let root_only = balanced_tree(3, 0);
        assert_eq!(root_only.node_count(), 1);
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 57] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), n.saturating_sub(1));
            assert!(algo::is_connected(&g), "n={n}");
        }
    }

    #[test]
    fn random_tree_prufer_distribution_touches_all_shapes() {
        // On 4 nodes there are 16 labelled trees; with enough samples we
        // should see both stars and paths (degree sequences differ).
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut saw_star = false;
        let mut saw_path = false;
        for _ in 0..200 {
            let g = random_tree(4, &mut rng);
            let max_deg = g.nodes().map(|u| g.degree(u)).max().unwrap();
            if max_deg == 3 {
                saw_star = true;
            }
            if max_deg == 2 {
                saw_path = true;
            }
        }
        assert!(saw_star && saw_path);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let empty = erdos_renyi(8, 0.0, &mut rng);
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi(8, 1.0, &mut rng);
        assert_eq!(full.edge_count(), 28);
    }

    #[test]
    fn erdos_renyi_connected_finds_connected_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = erdos_renyi_connected(32, 0.3, 100, &mut rng).expect("should connect");
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn erdos_renyi_connected_gives_up() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // p = 0 can never connect 2+ nodes.
        assert!(erdos_renyi_connected(4, 0.0, 5, &mut rng).is_none());
    }

    #[test]
    fn random_geometric_radius_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let none = random_geometric(10, 0.0, &mut rng);
        assert_eq!(none.edge_count(), 0);
        // sqrt(2) covers the whole unit square.
        let all = random_geometric(10, 1.5, &mut rng);
        assert_eq!(all.edge_count(), 45);
    }

    #[test]
    fn random_geometric_connected_bridges_components() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        // radius 0: the disk graph has no edges at all, so every node
        // becomes its own component and gets bridged to node 0.
        let star_ish = random_geometric_connected(10, 0.0, &mut rng);
        assert!(algo::is_connected(&star_ish));
        assert_eq!(star_ish.edge_count(), 9);
        // A realistic sparse radius also comes out connected.
        let g = random_geometric_connected(300, 0.05, &mut rng);
        assert_eq!(g.node_count(), 300);
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn random_geometric_grid_bucketing_matches_all_pairs() {
        // The grid-bucketed builder claims the exact all-pairs edge
        // set; re-derive it naively from the same point draws.
        for (n, radius, seed) in [(50usize, 0.2, 3u64), (400, 0.07, 9), (137, 0.031, 21)] {
            let g = random_geometric(n, radius, &mut ChaCha8Rng::seed_from_u64(seed));
            let points: Vec<(f64, f64)> = {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                (0..n)
                    .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
                    .collect()
            };
            let mut expected = 0usize;
            for u in 0..n {
                for v in (u + 1)..n {
                    let (dx, dy) = (points[u].0 - points[v].0, points[u].1 - points[v].1);
                    let within = dx * dx + dy * dy <= radius * radius;
                    assert_eq!(
                        g.has_edge(crate::NodeId::new(u), crate::NodeId::new(v)),
                        within,
                        "n={n} radius={radius} edge {u}-{v}"
                    );
                    expected += usize::from(within);
                }
            }
            assert_eq!(g.edge_count(), expected);
        }
    }

    #[test]
    fn random_geometric_connected_is_seed_deterministic() {
        let a = random_geometric_connected(80, 0.1, &mut ChaCha8Rng::seed_from_u64(7));
        let b = random_geometric_connected(80, 0.1, &mut ChaCha8Rng::seed_from_u64(7));
        let c = random_geometric_connected(80, 0.1, &mut ChaCha8Rng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn preferential_attachment_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = preferential_attachment(200, 3, &mut rng);
        assert_eq!(g.node_count(), 200);
        // Star seed: m edges; each of the n - m - 1 later nodes adds m.
        assert_eq!(g.edge_count(), 3 * (200 - 3));
        assert!(algo::is_connected(&g));
        // Preferential attachment concentrates degree: the hubs end up
        // far above the attachment count m.
        let max_deg = g.nodes().map(|u| g.degree(u)).max().unwrap();
        assert!(max_deg > 12, "expected a hub, max degree {max_deg}");
        // Late joiners keep degree m.
        let min_deg = g.nodes().map(|u| g.degree(u)).min().unwrap();
        assert_eq!(min_deg, 3);
    }

    #[test]
    fn preferential_attachment_is_seed_deterministic() {
        let a = preferential_attachment(64, 2, &mut ChaCha8Rng::seed_from_u64(9));
        let b = preferential_attachment(64, 2, &mut ChaCha8Rng::seed_from_u64(9));
        let c = preferential_attachment(64, 2, &mut ChaCha8Rng::seed_from_u64(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "n > m")]
    fn preferential_attachment_needs_room() {
        let _ = preferential_attachment(3, 3, &mut ChaCha8Rng::seed_from_u64(0));
    }

    #[test]
    fn power_law_configuration_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = power_law_configuration(500, 2.5, &mut rng);
        assert_eq!(g.node_count(), 500);
        assert!(algo::is_connected(&g));
        assert!(g.edge_count() >= 499);
        // Heavy tail: the max degree should clearly dominate the mode
        // (degrees are sampled from 2..=⌊√500⌋ = 22 with weight d^−2.5).
        let max_deg = g.nodes().map(|u| g.degree(u)).max().unwrap();
        assert!(max_deg >= 6, "expected a heavy tail, max degree {max_deg}");
    }

    #[test]
    fn power_law_configuration_is_seed_deterministic() {
        let a = power_law_configuration(120, 2.2, &mut ChaCha8Rng::seed_from_u64(4));
        let b = power_law_configuration(120, 2.2, &mut ChaCha8Rng::seed_from_u64(4));
        assert_eq!(a, b);
    }

    #[test]
    fn power_law_configuration_small_n() {
        // n = 3 forces d_max = 2: a near-regular sample, still valid.
        let g = power_law_configuration(3, 3.0, &mut ChaCha8Rng::seed_from_u64(1));
        assert_eq!(g.node_count(), 3);
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 3);
        assert_eq!(g.node_count(), 11);
        // 2 * C(4,2) + 4 bridge edges.
        assert_eq!(g.edge_count(), 6 + 6 + 4);
        assert!(algo::is_connected(&g));
        assert_eq!(algo::diameter(&g), Some(1 + 4 + 1));
    }

    #[test]
    fn barbell_zero_bridge() {
        let g = barbell(3, 0);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 3 + 3 + 1);
        assert_eq!(algo::diameter(&g), Some(3));
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 5);
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.edge_count(), 6 + 5);
        assert_eq!(algo::diameter(&g), Some(6));
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 2);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 + 8);
        assert!(algo::is_connected(&g));
        assert_eq!(algo::diameter(&g), Some(5));
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(algo::diameter(&g), Some(2));
        assert_eq!(algo::diameter(&complete_bipartite(1, 1)), Some(1));
    }
}
