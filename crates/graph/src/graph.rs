use crate::{GraphError, NodeId, TopologyDelta};

/// An immutable, simple, undirected graph in CSR (compressed sparse row)
/// form.
///
/// This is the communication graph `G = (V, E)` of the beeping model: an
/// edge between two nodes means they can hear each other's beeps. The
/// representation is optimised for the inner loop of the synchronous
/// simulators — `neighbors(u)` is a contiguous, sorted slice.
///
/// Graphs are validated on construction: self-loops and duplicate edges
/// are rejected (the beeping model is defined on simple graphs), and all
/// endpoints must be in range.
///
/// # Example
///
/// ```
/// use bfw_graph::{Graph, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(3)));
/// assert!(!g.has_edge(NodeId::new(0), NodeId::new(2)));
/// # Ok::<(), bfw_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[u]..offsets[u+1]` indexes `neighbors` for node `u`.
    offsets: Vec<usize>,
    /// Concatenated, per-node-sorted adjacency lists.
    neighbors: Vec<NodeId>,
    /// Number of undirected edges.
    edge_count: usize,
}

impl Graph {
    /// Builds a graph with `node_count` nodes from an iterator of
    /// undirected edges.
    ///
    /// Each edge may be given in either orientation; `(u, v)` and
    /// `(v, u)` denote the same edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>=
    /// node_count`, [`GraphError::SelfLoop`] for an edge `(u, u)`, and
    /// [`GraphError::DuplicateEdge`] if the same undirected edge appears
    /// twice. Use [`GraphBuilder`](crate::GraphBuilder) for input that may
    /// contain duplicates.
    pub fn from_edges<I>(node_count: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut normalized: Vec<(u32, u32)> = Vec::new();
        for (a, b) in edges {
            if a as usize >= node_count {
                return Err(GraphError::NodeOutOfRange {
                    node: a,
                    node_count,
                });
            }
            if b as usize >= node_count {
                return Err(GraphError::NodeOutOfRange {
                    node: b,
                    node_count,
                });
            }
            if a == b {
                return Err(GraphError::SelfLoop { node: a });
            }
            normalized.push((a.min(b), a.max(b)));
        }
        normalized.sort_unstable();
        if let Some(w) = normalized.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateEdge {
                u: w[0].0,
                v: w[0].1,
            });
        }
        Ok(Self::from_sorted_unique_edges(node_count, &normalized))
    }

    /// Builds the graph assuming `edges` is sorted, deduplicated, within
    /// range, loop-free and normalized as `(min, max)` pairs.
    pub(crate) fn from_sorted_unique_edges(node_count: usize, edges: &[(u32, u32)]) -> Self {
        let mut degrees = vec![0usize; node_count];
        for &(u, v) in edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets[..node_count].to_vec();
        let mut neighbors = vec![NodeId::from_u32(0); 2 * edges.len()];
        for &(u, v) in edges {
            neighbors[cursor[u as usize]] = NodeId::from_u32(v);
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = NodeId::from_u32(u);
            cursor[v as usize] += 1;
        }
        for u in 0..node_count {
            neighbors[offsets[u]..offsets[u + 1]].sort_unstable();
        }
        Graph {
            offsets,
            neighbors,
            edge_count: edges.len(),
        }
    }

    /// The edits that turn `self` into `live`, a graph on the same
    /// nodes: `removed` lists the edges only `self` has, `added` the
    /// edges only `live` has, each as `(min, max)` pairs in ascending
    /// order. One merge of the two graphs' sorted neighbor lists,
    /// `O(n + m)`.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn edits_to(&self, live: &Graph) -> TopologyDelta {
        assert_eq!(
            self.node_count(),
            live.node_count(),
            "edits need graphs on the same nodes"
        );
        let mut delta = TopologyDelta::new();
        for u in self.nodes() {
            let (old, new) = (self.neighbors(u), live.neighbors(u));
            let mut i = old.partition_point(|&v| v <= u);
            let mut j = new.partition_point(|&v| v <= u);
            loop {
                match (old.get(i), new.get(j)) {
                    (Some(&a), Some(&b)) if a == b => (i, j) = (i + 1, j + 1),
                    (Some(&a), Some(&b)) if a < b => {
                        delta.remove_edge(u, a);
                        i += 1;
                    }
                    (Some(&a), None) => {
                        delta.remove_edge(u, a);
                        i += 1;
                    }
                    (_, Some(&b)) => {
                        delta.add_edge(u, b);
                        j += 1;
                    }
                    (None, None) => break,
                }
            }
        }
        delta
    }

    /// Returns the number of nodes, `n` in the paper's notation.
    ///
    /// # Example
    ///
    /// ```
    /// let g = bfw_graph::generators::cycle(5);
    /// assert_eq!(g.node_count(), 5);
    /// ```
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns the number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Returns the sorted adjacency list of `u` — the paper's
    /// 1-neighborhood `N₁(u)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of this graph.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let i = u.index();
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Returns `(selected count, degree sum over selected nodes)` for
    /// the nodes where `mask` is `true`, in one branchless pass over
    /// the CSR offsets.
    ///
    /// This is the message-accounting kernel of the simulator's
    /// instrumentation layer: every instrumented round charges each
    /// emitter `deg(u)` messages, and doing that through per-node
    /// `degree` calls (bounds checks, no vectorization) costs several
    /// percent of the round loop on large sparse graphs.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != node_count`.
    pub fn masked_fanout(&self, mask: &[bool]) -> (u64, u64) {
        assert_eq!(mask.len(), self.node_count(), "mask has wrong length");
        let selected = mask.iter().filter(|&&b| b).count() as u64;
        let mut degree_sum = 0u64;
        for ((&lo, &hi), &b) in self.offsets.iter().zip(&self.offsets[1..]).zip(mask) {
            degree_sum += u64::from(b) * (hi - lo) as u64;
        }
        (selected, degree_sum)
    }

    /// Returns the degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of this graph.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let i = u.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Returns `true` if `{u, v}` is an edge (in either orientation).
    ///
    /// Runs in `O(log deg(u))` via binary search.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of this graph.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Returns an iterator over all node identifiers, `0..n`.
    ///
    /// # Example
    ///
    /// ```
    /// let g = bfw_graph::generators::path(3);
    /// let ids: Vec<usize> = g.nodes().map(|u| u.index()).collect();
    /// assert_eq!(ids, [0, 1, 2]);
    /// ```
    pub fn nodes(&self) -> Nodes {
        Nodes {
            next: 0,
            end: self.node_count() as u32,
        }
    }

    /// Returns an iterator over all undirected edges as `(u, v)` pairs
    /// with `u < v`, in lexicographic order.
    ///
    /// # Example
    ///
    /// ```
    /// let g = bfw_graph::generators::path(3);
    /// let edges: Vec<_> = g.edges().map(|(u, v)| (u.index(), v.index())).collect();
    /// assert_eq!(edges, [(0, 1), (1, 2)]);
    /// ```
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            u: 0,
            pos: 0,
        }
    }

    /// Returns the sum of all degrees (`2·edge_count`); the size of the
    /// CSR adjacency array.
    #[inline]
    pub fn adjacency_len(&self) -> usize {
        self.neighbors.len()
    }

    /// Returns `Some(d)` if every node has degree exactly `d` (the graph
    /// is `d`-regular), `None` otherwise or when the graph has no nodes.
    ///
    /// Regularity unlocks fixed-stride layouts downstream: the
    /// instrumentation sampler charges `emitters × d` messages without a
    /// degree pass, and the word-packed adjacency view
    /// ([`WordGraph`](crate::WordGraph)) stores its neighbor schedule as
    /// a flat `n × d` array with no per-row offsets.
    ///
    /// # Example
    ///
    /// ```
    /// use bfw_graph::generators;
    /// assert_eq!(generators::cycle(8).uniform_degree(), Some(2));
    /// assert_eq!(generators::path(8).uniform_degree(), None);
    /// ```
    pub fn uniform_degree(&self) -> Option<usize> {
        let n = self.node_count();
        if n == 0 {
            return None;
        }
        let d = self.offsets[1];
        self.offsets
            .windows(2)
            .all(|w| w[1] - w[0] == d)
            .then_some(d)
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("node_count", &self.node_count())
            .field("edge_count", &self.edge_count)
            .finish()
    }
}

/// Iterator over the node identifiers of a [`Graph`], created by
/// [`Graph::nodes`].
#[derive(Debug, Clone)]
pub struct Nodes {
    next: u32,
    end: u32,
}

impl Iterator for Nodes {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next < self.end {
            let id = NodeId::from_u32(self.next);
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.end - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Nodes {}

/// Iterator over the undirected edges of a [`Graph`], created by
/// [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    graph: &'a Graph,
    u: u32,
    pos: usize,
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        let n = self.graph.node_count() as u32;
        while self.u < n {
            let u = NodeId::from_u32(self.u);
            let adj = self.graph.neighbors(u);
            while self.pos < adj.len() {
                let v = adj[self.pos];
                self.pos += 1;
                // Each edge appears twice in CSR; report it from its
                // smaller endpoint only.
                if u < v {
                    return Some((u, v));
                }
            }
            self.u += 1;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn from_edges_counts() {
        let g = square();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.adjacency_len(), 8);
        assert!(!g.is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn single_node_no_edges() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 0);
        assert!(g.neighbors(NodeId::new(0)).is_empty());
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, [(3, 0), (3, 4), (1, 3), (3, 2)]).unwrap();
        let nbrs: Vec<usize> = g
            .neighbors(NodeId::new(3))
            .iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(nbrs, [0, 1, 2, 4]);
    }

    #[test]
    fn edge_orientation_is_irrelevant() {
        let a = Graph::from_edges(3, [(0, 1), (2, 1)]).unwrap();
        let b = Graph::from_edges(3, [(1, 0), (1, 2)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(3, [(0, 3)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: 3,
                node_count: 3
            }
        );
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn rejects_duplicate_even_reversed() {
        let err = Graph::from_edges(3, [(0, 1), (1, 0)]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 0, v: 1 });
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = square();
        for (u, v) in [(0, 1), (1, 0), (3, 0), (0, 3)] {
            assert!(g.has_edge(NodeId::new(u), NodeId::new(v)), "({u},{v})");
        }
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!g.has_edge(NodeId::new(1), NodeId::new(3)));
    }

    #[test]
    fn edges_iterator_is_sorted_and_unique() {
        let g = square();
        let edges: Vec<_> = g.edges().map(|(u, v)| (u.index(), v.index())).collect();
        assert_eq!(edges, [(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn nodes_iterator_exact_size() {
        let g = square();
        let it = g.nodes();
        assert_eq!(it.len(), 4);
        assert_eq!(it.count(), 4);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", square());
        assert!(s.contains("node_count"));
    }

    #[test]
    fn clone_and_eq() {
        let g = square();
        let h = g.clone();
        assert_eq!(g, h);
    }

    #[test]
    fn edits_between_graphs_round_trip() {
        let pair = |u: usize, v: usize| (NodeId::new(u), NodeId::new(v));
        let applied = |base: &Graph, delta: &TopologyDelta| {
            let mut overlay = crate::OverlayGraph::from_graph(base.clone());
            overlay.apply(delta);
            overlay.to_graph()
        };
        let base = square();
        // Remove (0, 1) and (2, 3), add the diagonals.
        let live = Graph::from_edges(4, [(0, 3), (1, 2), (0, 2), (3, 1)]).unwrap();
        let delta = base.edits_to(&live);
        assert_eq!(delta.removed(), [pair(0, 1), pair(2, 3)]);
        assert_eq!(delta.added(), [pair(0, 2), pair(1, 3)]);
        assert_eq!(applied(&base, &delta), live);
        assert_eq!(applied(&live, &live.edits_to(&base)), base);
        assert!(base.edits_to(&base).is_empty());
        // Everything removed, and everything added to an empty graph.
        let empty = Graph::from_edges(4, []).unwrap();
        assert_eq!(base.edits_to(&empty).removed().len(), 4);
        assert_eq!(applied(&empty, &empty.edits_to(&base)), base);
    }
}
