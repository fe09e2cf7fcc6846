use crate::{algo, generators, Graph, GraphError, NodeId, OverlayGraph, TopologyDelta};

/// The communication structure a simulation runs on (the `bfw-sim`
/// engines take one).
///
/// The general case wraps a CSR [`Graph`]; `Clique(n)` is a fast path
/// for the complete graph that computes hearing in `O(n)` per round
/// instead of materializing `Θ(n²)` edges (the n-scaling experiments run
/// cliques with thousands of nodes). `Overlay` is the dynamic form the
/// topology takes once [`apply_delta`](Self::apply_delta) has been
/// called: a CSR base plus an `O(deg)`-editable overlay with periodic
/// compaction, used by the scenario engine for high-frequency edge
/// churn.
///
/// # Example
///
/// ```
/// use bfw_graph::{generators, Topology};
///
/// let t: Topology = generators::path(10).into();
/// assert_eq!(t.node_count(), 10);
/// assert_eq!(Topology::Clique(100).node_count(), 100);
/// ```
#[derive(Debug, Clone)]
pub enum Topology {
    /// An arbitrary simple undirected graph.
    Graph(Graph),
    /// The complete graph on `n` nodes, with `O(n)`-per-round hearing.
    Clique(usize),
    /// A delta-overlaid graph (see [`OverlayGraph`]); produced by
    /// [`apply_delta`](Self::apply_delta).
    Overlay(OverlayGraph),
}

impl Topology {
    /// Returns the number of nodes.
    pub fn node_count(&self) -> usize {
        match self {
            Topology::Graph(g) => g.node_count(),
            Topology::Clique(n) => *n,
            Topology::Overlay(ov) => ov.node_count(),
        }
    }

    /// Returns the number of undirected edges (`n(n − 1)/2` for the
    /// clique, which is never materialized to count them).
    pub fn edge_count(&self) -> usize {
        match self {
            Topology::Graph(g) => g.edge_count(),
            Topology::Clique(n) => n * n.saturating_sub(1) / 2,
            Topology::Overlay(ov) => ov.edge_count(),
        }
    }

    /// Returns `true` if `{u, v}` is currently an edge.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        match self {
            Topology::Graph(g) => g.has_edge(u, v),
            Topology::Clique(n) => {
                assert!(u.index() < *n, "node {u} out of range of clique({n})");
                v.index() < *n && u != v
            }
            Topology::Overlay(ov) => ov.has_edge(u, v),
        }
    }

    /// Checks that adding the undirected edge `{u, v}` keeps the graph
    /// simple, so the edit can go into a [`TopologyDelta`].
    ///
    /// # Errors
    ///
    /// The first of [`GraphError::NodeOutOfRange`],
    /// [`GraphError::SelfLoop`] and [`GraphError::DuplicateEdge`] (the
    /// edge is already present) that applies.
    pub fn check_add_edge(&self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.check_endpoints(u, v)?;
        if self.has_edge(u, v) {
            let (u, v) = (u.min(v).as_u32(), u.max(v).as_u32());
            return Err(GraphError::DuplicateEdge { u, v });
        }
        Ok(())
    }

    /// Checks that the undirected edge `{u, v}` can be removed, so the
    /// edit can go into a [`TopologyDelta`].
    ///
    /// # Errors
    ///
    /// The first of [`GraphError::NodeOutOfRange`],
    /// [`GraphError::SelfLoop`] and [`GraphError::MissingEdge`] (the
    /// edge is absent) that applies.
    pub fn check_remove_edge(&self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.check_endpoints(u, v)?;
        if !self.has_edge(u, v) {
            let (u, v) = (u.min(v).as_u32(), u.max(v).as_u32());
            return Err(GraphError::MissingEdge { u, v });
        }
        Ok(())
    }

    fn check_endpoints(&self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let node_count = self.node_count();
        if let Some(w) = [u, v].into_iter().find(|w| w.index() >= node_count) {
            return Err(GraphError::NodeOutOfRange {
                node: w.as_u32(),
                node_count,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u.as_u32() });
        }
        Ok(())
    }

    /// Returns `true` if the topology is connected (a prerequisite for
    /// leader election). Overlay topologies are materialized first —
    /// this is an analysis entry point, not a hot path.
    pub fn is_connected(&self) -> bool {
        match self {
            Topology::Graph(g) => algo::is_connected(g),
            Topology::Clique(n) => *n >= 1,
            Topology::Overlay(ov) => algo::is_connected(&ov.to_graph()),
        }
    }

    /// Returns the diameter, computing it exactly for graph topologies.
    ///
    /// Returns `None` for disconnected or empty topologies.
    pub fn diameter(&self) -> Option<u32> {
        match self {
            Topology::Graph(g) => algo::diameter(g),
            Topology::Clique(0) => None,
            Topology::Clique(1) => Some(0),
            Topology::Clique(_) => Some(1),
            Topology::Overlay(ov) => algo::diameter(&ov.to_graph()),
        }
    }

    /// Applies a batch of edge mutations in `O(deg)` per edge.
    ///
    /// A `Graph` topology is converted into its `Overlay` form on the
    /// first delta (one `O(n + m)` conversion, amortized away by every
    /// subsequent delta); a `Clique` is materialized first (`Θ(n²)` —
    /// churning a clique starts from its explicit edge set).
    ///
    /// # Panics
    ///
    /// Panics if the delta removes an absent edge or adds a present one.
    pub fn apply_delta(&mut self, delta: &TopologyDelta) {
        match self {
            Topology::Overlay(ov) => ov.apply(delta),
            _ => {
                let graph = match std::mem::replace(self, Topology::Clique(0)) {
                    Topology::Graph(g) => g,
                    Topology::Clique(n) => generators::complete(n.max(1)),
                    Topology::Overlay(_) => unreachable!("handled above"),
                };
                let mut ov = OverlayGraph::from_graph(graph);
                ov.apply(delta);
                *self = Topology::Overlay(ov);
            }
        }
    }

    /// Returns the degree of `u` in `O(1)` (CSR offset arithmetic, or
    /// `n - 1` for the clique). This is the instrumentation hot path:
    /// message accounting sums emitter degrees every instrumented
    /// round, and iterating neighbors just to count them would dominate
    /// the round itself.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        match self {
            Topology::Graph(g) => g.degree(u),
            Topology::Clique(n) => {
                assert!(u.index() < *n, "node {u} out of range of clique({n})");
                n - 1
            }
            Topology::Overlay(ov) => ov.degree(u),
        }
    }

    /// Calls `f` for every neighbor of `u`, in ascending node order.
    ///
    /// This is the one neighbor-iteration seam shared by the runtimes:
    /// CSR graphs yield their adjacency slice, overlays their merged
    /// view, cliques every other node. Hot loops with a cheaper
    /// clique-wide formulation (e.g. [`compute_heard`]) keep their own
    /// `Clique` fast path and use this for the two graph-backed forms.
    ///
    /// [`compute_heard`]: Self::compute_heard
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn for_each_neighbor<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        match self {
            Topology::Graph(g) => {
                for &v in g.neighbors(u) {
                    f(v);
                }
            }
            Topology::Overlay(ov) => {
                for v in ov.neighbors(u) {
                    f(v);
                }
            }
            Topology::Clique(n) => {
                assert!(u.index() < *n, "node {u} out of range of clique({n})");
                for v in (0..*n).filter(|&v| v != u.index()) {
                    f(NodeId::new(v));
                }
            }
        }
    }

    /// Fills `heard[u] = beeps[u] ∨ ∃v ∈ N(u): beeps[v]` — the hearing
    /// predicate of the beeping model (a node hears its own beep).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from
    /// [`node_count`](Self::node_count).
    pub fn compute_heard(&self, beeps: &[bool], heard: &mut [bool]) {
        let n = self.node_count();
        assert_eq!(beeps.len(), n, "beeps slice has wrong length");
        assert_eq!(heard.len(), n, "heard slice has wrong length");
        match self {
            Topology::Clique(_) => {
                let any = beeps.iter().any(|&b| b);
                heard.fill(any);
            }
            graph_backed => {
                // Push-based: start from own beep, then OR each beeping
                // node into its neighbors. O(n + Σ_{u beeping} deg(u)).
                heard.copy_from_slice(beeps);
                for (u, &b) in beeps.iter().enumerate() {
                    if b {
                        graph_backed.for_each_neighbor(NodeId::new(u), |v| heard[v.index()] = true);
                    }
                }
            }
        }
    }

    /// Returns the underlying [`Graph`], materializing the clique if
    /// necessary (`Θ(n²)` memory — intended for analysis of small
    /// topologies, not for the simulation hot path) and compacting an
    /// overlay into a fresh CSR snapshot.
    pub fn to_graph(&self) -> Graph {
        match self {
            Topology::Graph(g) => g.clone(),
            Topology::Clique(n) => generators::complete((*n).max(1)),
            Topology::Overlay(ov) => ov.to_graph(),
        }
    }
}

impl From<Graph> for Topology {
    fn from(g: Graph) -> Self {
        Topology::Graph(g)
    }
}

impl From<OverlayGraph> for Topology {
    fn from(ov: OverlayGraph) -> Self {
        Topology::Overlay(ov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_heard_matches_graph_heard() {
        let n = 9;
        let clique = Topology::Clique(n);
        let graph = Topology::Graph(generators::complete(n));
        // All 2^9 beep patterns would be slow; test a few structured ones.
        let patterns: Vec<Vec<bool>> = vec![
            vec![false; n],
            vec![true; n],
            (0..n).map(|i| i == 0).collect(),
            (0..n).map(|i| i % 2 == 0).collect(),
            (0..n).map(|i| i == n - 1).collect(),
        ];
        for beeps in patterns {
            let mut h1 = vec![false; n];
            let mut h2 = vec![false; n];
            clique.compute_heard(&beeps, &mut h1);
            graph.compute_heard(&beeps, &mut h2);
            assert_eq!(h1, h2, "pattern {beeps:?}");
        }
    }

    #[test]
    fn graph_heard_includes_own_beep() {
        let t: Topology = generators::path(3).into();
        let beeps = [false, true, false];
        let mut heard = [false; 3];
        t.compute_heard(&beeps, &mut heard);
        // Node 1 beeps: hears itself; its neighbors 0 and 2 hear it.
        assert_eq!(heard, [true, true, true]);

        let beeps = [true, false, false];
        t.compute_heard(&beeps, &mut heard);
        // Node 2 is out of earshot of node 0.
        assert_eq!(heard, [true, true, false]);
    }

    #[test]
    fn silence_is_heard_by_nobody() {
        let t: Topology = generators::cycle(5).into();
        let beeps = [false; 5];
        let mut heard = [true; 5];
        t.compute_heard(&beeps, &mut heard);
        assert!(heard.iter().all(|&h| !h));
    }

    #[test]
    fn diameters() {
        assert_eq!(Topology::Clique(1).diameter(), Some(0));
        assert_eq!(Topology::Clique(5).diameter(), Some(1));
        assert_eq!(Topology::Clique(0).diameter(), None);
        let t: Topology = generators::path(4).into();
        assert_eq!(t.diameter(), Some(3));
    }

    #[test]
    fn connectivity() {
        assert!(Topology::Clique(3).is_connected());
        let disconnected: Topology = Graph::from_edges(3, [(0, 1)]).unwrap().into();
        assert!(!disconnected.is_connected());
    }

    #[test]
    fn to_graph_of_clique() {
        let g = Topology::Clique(4).to_graph();
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn apply_delta_converts_to_overlay_and_edits() {
        let mut t: Topology = generators::cycle(5).into();
        let mut delta = TopologyDelta::new();
        delta.remove_edge(NodeId::new(0), NodeId::new(1));
        delta.add_edge(NodeId::new(0), NodeId::new(2));
        t.apply_delta(&delta);
        assert!(matches!(t, Topology::Overlay(_)));
        assert_eq!(t.node_count(), 5);
        let g = t.to_graph();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn overlay_heard_matches_rebuilt_graph_heard() {
        let mut overlay: Topology = generators::cycle(7).into();
        let mut delta = TopologyDelta::new();
        delta.remove_edge(NodeId::new(2), NodeId::new(3));
        delta.add_edge(NodeId::new(0), NodeId::new(3));
        overlay.apply_delta(&delta);
        let rebuilt: Topology = overlay.to_graph().into();
        for pattern in 0..(1u32 << 7) {
            let beeps: Vec<bool> = (0..7).map(|i| pattern >> i & 1 == 1).collect();
            let mut h1 = vec![false; 7];
            let mut h2 = vec![false; 7];
            overlay.compute_heard(&beeps, &mut h1);
            rebuilt.compute_heard(&beeps, &mut h2);
            assert_eq!(h1, h2, "pattern {beeps:?}");
        }
    }

    #[test]
    fn apply_delta_on_clique_materializes() {
        let mut t = Topology::Clique(4);
        let mut delta = TopologyDelta::new();
        delta.remove_edge(NodeId::new(0), NodeId::new(1));
        t.apply_delta(&delta);
        assert_eq!(t.to_graph().edge_count(), 5);
        assert!(t.is_connected());
        assert_eq!(t.diameter(), Some(2));
    }

    #[test]
    fn edge_queries_agree_across_forms() {
        let mut overlay: Topology = generators::complete(5).into();
        let mut delta = TopologyDelta::new();
        delta.remove_edge(NodeId::new(1), NodeId::new(3));
        overlay.apply_delta(&delta);
        for t in [Topology::Clique(5), generators::complete(5).into(), overlay] {
            let removed = !t.has_edge(NodeId::new(3), NodeId::new(1));
            assert_eq!(t.edge_count(), 10 - usize::from(removed));
            assert_eq!(t.edge_count(), t.to_graph().edge_count());
            for (u, v) in [(0, 4), (4, 0), (2, 2), (1, 3)] {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                assert_eq!(t.has_edge(u, v), t.to_graph().has_edge(u, v), "{u}-{v}");
            }
        }
        assert_eq!(Topology::Clique(0).edge_count(), 0);
    }

    #[test]
    fn edge_edits_are_checked_in_order() {
        let t: Topology = generators::cycle(4).into();
        let id = NodeId::new;
        let add = |u, v| t.check_add_edge(id(u), id(v)).map_err(|e| e.to_string());
        let remove = |u, v| t.check_remove_edge(id(u), id(v)).map_err(|e| e.to_string());
        assert_eq!(add(0, 2), Ok(()));
        assert_eq!(remove(1, 0), Ok(()));
        // Range first (even on a self-loop), then the self-loop, then
        // the edge set.
        assert_eq!(
            add(9, 9),
            Err("node 9 out of range for graph with 4 nodes".to_owned())
        );
        assert_eq!(
            remove(0, 7).unwrap_err(),
            "node 7 out of range for graph with 4 nodes"
        );
        assert_eq!(add(2, 2).unwrap_err(), "self-loop at node 2");
        assert_eq!(add(1, 0).unwrap_err(), "duplicate edge (0, 1)");
        assert_eq!(remove(2, 0).unwrap_err(), "missing edge (0, 2)");
        let clique = Topology::Clique(3);
        assert!(clique.check_add_edge(id(0), id(1)).is_err());
        assert!(clique.check_remove_edge(id(2), id(0)).is_ok());
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn compute_heard_validates_lengths() {
        let t = Topology::Clique(3);
        let mut heard = [false; 2];
        t.compute_heard(&[false; 3], &mut heard);
    }
}
